"""Numerical reference for the cost-index filter, used by the tests."""

import math

from econclimb import DomainError, ci_at


def ci_ode_check(ci_start, ci_in, tau, horizon):
    """Max deviation between the analytic filter response and an RK4 replay.

    Integrates tau * dCI/dt = -CI + CI_in with classical fourth-order
    Runge-Kutta at fixed step tau/100 over [0, horizon] and returns
    max |numeric - analytic| across the steps. Infinite tau is an exact
    constant in both views, so the deviation is zero by construction.
    """
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon!r}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive or inf, got {tau!r}")
    if math.isinf(tau):
        return 0.0

    def rhs(ci):
        return (-ci + ci_in) / tau

    step = tau / 100.0
    n_steps = int(math.ceil(horizon / step))
    ci_num = ci_start
    worst = 0.0
    t = 0.0
    for _ in range(n_steps):
        dt = min(step, horizon - t)
        k1 = rhs(ci_num)
        k2 = rhs(ci_num + 0.5 * dt * k1)
        k3 = rhs(ci_num + 0.5 * dt * k2)
        k4 = rhs(ci_num + dt * k3)
        ci_num += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        worst = max(worst, abs(ci_num - ci_at(t, ci_start, ci_in, tau)))
    return worst
