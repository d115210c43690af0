"""The scalar kernels as they ran on 0-d NumPy arrays and NumPy scalars,
used by the tests.

``climb_optimizer`` now runs a single solve on Python floats and keeps
NumPy only where its bits define the result (``np.power`` at v_max in the
Newton's first step, ``np.expm1`` in the cost-index filter). These are the
earlier forms, copied unchanged, so that a test can compare raw bits and
Newton step counts against them: ``economy_newton`` (a scalar CI enters as
a 0-d array), the float branch of ``ci_at`` and the float branch of
``total_cost``.
"""

import functools

import numpy as np

from econclimb.climb_optimizer import _MAXITER, _PHI_TAYLOR, _RTOL
from econclimb.vehicle import _polar, segment_discharge


def economy_newton(seg, ci, params):
    """economy_speed's array Newton iteration: (speeds, steps taken). The
    quartic, times d / (eta U v^3), is the constant-CI dJ/dv."""
    a, b, climb = _polar(seg, params)
    r = np.asarray(ci, dtype=float) * params.efficiency * params.voltage + climb
    v = np.full_like(r, params.v_max)
    inside = a * v**4 - r * v - b >= 0.0
    step = np.zeros_like(v)  # stays zero where ~inside: those keep v_max
    for steps in range(1, _MAXITER + 1):
        np.divide(a * v**4 - r * v - b, 4.0 * a * v**3 - r, out=step,
                  where=inside)
        v = v - step
        if (np.abs(step) <= _RTOL * v).all():
            break
    return v, steps


def ci_at(t, ci_start, ci_in, tau):
    """The float branch of the filtered cost index (t a float)."""
    s = t
    out = ci_start + (ci_in - ci_start) * -np.expm1(-s / tau)
    return out if isinstance(out, np.ndarray) else float(out)


def total_cost(v, seg, ci0, ci_in, tau, q0, params):
    """The float branch of the total cost J (v a float)."""
    t = seg.d / v
    q_f = q0 - segment_discharge(v, seg, params)
    x = t / tau
    phi = (functools.reduce(lambda s, c: (s + c) * x, _PHI_TAYLOR, 0.0)
           if x < 0.1 else 1.0 + np.expm1(-x) / x)
    psi = 1.0 - phi if x < 0.1 else -np.expm1(-x) / x
    return t * (ci0 * psi + ci_in * phi) + q0 - q_f

