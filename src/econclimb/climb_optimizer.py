"""Optimal constant-airspeed climb planning.

The planning problem: fly a straight climb segment of slant length d at one
airspeed v, chosen to minimize direct operating cost

    J(v) = tau (ci0 - ci_in) (1 - exp(-d / (tau v)))   # time cost, filtered CI
           + ci_in d / v                               # time cost, steady CI
           + Q0 - Q_f(v)                               # battery charge spent

where the cost index relaxes from ci0 toward the commanded ci_in with time
constant tau (``math.inf`` = constant-CI mode, collapsing the first two terms
to ci0 d / v). Q_f comes from the closed-form segment discharge in
``vehicle``. The constant-CI condition ci = v^2 (-dQf/dv) / d is stated once
each way round, in ``ci_for_speed`` and its inverse ``economy_speed``, and
every constant-CI airspeed comes from the latter's Newton iteration. Only
the filtered cost (finite tau) needs a search: bracketed root-finding on
dJ/dv over a gradient sign scan, with a positivity check on the second
derivative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .atmosphere import TROPOSPHERE, mean_density, mean_inverse_density
from .errors import (
    DegenerateSegmentError,
    DomainError,
    EnvelopeError,
    NoInteriorOptimumError,
    SaddlePointError,
)
from .vehicle import (
    _require_positive_speed,
    final_charge_sensitivity,
    segment_discharge,
)

#: Lowest airspeed an optimum may take.  [m s^-1]
_V_LO = 5.0

#: Points in the gradient sign scan used for bracket discovery.
_SCAN_POINTS = 50

#: Relative tolerance on v for the root polishes.
_RTOL = 1e-10

#: Iteration cap for the root polishes; both converge well inside it.
_MAXITER = 100


@dataclass(frozen=True)
class ClimbSegment:
    """One straight climb leg with its averaged atmosphere quantities.

    Attributes:
        start: (x, h) of the leg start  [m]
        end: (x, h) of the leg end  [m]
        h_dot_bar: mean climb rate over the leg  [m s^-1]
        rho_bar: mean air density over the climbed band  [kg m^-3]
        delta_rho_bar: mean inverse air density over the band  [m^3 kg^-1]
    """

    start: tuple[float, float]
    end: tuple[float, float]
    h_dot_bar: float
    rho_bar: float
    delta_rho_bar: float

    def __post_init__(self):
        object.__setattr__(self, "start", (float(self.start[0]), float(self.start[1])))
        object.__setattr__(self, "end", (float(self.end[0]), float(self.end[1])))
        if self.end[1] < self.start[1]:
            raise DomainError(
                f"segment must not descend: start h {self.start[1]!r}, "
                f"end h {self.end[1]!r}"
            )
        if self.h_dot_bar < 0.0:
            raise DomainError(f"h_dot_bar must be >= 0, got {self.h_dot_bar!r}")
        if not self.rho_bar > 0.0 or not self.delta_rho_bar > 0.0:
            raise DomainError("mean density quantities must be positive")

    @functools.cached_property
    def d(self):
        """Slant distance between the leg endpoints.  [m]"""
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])


def segment_between(start, end, h_dot_bar, atmo=TROPOSPHERE, grid_step=1.0,
                    density_band=None):
    """Build a ClimbSegment with density means computed from an atmosphere.

    Args:
        start: (x, h) leg start  [m]
        end: (x, h) leg end  [m]
        h_dot_bar: mean climb rate  [m s^-1]
        atmo: density model, default the troposphere power law.
        grid_step: altitude grid spacing for the means  [m]
        density_band: optional (h_lo, h_hi) overriding the altitude band the
            means are taken over. A re-plan triggered mid-climb keeps the
            whole climb's band here, so its mean densities stay those of the
            flight the averages were calibrated for.
    """
    band = density_band if density_band is not None else (start[1], end[1])
    return ClimbSegment(
        start=tuple(start),
        end=tuple(end),
        h_dot_bar=h_dot_bar,
        rho_bar=mean_density(atmo, band[0], band[1], grid_step),
        delta_rho_bar=mean_inverse_density(atmo, band[0], band[1], grid_step),
    )


@dataclass(frozen=True)
class ClimbPlan:
    """Planner output for one segment."""

    v_star: float  # [m s^-1]
    t_c_star: float  # [s]
    j_star: float  # [C]
    q_f: float | None  # [C]; None when no initial charge was given
    iterations: int  # Newton steps taken for v*; 0 when clipped to v_max
    at_envelope_limit: bool = False
    battery_depleted: bool = False


def _check_speed_and_tau(v, tau):
    _require_positive_speed(v)
    if not tau > 0.0:
        raise DomainError(f"tau must be positive or inf, got {tau!r}")


def total_cost(v, seg, ci0, ci_in, tau, q0, params):
    """Total cost J of flying the segment at constant airspeed v.  [C]"""
    _check_speed_and_tau(v, tau)
    d = seg.d
    q_f = q0 - segment_discharge(v, seg, params)
    if math.isinf(tau):
        return ci0 * d / v + q0 - q_f
    time_cost = tau * (ci0 - ci_in) * (-np.expm1(-d / (tau * v)))
    return time_cost + ci_in * d / v + q0 - q_f


def cost_gradient(v, seg, ci0, ci_in, tau, params):
    """dJ/dv; the root in v is the optimal climb airspeed."""
    _check_speed_and_tau(v, tau)
    d = seg.d
    v2 = v**2
    return (-(ci0 - ci_in) * d * np.exp(-d / (tau * v)) / v2
            - ci_in * d / v2
            - final_charge_sensitivity(v, seg, params))


def cost_curvature(v, seg, ci0, ci_in, tau, params):
    """d2J/dv2; positive at a gradient root confirms a minimum.

    Second derivative of total_cost:

        (ci0 - ci_in) d e^(-d/(tau v)) (2v - d/tau) / v^4
        + 2 ci_in d / v^3
        + (d / (eta U)) (2 W h_dot_bar / v^3 + rho_bar S cd0
                         + 12 cd2 W^2 delta_rho_bar / (S v^4))
    """
    _check_speed_and_tau(v, tau)
    d = seg.d
    w = params.weight
    s = params.wing_area
    filtered = ((ci0 - ci_in) * d * np.exp(-d / (tau * v))
                * (2.0 * v - d / tau) / v**4)
    steady = 2.0 * ci_in * d / v**3
    discharge = (d / (params.efficiency * params.voltage)) * (
        2.0 * w * seg.h_dot_bar / v**3
        + seg.rho_bar * s * params.cd0
        + 12.0 * params.cd2 * w**2 * seg.delta_rho_bar / (s * v**4)
    )
    return filtered + steady + discharge


@functools.lru_cache(maxsize=256)
def _scan_grid(v_max):
    """The read-only log-spaced grid of the gradient sign scan."""
    grid = np.geomspace(_V_LO, v_max, _SCAN_POINTS)
    grid.flags.writeable = False
    return grid


def _rtsafe(slope_and_curvature, lo, hi):
    """Root of f in [lo, hi] with f(lo) <= 0 <= f(hi), by safeguarded Newton.

    ``slope_and_curvature(x)`` returns (f(x), f'(x)) as floats. A Newton step
    is taken when it lands in the closed bracket and is at most half the step
    before last; otherwise the bracket, whose ends keep the signs of f(lo)
    and f(hi), is bisected (Numerical Recipes 9.4). Returns (root, steps).
    """
    x = 0.5 * (lo + hi)
    f, df = slope_and_curvature(x)
    dx_old = dx = hi - lo
    for iteration in range(1, _MAXITER + 1):
        if (((x - hi) * df - f) * ((x - lo) * df - f) <= 0.0
                and abs(2.0 * f) <= abs(dx_old * df)):
            dx_old, dx = dx, f / df
            x -= dx
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            x = lo + dx
        if abs(dx) <= _RTOL * x:
            break
        f, df = slope_and_curvature(x)
        if f < 0.0:
            lo = x
        else:
            hi = x
    return x, iteration


def solve_optimal_speed(seg, ci0, ci_in, tau, params, q0=None):
    """Find the cost-minimizing constant airspeed for one segment.

    At constant CI (tau = inf, or ci0 == ci_in for any tau) dJ/dv has the
    sign of the quartic that economy_speed solves, so v* is its Newton
    root. Otherwise the search scans gradient signs on a log-spaced grid
    over (5, v_max] m/s, polishes each descending-to-ascending crossing
    with a safeguarded Newton iteration on dJ/dv (using the analytic
    curvature), and keeps the candidate with the lowest cost. A gradient
    still negative at v_max means the unconstrained optimum sits outside
    the envelope; the plan then clips to v_max and flags it.

    Args:
        seg: ClimbSegment to fly.
        ci0: cost index at segment start  [C s^-1]
        ci_in: commanded cost index  [C s^-1]
        tau: filter time constant  [s], math.inf for constant CI.
        params: AircraftParams.
        q0: optional charge at segment start [C]; enables q_f and the
            depletion flag on the returned plan.

    Raises:
        NoInteriorOptimumError: the optimum lies below 5 m/s, or the
            gradient has no usable sign change and is not negative at v_max.
        SaddlePointError: a stationary point fails the curvature check.
    """
    if seg.d <= 0.0:
        raise DegenerateSegmentError("segment has zero length")
    if ci0 < 0.0 or ci_in < 0.0:
        raise DomainError("cost-index values must be >= 0")
    if not _V_LO < params.v_max:
        raise DomainError(
            f"need v_max > {_V_LO:g} m/s, got v_max={params.v_max!r}"
        )

    if math.isinf(tau) or ci0 == ci_in:
        # The CI cannot move, so J = ci0 d / v + Q0 - Qf for any tau: convex,
        # so the quartic's root is the optimum whenever it lies in the
        # envelope, i.e. whenever ci0 is at most the ceiling calibrate_ci_max
        # computes (at ci0 equal to it the quartic at v_max is zero up to
        # rounding, so its sign cannot tell).
        v, steps = _economy_newton(seg, ci0, params)
        clipped = ci0 > ci_for_speed(seg, params.v_max, params)
        if not clipped and v >= _V_LO:
            return _assemble_plan(float(v), seg, ci0, ci_in, tau, params, q0,
                                  iterations=steps, at_envelope_limit=False)
        grad = cost_gradient(np.array([_V_LO, params.v_max]), seg, ci0, ci_in,
                             tau, params)
    else:
        grid = _scan_grid(params.v_max)
        grad = cost_gradient(grid, seg, ci0, ci_in, tau, params)

        def slope_and_curvature(v):
            return (float(cost_gradient(v, seg, ci0, ci_in, tau, params)),
                    float(cost_curvature(v, seg, ci0, ci_in, tau, params)))

        candidates = [
            _rtsafe(slope_and_curvature, float(grid[i]), float(grid[i + 1]))
            for i in np.flatnonzero((grad[:-1] <= 0.0) & (grad[1:] >= 0.0))
        ]
        if candidates:
            best_v, best_iters = min(
                candidates,
                key=lambda c: total_cost(c[0], seg, ci0, ci_in, tau, 0.0,
                                         params),
            )
            curvature = cost_curvature(best_v, seg, ci0, ci_in, tau, params)
            if not curvature > 0.0:
                raise SaddlePointError(
                    f"stationary point at v={best_v:.6g} m/s has non-positive "
                    f"curvature {curvature:.6g}"
                )
            return _assemble_plan(best_v, seg, ci0, ci_in, tau, params, q0,
                                  iterations=best_iters,
                                  at_envelope_limit=False)
        clipped = grad[-1] < 0.0

    if clipped:
        # Cost still falling at the envelope edge: clipped optimum.
        return _assemble_plan(params.v_max, seg, ci0, ci_in, tau, params, q0,
                              iterations=0, at_envelope_limit=True)
    raise NoInteriorOptimumError(
        "cost gradient has no descending-to-ascending sign change in "
        f"({_V_LO:g}, {params.v_max:g}] m/s",
        grad_lo=float(grad[0]), grad_hi=float(grad[-1]),
    )


def _assemble_plan(v_star, seg, ci0, ci_in, tau, params, q0, iterations,
                   at_envelope_limit):
    j_star = total_cost(v_star, seg, ci0, ci_in, tau, q0 if q0 is not None else 0.0,
                        params)
    q_f = None if q0 is None else q0 - segment_discharge(v_star, seg, params)
    return ClimbPlan(
        v_star=v_star,
        t_c_star=seg.d / v_star,
        j_star=float(j_star),
        q_f=q_f,
        iterations=iterations,
        at_envelope_limit=at_envelope_limit,
        battery_depleted=bool(q_f is not None and q_f < 0.0),
    )


def fms_initial_speed(seg, ci0, params, q0=None):
    """Pre-departure speed choice: the constant-CI special case.

    Solves -ci0 d / v^2 - dQf/dv = 0, which is solve_optimal_speed with the
    infinite-tau cost (the commanded value never deviates from ci0).
    """
    return solve_optimal_speed(seg, ci0, ci0, math.inf, params, q0=q0)


def ci_for_speed(seg, v, params):
    """Constant cost index whose optimal airspeed on the segment is v.

    Solves the constant-CI optimality condition -ci d / v^2 - dQf/dv = 0 for
    ci = v^2 (-dQf/dv) / d  [C s^-1]; negative below best-economy speed.
    """
    return v**2 * (-final_charge_sensitivity(v, seg, params)) / seg.d


def economy_speed(seg, ci, params):
    """Constant-CI optimal airspeed for each cost index in ci.  [m s^-1]

    Inverts ci_for_speed. Multiplied out, its condition is the quartic
    A v^4 - R v - B = 0 with A = rho_bar S cd0, B = 4 cd2 W^2 delta_rho_bar / S
    and R = ci eta U + W h_dot_bar, convex for v > 0 with one positive root.
    Newton's method from v_max falls monotonically onto that root where the
    quartic is >= 0 at v_max; elsewhere the optimum lies beyond the envelope
    and the speed is exactly v_max.
    """
    return _economy_newton(seg, ci, params)[0]


def _economy_newton(seg, ci, params):
    """economy_speed's Newton iteration: (speeds, steps taken). The
    quartic, times d / (eta U v^3), is the constant-CI dJ/dv."""
    w = params.weight
    s = params.wing_area
    a = seg.rho_bar * s * params.cd0
    b = 4.0 * params.cd2 * w**2 * seg.delta_rho_bar / s
    r = np.asarray(ci, dtype=float) * params.efficiency * params.voltage \
        + w * seg.h_dot_bar
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


def calibrate_ci_max(params, seg):
    """Cost-index ceiling implied by the airspeed envelope.

    Returns the constant CI whose optimal airspeed is exactly v_max: the
    ceiling anchored to v_max at fraction 1.
    """
    return calibrate_ci_max_to_speed(params, seg, params.v_max, 1.0)


def calibrate_ci_max_to_speed(params, seg, v_ref, ci0_fraction):
    """Cost-index ceiling anchored to a known-good initial climb speed.

    Picks ci_max such that planning with ci0 = ci0_fraction * ci_max yields
    v_ref as the constant-CI optimum, i.e. ci_for_speed at v_ref divided by
    the fraction; the constant-CI optimal speed is strictly increasing in
    CI, so the anchoring is exact.

    Args:
        params: AircraftParams.
        seg: segment the reference speed belongs to.
        v_ref: reference optimal airspeed  [m s^-1]
        ci0_fraction: fraction of ci_max that reproduces v_ref, in (0, 1].
    """
    if seg.d <= 0.0:
        raise DegenerateSegmentError("segment has zero length")
    if not 0.0 < ci0_fraction <= 1.0:
        raise DomainError(
            f"ci0_fraction must lie in (0, 1], got {ci0_fraction!r}"
        )
    if not 0.0 < v_ref <= params.v_max:
        raise DomainError(
            f"v_ref must lie in (0, v_max={params.v_max:g}], got {v_ref!r}"
        )
    ci = ci_for_speed(seg, v_ref, params) / ci0_fraction
    if not ci > 0.0:
        raise EnvelopeError(
            f"calibration gave non-positive ci_max {ci:.6g}; {v_ref:g} m/s "
            "sits below the segment's best-economy speed"
        )
    if math.isinf(ci):
        raise EnvelopeError(f"calibration gave ci_max inf: "
                            f"ci0_fraction {ci0_fraction!r} is too small")
    return float(ci)
