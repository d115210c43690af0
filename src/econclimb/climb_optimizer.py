"""Optimal constant-airspeed climb planning.

The planning problem: fly a straight climb segment of slant length d at one
airspeed v, chosen to minimize direct operating cost

    J(v) = tau (ci0 - ci_in) (1 - exp(-d / (tau v)))   # time cost, filtered CI
           + ci_in d / v                               # time cost, steady CI
           + Q0 - Q_f(v)                               # battery charge spent

where the cost index relaxes from ci0 toward the commanded ci_in with time
constant tau (``math.inf`` = constant-CI mode, collapsing the first two
terms to ci0 d / v). Q_f and its speed derivatives come from the drag
polar's (A, B, C) that ``vehicle._polar`` states once. The constant-CI
condition ci = v^2 (-dQf/dv) / d is stated once each way round, in
``ci_for_speed`` and its inverse ``economy_speed``, whose Newton iteration
gives every constant-CI airspeed. With a filtered CI,
dJ/dv = (d / v^2) (ci_for_speed(v) - ci_at(d / v)): v* is the constant-CI
economy speed of the CI in force at arrival, a bracketed root on
[5 m/s, v_max] (on either piece of it, for a falling CI that makes dJ/dv dip
twice). There g rises through zero, so d2J/dv2 = (d / v^2) g' is >= 0 and
the root is a minimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .atmosphere import TROPOSPHERE, mean_density
from .cost_index import ci_at
from .errors import DomainError, EnvelopeError
from .vehicle import _polar, _require_positive_speed, segment_discharge

#: Lowest airspeed an optimum may take.  [m s^-1]
_V_LO = 5.0

#: Relative tolerance on v for the root solves.
_RTOL = 1e-10

#: Iteration cap for the root solves; both converge well inside it.
_MAXITER = 100

#: Taylor coefficients of phi(x) / x = x / 2 - x^2 / 6 + ..., highest first.
_PHI_TAYLOR = [(-1) ** k / math.factorial(k + 2) for k in range(9, -1, -1)]


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
        if not all(map(math.isfinite, (*self.start, *self.end, self.h_dot_bar,
                                       self.rho_bar, self.delta_rho_bar))):
            raise DomainError(f"segment values must be finite, got {self!r}")
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
            means are taken over, default (start h, end h). Passing the
            whole climb's band for a leg that starts mid-climb gives it the
            means ``run_scenario`` flies every leg with.
    """
    band = density_band if density_band is not None else (start[1], end[1])
    rho_bar, inv_bar = mean_density(atmo, band[0], band[1], grid_step)
    return ClimbSegment(tuple(start), tuple(end), h_dot_bar, rho_bar, inv_bar)


@dataclass(frozen=True)
class ClimbPlan:
    """Planner output for one segment."""

    v_star: float  # [m s^-1]
    t_c_star: float  # [s]
    j_star: float  # [C]; the charge term is the charge drawn, Q0 - Q_f
    iterations: int  # Newton (filtered CI: _rtsafe) steps; 0 when clipped
    at_envelope_limit: bool = False


def _check_speed_and_tau(v, tau):
    _require_positive_speed(v)
    if not tau > 0.0:
        raise DomainError(f"tau must be positive or inf, got {tau!r}")


def total_cost(v, seg, ci0, ci_in, tau, q0, params):
    """Total cost J of flying the segment at constant airspeed v.  [C]

    With t = d / v, x = t / tau, psi = 1 - exp(-x) and phi = x - psi, the
    time cost is t (ci0 psi / x + ci_in phi / x), two terms >= 0 that cannot
    cancel; below x = 0.1, phi / x is summed from ten Taylor terms. At
    infinite tau, x is 0 and the time cost is ci0 t.
    """
    _check_speed_and_tau(v, tau)
    t = seg.d / v
    q_f = q0 - segment_discharge(v, seg, params)
    x = t / tau
    if isinstance(x, float) and x >= 0.1:  # no array round trip for a float
        e = float(np.expm1(-x))  # psi / x = -e / x, phi / x = 1 + e / x
        return t * (ci0 * (-e / x) + ci_in * (1.0 + e / x)) + q0 - q_f
    near = x if isinstance(x, float) else np.minimum(x, 0.1)
    phi = 0.0
    for c in _PHI_TAYLOR:  # Horner's rule, kept below x = 0.1
        phi = (phi + c) * near
    if isinstance(x, float):
        psi = 1.0 - phi
    else:  # each form only where it holds: no overflow, no 0 / 0
        psi = np.where(x < 0.1, 1.0 - phi, -np.expm1(-x) / np.maximum(x, 0.1))
        phi = np.where(x < 0.1, phi, 1.0 - psi)
    return t * (ci0 * psi + ci_in * phi) + q0 - q_f


def cost_gradient(v, seg, ci0, ci_in, tau, params):
    """dJ/dv = (d / v^2) g(v), with g(v) = ci_for_speed(v) - ci_at(d / v)
    the gap whose rising root is the optimal climb airspeed."""
    _check_speed_and_tau(v, tau)
    d = seg.d
    return d / v**2 * (ci_for_speed(seg, v, params)
                       - ci_at(d / v, ci0, ci_in, tau))


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


def solve_optimal_speed(seg, ci0, ci_in, tau, params):
    """Find the cost-minimizing constant airspeed for one segment.

    At constant CI (tau = inf, or ci0 == ci_in for any tau) dJ/dv has the
    sign of economy_speed's quartic in the polar's (A, B, C), so v* is its
    Newton root. Otherwise dJ/dv has the sign of
    g(v) = ci_for_speed(v) - ci_at(d / v, ci0, ci_in, tau), and v* is where
    g rises through zero in [5 m/s, v_max], found by a safeguarded Newton
    iteration with g's analytic slope (a falling CI can give two such
    roots; the cheaper flies). No curvature check is needed: at a root
    where g rises, d2J/dv2 = (d / v^2) g'(v*) >= 0. A gradient
    still negative at v_max means the unconstrained optimum sits outside
    the envelope; the plan then clips to v_max and flags it. J* counts
    the charge drawn, Q0 - Q_f, and no plan depends on Q0.

    Args:
        seg: ClimbSegment to fly.
        ci0: cost index at segment start  [C s^-1]
        ci_in: commanded cost index  [C s^-1]
        tau: filter time constant  [s], math.inf for constant CI.
        params: AircraftParams.

    Raises:
        DomainError: a segment of zero length, a cost index that is not
            finite and >= 0, a tau that is not positive, or v_max <= 5 m/s.
        EnvelopeError: g rises through zero nowhere and is not negative
            at v_max, so the optimum lies below 5 m/s.
    """
    if seg.d <= 0.0:
        raise DomainError("segment has zero length")
    if not (0.0 <= ci0 < math.inf and 0.0 <= ci_in < math.inf):
        raise DomainError(f"cost-index values must be finite and >= 0, "
                          f"got ci0={ci0!r}, ci_in={ci_in!r}")
    # tau before the constant-CI switch, which replaces it by inf
    _check_speed_and_tau(params.v_max, tau)
    if not _V_LO < params.v_max:
        raise DomainError(
            f"need v_max > {_V_LO:g} m/s, got v_max={params.v_max!r}"
        )

    if math.isinf(tau) or ci0 == ci_in:
        # The CI cannot move, so J = ci0 d / v + Q0 - Qf for any tau (the
        # plan states it at tau = inf): convex, so the quartic's root is the
        # optimum whenever it lies in the envelope, i.e. whenever ci0 is at
        # most the v_max ceiling (at ci0 equal to it the quartic at v_max is
        # zero up to rounding, so its sign cannot tell).
        tau = math.inf
        # Before the Newton: its Python-float ** raises where NumPy's warns.
        clipped = ci0 > ci_for_speed(seg, params.v_max, params)
        v, steps = economy_speed(seg, ci0, params)
        if not clipped and v >= _V_LO:
            return _assemble_plan(float(v), seg, ci0, ci_in, tau, params, steps)
    else:
        roots, gap = _arrival_roots(seg, ci0, ci_in, tau, params)
        if roots:
            return min((_assemble_plan(v, seg, ci0, ci_in, tau, params, steps)
                        for v, steps in roots), key=lambda plan: plan.j_star)
        clipped = gap(params.v_max)[0] < 0.0

    if clipped:
        # Cost still falling at the envelope edge: clipped optimum.
        return _assemble_plan(params.v_max, seg, ci0, ci_in, tau, params,
                              iterations=0, at_envelope_limit=True)
    raise EnvelopeError(
        "cost gradient has no descending-to-ascending sign change in "
        f"({_V_LO:g}, {params.v_max:g}] m/s")


def _arrival_roots(seg, ci0, ci_in, tau, params):
    """The roots (v, steps) where g rises through zero in [5, v_max] m/s,
    and g with its slope.

    In the polar's (A, B, C), with k = d / tau and c = ci_at(d / v),

        g(v) = (A v^3 - C - B / v) / (eta U) - c
        v^2 g'(v) = (3 A v^4 + B) / (eta U) - k (c - ci_in),

    positive for a rising CI. For a falling one the log of the ratio of
    the last two terms is convex in k / v and least at the root of
    12 A v^5 = k (3 A v^4 + B), so g falls on one interval (v_p, v_q) at
    most, and each piece either side holds one root at most.
    """
    a, b, climb = (float(c) for c in _polar(seg, params))
    eu = params.efficiency * params.voltage
    d = seg.d
    k = d / tau

    def gap(v):
        ci = ci_at(d / v, ci0, ci_in, tau)
        return ((a * v**3 - climb - b / v) / eu - ci,
                (3.0 * a * v**2 + b / v**2) / eu - (ci - ci_in) * k / v**2)

    def rise(v):  # v^2 g'(v), and its slope
        pull = (ci_at(d / v, ci0, ci_in, tau) - ci_in) * k
        return ((3.0 * a * v**4 + b) / eu - pull,
                12.0 * a * v**3 / eu - pull * k / v**2)

    def turn(v):  # has the sign of that log ratio's slope
        return (12.0 * a * v**5 - k * (3.0 * a * v**4 + b),
                12.0 * a * v**3 * (5.0 * v - k))

    lo, hi = _V_LO, params.v_max
    pieces = [(lo, hi)]
    if ci0 > ci_in:
        mid = (lo if turn(lo)[0] >= 0.0 else hi if turn(hi)[0] <= 0.0
               else _rtsafe(turn, lo, hi)[0])
        if rise(mid)[0] < 0.0:
            v_p = lo if rise(lo)[0] <= 0.0 else _rtsafe(
                lambda v: [-f for f in rise(v)], lo, mid)[0]
            v_q = hi if rise(hi)[0] <= 0.0 else _rtsafe(rise, mid, hi)[0]
            pieces = [(lo, v_p), (v_q, hi)]
    roots = [_rtsafe(gap, start, end) for start, end in pieces
             if gap(start)[0] < 0.0 <= gap(end)[0]]
    return roots, gap


def _assemble_plan(v_star, seg, ci0, ci_in, tau, params, iterations,
                   at_envelope_limit=False):
    return ClimbPlan(
        v_star=v_star,
        t_c_star=seg.d / v_star,
        j_star=float(total_cost(v_star, seg, ci0, ci_in, tau, 0.0, params)),
        iterations=iterations,
        at_envelope_limit=at_envelope_limit,
    )


def ci_for_speed(seg, v, params):
    """Constant cost index whose optimal airspeed on the segment is v.

    Solves the constant-CI optimality condition -ci d / v^2 - dQf/dv = 0,
    with dQf/dv = -(d / (eta U)) (A v - C / v^2 - B / v^3) in the polar's
    (A, B, C), for ci  [C s^-1]; negative below best-economy speed.
    """
    a, b, climb = _polar(seg, params)
    # Not (A v^3 - C - B / v): where v^2 underflows, this form divides by
    # zero and reports the float range instead of a finite wrong ceiling.
    return v**2 * (a * v - climb / v**2 - b / v**3) / (
        params.efficiency * params.voltage)


def economy_speed(seg, ci, params):
    """Constant-CI optimal airspeed for each cost index in ci, and the
    Newton steps taken: (speeds [m s^-1], steps).

    Inverts ci_for_speed. Multiplied out, its condition is the quartic
    A v^4 - R v - B = 0 in the polar's (A, B, C), with R = ci eta U + C,
    convex for v > 0 with one positive root; times d / (eta U v^3) it is
    the constant-CI dJ/dv. Newton's method from v_max falls monotonically
    onto that root where the quartic is >= 0 at v_max; elsewhere the
    optimum lies past the envelope and the speed is exactly v_max.

    One Python float CI runs a float loop: ~3 us against ~25 us a solve (2
    x86 vCPUs), same bits (np.power's v_max**3 and v_max**4 set the sign at
    the ceiling CI; later, libm's pow, as for NumPy scalars). Arrays, and a
    first step past the float range (NumPy flags it), use the array loop.
    """
    a, b, climb = map(float, _polar(seg, params))
    if type(ci) is float:
        r, v = ci * params.efficiency * params.voltage + climb, params.v_max
        v3, v4 = np.power(v, (3, 4)).tolist()
        f, df = a * v4 - r * v - b, 4.0 * a * v3 - r
        if math.isfinite(f) and math.isfinite(df) and (f < 0.0 or df > 0.0):
            inside = f >= 0.0
            for steps in range(1, _MAXITER + 1):
                step = f / df if inside else 0.0
                v -= step
                if abs(step) <= _RTOL * v:
                    break
                f, df = a * v**4 - r * v - b, 4.0 * a * v**3 - r
            if math.isfinite(v):
                return v, steps
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


def calibrate_ci_max_to_speed(params, seg, v_ref, ci0_fraction):
    """Cost-index ceiling anchored to a known-good initial climb speed.

    Picks ci_max such that planning with ci0 = ci0_fraction * ci_max yields
    v_ref as the constant-CI optimum, i.e. ci_for_speed at v_ref divided by
    the fraction; the constant-CI optimal speed is strictly increasing in
    CI, so the anchoring is exact. At v_ref = v_max and fraction 1 it is
    the ceiling the airspeed envelope implies.

    Args:
        params: AircraftParams.
        seg: segment the reference speed belongs to.
        v_ref: reference optimal airspeed  [m s^-1]
        ci0_fraction: fraction of ci_max that reproduces v_ref, in (0, 1].

    Raises:
        DomainError: a zero-length segment, or an argument out of range.
        ArithmeticError: ci_for_speed at v_ref leaves the float range.
        EnvelopeError: v_ref lies below the best-economy speed, or the
            fraction divides a finite ceiling past the float range.
    """
    if seg.d <= 0.0:
        raise DomainError("segment has zero length")
    if not 0.0 < ci0_fraction <= 1.0:
        raise DomainError(
            f"ci0_fraction must lie in (0, 1], got {ci0_fraction!r}"
        )
    if not 0.0 < v_ref <= params.v_max:
        raise DomainError(
            f"v_ref must lie in (0, v_max={params.v_max:g}], got {v_ref!r}"
        )
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        # on a NumPy float, which raises where a Python float carries inf
        ceiling = float(ci_for_speed(seg, np.float64(v_ref), params))
    ci = ceiling / ci0_fraction
    if not ci > 0.0:
        raise EnvelopeError(
            f"calibration gave non-positive ci_max {ci:.6g}; {v_ref:g} m/s "
            "sits below the segment's best-economy speed"
        )
    if math.isinf(ci):
        raise EnvelopeError(f"calibration gave an infinite ci_max: "
                            f"ci0_fraction {ci0_fraction!r} is too small")
    return float(ci)
