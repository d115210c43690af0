"""Point force models, the charge rate and the segment closed form, used
by the tests.

The package integrates the drag polar in one closed form
(``vehicle._charge_drawn``) and writes the flight time ``seg.d / v``
inline. These helpers state each piece on its own: the polar, the climb
thrust, the point charge rate the replay oracle integrates, and the
three-term segment discharge in the segment's means, so the tests can check
the package's closed form against independent expressions. The paper's
speed derivatives live here too: dQf/dv (``final_charge_sensitivity``) and
d2J/dv2 (``cost_curvature``). The package does not state them: its solver
roots the gap g, dJ/dv = (d / v^2) g, and d2J/dv2 = (d / v^2) g' at a
rising root. The paper's mean-value-theorem check (``mvt_crosscheck``,
criterion 7) lives here as well, and so does the gradient sign scan
(``scan_optimal_speed``) that once found the filtered-CI optimum, as the
reference for the bracketed root.
"""

from dataclasses import replace

import numpy as np

from econclimb import (
    TROPOSPHERE,
    DomainError,
    EnvelopeError,
    ci_at,
    cost_gradient,
    segment_discharge,
    total_cost,
)
from econclimb.climb_optimizer import _V_LO, _check_speed_and_tau, _rtsafe
from econclimb.vehicle import _polar, _require_positive_speed


def drag(v, rho, params):
    """Drag force from the polar: parasitic + induced term.

    D = 1/2 rho S cd0 v^2 + 2 cd2 W^2 / (rho S v^2)
    """
    _require_positive_speed(v)
    if (np.asarray(rho) <= 0.0).any():
        raise DomainError(f"density must be positive, got {rho!r}")
    w = params.weight
    s = params.wing_area
    return (0.5 * rho * s * params.cd0 * v**2
            + 2.0 * params.cd2 * w**2 / (rho * s * v**2))


def thrust_for_climb(v, h_dot, rho, params):
    """Thrust needed to hold airspeed v at climb rate h_dot.

    T = W h_dot / v + D(v, rho); level flight (h_dot = 0) reduces to drag.
    """
    _require_positive_speed(v)
    return params.weight * h_dot / v + drag(v, rho, params)


def climbing_time(v, seg):
    """Time to fly the whole segment at constant airspeed v.  [s]"""
    _require_positive_speed(v)
    if seg.d <= 0.0:
        raise DomainError("segment has zero length")
    return seg.d / v


def charge_rate(v, h_dot, rho, params):
    """Battery charge rate while flying (v, h_dot) at density rho.

    Expanded form of -T v / (eta U); negative while discharging.  [C s^-1]
    """
    _require_positive_speed(v)
    if (np.asarray(rho) <= 0.0).any():
        raise DomainError(f"density must be positive, got {rho!r}")
    w = params.weight
    s = params.wing_area
    power_terms = (w * h_dot
                   + 0.5 * rho * s * params.cd0 * v**3
                   + 2.0 * params.cd2 * w**2 / (rho * s * v))
    return -power_terms / (params.efficiency * params.voltage)


def segment_discharge_terms(v, seg, params):
    """Charge drawn over a whole segment at constant airspeed v, written as
    d / (eta U) times the three mean power-per-speed terms.  [C]

    (d / (eta U)) (W h_dot_bar / v + rho_bar S cd0 v^2 / 2
                   + 2 cd2 W^2 delta_rho_bar / (S v^2))
    """
    _require_positive_speed(v)
    w = params.weight
    s = params.wing_area
    return (seg.d / (params.efficiency * params.voltage)) * (
        w * seg.h_dot_bar / v
        + seg.rho_bar * s * params.cd0 * v**2 / 2.0
        + 2.0 * params.cd2 * w**2 * seg.delta_rho_bar / (s * v**2)
    )


def final_charge_sensitivity(v, seg, params):
    """Analytic derivative of the final charge Q0 - segment_discharge with
    respect to airspeed.

    dQf/dv = -(d / (eta U)) * (A v - C / v^2 - B / v^3)
    """
    _require_positive_speed(v)
    a, b, climb = _polar(seg, params)
    return -(seg.d / (params.efficiency * params.voltage)) * (
        a * v - climb / v**2 - b / v**3)


def cost_curvature(v, seg, ci0, ci_in, tau, params):
    """d2J/dv2; positive at a gradient root confirms a minimum.

    Second derivative of total_cost, with c = ci_at(d / v) and _polar's A, B, C:

        (2 c - (c - ci_in) d / (tau v)) d / v^3
        + (d / (eta U)) (A + 2 C / v^3 + 3 B / v^4)
    """
    _check_speed_and_tau(v, tau)
    d = seg.d
    a, b, climb = _polar(seg, params)
    ci = ci_at(d / v, ci0, ci_in, tau)
    time = (2.0 * ci - (ci - ci_in) * d / (tau * v)) * d / v**3
    discharge = (d / (params.efficiency * params.voltage)) * (
        a + 2.0 * climb / v**3 + 3.0 * b / v**4)
    return time + discharge


def mvt_crosscheck(seg, v, params, atmo=TROPOSPHERE):
    """Relative gap between closed-form and integrated segment discharge.

    The closed form replaces the time integrals of density (and inverse
    density) along the climb with altitude-band means. This check flies the
    same climb exactly: altitude sweeps the segment's band linearly over the
    flight time d/v while the climb-power term keeps the segment's mean
    climb rate, so the time means of rho and 1/rho are the band integrals
    over the band's height. Returns |closed - integrated| / |integrated|.

    Meaningful only when the segment's density means belong to its own
    altitude band (the default in segment_between).
    """
    h0, hc = seg.start[1], seg.end[1]
    rho_mean, inv_mean = (atmo.band_integral(h0, hc, p) / (hc - h0) if hc > h0
                          else atmo.density(h0) ** p for p in (1, -1))
    flown = replace(seg, rho_bar=rho_mean, delta_rho_bar=inv_mean)
    discharge_num = segment_discharge(v, flown, params)
    discharge_closed = segment_discharge(v, seg, params)
    return abs(discharge_closed - discharge_num) / abs(discharge_num)


def scan_optimal_speed(seg, ci0, ci_in, tau, params):
    """The filtered-CI optimum found by a gradient sign scan: (v*, clipped).

    Scans dJ/dv on a log-spaced grid of 50 speeds over [5 m/s, v_max],
    polishes each descending-to-ascending crossing with the package's
    safeguarded Newton iteration on (dJ/dv, d2J/dv2), and keeps the
    crossing of lowest cost. With no crossing, a gradient still
    negative at v_max clips to v_max; otherwise it raises EnvelopeError,
    with the gradients at the grid ends as its grad_lo and grad_hi.
    """
    grid = np.geomspace(_V_LO, params.v_max, 50)
    grad = cost_gradient(grid, seg, ci0, ci_in, tau, params)

    def slope_and_curvature(v):
        return (float(cost_gradient(v, seg, ci0, ci_in, tau, params)),
                float(cost_curvature(v, seg, ci0, ci_in, tau, params)))

    candidates = [
        _rtsafe(slope_and_curvature, float(grid[i]), float(grid[i + 1]))[0]
        for i in np.flatnonzero((grad[:-1] <= 0.0) & (grad[1:] >= 0.0))
    ]
    if candidates:
        return min(candidates, key=lambda v: total_cost(
            v, seg, ci0, ci_in, tau, 0.0, params)), False
    if grad[-1] < 0.0:
        return params.v_max, True
    floor = EnvelopeError("no sign change in the scan")
    floor.grad_lo, floor.grad_hi = float(grad[0]), float(grad[-1])
    raise floor
