"""Point force models, the charge rate and the segment closed form, used
by the tests.

The package integrates the drag polar in one closed form
(``vehicle._charge_drawn``) and writes the flight time ``seg.d / v``
inline. These helpers state each piece on its own: the polar, the climb
thrust, the point charge rate the replay oracle integrates, and the
three-term segment discharge in the segment's means, so the tests can check
the package's closed form against independent expressions. The paper's
mean-value-theorem check (``mvt_crosscheck``, criterion 7) lives here too.
"""

from dataclasses import replace

import numpy as np

from econclimb import (
    TROPOSPHERE,
    DegenerateSegmentError,
    DomainError,
    segment_discharge,
)
from econclimb.vehicle import _require_positive_speed


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
        raise DegenerateSegmentError("segment has zero length")
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
