"""Point force models and the flight time of a segment, used by the tests.

The package expands the same drag polar inside ``vehicle.charge_rate`` and
writes the flight time ``seg.d / v`` inline; these helpers state each on
its own so the tests can check the polar and the kinematics directly.
"""

import numpy as np

from econclimb import DegenerateSegmentError, DomainError
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
