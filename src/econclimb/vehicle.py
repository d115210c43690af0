"""Aircraft force model and battery charge accounting.

Forces follow a symmetric drag polar; required climb thrust balances drag
plus the weight component along the climb path under small-angle kinematics.
With a constant-voltage battery, charge drains at

    Qdot = -T * v / (eta * U)

At constant airspeed v the thrust power integrates in closed form: a climb
of dh over which the time integrals of rho and 1/rho are I and J draws

    (W dh + S cd0 v^3 I / 2 + 2 cd2 W^2 J / (S v)) / (eta U)

of charge. A whole segment flown at v for t = d / v at mean climb rate
h_dot_bar takes dh = h_dot_bar t, I = rho_bar t and J = delta_rho_bar t,
so, with the polar's coefficients A = rho_bar S cd0,
B = 4 cd2 W^2 delta_rho_bar / S and C = W h_dot_bar, its end-of-climb charge is

    Q_f = Q0 - (d / (eta U)) * (C / v + A v^2 / 2 + B / (2 v^2))

Unit note: the cost-index bookkeeping elsewhere in this package is carried
in the same unit as Qdot, namely C/s. A cost index expressed in kJ/s
converts as  CI[kJ/s] = CI[C/s] * U / 1000  at constant battery voltage U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

STANDARD_GRAVITY = 9.80665  # [m s^-2]


@dataclass(frozen=True)
class AircraftParams:
    """Fixed airframe and powertrain constants.

    Attributes:
        wing_area: reference wing area  [m^2]
        mass: total aircraft mass  [kg]
        cd0: zero-lift drag coefficient  [-]
        cd2: induced drag coefficient  [-]
        v_max: maximum operating airspeed  [m s^-1]
        voltage: battery system voltage  [V]
        efficiency: overall electrical efficiency  [-]
        gravity: gravitational acceleration  [m s^-2]
    """

    wing_area: float
    mass: float
    cd0: float
    cd2: float
    v_max: float
    voltage: float
    efficiency: float
    gravity: float = STANDARD_GRAVITY

    def __post_init__(self):
        for name in ("wing_area", "mass", "cd0", "cd2", "v_max", "voltage",
                     "gravity"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise DomainError(
                    f"{name} must be positive and finite, got {value!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise DomainError(
                f"efficiency must lie in (0, 1], got {self.efficiency!r}"
            )

    @property
    def weight(self):
        """Aircraft weight mass * g.  [N]"""
        return self.mass * self.gravity


def _require_positive_speed(v):
    """Raise DomainError unless every airspeed in v is > 0 (NaN passes).

    A float (np.float64 included) is compared directly, so the scalar calls
    of the root polish pay no array reduction, and an array is reduced by
    its own method, without np.any's Python-level dispatch.
    """
    if (v <= 0.0) if isinstance(v, float) else (np.asarray(v) <= 0.0).any():
        raise DomainError(f"airspeed must be positive, got {v!r}")


def _charge_drawn(v, dh, int_rho, int_inv, params):
    """Charge drawn at constant airspeed v over a climb of dh whose time
    integrals of rho and 1/rho are int_rho and int_inv.  [C]

    The time integral of T v / (eta U), the package's one closed form of
    the charge drawn; every argument but params may be an array.
    """
    w, s = params.weight, params.wing_area
    return (w * dh + 0.5 * s * params.cd0 * v**3 * int_rho
            + 2.0 * params.cd2 * w**2 / (s * v) * int_inv) / (
                params.efficiency * params.voltage)


def segment_discharge(v, seg, params):
    """Charge drawn over a whole segment flown at constant airspeed v.  [C]

    The closed form at the flight time t = d / v, with the segment's mean
    climb rate and mean density quantities held for all of it.
    """
    _require_positive_speed(v)
    t = seg.d / v
    return _charge_drawn(v, seg.h_dot_bar * t, seg.rho_bar * t,
                         seg.delta_rho_bar * t, params)


def _polar(seg, params):
    """(A, B, C) = (rho_bar S cd0, 4 cd2 W^2 delta_rho_bar / S, W h_dot_bar),
    the segment's drag polar and climb term, from which every speed
    derivative of its charge is taken."""
    w, s = params.weight, params.wing_area
    return (seg.rho_bar * s * params.cd0,
            4.0 * params.cd2 * w**2 * seg.delta_rho_bar / s,
            w * seg.h_dot_bar)
