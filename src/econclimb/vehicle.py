"""Aircraft force model and battery charge accounting.

Forces follow a symmetric drag polar; required climb thrust balances drag
plus the weight component along the climb path under small-angle kinematics.
With a constant-voltage battery, charge drains at

    Qdot = -T * v / (eta * U)

and, over a whole climb segment flown at constant airspeed v and mean climb
rate h_dot_bar, the end-of-climb charge has a closed form in the segment's
mean density quantities:

    Q_f = Q0 - (d / (eta U)) * (W h_dot_bar / v
                                + rho_bar S cd0 v^2 / 2
                                + 2 cd2 W^2 delta_rho_bar / (S v^2))

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
        positive = {
            "wing_area": self.wing_area,
            "mass": self.mass,
            "cd0": self.cd0,
            "cd2": self.cd2,
            "v_max": self.v_max,
            "voltage": self.voltage,
            "gravity": self.gravity,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise DomainError(f"{name} must be positive, got {value!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise DomainError(
                f"efficiency must lie in (0, 1], got {self.efficiency!r}"
            )

    @property
    def weight(self):
        """Aircraft weight mass * g.  [N]"""
        return self.mass * self.gravity


def e430():
    """Parameters of the Yuneec E430 two-seat electric aircraft."""
    return AircraftParams(
        wing_area=11.37,      # [m^2]
        mass=472.0,           # [kg]
        cd0=0.035,
        cd2=0.009,
        v_max=161.0 / 3.6,    # [m s^-1] (161 km/h)
        voltage=133.2,        # [V]
        efficiency=0.7,
    )


def _require_positive_speed(v):
    """Raise DomainError unless every airspeed in v is > 0 (NaN passes).

    A float (np.float64 included) is compared directly, so the scalar calls
    of the root polish pay no array reduction, and an array is reduced by
    its own method, without np.any's Python-level dispatch; the density
    check of charge_rate does the same.
    """
    if (v <= 0.0) if isinstance(v, float) else (np.asarray(v) <= 0.0).any():
        raise DomainError(f"airspeed must be positive, got {v!r}")


def charge_rate(v, h_dot, rho, params):
    """Battery charge rate while flying (v, h_dot) at density rho.

    Expanded form of -T v / (eta U); negative while discharging.  [C s^-1]
    """
    _require_positive_speed(v)
    if (rho <= 0.0) if isinstance(rho, float) \
            else (np.asarray(rho) <= 0.0).any():
        raise DomainError(f"density must be positive, got {rho!r}")
    w = params.weight
    s = params.wing_area
    power_terms = (w * h_dot
                   + 0.5 * rho * s * params.cd0 * v**3
                   + 2.0 * params.cd2 * w**2 / (rho * s * v))
    return -power_terms / (params.efficiency * params.voltage)


def segment_discharge(v, seg, params):
    """Charge drawn over a whole segment flown at constant airspeed v.  [C]

    This is the closed-form segment integral of -charge_rate using the
    segment's mean climb rate and mean density quantities.
    """
    _require_positive_speed(v)
    w = params.weight
    s = params.wing_area
    return (seg.d / (params.efficiency * params.voltage)) * (
        w * seg.h_dot_bar / v
        + seg.rho_bar * s * params.cd0 * v**2 / 2.0
        + 2.0 * params.cd2 * w**2 * seg.delta_rho_bar / (s * v**2)
    )


def final_charge(q0, v, seg, params):
    """End-of-segment battery charge. May go negative; the planner flags that
    as battery depletion rather than raising here."""
    return q0 - segment_discharge(v, seg, params)


def final_charge_sensitivity(v, seg, params):
    """Analytic derivative of final_charge with respect to airspeed.

    dQf/dv = -(d / (eta U)) * (-W h_dot_bar / v^2
                               + rho_bar S cd0 v
                               - 4 cd2 W^2 delta_rho_bar / (S v^3))
    """
    _require_positive_speed(v)
    w = params.weight
    s = params.wing_area
    return -(seg.d / (params.efficiency * params.voltage)) * (
        -w * seg.h_dot_bar / v**2
        + seg.rho_bar * s * params.cd0 * v
        - 4.0 * params.cd2 * w**2 * seg.delta_rho_bar / (s * v**3)
    )
