"""Time-varying cost-index dynamics.

ATC speed guidance enters the planner as a commanded cost index CI_in. The
aircraft does not adopt it instantly: the effective cost index follows a
first-order filter

    tau * dCI/dt = -CI + CI_in

whose analytic solution from a known start value is exponential relaxation.
An infinite time constant (``math.inf``) is constant-CI operation, the
formula's limit: t / tau is 0, so CI stays at its start value.

Cost-index values here are expressed in C/s, the same unit as the battery
charge rate they trade against (see ``vehicle`` for the kJ/s conversion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class CiEvent:
    """One ATC cost-index command.

    Exactly one trigger must be set: an elapsed climb time in seconds after
    the start (> 0), or a waypoint (x, h) in meters that the aircraft will
    cross.
    """

    ci_in: float  # [C s^-1]
    at_time: float | None = None  # [s] elapsed since climb start
    at_waypoint: tuple[float, float] | None = None  # (x, h) [m]

    def __post_init__(self):
        if (self.at_time is None) == (self.at_waypoint is None):
            raise DomainError(
                "event needs exactly one trigger: at_time or at_waypoint"
            )
        if self.at_time is not None and not self.at_time > 0.0:
            raise DomainError(f"event time must be > 0, got {self.at_time!r}")
        if not self.ci_in >= 0.0:
            raise DomainError(f"ci_in must be >= 0, got {self.ci_in!r}")


@dataclass(frozen=True)
class CostIndexSchedule:
    """Initial cost index, filter time constant, envelope ceiling, events."""

    ci0: float  # [C s^-1]
    tau: float  # [s]; math.inf selects constant-CI mode
    ci_max: float  # [C s^-1]
    events: tuple[CiEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not 0.0 < self.ci_max < np.inf:
            raise DomainError(
                f"ci_max must be positive and finite, got {self.ci_max!r}")
        if not 0.0 <= self.ci0 <= self.ci_max:
            raise DomainError(
                f"ci0 must lie in [0, ci_max={self.ci_max:g}], got {self.ci0!r}"
            )
        if not self.tau > 0.0:
            raise DomainError(f"tau must be positive or inf, got {self.tau!r}")
        for ev in self.events:
            if ev.ci_in > self.ci_max:
                raise DomainError(
                    f"event ci_in {ev.ci_in!r} exceeds ci_max {self.ci_max!r}"
                )
        times = [ev.at_time for ev in self.events if ev.at_time is not None]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("time-triggered events must be strictly increasing")
        xs = [ev.at_waypoint[0] for ev in self.events if ev.at_waypoint is not None]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError(
                "waypoint-triggered events must be strictly increasing in x"
            )


def ci_at(t, ci_start, ci_in, tau):
    """Filtered cost index t seconds after the forcing switched to ci_in.

    Returns ci_start + (ci_in - ci_start) (1 - exp(-t/tau)), by expm1 so
    that no cancellation loses the step; at infinite tau, t/tau is 0 and
    the start value is returned. Accepts scalar or array t, finite and
    >= 0, and for array t also ci_start and ci_in of its shape (one per
    point).
    """
    scalar = isinstance(t, float)  # no array round trip for a float
    s = t if scalar else np.asarray(t, dtype=float)
    if not (0.0 <= s < np.inf if scalar else ((s >= 0.0) & (s < np.inf)).all()):
        raise DomainError(f"time must be finite and >= 0, got {t!r}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive or inf, got {tau!r}")
    step = -np.expm1(-s / tau)  # math.expm1 rounds otherwise
    out = ci_start + (ci_in - ci_start) * (float(step) if scalar else step)
    return out if isinstance(out, np.ndarray) else float(out)
