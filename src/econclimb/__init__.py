"""Minimum-DOC climb planning for battery-electric aircraft.

Plans constant-airspeed climbs that minimize direct operating cost
(time cost plus battery charge drawn), tracks ATC-commanded cost-index
changes through a first-order response, and simulates the resulting
trajectory and state-of-charge profile.
"""

from .atmosphere import (
    TROPOSPHERE,
    AtmosphereModel,
    ConstantAtmosphere,
    mean_density,
)
from .climb_optimizer import (
    ClimbPlan,
    ClimbSegment,
    calibrate_ci_max_to_speed,
    cost_gradient,
    segment_between,
    solve_optimal_speed,
    total_cost,
)
from .cost_index import CiEvent, CostIndexSchedule, ci_at
from .errors import ConfigError, DomainError, EnvelopeError
from .scenario_sim import (
    ProfileSample,
    Scenario,
    ScenarioResult,
    run_scenario,
)
from .vehicle import STANDARD_GRAVITY, AircraftParams, e430, segment_discharge

__version__ = "0.1.0"

__all__ = [
    "TROPOSPHERE",
    "AtmosphereModel",
    "ConstantAtmosphere",
    "mean_density",
    "ClimbPlan",
    "ClimbSegment",
    "calibrate_ci_max_to_speed",
    "cost_gradient",
    "segment_between",
    "solve_optimal_speed",
    "total_cost",
    "CiEvent",
    "CostIndexSchedule",
    "ci_at",
    "ConfigError",
    "DomainError",
    "EnvelopeError",
    "ProfileSample",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "STANDARD_GRAVITY",
    "AircraftParams",
    "e430",
    "segment_discharge",
    "__version__",
]
