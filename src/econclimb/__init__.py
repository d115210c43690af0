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
    mean_inverse_density,
)
from .climb_optimizer import (
    ClimbPlan,
    ClimbSegment,
    calibrate_ci_max,
    calibrate_ci_max_to_speed,
    cost_curvature,
    cost_gradient,
    fms_initial_speed,
    segment_between,
    solve_optimal_speed,
    total_cost,
)
from .cost_index import CiEvent, CostIndexSchedule, ci_at
from .errors import (
    ConfigError,
    DegenerateSegmentError,
    DomainError,
    EnvelopeError,
    NoInteriorOptimumError,
    SaddlePointError,
)
from .scenario_sim import (
    ProfileSample,
    Scenario,
    ScenarioResult,
    run_scenario,
)
from .vehicle import (
    STANDARD_GRAVITY,
    AircraftParams,
    e430,
    final_charge_sensitivity,
    segment_discharge,
)

__version__ = "0.1.0"

__all__ = [
    "TROPOSPHERE",
    "AtmosphereModel",
    "ConstantAtmosphere",
    "mean_density",
    "mean_inverse_density",
    "ClimbPlan",
    "ClimbSegment",
    "calibrate_ci_max",
    "calibrate_ci_max_to_speed",
    "cost_curvature",
    "cost_gradient",
    "fms_initial_speed",
    "segment_between",
    "solve_optimal_speed",
    "total_cost",
    "CiEvent",
    "CostIndexSchedule",
    "ci_at",
    "ConfigError",
    "DegenerateSegmentError",
    "DomainError",
    "EnvelopeError",
    "NoInteriorOptimumError",
    "SaddlePointError",
    "ProfileSample",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "STANDARD_GRAVITY",
    "AircraftParams",
    "e430",
    "final_charge_sensitivity",
    "segment_discharge",
    "__version__",
]
