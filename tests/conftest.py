import os

import pytest
from hypothesis import HealthCheck, settings

from econclimb import calibrate_ci_max_to_speed, segment_between
from tests.force_reference import e430

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _no_env_overrides(monkeypatch):
    """Every test reads configs as written: no ECONCLIMB_* variable of the
    calling shell overrides a key."""
    for name in list(os.environ):
        if name.startswith("ECONCLIMB_"):
            monkeypatch.delenv(name)

# Reference climb used throughout: sea level to 1000 m over 30 km ground
# distance at an average climb rate of 1.65 m/s, anchored to an initial
# economy speed of 140.19 km/h at 60% of the cost-index ceiling.
V_REF_KMH = 140.19
CI0_FRACTION = 0.6


@pytest.fixture(scope="session")
def params():
    return e430()


@pytest.fixture(scope="session")
def full_segment():
    return segment_between((0.0, 0.0), (30000.0, 1000.0), 1.65)


@pytest.fixture(scope="session")
def replan_segment():
    # Mid-climb replan keeps the whole climb's density band.
    return segment_between((15000.0, 500.0), (30000.0, 1000.0), 1.65,
                           density_band=(0.0, 1000.0))


@pytest.fixture(scope="session")
def ci_max_cal(params, full_segment):
    return calibrate_ci_max_to_speed(params, full_segment,
                                     V_REF_KMH / 3.6, CI0_FRACTION)
