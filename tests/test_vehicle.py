import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from econclimb import (
    AircraftParams,
    ClimbSegment,
    DomainError,
    segment_discharge,
)
from econclimb.cli_io import build_scenario, load_config
from econclimb.vehicle import _require_positive_speed
from tests.force_reference import (
    charge_rate,
    drag,
    e430,
    final_charge_sensitivity,
    segment_discharge_terms,
    thrust_for_climb,
)

RHO = 1.168  # [kg m^-3] representative mid-climb density
V = 38.94  # [m s^-1]
H_DOT = 1.65  # [m s^-1]


def test_e430_factory():
    p = e430()
    assert p.wing_area == 11.37
    assert p.mass == 472.0
    assert p.cd0 == 0.035
    assert p.cd2 == 0.009
    assert p.v_max == pytest.approx(161.0 / 3.6, rel=1e-15, abs=0.0)
    assert p.voltage == 133.2
    assert p.efficiency == 0.7
    assert p.weight == pytest.approx(4628.7388, rel=1e-12)


def test_e430_is_the_bundled_configs_aircraft():
    # the tests' airframe and the bundled config cannot drift apart
    config = Path(__file__).resolve().parent.parent / "configs" \
        / "e430_atc_climb.yaml"
    assert e430() == build_scenario(load_config(config, env={}))[0].aircraft


def test_params_validation():
    good = dataclasses.asdict(e430())
    for key in ("wing_area", "mass", "cd0", "cd2", "v_max", "voltage",
                "gravity"):
        bad = dict(good)
        bad[key] = 0.0
        with pytest.raises(DomainError):
            AircraftParams(**bad)
    bad = dict(good)
    bad["efficiency"] = 1.2
    with pytest.raises(DomainError):
        AircraftParams(**bad)


# ---------------------------------------------------------------------------
# point models

def test_drag_frozen_value(params):
    assert drag(V, RHO, params) == pytest.approx(371.549344034646, rel=1e-12)


def test_drag_parasite_induced_split(params):
    # drag is A*rho + B/rho; isolating the parasite part from evaluations
    # at rho and 2*rho must reproduce the quadratic parasite law
    d1 = drag(V, RHO, params)
    d2 = drag(V, 2.0 * RHO, params)
    parasite = (2.0 * d2 - d1) / 3.0
    assert parasite == pytest.approx(
        0.5 * RHO * params.wing_area * params.cd0 * V**2, rel=1e-12)
    induced = d1 - parasite
    assert induced == pytest.approx(
        2.0 * params.cd2 * params.weight**2
        / (RHO * params.wing_area * V**2), rel=1e-12)


def test_min_drag_speed(params):
    # analytic minimum of the drag polar
    v_md = np.sqrt(2.0 * params.weight / (RHO * params.wing_area)) \
        * (params.cd2 / params.cd0) ** 0.25
    assert v_md == pytest.approx(18.801318106762707, rel=1e-12)
    vs = np.linspace(10.0, 40.0, 3001)
    ds = drag(vs, RHO, params)
    assert abs(vs[np.argmin(ds)] - v_md) < 0.011
    assert drag(v_md, RHO, params) <= drag(v_md - 0.01, RHO, params)
    assert drag(v_md, RHO, params) <= drag(v_md + 0.01, RHO, params)


def test_thrust_frozen_value(params):
    assert thrust_for_climb(V, H_DOT, RHO, params) == \
        pytest.approx(567.682344034646, rel=1e-12)


def test_thrust_balance_identity(params):
    rng = random.Random(7)
    for _ in range(20):
        v = rng.uniform(20.0, 44.0)
        h_dot = rng.uniform(0.0, 5.0)
        rho = rng.uniform(0.9, 1.25)
        t = thrust_for_climb(v, h_dot, rho, params)
        assert t - drag(v, rho, params) == \
            pytest.approx(params.weight * h_dot / v, rel=1e-12)


def test_charge_rate_frozen_value(params):
    assert charge_rate(V, H_DOT, RHO, params) == \
        pytest.approx(-237.082265944971, rel=1e-12)


def test_charge_rate_is_thrust_power_over_eta_u(params):
    rng = random.Random(11)
    for _ in range(20):
        v = rng.uniform(20.0, 44.0)
        h_dot = rng.uniform(0.0, 5.0)
        rho = rng.uniform(0.9, 1.25)
        qdot = charge_rate(v, h_dot, rho, params)
        t = thrust_for_climb(v, h_dot, rho, params)
        assert qdot * params.efficiency * params.voltage == \
            pytest.approx(-t * v, rel=1e-12)
        assert qdot < 0.0


def test_point_models_vectorize(params):
    vs = np.array([25.0, 30.0, 38.94])
    assert np.allclose(drag(vs, RHO, params),
                       [drag(float(v), RHO, params) for v in vs])
    rates = charge_rate(vs, H_DOT, RHO, params)
    assert rates.shape == vs.shape


def test_nonpositive_speed_rejected(params):
    with pytest.raises(DomainError):
        drag(0.0, RHO, params)
    with pytest.raises(DomainError):
        charge_rate(-5.0, H_DOT, RHO, params)


# ---------------------------------------------------------------------------
# segment-level charge bookkeeping

def test_segment_discharge_frozen_value(params, full_segment):
    v0 = 140.19 / 3.6
    assert segment_discharge(v0, full_segment, params) == \
        pytest.approx(182878.90111650949, rel=1e-12)
    assert 250000.0 - segment_discharge(v0, full_segment, params) == \
        pytest.approx(67121.09888349051, rel=1e-12)


def test_zero_length_segment_discharges_nothing(params):
    seg = ClimbSegment(start=(0.0, 0.0), end=(0.0, 0.0), h_dot_bar=1.65,
                       rho_bar=1.16, delta_rho_bar=0.86)
    assert seg.d == 0.0
    assert segment_discharge(30.0, seg, params) == 0.0
    assert 1234.5 - segment_discharge(30.0, seg, params) == 1234.5


_LENGTHS = st.just(0.0) | st.floats(1e-3, 1e5)


@example(v=30.0, dx=0.0, dh=0.0, h_dot=1.65, rho=1.16, inv=0.86)
@given(v=st.floats(1.0, 60.0), dx=_LENGTHS, dh=_LENGTHS, h_dot=st.floats(0.0, 20.0),
       rho=st.floats(0.3, 1.3), inv=st.floats(0.7, 3.5))
def test_segment_discharge_matches_the_three_term_form(params, v, dx, dh,
                                                       h_dot, rho, inv):
    # the one closed form, taken at t = d / v with the segment's means, is
    # the per-segment form d / (eta U) (W h_dot / v + ...) up to rounding
    seg = ClimbSegment(start=(0.0, 0.0), end=(dx, dh), h_dot_bar=h_dot,
                       rho_bar=rho, delta_rho_bar=inv)
    expected = segment_discharge_terms(v, seg, params)
    got = segment_discharge(v, seg, params)
    if seg.d == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_discharge_monotone_in_climb_rate(params):
    base = dict(start=(0.0, 0.0), end=(30000.0, 1000.0),
                rho_bar=1.1692, delta_rho_bar=0.8559)
    slow = ClimbSegment(h_dot_bar=1.0, **base)
    fast = ClimbSegment(h_dot_bar=2.0, **base)
    for v in (25.0, 35.0, 44.0):
        assert segment_discharge(v, fast, params) > \
            segment_discharge(v, slow, params)


def test_sensitivity_matches_finite_differences(params, full_segment,
                                                replan_segment):
    for seg in (full_segment, replan_segment):
        for v in (30.0, 40.0, 44.0):
            h = 1e-4 * v
            fd = (segment_discharge(v - h, seg, params)
                  - segment_discharge(v + h, seg, params)) / (2.0 * h)
            assert final_charge_sensitivity(v, seg, params) == \
                pytest.approx(fd, rel=1e-6)


def test_sensitivity_sign_structure(params, full_segment):
    # below the best-economy speed, flying faster saves charge; above, it
    # costs charge; the crossover is the zero of the sensitivity
    assert final_charge_sensitivity(20.0, full_segment, params) > 0.0
    assert final_charge_sensitivity(40.0, full_segment, params) < 0.0
    lo, hi = 20.0, 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if final_charge_sensitivity(mid, full_segment, params) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(27.563481645273896, rel=1e-10)


SPEED_FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": np.array,
    "1-d array": lambda v: np.array([30.0, v]),
}


@pytest.mark.parametrize("form", sorted(SPEED_FORMS))
def test_positive_speed_check_in_every_form(form):
    make = SPEED_FORMS[form]
    for v in (0.0, -0.0, -1.0):
        with pytest.raises(DomainError, match="airspeed must be positive"):
            _require_positive_speed(make(v))
    # NaN is not <= 0, so it passes the check in every form
    _require_positive_speed(make(math.nan))
    _require_positive_speed(make(30.0))
