import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from econclimb import (
    CiEvent,
    CostIndexSchedule,
    DomainError,
    ci_at,
)
from tests.ode_reference import ci_ode_check

CI0 = 196.79
CI_IN = 295.19
TAU = 7.71


def test_response_endpoints():
    assert ci_at(0.0, CI0, CI_IN, TAU) == \
        pytest.approx(CI0, rel=1e-15, abs=0.0)
    # one time constant closes all but 1/e of the gap
    expected = CI_IN + (CI0 - CI_IN) * math.exp(-1.0)
    assert ci_at(TAU, CI0, CI_IN, TAU) == pytest.approx(expected, rel=1e-14)
    assert ci_at(50.0 * TAU, CI0, CI_IN, TAU) == pytest.approx(CI_IN, rel=1e-12)


def test_response_vectorized():
    t = np.array([0.0, TAU, 10.0 * TAU])
    out = ci_at(t, CI0, CI_IN, TAU)
    assert out.shape == t.shape
    assert out[0] == pytest.approx(CI0)
    assert np.all(np.diff(out) > 0.0)  # CI_IN > CI0: rising response


def test_infinite_tau_freezes_command():
    assert ci_at(0.0, CI0, CI_IN, math.inf) == CI0
    assert ci_at(1e9, CI0, CI_IN, math.inf) == CI0


@pytest.mark.parametrize("t", [math.inf, math.nan, np.array([1.0, math.inf]),
                               np.array([0.0, math.nan])],
                         ids=["inf", "nan", "array-inf", "array-nan"])
@pytest.mark.parametrize("tau", [TAU, math.inf])
def test_response_rejects_a_non_finite_time(t, tau):
    with pytest.raises(DomainError, match="time must be finite and >= 0"):
        ci_at(t, CI0, CI_IN, tau)


def test_response_domain_errors():
    with pytest.raises(DomainError):
        ci_at(-0.1, CI0, CI_IN, TAU)
    with pytest.raises(DomainError):
        ci_at(1.0, CI0, CI_IN, 0.0)
    with pytest.raises(DomainError):
        ci_at(1.0, CI0, CI_IN, -2.0)


def test_analytic_matches_ode_integration():
    # fixed-step integration of d(ci)/dt = (ci_in - ci)/tau over a ladder
    # of horizons, from well inside the transient to well past it
    gap = abs(CI0 - CI_IN)
    for k in range(1, 11):
        horizon = 0.5 * k * TAU
        err = ci_ode_check(CI0, CI_IN, TAU, horizon)
        assert err <= 1e-6 * gap


def test_ode_check_equilibrium_and_inf():
    assert ci_ode_check(CI_IN, CI_IN, TAU, 100.0) == pytest.approx(0.0, abs=1e-12)
    assert ci_ode_check(CI0, CI_IN, math.inf, 100.0) == 0.0


@given(st.floats(min_value=0.0, max_value=400.0),
       st.floats(min_value=0.0, max_value=400.0),
       st.floats(min_value=0.05, max_value=100.0),
       st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_semigroup_property(ci_start, ci_in, tau, s, t):
    # evolving s then t equals evolving s + t in one shot
    two_step = ci_at(t, ci_at(s, ci_start, ci_in, tau), ci_in, tau)
    one_shot = ci_at(s + t, ci_start, ci_in, tau)
    assert two_step == pytest.approx(one_shot, rel=1e-12, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=400.0),
       st.floats(min_value=0.0, max_value=400.0),
       st.floats(min_value=0.05, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_monotone_approach(ci_start, ci_in, tau, t1, dt):
    # the response never overshoots and never moves away from the command
    t2 = t1 + dt
    gap1 = abs(ci_at(t1, ci_start, ci_in, tau) - ci_in)
    gap2 = abs(ci_at(t2, ci_start, ci_in, tau) - ci_in)
    assert gap2 <= gap1 + 1e-12 * max(1.0, gap1)
    lo, hi = min(ci_start, ci_in), max(ci_start, ci_in)
    value = ci_at(t1, ci_start, ci_in, tau)
    assert lo - 1e-9 <= value <= hi + 1e-9


# ---------------------------------------------------------------------------
# schedule containers

def test_event_needs_exactly_one_trigger():
    CiEvent(ci_in=100.0, at_time=10.0)
    CiEvent(ci_in=100.0, at_waypoint=(15000.0, 500.0))
    with pytest.raises(DomainError):
        CiEvent(ci_in=100.0)
    with pytest.raises(DomainError):
        CiEvent(ci_in=100.0, at_time=10.0, at_waypoint=(15000.0, 500.0))
    with pytest.raises(DomainError):
        CiEvent(ci_in=-1.0, at_time=10.0)
    with pytest.raises(DomainError):
        CiEvent(ci_in=100.0, at_time=-5.0)
    with pytest.raises(DomainError, match="> 0"):
        CiEvent(ci_in=100.0, at_time=0.0)


def test_schedule_validation():
    ok = CostIndexSchedule(ci0=196.79, tau=7.71, ci_max=327.99,
                           events=(CiEvent(ci_in=295.19, at_time=385.0),))
    assert ok.ci0 <= ok.ci_max
    with pytest.raises(DomainError):
        CostIndexSchedule(ci0=-1.0, tau=7.71, ci_max=327.99)
    with pytest.raises(DomainError, match="ci_max must be positive"):
        CostIndexSchedule(ci0=0.0, tau=7.71, ci_max=0.0)
    with pytest.raises(DomainError):
        CostIndexSchedule(ci0=400.0, tau=7.71, ci_max=327.99)
    with pytest.raises(DomainError):
        CostIndexSchedule(ci0=196.79, tau=0.0, ci_max=327.99)
    with pytest.raises(DomainError):
        CostIndexSchedule(ci0=196.79, tau=7.71, ci_max=327.99,
                          events=(CiEvent(ci_in=400.0, at_time=10.0),))
    # time triggers must be strictly increasing
    with pytest.raises(DomainError):
        CostIndexSchedule(
            ci0=196.79, tau=7.71, ci_max=327.99,
            events=(CiEvent(ci_in=200.0, at_time=20.0),
                    CiEvent(ci_in=250.0, at_time=10.0)))
    # and waypoint triggers strictly increasing in x
    with pytest.raises(DomainError, match="increasing in x"):
        CostIndexSchedule(
            ci0=196.79, tau=7.71, ci_max=327.99,
            events=(CiEvent(ci_in=200.0, at_waypoint=(20000.0, 600.0)),
                    CiEvent(ci_in=250.0, at_waypoint=(10000.0, 300.0))))
    # infinite tau is a legal sentinel for "no transient"
    frozen = CostIndexSchedule(ci0=196.79, tau=math.inf, ci_max=327.99)
    assert math.isinf(frozen.tau)
