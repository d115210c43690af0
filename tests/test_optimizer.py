import dataclasses
import decimal
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import econclimb.climb_optimizer as co
import econclimb.scenario_sim as scenario_sim
from econclimb import (
    CiEvent,
    ClimbSegment,
    ConstantAtmosphere,
    CostIndexSchedule,
    DomainError,
    EnvelopeError,
    calibrate_ci_max_to_speed,
    ci_at,
    cost_gradient,
    e430,
    segment_between,
    segment_discharge,
    solve_optimal_speed,
    total_cost,
)
from tests.force_reference import (
    climbing_time,
    cost_curvature,
    final_charge_sensitivity,
    mvt_crosscheck,
    scan_optimal_speed,
)
from tests.test_golden import _bench_inputs
# Frozen reference-climb solution (30 km / 1000 m climb at 1.65 m/s average
# climb rate, ci0 = 0.6 ci_max anchored to 140.19 km/h):
V_REF_KMH = 140.19
CI0_FRACTION = 0.6
CI_MAX_CAL = 327.98896536571016
CI0 = 196.7933792194261
CI_IN = 295.19006882913914
TAU = 7.708109233368014
V0 = 38.94166666666666  # 140.19 km/h
TC0 = 770.8109233368014
J0 = 334569.38745920465
V1 = 42.81419315829977  # 154.131 km/h
TC1 = 350.54569320767837
J1 = 202627.17679051228
CI_MAX_VMAX = 350.5403655498835
V_MAXRANGE = 27.563481645273896


def _random_segment(rng):
    h0 = rng.uniform(0.0, 8000.0)
    span = rng.uniform(200.0, 2000.0)
    x_span = rng.uniform(10000.0, 60000.0)
    h_dot = rng.uniform(0.5, 3.0)
    return segment_between((0.0, h0), (x_span, h0 + span), h_dot,
                           grid_step=10.0)


# ---------------------------------------------------------------------------
# segments

def test_segment_between_reference_geometry(full_segment):
    assert full_segment.d == pytest.approx(30016.66203960727, rel=1e-12)
    assert full_segment.h_dot_bar == 1.65
    assert full_segment.rho_bar == pytest.approx(1.16924271654781, rel=1e-12)
    assert full_segment.delta_rho_bar == \
        pytest.approx(0.855925952019917, rel=1e-12, abs=0.0)


def test_replan_segment_keeps_whole_climb_band(replan_segment, full_segment):
    assert replan_segment.d == pytest.approx(15008.331019803634, rel=1e-12)
    # density aggregates come from the full climb band, not the local one
    assert replan_segment.rho_bar == full_segment.rho_bar
    assert replan_segment.delta_rho_bar == full_segment.delta_rho_bar
    local = segment_between((15000.0, 500.0), (30000.0, 1000.0), 1.65)
    assert local.rho_bar == pytest.approx(1.1409082054932758, rel=1e-12)
    assert local.rho_bar != replan_segment.rho_bar


def test_segment_validation():
    with pytest.raises(DomainError, match="altitude band must climb"):
        segment_between((0.0, 1000.0), (30000.0, 500.0), 1.65)
    with pytest.raises(DomainError, match="must not descend"):
        ClimbSegment(start=(0.0, 1000.0), end=(30000.0, 500.0),
                     h_dot_bar=1.65, rho_bar=1.16, delta_rho_bar=0.86)
    with pytest.raises(DomainError):
        ClimbSegment(start=(0.0, 0.0), end=(30000.0, 1000.0),
                     h_dot_bar=-1.0, rho_bar=1.16, delta_rho_bar=0.86)
    with pytest.raises(DomainError):
        ClimbSegment(start=(0.0, 0.0), end=(30000.0, 1000.0),
                     h_dot_bar=1.65, rho_bar=0.0, delta_rho_bar=0.86)


def test_climbing_time(full_segment):
    assert climbing_time(V0, full_segment) == pytest.approx(TC0, rel=1e-12)
    assert climbing_time(2.0 * V0, full_segment) == \
        pytest.approx(0.5 * TC0, rel=1e-12)
    with pytest.raises(DomainError):
        climbing_time(0.0, full_segment)


# ---------------------------------------------------------------------------
# cost function structure

def test_constant_ci_cost_reduces_to_simple_form(params, full_segment):
    q0 = 250000.0
    for v in (25.0, 35.0, 44.0):
        expected = CI0 * full_segment.d / v \
            + segment_discharge(v, full_segment, params)
        assert total_cost(v, full_segment, CI0, CI_IN, math.inf, q0, params) \
            == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("ci_in", [0.0, CI0, 295.19, 1e300])
def test_infinite_tau_is_the_filter_formulas_limit(params, full_segment,
                                                   ci_in):
    # t / tau is 0 at tau = inf, so the filter's own expressions give the
    # constant-CI cost and the start value, bit for bit
    for v in (25.0, V0, 44.0, np.array([20.0, V0, 44.0])):
        t = full_segment.d / v
        j = total_cost(v, full_segment, CI0, ci_in, math.inf, 0.0, params)
        expected = CI0 * t + segment_discharge(v, full_segment, params)
        assert type(j) is type(expected)
        assert np.asarray(j).tobytes() == np.asarray(expected).tobytes()
        ci = ci_at(t, CI0, ci_in, math.inf)
        assert type(ci) is (float if np.ndim(t) == 0 else np.ndarray)
        assert np.asarray(ci).tobytes() == np.full(np.shape(t), CI0).tobytes()
    starts = np.array([0.0, CI0, 327.99])
    ci = ci_at(np.array([0.0, 1.0, 1e9]), starts, np.full(3, ci_in), math.inf)
    assert ci.tobytes() == starts.tobytes()


def test_cost_independent_of_initial_charge(params, full_segment):
    a = total_cost(V0, full_segment, CI0, CI_IN, TAU, 0.0, params)
    b = total_cost(V0, full_segment, CI0, CI_IN, TAU, 250000.0, params)
    assert a == pytest.approx(b, rel=1e-12)


def test_huge_tau_approaches_infinite_tau(params, full_segment):
    a = total_cost(V0, full_segment, CI0, CI_IN, 1e12, 0.0, params)
    b = total_cost(V0, full_segment, CI0, CI_IN, math.inf, 0.0, params)
    assert a == pytest.approx(b, rel=1e-9)


def _time_cost_reference(t, ci0, ci_in, tau):
    """The integral of ci_at over [0, t] at 80 digits, from the exact float
    inputs: ci0 tau psi + ci_in tau phi, with psi = 1 - exp(-x) and
    phi = x - psi; below x = 1, phi is summed from its Taylor series."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        t, ci0, ci_in, tau = map(decimal.Decimal, (t, ci0, ci_in, tau))
        x = t / tau
        if x < 1:
            term, phi = x, decimal.Decimal(0)
            for k in range(2, 80):
                term = -term * x / k
                phi -= term
            psi = x - phi
        else:
            psi = 1 - (-x).exp()
            phi = x - psi
        return ci0 * tau * psi + ci_in * tau * phi


def test_filtered_time_cost_matches_a_decimal_reference(params,
                                                        full_segment):
    # ci_in far above or below ci0, and t / tau from 1e-300 to ~630: the
    # two-term form once cancelled to zero when ci_in t swamped the result
    rng = random.Random(41)
    v = V0
    t = full_segment.d / v
    charge = segment_discharge(v, full_segment, params)
    for _ in range(2000):
        x = 10.0 ** rng.uniform(-300.0, math.log10(630.0))
        ci0, ci_in = (10.0 ** rng.uniform(6.0, 300.0) for _ in range(2))
        tau = t / x
        expected = _time_cost_reference(t, ci0, ci_in, tau)
        scalar = total_cost(v, full_segment, ci0, ci_in, tau, 0.0, params)
        vector = total_cost(np.array([v]), full_segment, ci0, ci_in, tau,
                            0.0, params)[0]
        for j in (scalar, vector):
            time_cost = decimal.Decimal(j) - decimal.Decimal(charge)
            assert abs(time_cost / expected - 1) <= 1e-13, (x, ci0, ci_in)


def test_gradient_matches_finite_differences(params):
    rng = random.Random(101)
    for _ in range(20):
        seg = _random_segment(rng)
        ci0 = rng.uniform(0.0, 350.0)
        ci_in = rng.uniform(0.0, 350.0)
        tau = rng.choice([rng.uniform(0.5, 50.0), rng.uniform(50.0, 5000.0),
                          math.inf])
        v = rng.uniform(22.0, 44.0)
        h = 1e-5 * v
        fd = (total_cost(v + h, seg, ci0, ci_in, tau, 0.0, params)
              - total_cost(v - h, seg, ci0, ci_in, tau, 0.0, params)) / (2 * h)
        assert cost_gradient(v, seg, ci0, ci_in, tau, params) == \
            pytest.approx(fd, rel=1e-6)


def test_curvature_matches_finite_differences(params):
    rng = random.Random(202)
    for _ in range(20):
        seg = _random_segment(rng)
        ci0 = rng.uniform(0.0, 350.0)
        ci_in = rng.uniform(0.0, 350.0)
        tau = rng.choice([rng.uniform(0.5, 50.0), rng.uniform(50.0, 5000.0),
                          math.inf])
        v = rng.uniform(22.0, 44.0)
        h = 1e-4 * v
        fd = (cost_gradient(v + h, seg, ci0, ci_in, tau, params)
              - cost_gradient(v - h, seg, ci0, ci_in, tau, params)) / (2 * h)
        assert cost_curvature(v, seg, ci0, ci_in, tau, params) == \
            pytest.approx(fd, rel=1e-4)


def test_curvature_frozen_value_at_replan_optimum(params, replan_segment):
    curv = cost_curvature(V1, replan_segment, CI0, CI_IN, TAU, params)
    assert curv == pytest.approx(227.47195127839714, rel=1e-12)
    # second difference of the cost itself agrees
    h = 1e-3 * V1
    j = [total_cost(V1 + k * h, replan_segment, CI0, CI_IN, TAU, 0.0, params)
         for k in (-1, 0, 1)]
    assert curv == pytest.approx((j[0] - 2 * j[1] + j[2]) / h**2, rel=1e-5)


def test_cruise_reduction(params):
    # zero climb rate with a uniform atmosphere turns the charge sensitivity
    # into the level-flight economy expression
    rho0 = 1.1
    seg = ClimbSegment(start=(0.0, 500.0), end=(30000.0, 500.0),
                       h_dot_bar=0.0, rho_bar=rho0, delta_rho_bar=1.0 / rho0)
    s = params.wing_area
    w = params.weight
    scale = seg.d / (params.efficiency * params.voltage)
    for v in np.linspace(20.0, 44.0, 10):
        cruise = -scale * (rho0 * s * params.cd0 * v
                           - 4.0 * params.cd2 * w**2 / (rho0 * s * v**3))
        assert final_charge_sensitivity(v, seg, params) == \
            pytest.approx(cruise, rel=1e-12)
        grad = cost_gradient(v, seg, CI0, CI0, math.inf, params)
        assert grad == pytest.approx(-CI0 * seg.d / v**2 - cruise, rel=1e-12)


# ---------------------------------------------------------------------------
# solver

def test_reference_initial_plan(params, full_segment):
    plan = solve_optimal_speed(full_segment, CI0, CI0, math.inf, params)
    assert plan.v_star == pytest.approx(V0, rel=1e-9)
    assert plan.v_star * 3.6 == pytest.approx(140.19, abs=1e-6)
    assert plan.t_c_star == pytest.approx(TC0, rel=1e-9)
    assert plan.j_star == pytest.approx(J0, rel=1e-9)
    q_f = 250000.0 - segment_discharge(plan.v_star, full_segment, params)
    assert q_f == pytest.approx(67121.09888349051, rel=1e-9)
    assert not plan.at_envelope_limit
    assert plan.iterations > 0


def test_reference_replan_after_command(params, replan_segment):
    plan = solve_optimal_speed(replan_segment, CI0, CI_IN, TAU, params)
    assert plan.v_star == pytest.approx(V1, rel=1e-9)
    assert plan.v_star * 3.6 == pytest.approx(154.131, abs=1e-3)
    assert plan.t_c_star == pytest.approx(TC1, rel=1e-9)
    assert plan.j_star == pytest.approx(J1, rel=1e-9)


def test_settled_replan_is_the_constant_ci_speed_at_ci_in(params,
                                                         replan_segment):
    # the leg lasts about 45 filter time constants, so the CI has settled
    # at ci_in and the speed is the constant-CI one at ci_in
    plan = solve_optimal_speed(replan_segment, CI0, CI_IN, TAU, params)
    v_in = solve_optimal_speed(replan_segment, CI_IN, CI_IN, math.inf,
                               params).v_star
    assert plan.v_star == pytest.approx(v_in, rel=1e-9)
    assert solve_optimal_speed(replan_segment, CI0, CI0, math.inf,
                               params).v_star < v_in


def test_small_pack_flags_depletion(params, full_segment):
    # the plan does not depend on the pack; a 1000 C one cannot fly it
    plan = solve_optimal_speed(full_segment, CI0, CI0, math.inf, params)
    assert 1000.0 - segment_discharge(plan.v_star, full_segment, params) < 0.0


def test_solution_is_grid_minimum(params, full_segment, replan_segment):
    grid_kmh = np.arange(100.0, 161.0 + 1e-9, 0.01)
    grid = grid_kmh / 3.6
    cases = [
        (full_segment, CI0, CI0, math.inf, V0),
        (replan_segment, CI0, CI_IN, TAU, V1),
        (full_segment, 100.0, 250.0, 60.0, None),
        (full_segment, 300.0, 50.0, 200.0, None),
    ]
    for seg, ci0, ci_in, tau, v_expected in cases:
        plan = solve_optimal_speed(seg, ci0, ci_in, tau, params)
        j = total_cost(grid, seg, ci0, ci_in, tau, 0.0, params)
        v_grid = grid[np.argmin(j)]
        assert abs(plan.v_star - v_grid) * 3.6 <= 0.01 + 1e-9
        if v_expected is not None:
            assert plan.v_star == pytest.approx(v_expected, rel=1e-9)


def test_cost_is_locally_convex_at_reference_optimum(params, full_segment):
    # scan +/- 20 km/h around the optimum: single interior minimum and
    # positive second differences throughout
    grid = (np.arange(120.0, 161.0, 0.1)) / 3.6
    j = total_cost(grid, full_segment, CI0, CI0, math.inf, 0.0, params)
    k = int(np.argmin(j))
    assert 0 < k < len(j) - 1
    assert grid[k] == pytest.approx(V0, abs=0.1 / 3.6)
    d2 = np.diff(j, 2)
    assert np.all(d2 > 0.0)
    signs = np.sign(np.diff(j))
    assert np.count_nonzero(np.diff(signs) != 0.0) == 1


def test_zero_cost_index_recovers_best_economy_speed(params, full_segment):
    plan = solve_optimal_speed(full_segment, 0.0, 0.0, math.inf, params)
    assert plan.v_star == pytest.approx(V_MAXRANGE, rel=1e-9)


def test_optimal_speed_increases_with_cost_index(params, full_segment):
    speeds = [solve_optimal_speed(full_segment, ci, ci, math.inf,
                                  params).v_star
              for ci in (0.0, 50.0, 120.0, 200.0, 280.0, CI_MAX_CAL)]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))


def test_very_large_tau_matches_initial_plan(params, full_segment):
    slow = solve_optimal_speed(full_segment, CI0, CI_IN, 1e9, params)
    fms = solve_optimal_speed(full_segment, CI0, CI0, math.inf, params)
    assert abs(slow.v_star - fms.v_star) * 3.6 < 0.01


def test_faster_filter_pulls_speed_toward_command(params, full_segment):
    # command above ci0: shrinking tau raises the planned speed
    taus = [3000.0, 300.0, 30.0, 3.0, 0.3]
    speeds = [solve_optimal_speed(full_segment, CI0, CI_IN, tau, params).v_star
              for tau in taus]
    assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))
    assert speeds[-1] > speeds[0]


# ---------------------------------------------------------------------------
# ci_max calibration

def test_envelope_calibration_value(params, full_segment):
    ci_max = calibrate_ci_max_to_speed(params, full_segment, params.v_max,
                                       1.0)
    assert ci_max == pytest.approx(CI_MAX_VMAX, rel=1e-12)


def test_envelope_calibration_puts_optimum_at_vmax(params, full_segment):
    ci_max = calibrate_ci_max_to_speed(params, full_segment, params.v_max,
                                       1.0)
    plan = solve_optimal_speed(full_segment, ci_max, ci_max, math.inf, params)
    assert plan.v_star == pytest.approx(params.v_max, rel=1e-9)


def test_reference_calibration_value(params, full_segment, ci_max_cal):
    assert ci_max_cal == pytest.approx(CI_MAX_CAL, rel=1e-12)
    ci0 = CI0_FRACTION * ci_max_cal
    plan = solve_optimal_speed(full_segment, ci0, ci0, math.inf, params)
    assert plan.v_star * 3.6 == pytest.approx(V_REF_KMH, abs=1e-6)


def test_reference_calibration_against_search_oracle(params, full_segment):
    # independent route: bisect the ceiling until the planned speed hits the
    # reference, instead of inverting the optimality condition
    target = V_REF_KMH / 3.6

    def planned(ci_max):
        ci0 = CI0_FRACTION * ci_max
        return solve_optimal_speed(full_segment, ci0, ci0, math.inf,
                                   params).v_star

    lo, hi = 1.0, 1000.0
    assert planned(lo) < target < planned(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if planned(mid) < target:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(CI_MAX_CAL, rel=1e-9)


def test_calibration_rejects_uneconomic_reference(params, full_segment):
    with pytest.raises(EnvelopeError):
        calibrate_ci_max_to_speed(params, full_segment, 26.0, 0.6)
    with pytest.raises(DomainError):
        calibrate_ci_max_to_speed(params, full_segment, 50.0, 0.6)
    with pytest.raises(DomainError):
        calibrate_ci_max_to_speed(params, full_segment, 40.0, 1.5)


def _plan_or_floor(solve):
    """The plan's (v*, at_envelope_limit), or "floor" where the optimum lies
    below 5 m/s."""
    try:
        plan = solve()
    except EnvelopeError:
        return "floor"
    return plan.v_star, plan.at_envelope_limit


def test_economy_speed_matches_planner(params, full_segment, replan_segment):
    # the constant-CI kernel against the filtered cost's bracketed root on
    # an identical cost: with ci0 == ci_in the filtered term vanishes for
    # any tau; ci_for_speed inverts both. A 1 kg airframe with a 100 m^2
    # wing has its optimum below the 5 m/s floor at CI 0.
    light = dataclasses.replace(params, mass=1.0, wing_area=100.0)
    outcomes = []
    for seg, craft in ((full_segment, params), (replan_segment, params),
                       (full_segment, light)):
        ci_max = calibrate_ci_max_to_speed(craft, seg, craft.v_max, 1.0)
        ci = np.linspace(0.0, 1.05 * ci_max, 43)
        v = co.economy_speed(seg, ci, craft)[0]
        for ci_k, v_k in zip(ci, v):
            kernel = _plan_or_floor(
                lambda: solve_optimal_speed(seg, ci_k, ci_k, math.inf, craft))
            scan = _plan_or_floor(
                lambda: solve_optimal_speed(seg, ci_k, ci_k, TAU, craft))
            outcomes.append(kernel[-1] if kernel != "floor" else "floor")
            if kernel == "floor":
                assert scan == "floor"
                assert v_k < 5.0
                continue
            assert kernel[0] == pytest.approx(scan[0], rel=1e-9)
            assert kernel[1] == scan[1]
            assert v_k == pytest.approx(kernel[0], rel=1e-9)
            if kernel[1]:
                assert v_k == craft.v_max
            else:
                assert co.ci_for_speed(seg, v_k, craft) == \
                    pytest.approx(ci_k, rel=1e-9, abs=1e-9)
    assert {"floor", False, True} <= set(outcomes)
    assert outcomes.count(True) >= 3


@pytest.mark.parametrize("light", [False, True])
def test_envelope_flag_at_the_ceiling_is_exact(light, params, full_segment):
    # at ci0 == the v_max ceiling, dJ/dv(v_max) is zero in exact arithmetic
    # and the quartic at v_max rounds to -2e-10 (E430) or -1.6e-9 (a 1 kg
    # airframe with a 100 m^2 wing): the flag must not follow that rounding
    craft = (dataclasses.replace(params, mass=1.0, wing_area=100.0) if light
             else params)
    ci_max = calibrate_ci_max_to_speed(craft, full_segment, craft.v_max,
                                       1.0)
    at = solve_optimal_speed(full_segment, ci_max, ci_max, math.inf, craft)
    assert at.v_star == craft.v_max
    assert not at.at_envelope_limit
    ci_above = np.nextafter(ci_max, math.inf)
    above = solve_optimal_speed(full_segment, ci_above, ci_above, math.inf,
                                craft)
    assert above.v_star == craft.v_max
    assert above.at_envelope_limit
    assert above.iterations == 0


def test_economy_speed_mixes_inside_and_beyond_the_envelope(params,
                                                            full_segment):
    # one array of CIs below, at and above the ceiling, interleaved: those
    # beyond it stay at v_max while the others iterate, and every other
    # entry is the scalar solve's speed bit for bit
    ci_max = calibrate_ci_max_to_speed(params, full_segment, params.v_max,
                                       1.0)
    ci = np.array([0.0, 1.2 * ci_max, 0.3 * ci_max, ci_max,
                   np.nextafter(ci_max, math.inf), 0.9 * ci_max,
                   2.0 * ci_max, 0.6 * ci_max])
    v = co.economy_speed(full_segment, ci, params)[0]
    beyond = ci > ci_max
    assert beyond.sum() == 3
    for ci_k, v_k in zip(ci, v):
        if ci_k > ci_max:
            assert v_k == params.v_max
        else:
            assert v_k == solve_optimal_speed(full_segment, ci_k, ci_k,
                                              math.inf, params).v_star
    assert len(set(v[~beyond].tolist())) == 5  # five distinct speeds


def test_envelope_calibration_needs_room(full_segment):
    slow = dataclasses.replace(e430(), v_max=25.0)  # below best-economy speed
    with pytest.raises(EnvelopeError):
        calibrate_ci_max_to_speed(slow, full_segment, slow.v_max, 1.0)


# ---------------------------------------------------------------------------
# failure modes

def test_boundary_clip_is_flagged(params, full_segment):
    ci0 = 1.05 * CI_MAX_VMAX
    plan = solve_optimal_speed(full_segment, ci0, ci0, math.inf, params)
    assert plan.at_envelope_limit
    assert plan.v_star == params.v_max
    assert plan.iterations == 0


def test_an_optimum_below_the_floor_is_an_envelope_error(full_segment):
    # the light airframe's optimum lies below the 5 m/s floor, whether the
    # constant-CI kernel (tau = inf, or a CI that cannot move) or the
    # bracketed root (a CI that moves) looks for it: the cost rises at both
    # ends of [5 m/s, v_max]
    light = dataclasses.replace(e430(), mass=1.0, wing_area=100.0)
    for tau, ci_in in ((math.inf, 6e-4), (TAU, 6e-4), (TAU, 7e-4)):
        with pytest.raises(EnvelopeError, match=r"in \(5, 44\.7222\] m/s"):
            solve_optimal_speed(full_segment, 6e-4, ci_in, tau, light)
        ends = np.array([5.0, light.v_max])
        assert (cost_gradient(ends, full_segment, 6e-4, ci_in, tau,
                              light) > 0.0).all()


def test_constant_ci_speed_skips_the_scan(params, full_segment,
                                          monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(co, name, wrapped)

    spy("_rtsafe", co._rtsafe)
    plan = solve_optimal_speed(full_segment, CI0, CI0, math.inf, params)
    assert plan.v_star == pytest.approx(V0, rel=1e-9)
    assert plan.iterations == 5
    clipped = solve_optimal_speed(full_segment, 1.05 * CI_MAX_VMAX, CI_IN,
                                  math.inf, params)
    assert clipped.at_envelope_limit and clipped.iterations == 0
    assert calls == []
    # the filtered cost solves for its bracketed root
    solve_optimal_speed(full_segment, CI0, CI_IN, TAU, params)
    assert calls == ["_rtsafe"]


@st.composite
def _filtered_legs(draw):
    """A segment, an airframe and a CI that moves (rising or falling) at a
    time constant from 1e-3 to 1e3 flight times."""
    unit = st.floats(0.0, 1.0)
    span = draw(st.floats(1000.0, 60000.0))
    climb = draw(st.floats(0.0, 2000.0))
    rho = draw(st.floats(0.3, 1.3))
    seg = ClimbSegment(start=(0.0, 0.0), end=(span, climb),
                       h_dot_bar=draw(st.floats(0.0, 5.0)), rho_bar=rho,
                       delta_rho_bar=(1.0 + 0.05 * draw(unit)) / rho)
    craft = dataclasses.replace(
        e430(), mass=draw(st.floats(1.0, 2000.0)),
        wing_area=draw(st.floats(5.0, 100.0)),
        cd0=draw(st.floats(0.01, 0.06)), cd2=draw(st.floats(0.005, 0.05)),
        v_max=draw(st.floats(10.0, 100.0)))
    scale = abs(co.ci_for_speed(seg, craft.v_max, craft))
    ci0, ci_in = sorted(scale * draw(unit) * 1.5 for _ in range(2))
    if draw(st.booleans()):
        ci0, ci_in = ci_in, ci0
    assume(ci0 != ci_in)
    tau = 10.0 ** draw(st.floats(-3.0, 3.0)) * seg.d / craft.v_max
    return seg, ci0, ci_in, tau, craft


def _same_optimum(leg):
    """The bracketed root and the reference scan agree on one leg: the
    scan's (v*, clipped), or "floor", where the scan's dJ/dv is > 0 at both
    grid ends. At an interior optimum the paper's d2J/dv2 is positive and
    equals (d / v*^2) g'(v*), the slope of the gap that the solver roots."""
    solved = _plan_or_floor(lambda: solve_optimal_speed(*leg))
    try:
        scanned = scan_optimal_speed(*leg)
    except EnvelopeError as exc:
        assert exc.grad_lo > 0.0 and exc.grad_hi > 0.0
        scanned = "floor"
    if scanned == "floor":
        assert solved == scanned
    else:
        assert solved[0] == pytest.approx(scanned[0], rel=1e-10, abs=0.0)
        assert solved[1] == scanned[1]
        if not solved[1]:
            v = solved[0]
            curvature = cost_curvature(v, *leg)
            slope = co._arrival_roots(*leg)[1](v)[1]
            assert curvature > 0.0
            assert curvature == pytest.approx(leg[0].d / v**2 * slope,
                                              rel=1e-6)
    return scanned


@given(_filtered_legs())
def test_bracketed_root_matches_the_gradient_scan(leg):
    _same_optimum(leg)


@pytest.mark.parametrize("leg, crossings", [
    # J already rises at the 5 m/s floor, and still has a minimum at 29.9
    ((ClimbSegment(start=(0.0, 0.0), end=(12000.0, 1600.0), h_dot_bar=0.0,
                   rho_bar=1.1, delta_rho_bar=0.95), 5000.0, 0.0, 280.0,
      dataclasses.replace(e430(), wing_area=85.0, mass=80.0, cd0=0.044,
                          v_max=44.5)), 2),
    # minima at 5.5 and 39.6 m/s; the slower one costs less
    ((ClimbSegment(start=(0.0, 0.0), end=(55000.0, 300.0), h_dot_bar=0.0,
                   rho_bar=1.1, delta_rho_bar=0.91), 12000.0, 0.0, 550.0,
      dataclasses.replace(e430(), wing_area=41.0, mass=176.0, cd0=0.032,
                          cd2=0.005, v_max=100.0)), 3)])
def test_a_falling_ci_flies_the_cheaper_of_two_minima(leg, crossings):
    # a falling CI's pull can outrun the polar's, so that dJ/dv dips below
    # zero a second time: one bracket over [5 m/s, v_max] would miss a
    # minimum, or find the wrong one
    grid = np.geomspace(5.0, leg[-1].v_max, 20001)
    grad = cost_gradient(grid, *leg)
    rises = np.flatnonzero((grad[:-1] < 0.0) & (grad[1:] >= 0.0))
    assert np.count_nonzero(np.diff(np.sign(grad))) == crossings
    plan = solve_optimal_speed(*leg)
    assert not plan.at_envelope_limit
    assert plan.v_star == pytest.approx(scan_optimal_speed(*leg)[0],
                                        rel=1e-10, abs=0.0)
    costs = total_cost(grid[rises], *leg[:4], 0.0, leg[-1])
    assert plan.v_star == pytest.approx(grid[rises][np.argmin(costs)],
                                        rel=1e-3)
    assert plan.j_star <= total_cost(5.0, *leg[:4], 0.0, leg[-1])


def test_storm_legs_match_the_gradient_scan(monkeypatch):
    # every filtered leg the benchmark's replan-storm scenarios plan
    legs = []
    solve = scenario_sim.solve_optimal_speed

    def record(seg, ci0, ci_in, tau, params):
        if not math.isinf(tau) and ci0 != ci_in:
            legs.append((seg, ci0, ci_in, tau, params))
        return solve(seg, ci0, ci_in, tau, params)

    monkeypatch.setattr(scenario_sim, "solve_optimal_speed", record)
    inputs = _bench_inputs()
    for seed in (1001, 2001, 3001):
        for scn in inputs.replan_storm_scenarios(seed):
            scenario_sim.run_scenario(scn)
    assert len(legs) == 4344
    outcomes = [_same_optimum(leg) for leg in legs]
    assert {clipped for v, clipped in outcomes} == {False, True}


@pytest.mark.parametrize("share", [0.6, 1.0, 1.1])
def test_a_ci_that_cannot_move_is_the_constant_ci_plan(share, params,
                                                       full_segment):
    # with ci0 == ci_in the filter term of J is zero for any tau, so a
    # finite tau must give the infinite-tau plan, field by field
    ci = share * calibrate_ci_max_to_speed(params, full_segment,
                                           params.v_max, 1.0)
    plan = solve_optimal_speed(full_segment, ci, ci, math.inf, params)
    for tau in (TAU, 600.0):
        same = solve_optimal_speed(full_segment, ci, ci, tau, params)
        for field in dataclasses.fields(plan):
            assert getattr(same, field.name) == getattr(plan, field.name), \
                (tau, field.name)
    assert plan.at_envelope_limit == (share > 1.0)


def test_root_polish_safeguards():
    # a linear slope's Newton step lands exactly on the bracket end: a closed
    # bracket test accepts it, a strict one falls back to bisection
    assert co._rtsafe(lambda x: (x - 1.0, 1.0), 1.0, 3.0) == (1.0, 2)

    # Newton on a square-root-like slope bounces across the root and closes
    # in only slowly; the step-length test bisects instead
    root = math.sqrt(2.0)

    def slope(x):
        e = x - root
        s = math.sqrt(abs(e))
        return math.copysign(s, e) * (1.0 + e), (1.0 + 3.0 * e) / (2.0 * s)

    v, steps = co._rtsafe(slope, 0.0, 3.0)
    assert v == pytest.approx(root, rel=1e-9)
    assert steps < co._MAXITER


_SEGMENT = dict(start=(0.0, 0.0), end=(30000.0, 1000.0), h_dot_bar=1.65,
                rho_bar=1.17, delta_rho_bar=0.86)


@pytest.mark.parametrize("build", [
    lambda: ClimbSegment(**{**_SEGMENT, "h_dot_bar": math.nan}),
    lambda: ClimbSegment(**{**_SEGMENT, "end": (math.nan, 1000.0)}),
    lambda: ClimbSegment(**{**_SEGMENT, "end": (math.inf, 1000.0)}),
    lambda: dataclasses.replace(e430(), v_max=math.inf),
    lambda: CiEvent(ci_in=math.nan, at_time=10.0),
    lambda: CostIndexSchedule(ci0=CI0, tau=TAU, ci_max=math.inf),
    lambda: solve_optimal_speed(ClimbSegment(**_SEGMENT), math.nan, CI_IN,
                                TAU, e430()),
    lambda: solve_optimal_speed(ClimbSegment(**_SEGMENT), math.inf, CI_IN,
                                TAU, e430()),
    lambda: solve_optimal_speed(ClimbSegment(**_SEGMENT), CI0, math.inf,
                                TAU, e430()),
    lambda: solve_optimal_speed(ClimbSegment(**_SEGMENT), CI0, CI0,
                                math.nan, e430()),
], ids=["h_dot_bar nan", "end x nan", "end x inf", "v_max inf", "ci_in nan",
        "ci_max inf", "solver ci0 nan", "solver ci0 inf", "solver ci_in inf",
        "solver tau nan at constant CI"])
def test_value_types_reject_nonfinite_input(build):
    # NaN fails every comparison, so each check asks for what it accepts
    with pytest.raises(DomainError):
        build()


def test_solver_input_validation(params, full_segment):
    zero = ClimbSegment(start=(0.0, 0.0), end=(0.0, 0.0), h_dot_bar=1.65,
                        rho_bar=1.16, delta_rho_bar=0.86)
    with pytest.raises(DomainError, match="zero length"):
        solve_optimal_speed(zero, CI0, CI_IN, TAU, params)
    with pytest.raises(DomainError, match="zero length"):
        calibrate_ci_max_to_speed(params, zero, V0, CI0_FRACTION)
    with pytest.raises(DomainError):
        solve_optimal_speed(full_segment, -1.0, CI_IN, TAU, params)
    slow = dataclasses.replace(params, v_max=5.0)  # at the search floor
    for tau in (TAU, math.inf):
        with pytest.raises(DomainError, match="need v_max > 5 m/s"):
            solve_optimal_speed(full_segment, CI0, CI_IN, tau, slow)
    with pytest.raises(DomainError):
        total_cost(V0, full_segment, CI0, CI_IN, -1.0, 0.0, params)


def test_constant_density_stub_segment(params):
    # uniform atmosphere: rho_bar * delta_rho_bar == 1 exactly
    atmo = ConstantAtmosphere(1.16)
    seg = segment_between((0.0, 0.0), (30000.0, 1000.0), 1.65, atmo=atmo)
    assert seg.rho_bar * seg.delta_rho_bar == \
        pytest.approx(1.0, rel=1e-14, abs=0.0)
    plan = solve_optimal_speed(seg, CI0, CI0, math.inf, params)
    assert 30.0 < plan.v_star < params.v_max


# ---------------------------------------------------------------------------
# what the fast re-plan relies on

def test_repeated_solves_give_equal_plans(params, full_segment,
                                         replan_segment):
    # a solve keeps no state between calls: warm plans equal cold ones
    cases = [(full_segment, CI0, CI0, math.inf),
             (replan_segment, CI0, CI_IN, TAU),
             (replan_segment, CI_IN, 0.5 * CI0, 60.0)]
    cold = [solve_optimal_speed(*case, params) for case in cases]
    warm = [solve_optimal_speed(*case, params) for case in cases]
    assert warm == cold


NONPOSITIVE_SPEEDS = [0.0, -0.0, -1.0, np.float64(-0.0), np.array(0.0),
                      np.array([30.0, -1.0])]


@pytest.mark.parametrize("v", NONPOSITIVE_SPEEDS,
                         ids=["0", "-0.0", "-1", "np.float64(-0.0)",
                              "0-d array", "1-d array"])
def test_public_kernels_reject_nonpositive_speed(v, params, full_segment):
    calls = [
        lambda: climbing_time(v, full_segment),
        lambda: mvt_crosscheck(full_segment, v, params),
        lambda: total_cost(v, full_segment, CI0, CI_IN, TAU, 0.0, params),
        lambda: cost_gradient(v, full_segment, CI0, CI_IN, TAU, params),
        lambda: cost_curvature(v, full_segment, CI0, CI_IN, TAU, params),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="airspeed must be positive"):
            call()


def test_reference_calibration_rejects_overflow(params, full_segment):
    # ci_for_speed / 5e-324 is inf; 1e-300 still gives a finite ceiling
    with pytest.raises(EnvelopeError, match="an infinite ci_max"):
        calibrate_ci_max_to_speed(params, full_segment, V_REF_KMH / 3.6,
                                  5e-324)
    ci = calibrate_ci_max_to_speed(params, full_segment, V_REF_KMH / 3.6,
                                   1e-300)
    assert ci == pytest.approx(CI0 * 1e300, rel=1e-9)
    # a ceiling that overflows before the division is the float range
    huge = dataclasses.replace(params, wing_area=1e200, v_max=1e50 / 3.6)
    with pytest.raises(ArithmeticError, match="overflow"):
        calibrate_ci_max_to_speed(huge, full_segment, huge.v_max, 1.0)
