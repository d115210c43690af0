import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from econclimb import (
    CiEvent,
    ClimbPlan,
    ClimbSegment,
    ConstantAtmosphere,
    CostIndexSchedule,
    DomainError,
    Scenario,
    run_scenario,
    segment_between,
    segment_discharge,
    solve_optimal_speed,
    total_cost,
)
from econclimb import climb_optimizer, scenario_sim
from econclimb.cli_io import build_scenario, validate_config
from econclimb.climb_optimizer import economy_speed
from econclimb.scenario_sim import ProfileSample, _sample_times
from tests.force_reference import e430, mvt_crosscheck
from tests.replay_reference import replay_reference
from tests.test_golden import _bench_inputs

# Frozen reference scenario solution (see test_optimizer for the leg-level
# values): 30 km / 1000 m climb, command to 0.9 ci_max at the mid waypoint.
CI_MAX = 327.98896536571016
CI0 = 196.7933792194261
CI_IN = 295.19006882913914
TAU = 7.708109233368014
V0 = 38.94166666666666
V1 = 42.81419315829977
T_EVENT = 385.4054616684007
T_TOTAL = 735.951154876079
T_BASELINE = 770.8109233368014


def _reference_schedule(events=None):
    if events is None:
        events = (CiEvent(ci_in=CI_IN, at_waypoint=(15000.0, 500.0)),)
    return CostIndexSchedule(ci0=CI0, tau=TAU, ci_max=CI_MAX, events=events)


def _reference_scenario(schedule=None, **overrides):
    kwargs = dict(
        waypoints=((0.0, 0.0), (15000.0, 500.0), (30000.0, 1000.0)),
        aircraft=overrides.pop("aircraft", None),
        schedule=schedule if schedule is not None else _reference_schedule(),
        q0=250000.0,
        h_dot_bar=1.65,
        sim_step=0.1,
        ci_max_mode="calibrated",
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


@pytest.fixture(scope="module")
def reference_result(params):
    return run_scenario(_reference_scenario(aircraft=params))


def test_reference_scenario_end_to_end(params, reference_result):
    s = reference_result.summary
    assert s["segments"][0]["v_star_ms"] == pytest.approx(V0, rel=1e-9)
    assert s["segments"][1]["v_star_ms"] == pytest.approx(V1, rel=1e-9)
    assert s["events"][0]["t_s"] == pytest.approx(T_EVENT, rel=1e-9)
    assert s["events"][0]["applied"] is True
    assert s["events"][0]["x_m"] == pytest.approx(15000.0, abs=1e-6)
    assert s["total_time_s"] == pytest.approx(T_TOTAL, rel=1e-9)
    assert s["baseline_time_s"] == pytest.approx(T_BASELINE, rel=1e-9)
    assert s["time_delta_s"] == pytest.approx(T_TOTAL - T_BASELINE, rel=1e-6)
    assert s["battery_depleted"] is False
    assert tuple(reference_result.samples.table[-1, 1:3]) == (30000.0, 1000.0)
    assert len(reference_result.summary["segments"]) == 2


def test_no_event_scenario_is_one_leg(params):
    scn = _reference_scenario(schedule=_reference_schedule(events=()),
                              aircraft=params)
    res = run_scenario(scn)
    assert len(res.summary["segments"]) == 1
    s = res.summary
    assert s["total_time_s"] == pytest.approx(T_BASELINE, rel=1e-9)
    assert s["time_delta_s"] == pytest.approx(0.0, abs=1e-9)
    assert s["events"] == []


def test_event_reduces_final_energy(params, reference_result):
    baseline = run_scenario(_reference_scenario(
        schedule=_reference_schedule(events=()), aircraft=params))
    assert reference_result.summary["final_e_J"] < \
        baseline.summary["final_e_J"]
    assert reference_result.summary["energy_used_J"] > \
        baseline.summary["energy_used_J"]


def test_runs_are_deterministic(params, reference_result):
    again = run_scenario(_reference_scenario(aircraft=params))
    assert again.summary == reference_result.summary
    assert again.samples == reference_result.samples


def test_profile_charge_monotone(reference_result):
    q = np.asarray([smp.q for smp in reference_result.samples])
    assert np.all(np.diff(q) < 0.0)


def test_profile_energy_identity(params, reference_result):
    for smp in reference_result.samples[:: 500]:
        assert smp.e == pytest.approx(smp.q * params.voltage, rel=1e-12)


def test_profile_geometry(reference_result):
    samples = reference_result.samples
    assert samples[0].t == 0.0
    assert samples[0].x == 0.0
    assert samples[0].h == 0.0
    assert samples[-1].t == pytest.approx(T_TOTAL, rel=1e-9)
    assert samples[-1].x == 30000.0
    assert samples[-1].h == 1000.0
    x = np.asarray([smp.x for smp in samples])
    h = np.asarray([smp.h for smp in samples])
    assert np.all(np.diff(x) > 0.0)
    assert np.all(np.diff(h) > 0.0)
    # every sample on the straight line to cruise, none held at its altitude
    np.testing.assert_allclose(h, x / 30.0, rtol=1e-12)


def test_profile_row_count_formula(params):
    for dt in (0.1, 0.5, 1.0, 7.0):
        res = run_scenario(_reference_scenario(aircraft=params, sim_step=dt))
        t_total = res.summary["total_time_s"]
        assert len(res.samples) == math.ceil(t_total / dt) + 1


def test_profile_ci_is_continuous(reference_result):
    ci = np.asarray([smp.ci for smp in reference_result.samples])
    dt = 0.1
    bound = 1.1 * (dt / TAU) * abs(CI_IN - CI0)
    assert np.max(np.abs(np.diff(ci))) <= bound
    assert ci[0] == pytest.approx(CI0, rel=1e-12)
    assert ci[-1] == pytest.approx(CI_IN, rel=1e-6)


def test_profile_speed_series(reference_result):
    samples = reference_result.samples
    before = [smp for smp in samples if smp.t < T_EVENT - 1e-6]
    after = [smp for smp in samples if smp.t > T_EVENT + 1e-6]
    assert all(smp.v == pytest.approx(V0, rel=1e-9) for smp in before)
    assert all(smp.v == pytest.approx(V1, rel=1e-9) for smp in after)


def test_tracking_speed_series(params, reference_result, full_segment):
    samples = reference_result.samples
    assert samples[0].v_track == pytest.approx(V0, rel=1e-9)
    v_end = solve_optimal_speed(full_segment, CI_IN, CI_IN, math.inf,
                                params).v_star
    assert samples[-1].v_track == pytest.approx(v_end, rel=1e-9)
    track = np.asarray([smp.v_track for smp in samples])
    assert np.all(track >= V0 - 1e-9)
    assert np.all(track <= params.v_max + 1e-12)
    # rising CI command: the tracking speed rises monotonically
    assert np.all(np.diff(track) >= -1e-9)


def test_constant_ci_scenario_never_scans(params, monkeypatch):
    # every speed of an infinite-tau flight is the constant-CI kernel's: the
    # departure, each re-plan and the tracking column
    def forbidden(*args):
        raise AssertionError("the filtered CI's root ran at constant CI")

    monkeypatch.setattr(climb_optimizer, "_rtsafe", forbidden)
    schedule = CostIndexSchedule(
        ci0=CI0, tau=math.inf, ci_max=CI_MAX,
        events=(CiEvent(ci_in=CI_IN, at_waypoint=(15000.0, 500.0)),
                CiEvent(ci_in=0.5 * CI0, at_time=600.0)))
    res = run_scenario(_reference_scenario(schedule, aircraft=params,
                                           sim_step=1.0))
    assert [ev["applied"] for ev in res.summary["events"]] == [True, True]
    legs = res.summary["segments"]
    assert [leg["iterations"] > 0 for leg in legs] == [True] * 3
    assert legs[0]["v_star_ms"] == pytest.approx(V0, rel=1e-9)


def _sample_times_loop(t_total, dt):
    """The sample grid built one step at a time (oracle for _sample_times)."""
    eps = 1e-9 * max(1.0, t_total)
    times = []
    k = 0
    while k * dt < t_total - eps:
        times.append(k * dt)
        k += 1
    times.append(t_total)
    return times


def test_sample_times_match_stepwise_grid():
    totals = (10.0, 736.0, T_TOTAL, T_BASELINE, 0.3, 1.0 + 1e-12, 5e-10,
              100.0, 700.0000001, 3600.0)
    steps = (0.01, 0.1, 0.25, 1.0, 7.3, 100.0)
    for t_total in totals:
        for dt in steps:
            times = _sample_times(t_total, dt)
            assert times.tolist() == _sample_times_loop(t_total, dt), \
                (t_total, dt)
    # exact multiples end on the grid point itself, not on a duplicate
    assert _sample_times(10.0, 0.1).size == 101
    assert _sample_times(736.0, 0.01).size == 73601


def test_grids_past_the_point_cap_are_domain_errors(params):
    # 1e-12 fails the point-count check before anything is allocated
    with pytest.raises(DomainError, match=r"sim step 1e-12 s needs "
                       r"6003332407921454\.0 grid points"):
        _reference_scenario(aircraft=params, sim_step=1e-12)


def test_scenario_bounds_its_sample_grid_before_flying(params):
    # the legs fly the reference climb's 30,016.7 m slant once, at 5 m/s or
    # faster, so no flight lasts past 6,003.3 s and 10^7 samples allow a
    # 6.0033e-4 s step
    _reference_scenario(aircraft=params, sim_step=6.01e-4)
    with pytest.raises(DomainError, match=r"sim step 0\.0006 s needs "
                       r"10005554\.013202423 grid points"):
        _reference_scenario(aircraft=params, sim_step=6e-4)


def test_storm_config_builds_at_a_step_its_slant_allows():
    # 6,003.3 s at 7e-4 s is 8.6e6 samples, and the six events do not
    # lengthen the flight
    raw = yaml.safe_load(STORM_CONFIG.read_text())
    raw["scenario"]["sim_step_s"] = 7e-4
    assert build_scenario(validate_config(raw))[0].sim_step == 7e-4


def test_profile_is_a_sequence_of_samples(reference_result):
    samples = reference_result.samples
    table = samples.table
    n = len(samples)
    assert table.shape == (n, 8)
    assert not table.flags.writeable
    rows = table.tolist()
    assert samples[-1] == samples[n - 1] == ProfileSample(*rows[-1])
    with pytest.raises(IndexError):
        samples[n]
    every = samples[::500]
    assert len(every) == len(rows[::500])
    assert [dataclasses.astuple(smp) for smp in every] == \
        [tuple(row) for row in rows[::500]]
    listed = list(samples)
    assert all(type(smp) is ProfileSample for smp in listed)
    assert [dataclasses.astuple(smp) for smp in listed] == \
        [tuple(row) for row in rows]
    assert samples == listed
    assert samples != samples[1:]
    assert samples.__eq__(5) is NotImplemented and samples != 5


def test_plan_and_profile_agree_on_times(reference_result):
    s = reference_result.summary
    flown = sum(seg["flown_time_s"] for seg in s["segments"])
    assert flown == pytest.approx(s["total_time_s"], rel=1e-12)
    # the replanned leg flies to completion; the first leg was cut short
    assert s["segments"][1]["flown_time_s"] == \
        pytest.approx(s["segments"][1]["planned_time_s"], rel=1e-12)
    assert s["segments"][0]["flown_time_s"] < \
        s["segments"][0]["planned_time_s"]


def test_twelve_event_replay_applies_every_event(params):
    # the reference climb with six waypoint and six time commands that
    # alternate, each re-planning the rest of the climb, on a 5 s step
    waypoints = [(x, x / 30.0) for x in (4500.0, 9000.0, 13500.0, 18000.0,
                                         22500.0, 27000.0)]
    times = (60.0, 170.0, 290.0, 400.0, 520.0, 640.0)
    events = []
    for k, (wp, t) in enumerate(zip(waypoints, times)):
        events.append(CiEvent(ci_in=CI_MAX * (0.4 + 0.1 * k), at_time=t))
        events.append(CiEvent(ci_in=CI_MAX * (0.95 - 0.1 * k), at_waypoint=wp))
    scn = _reference_scenario(
        waypoints=((0.0, 0.0), *waypoints, (30000.0, 1000.0)),
        aircraft=params, schedule=_reference_schedule(tuple(events)),
        sim_step=5.0)
    result = run_scenario(scn)
    summary = result.summary
    assert [ev["applied"] for ev in summary["events"]] == [True] * 12
    assert len(summary["segments"]) == 13
    rows = len(_sample_times(summary["total_time_s"], scn.sim_step))
    assert len(result.samples) == rows == 154


def test_time_triggered_event_matches_waypoint_trigger(params,
                                                       reference_result):
    sched = _reference_schedule(events=(CiEvent(ci_in=CI_IN,
                                                at_time=T_EVENT),))
    res = run_scenario(_reference_scenario(schedule=sched, aircraft=params))
    v1 = res.summary["segments"][1]["v_star_ms"]
    assert v1 == pytest.approx(V1, rel=1e-9)
    assert res.summary["total_time_s"] == pytest.approx(T_TOTAL, rel=1e-9)
    assert res.summary["events"][0]["x_m"] == pytest.approx(15000.0, abs=1e-6)


def test_event_after_arrival_is_skipped(params):
    sched = _reference_schedule(events=(CiEvent(ci_in=CI_IN, at_time=2000.0),))
    res = run_scenario(_reference_scenario(schedule=sched, aircraft=params))
    assert len(res.summary["segments"]) == 1
    assert res.summary["events"][0]["applied"] is False
    assert res.summary["total_time_s"] == pytest.approx(T_BASELINE, rel=1e-9)


def test_scenario_validation(params):
    no_events = _reference_schedule(events=())
    with pytest.raises(DomainError, match="at least origin and cruise"):
        _reference_scenario(aircraft=params, schedule=no_events,
                            waypoints=((0.0, 0.0),))
    with pytest.raises(DomainError):
        _reference_scenario(aircraft=params,
                            waypoints=((0.0, 0.0), (0.0, 1000.0)))
    # a descending or a level climb is rejected when the Scenario is built
    for cruise_h in (0.0, 500.0):
        with pytest.raises(DomainError, match="must lie above the origin"):
            _reference_scenario(aircraft=params, schedule=no_events,
                                waypoints=((0.0, 500.0), (30000.0, cruise_h)))
    with pytest.raises(DomainError):
        _reference_scenario(aircraft=params, q0=-1.0)
    with pytest.raises(DomainError, match="h_dot_bar must be positive"):
        _reference_scenario(aircraft=params, h_dot_bar=0.0)
    with pytest.raises(DomainError):
        _reference_scenario(aircraft=params, sim_step=0.0)
    # waypoint-triggered events must name an interior scenario waypoint
    sched = _reference_schedule(events=(
        CiEvent(ci_in=CI_IN, at_waypoint=(20000.0, 666.0)),))
    with pytest.raises(DomainError):
        _reference_scenario(schedule=sched, aircraft=params)


def test_depleting_scenario_is_reported_not_raised(params):
    res = run_scenario(_reference_scenario(aircraft=params, q0=100000.0))
    assert res.summary["battery_depleted"] is True
    assert res.summary["final_q_C"] < 0.0


def test_final_charge_may_go_negative(params, reference_result):
    # a small pack is simply reported as depleted, not clamped: it draws
    # the charge a large one draws
    res = run_scenario(_reference_scenario(aircraft=params, q0=1000.0))
    s = res.summary
    assert s["final_q_C"] < 0.0 and s["battery_depleted"] is True
    assert s["final_q_C"] == pytest.approx(
        reference_result.summary["final_q_C"] - 249000.0, rel=1e-12)
    assert res.samples.table[-1, 5] == s["final_q_C"]


# ---------------------------------------------------------------------------
# cost curves (the sweep's J(v); its CSV is checked in test_cli)

def test_cost_curve_large_tau_collapses_to_baseline(params, full_segment):
    v_grid = np.linspace(30.0, 44.0, 57)
    j_base = total_cost(v_grid, full_segment, CI0, CI0, math.inf, 0.0, params)
    j_slow = total_cost(v_grid, full_segment, CI0, CI_IN, 1e9, 0.0, params)
    assert np.max(np.abs(j_slow - j_base) / np.abs(j_base)) < 1e-6


def test_cost_curve_without_a_command_collapses_to_baseline(params,
                                                            full_segment):
    # with no events the sweep filters from ci0 toward ci0
    v_grid = np.linspace(30.0, 44.0, 15)
    j_base = total_cost(v_grid, full_segment, CI0, CI0, math.inf, 0.0, params)
    j_tau = total_cost(v_grid, full_segment, CI0, CI0, 10.0, 0.0, params)
    assert np.allclose(j_tau, j_base, rtol=1e-12)


# ---------------------------------------------------------------------------
# closed-form versus integrated discharge

def test_closed_form_discharge_near_integration(full_segment, params):
    gap = mvt_crosscheck(full_segment, V0, params)
    assert gap < 1e-3


def test_closed_form_exact_for_uniform_density(params):
    atmo = ConstantAtmosphere(1.16)
    seg = segment_between((0.0, 0.0), (30000.0, 1000.0), 1.65, atmo=atmo)
    assert mvt_crosscheck(seg, V0, params, atmo=atmo) <= 1e-9


def test_closed_form_gap_shrinks_with_band(params):
    wide = segment_between((0.0, 0.0), (30000.0, 1000.0), 1.65)
    narrow = segment_between((0.0, 0.0), (30000.0, 100.0), 1.65)
    assert mvt_crosscheck(narrow, V0, params) < \
        mvt_crosscheck(wide, V0, params)


# ---------------------------------------------------------------------------
# one merged event timeline

def test_events_fire_in_time_order_whatever_their_list_order(params):
    wp_event = CiEvent(ci_in=CI_IN, at_waypoint=(15000.0, 500.0))
    early = CiEvent(ci_in=0.5 * CI_MAX, at_time=100.0)
    results = [run_scenario(_reference_scenario(
        schedule=_reference_schedule(events=events), aircraft=params))
        for events in ((wp_event, early), (early, wp_event))]
    assert results[0].summary == results[1].summary
    assert results[0].samples == results[1].samples
    s = results[0].summary
    assert [ev["t_s"] for ev in s["events"]] == \
        pytest.approx([100.0, 396.617], abs=1e-3)
    assert [ev["ci_in_Cs"] for ev in s["events"]] == \
        [early.ci_in, wp_event.ci_in]
    assert s["total_time_s"] == pytest.approx(747.163, abs=1e-3)
    assert [seg["start_x_m"] for seg in s["segments"][1:]] == \
        [ev["x_m"] for ev in s["events"]]


def test_after_arrival_events_are_listed_last(params):
    late = CiEvent(ci_in=0.5 * CI_MAX, at_time=2000.0)
    wp_event = CiEvent(ci_in=CI_IN, at_waypoint=(15000.0, 500.0))
    res = run_scenario(_reference_scenario(
        schedule=_reference_schedule(events=(late, wp_event)),
        aircraft=params))
    events = res.summary["events"]
    assert [ev["applied"] for ev in events] == [True, False]
    assert events[0]["t_s"] == pytest.approx(T_EVENT, rel=1e-9)
    assert events[1]["t_s"] == 2000.0
    assert res.summary["total_time_s"] == pytest.approx(T_TOTAL, rel=1e-9)


def test_waypoint_event_off_the_flown_line_fires_at_its_x(params):
    # The waypoint lies well above the straight origin-cruise line; its event
    # fires when the aircraft's x reaches 1 km, so a time event due before
    # then comes first and one due after comes second.
    wp = (1000.0, 1000.0)
    for t_time, first in ((20.0, "time"), (30.0, "waypoint")):
        events = (CiEvent(ci_in=0.5 * CI_MAX, at_time=t_time),
                  CiEvent(ci_in=CI_IN, at_waypoint=wp))
        res = run_scenario(_reference_scenario(
            waypoints=((0.0, 0.0), wp, (30000.0, 1000.0)),
            schedule=_reference_schedule(events=events), aircraft=params))
        fired = res.summary["events"]
        assert all(ev["applied"] for ev in fired)
        assert fired[0]["t_s"] < fired[1]["t_s"]
        assert (fired[0]["t_s"] == t_time) == (first == "time")
        wp_fired = [ev for ev in fired if ev["ci_in_Cs"] == CI_IN][0]
        assert (wp_fired["x_m"], wp_fired["h_m"]) == \
            pytest.approx((1000.0, 1000.0 / 30.0), rel=1e-12)


@pytest.mark.parametrize("timed_first", [True, False])
def test_simultaneous_events_fire_in_list_order(timed_first, params):
    # on the E430 (params), a timed event at 200 s, and a waypoint event
    # where the departure speed puts the aircraft at 200 s: both fall due
    origin, cruise = (0.0, 0.0), (30000.0, 1000.0)
    seg = segment_between(origin, cruise, 1.3)
    v0 = solve_optimal_speed(seg, 150.0, 150.0, math.inf, params).v_star
    frac = 200.0 * v0 / seg.d
    wp = (frac * cruise[0], frac * cruise[1])
    events = [CiEvent(ci_in=300.0, at_time=200.0),
              CiEvent(ci_in=250.0, at_waypoint=wp)]
    if not timed_first:
        events.reverse()
    res = run_scenario(Scenario(
        waypoints=(origin, wp, cruise), aircraft=params,
        schedule=CostIndexSchedule(ci0=150.0, tau=60.0, ci_max=300.0,
                                   events=tuple(events)),
        q0=250000.0, h_dot_bar=1.3))
    s = res.summary
    assert [ev["applied"] for ev in s["events"]] == [True, True]
    assert [ev["ci_in_Cs"] for ev in s["events"]] == \
        [ev.ci_in for ev in events]
    assert [seg["flown_time_s"] for seg in s["segments"]][1] == 0.0
    table = res.samples.table
    assert (np.diff(table[:, 0]) > 0.0).all()
    assert (np.diff(table[:, 5]) <= 0.0).all()


def test_interior_waypoints_lie_in_the_climb_band(params):
    for h in (1500.0, -1.0):
        with pytest.raises(DomainError, match="altitude band"):
            _reference_scenario(
                aircraft=params, schedule=_reference_schedule(events=()),
                waypoints=((0.0, 0.0), (15000.0, h), (30000.0, 1000.0)))
    for h in (0.0, 1000.0):
        scn = _reference_scenario(
            aircraft=params, waypoints=((0.0, 0.0), (15000.0, h),
                                        (30000.0, 1000.0)),
            schedule=_reference_schedule(events=(
                CiEvent(ci_in=CI_IN, at_waypoint=(15000.0, h)),)))
        assert run_scenario(scn).summary["events"][0]["applied"] is True


# ---------------------------------------------------------------------------
# re-planned legs reuse the whole climb's density means

STORM_CONFIG = Path(__file__).resolve().parent.parent / "configs" \
    / "e430_atc_storm.yaml"


def _storm_scenario(variant):
    raw = yaml.safe_load(STORM_CONFIG.read_text())
    if variant == "coarse-grid":
        raw["scenario"]["atmosphere_step_m"] = 20.0
    elif variant == "raised-constant-ci":
        # origin at 300 m, so the band does not start at sea level
        for wp in raw["scenario"]["waypoints_km"]:
            wp[1] += 0.3
        for ev in raw["cost_index"]["events"]:
            if "at_waypoint_km" in ev:
                ev["at_waypoint_km"][1] += 0.3
            if "ci_in_value_Cs" in ev:  # the ceiling moves with the band
                del ev["ci_in_value_Cs"]
                ev["ci_in_fraction"] = 0.95
        raw["cost_index"]["tau"] = {"mode": "infinite"}
    return build_scenario(validate_config(raw))[0]


@pytest.mark.parametrize("variant", ["as-is", "coarse-grid",
                                     "raised-constant-ci"])
def test_replans_equal_solves_on_segment_between(variant, monkeypatch):
    scn = _storm_scenario(variant)
    replans = []
    solve = scenario_sim.solve_optimal_speed

    def spy(seg, *args, **kwargs):
        replans.append((seg, args, kwargs))
        return solve(seg, *args, **kwargs)

    monkeypatch.setattr(scenario_sim, "solve_optimal_speed", spy)
    res = run_scenario(scn)
    plans = [ClimbPlan(leg["v_star_ms"], leg["planned_time_s"],
                       leg["j_star_C"], leg["iterations"],
                       leg["at_envelope_limit"])
             for leg in res.summary["segments"]]
    origin, cruise = scn.waypoints[0], scn.waypoints[-1]
    fired = res.summary["events"]
    assert all(ev["applied"] for ev in fired)
    # The departure is solved like every re-plan, on the whole climb.
    (seg, _args, _kwargs), replans = replans[0], replans[1:]
    full_seg = segment_between(origin, cruise, scn.h_dot_bar, scn.atmo,
                               scn.atmo_step)
    assert seg == full_seg
    ci0 = scn.schedule.ci0
    departure = solve_optimal_speed(full_seg, ci0, ci0, math.inf, scn.aircraft)
    for field in dataclasses.fields(departure):
        assert (getattr(plans[0], field.name)
                == getattr(departure, field.name)), field.name
    assert len(replans) == len(fired) == len(plans) - 1 == 6
    for k, ((seg, args, kwargs), ev) in enumerate(zip(replans, fired), 1):
        reference = segment_between(
            (ev["x_m"], ev["h_m"]), cruise, scn.h_dot_bar, scn.atmo,
            scn.atmo_step, density_band=(origin[1], cruise[1]))
        assert seg == reference
        plan = solve_optimal_speed(reference, *args, **kwargs)
        for field in dataclasses.fields(plan):
            assert (getattr(plans[k], field.name)
                    == getattr(plan, field.name)), (k, field.name)


# ---------------------------------------------------------------------------
# tracking speeds are solved once per run of equal cost index

CLIMB_CONFIG = STORM_CONFIG.parent / "e430_atc_climb.yaml"


@pytest.mark.parametrize("case", ["climb-0.01s", "storm", "climb-tau-inf"])
def test_tracking_speed_column_is_the_economy_speed_of_each_row(case):
    raw = yaml.safe_load((STORM_CONFIG if case == "storm"
                          else CLIMB_CONFIG).read_text())
    if case != "storm":
        raw["scenario"]["sim_step_s"] = 0.01
    if case == "climb-tau-inf":
        raw["cost_index"]["tau"] = {"mode": "infinite"}
    scn, full_seg = build_scenario(validate_config(raw))
    table = run_scenario(scn).samples.table
    expected = economy_speed(full_seg, table[:, 4], scn.aircraft)[0]
    assert table[:, 7].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the replay gathers every point's leg at once and draws the charge in
# closed form; the leg-by-leg loop it replaced is the reference for the
# other columns, and a fine trapezoid of the charge rate for q and e

def _replay_cases():
    climb = build_scenario(validate_config(
        yaml.safe_load(CLIMB_CONFIG.read_text())))[0]
    cases = {
        "climb-0.1s": climb,
        "climb-0.01s": dataclasses.replace(climb, sim_step=0.01),
        "storm": _storm_scenario("as-is"),
        "climb-tau-inf": dataclasses.replace(
            climb, schedule=dataclasses.replace(climb.schedule,
                                                tau=math.inf)),
    }
    for k, scn in enumerate(_bench_inputs().replan_storm_scenarios(1001)[:20]):
        cases[f"replan-storm-1001-{k}"] = scn
    return cases


REPLAY_CASES = _replay_cases()


@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_replay_matches_the_leg_by_leg_reference(case):
    scn = REPLAY_CASES[case]
    result = run_scenario(scn)
    table = result.samples.table
    expected = replay_reference(scn, result.summary)
    exact = [0, 1, 2, 3, 4, 7]  # t, x, h, v, ci and v_track
    assert table[:, exact].tobytes() == expected[:, exact].tobytes()
    for col in (5, 6):  # q and e
        gap = np.abs(table[:, col] - expected[:, col])
        assert (gap <= 1e-6 * np.abs(expected[:, col])).all()


@pytest.mark.parametrize("case", [
    case for case in REPLAY_CASES
    if case in ("climb-0.1s", "storm") or case.startswith("replan-storm-1001")])
def test_each_leg_books_the_replayed_charge_at_its_start(case):
    # Q_f of a leg is the replayed charge at its start less its closed form
    scn = REPLAY_CASES[case]
    s = run_scenario(scn).summary
    origin, cruise = scn.waypoints[0], scn.waypoints[-1]
    full = segment_between(origin, cruise, scn.h_dot_bar, scn.atmo,
                           scn.atmo_step)
    starts = [0.0] + [ev["t_s"] for ev in s["events"] if ev["applied"]]
    oracle = replay_reference(scn, s, times=starts + [s["total_time_s"]])
    for leg, q_start in zip(s["segments"], oracle[:-1, 5]):
        seg = ClimbSegment((leg["start_x_m"], leg["start_h_m"]), cruise,
                           scn.h_dot_bar, full.rho_bar, full.delta_rho_bar)
        booked = leg["q_f_C"] + segment_discharge(leg["v_star_ms"], seg,
                                                  scn.aircraft)
        assert abs(booked - q_start) <= 1e-6 * abs(q_start)


def test_final_charge_does_not_depend_on_the_sample_step():
    climb = REPLAY_CASES["climb-0.1s"]
    finals = set()
    for dt in (0.01, 0.1, 1.0, 100.0, 1000.0):
        result = run_scenario(dataclasses.replace(climb, sim_step=dt))
        finals.add(result.summary["final_q_C"].hex())
        if dt == 0.01:
            assert (np.diff(result.samples.table[:, 5]) < 0.0).all()
    assert len(finals) == 1
    assert float.fromhex(finals.pop()) == pytest.approx(69592.335, abs=1e-3)


# ---------------------------------------------------------------------------
# one flight path: every leg flies the straight origin-cruise line

@st.composite
def _line_scenarios(draw):
    """Climbs around the reference one, with random interior waypoints on
    the origin-cruise line or off it (at the origin's or the cruise
    altitude among others), and time and waypoint events interleaved."""
    f = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    h0 = f(0.0, 2000.0)
    cruise = (f(5000.0, 40000.0), h0 + f(100.0, 3000.0))
    xs = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=3, unique=True)))
    interior = [(x * cruise[0], draw(st.sampled_from(
        [h0, cruise[1], h0 + x * (cruise[1] - h0), f(h0, cruise[1])])))
        for x in xs]
    placed = [wp for wp in interior if draw(st.booleans())]
    timed = sorted(draw(st.lists(st.floats(1.0, 1500.0), max_size=3,
                                 unique=True)))
    events = []
    while timed or placed:
        trigger = ({"at_time": timed.pop(0)}
                   if timed and (not placed or draw(st.booleans()))
                   else {"at_waypoint": placed.pop(0)})
        events.append(CiEvent(ci_in=f(0.0, 1.0) * CI_MAX, **trigger))
    return Scenario(
        waypoints=((0.0, h0), *interior, cruise), aircraft=e430(),
        schedule=CostIndexSchedule(ci0=CI0, tau=f(1.0, 1000.0),
                                   ci_max=CI_MAX, events=tuple(events)),
        q0=250000.0, h_dot_bar=f(1.0, 3.0), sim_step=0.01)


# The last leg starts at 201.14... m, where 201.14... + (1800.11 - 201.14...)
# rounds to 1800.1099999999997: the arrival is pinned, not interpolated.
@example(Scenario(
    waypoints=((0.0, 0.0), (30000.0, 1800.11)), aircraft=e430(),
    schedule=CostIndexSchedule(ci0=CI0, tau=100.0, ci_max=CI_MAX, events=(
        CiEvent(ci_in=0.5 * CI_MAX, at_time=85.1),)),
    q0=250000.0, h_dot_bar=1.65, sim_step=0.01))
@settings(deadline=None)
@given(_line_scenarios())
def test_every_sample_flies_the_origin_cruise_line(scn):
    result = run_scenario(scn)
    (xo, ho), cruise = scn.waypoints[0], scn.waypoints[-1]
    table = result.samples.table
    line = ho + (table[:, 1] - xo) * (cruise[1] - ho) / (cruise[0] - xo)
    np.testing.assert_allclose(table[:, 2], line, rtol=1e-9, atol=0.0)
    assert tuple(table[-1, 1:3]) == cruise
    assert (np.diff(table[:, 5]) <= 0.0).all()
    coarse = run_scenario(dataclasses.replace(scn, sim_step=100.0))
    assert coarse.summary["final_q_C"].hex() == \
        result.summary["final_q_C"].hex()
