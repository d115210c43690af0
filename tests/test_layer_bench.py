"""Layer benchmarks: the departure solve (constant CI), one re-plan solve
(filtered CI), one twelve-event replay and the profile CSV of the bundled
climb.

Each benchmark runs 20 single-call rounds, so the whole file adds well under
a second to the suite, and checks what the timed call returned, so it fails
on a wrong answer as any test does. To keep and compare timings:

    python -m pytest tests/test_layer_bench.py --benchmark-autosave
    python -m pytest tests/test_layer_bench.py --benchmark-compare
"""

from pathlib import Path

import pytest

from econclimb import (
    CiEvent,
    CostIndexSchedule,
    Scenario,
    fms_initial_speed,
    run_scenario,
    solve_optimal_speed,
)
from econclimb.cli_io import _profile_csv, build_scenario, load_config
from econclimb.scenario_sim import _sample_times
from tests.csv_reference import csv_reference

pytest.importorskip("pytest_benchmark")

# the reference climb's re-plan at the mid waypoint (see test_optimizer)
CI_MAX = 327.98896536571016
CI0 = 196.7933792194261
CI_IN = 295.19006882913914
TAU = 7.708109233368014
V0 = 38.94166666666666
V1 = 42.81419315829977


def test_bench_departure_solve(benchmark, params, full_segment):
    plan = benchmark.pedantic(fms_initial_speed,
                              args=(full_segment, CI0, params),
                              kwargs={"q0": 250000.0}, rounds=20,
                              iterations=1)
    assert plan.v_star == pytest.approx(V0, rel=1e-9)
    assert not plan.at_envelope_limit


def test_bench_replan_solve(benchmark, params, replan_segment):
    plan = benchmark.pedantic(
        solve_optimal_speed,
        args=(replan_segment, CI0, CI_IN, TAU, params),
        kwargs={"q0": 150000.0}, rounds=20, iterations=1)
    assert plan.v_star == pytest.approx(V1, rel=1e-9)
    # the leg lasts about 45 filter time constants, so the CI has settled
    # at ci_in and the speed is the constant-CI one at ci_in
    v_in = fms_initial_speed(replan_segment, CI_IN, params).v_star
    assert plan.v_star == pytest.approx(v_in, rel=1e-9)
    assert fms_initial_speed(replan_segment, CI0, params).v_star < v_in


def _twelve_event_scenario(params):
    """The reference climb with six waypoint and six time commands that
    alternate, each re-planning the rest of the climb, on a 5 s step."""
    waypoints = [(x, x / 30.0) for x in (4500.0, 9000.0, 13500.0, 18000.0,
                                         22500.0, 27000.0)]
    times = (60.0, 170.0, 290.0, 400.0, 520.0, 640.0)
    events = []
    for k, (wp, t) in enumerate(zip(waypoints, times)):
        events.append(CiEvent(ci_in=CI_MAX * (0.4 + 0.1 * k), at_time=t))
        events.append(CiEvent(ci_in=CI_MAX * (0.95 - 0.1 * k), at_waypoint=wp))
    return Scenario(
        waypoints=((0.0, 0.0), *waypoints, (30000.0, 1000.0)),
        aircraft=params,
        schedule=CostIndexSchedule(ci0=CI0, tau=TAU, ci_max=CI_MAX,
                                   events=tuple(events)),
        q0=250000.0, h_dot_bar=1.65, sim_step=5.0)


def test_bench_run_scenario(benchmark, params):
    scn = _twelve_event_scenario(params)
    result = benchmark.pedantic(run_scenario, args=(scn,), rounds=20,
                                iterations=1)
    summary = result.summary
    assert [ev["applied"] for ev in summary["events"]] == [True] * 12
    assert len(result.plans) == 13
    rows = len(_sample_times(summary["total_time_s"], scn.sim_step))
    assert len(result.samples) == rows == 154


def test_bench_profile_csv(benchmark):
    config = Path(__file__).resolve().parent.parent / "configs" \
        / "e430_atc_climb.yaml"
    scenario, _climb = build_scenario(load_config(config))
    table = run_scenario(scenario).samples.table
    assert table.shape == (7361, 8)  # the 0.1 s step of the config
    text = benchmark.pedantic(_profile_csv, args=(table,), rounds=20,
                              iterations=1)
    assert text == csv_reference("t_s,x_m,h_m,v_ms,ci_Cs,q_C,e_J,v_track_ms",
                                 table)
