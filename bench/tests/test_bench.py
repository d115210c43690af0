"""Tests of the benchmark's generators, checks, tracer and metric names.

Run from the repository root: python -m pytest -q bench/tests
"""

import contextlib
import dataclasses
import io
import json
import os
import re

import numpy as np
import pytest

import checks
import inputs
import run as bench_run
import spans
from econclimb import cli_io, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REFERENCE = os.path.join(ROOT, inputs.REFERENCE_CONFIG)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_gives_identical_inputs():
    for gen in (inputs.cli_cold_configs, inputs.fine_profile_configs):
        assert gen(7) == gen(7)
        assert gen(7) != gen(8)
    a = repr(inputs.replan_storm_scenarios(7, count=30))
    assert a == repr(inputs.replan_storm_scenarios(7, count=30))
    assert a != repr(inputs.replan_storm_scenarios(8, count=30))


def test_replan_storm_inputs_mix_triggers_and_tau_modes():
    scns = inputs.replan_storm_scenarios(3, count=60)
    counts = [len(s.schedule.events) for s in scns]
    assert min(counts) >= 4 and max(counts) <= 16
    kinds = {(e.at_time is None) for s in scns for e in s.schedule.events}
    assert kinds == {True, False}
    assert any(np.isinf(s.schedule.tau) for s in scns)
    assert any(np.isfinite(s.schedule.tau) for s in scns)


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_scenarios_fly_and_pass_checks(seed):
    for scn in inputs.replan_storm_scenarios(seed, count=25):
        checks.check_samples(run_scenario(scn), scn)


@pytest.mark.parametrize("gen", [inputs.cli_cold_configs,
                                 inputs.fine_profile_configs])
def test_generated_configs_validate(tmp_path, gen):
    for name, text in gen(5)[1:]:
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        cfg = cli_io.load_config(str(path), env={})
        scenario, _ = cli_io.build_scenario(cfg)
        assert len(scenario.schedule.events) <= 2


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("profile") / "p.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_io.main(["profile", "--config", REFERENCE, "--out", out,
                          "--sim-step", "1"])
    assert rc == 0
    with open(out) as fh:
        text = fh.read()
    with open(out + ".meta.json") as fh:
        meta = json.load(fh)
    return text, meta


def test_checker_accepts_genuine_profile(profile):
    text, meta = profile
    rows = checks.check_profile_csv(text, meta, 1.0)
    assert rows == text.count("\n") - 1


def _corrupt(text, how):
    lines = text.splitlines()
    mid = len(lines) // 2
    cells = lines[mid].split(",")
    if how == "nan":
        cells[3] = "nan"
        lines[mid] = ",".join(cells)
    elif how == "dropped-row":
        del lines[mid]
    elif how == "rising-q":
        cells[5] = repr(float(lines[mid - 1].split(",")[5]) + 10.0)
        lines[mid] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("how", ["nan", "dropped-row", "rising-q"])
def test_checker_rejects_corrupted_profile(profile, how):
    text, meta = profile
    with pytest.raises(checks.CheckError):
        checks.check_profile_csv(_corrupt(text, how), meta, 1.0)


@pytest.mark.parametrize("column", ["q", "v_track"])
def test_checker_rejects_nan_sample(column):
    cfg = cli_io.load_config(REFERENCE, env={}, sim_step=5.0)
    scenario, _ = cli_io.build_scenario(cfg)
    result = run_scenario(scenario)
    samples = list(result.samples)
    mid = len(samples) // 2
    samples[mid] = dataclasses.replace(samples[mid], **{column: float("nan")})
    with pytest.raises(checks.CheckError):
        checks.check_samples(dataclasses.replace(result, samples=samples),
                             scenario)


def test_checker_rejects_wrong_speed():
    cfg = cli_io.load_config(REFERENCE, env={}, sim_step=5.0)
    scenario, _ = cli_io.build_scenario(cfg)
    result = run_scenario(scenario)
    checks.check_samples(result, scenario)
    for k in range(len(result.summary["segments"])):
        summary = json.loads(json.dumps(cli_io._jsonable(result.summary)))
        checks.check_plan_legs(summary, scenario, printed=True)
        summary["segments"][k]["v_star_kmh"] += 0.05
        with pytest.raises(checks.CheckError):
            checks.check_plan_legs(summary, scenario, printed=True)


def test_checker_rejects_bad_sweep_and_calibration():
    sweep = ("tau_s,v_ms,v_kmh,j_C,is_argmin\n"
             "inf,30,108,5,0\ninf,31,111.6,4,1\ninf,32,115.2,6,0\n")
    checks.check_sweep_csv(sweep)
    with pytest.raises(checks.CheckError):
        checks.check_sweep_csv(sweep.replace("6,0", "6,1"))
    with pytest.raises(checks.CheckError):
        checks.check_sweep_csv(sweep.replace("4,1", "4,0"))
    report = {"modes": {"calibrated": {"deviation_pct": 1e-9}}}
    checks.check_calibrate_json(json.dumps(report))
    report["modes"]["calibrated"]["deviation_pct"] = 0.5
    with pytest.raises(checks.CheckError):
        checks.check_calibrate_json(json.dumps(report))


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_the_spec():
    spec = _benchmark_spec()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.op = 0
        cfg = cli_io.load_config(REFERENCE, env={}, sim_step=5.0)
        run_scenario(cli_io.build_scenario(cfg)[0])
    finally:
        tracer.active = False
        tracer.uninstall()
    layer, _ = spans.layer_metrics(tracer.names, tracer.spans,
                                   tracer.counts, 1)
    produced = {k: unit for k, (_, unit) in layer.items()}
    produced.update({"econclimb.import_s": "s",
                     "econclimb.modules_loaded": "count",
                     "trace.overhead_frac": "ratio"})
    assert produced == {m["name"]: m["unit"] for m in spec["per_layer"]}
    res = {"latencies": [0.1, 0.2], "setup_s": 1.0, "peak_rss_mb": 80.0}
    e2e = bench_run._end_to_end(res)
    assert {k: m["unit"] for k, m in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(NAME_RE.fullmatch(n) for n in tracer.names)


def test_warm_up_spans_stay_out_of_per_op_figures():
    from econclimb import scenario_sim

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.op = -1
        cfg = cli_io.load_config(REFERENCE, env={}, sim_step=5.0)
        scenario = cli_io.build_scenario(cfg)[0]
        scenario_sim.run_scenario(scenario)
        tracer.op = 0
        scenario_sim.run_scenario(scenario)
    finally:
        tracer.active = False
        tracer.uninstall()
    layer, shares = spans.layer_metrics(tracer.names, tracer.spans,
                                        tracer.counts, 1)
    runs = [s for s in tracer.spans
            if tracer.names[s[0]] == "scenario_sim.run_scenario"]
    assert [s[4] for s in runs] == [-1, 0]
    assert layer["scenario_sim.run_scenario_ms"][0] == pytest.approx(
        (runs[1][2] - runs[1][1]) / 1e6)
    assert layer["scenario_sim.rows"][0] == len(run_scenario(scenario).samples)
    loads = [s for s in tracer.spans
             if tracer.names[s[0]] == "cli_io.load_config"]
    assert layer["cli_io.load_config_ms"][0] == pytest.approx(
        (loads[0][2] - loads[0][1]) / 1e6)
    assert shares["cli_io"]["inclusive"] == 0.0


def test_tracer_restores_every_binding():
    from econclimb import climb_optimizer, scenario_sim

    before = (scenario_sim.solve_optimal_speed, climb_optimizer.cost_gradient,
              cli_io.run_scenario)
    tracer = spans.Tracer()
    tracer.install()
    assert scenario_sim.solve_optimal_speed is not before[0]
    tracer.uninstall()
    assert (scenario_sim.solve_optimal_speed, climb_optimizer.cost_gradient,
            cli_io.run_scenario) == before


def test_repeated_input_must_repeat_the_checked_output(tmp_path):
    import workloads

    run = workloads.Run(ROOT, 0, str(tmp_path))
    calls = []
    check = lambda: calls.append(1) or 7  # noqa: E731
    assert run.check_once("op", [b"out"], check) == 7
    assert run.check_once("op", [b"out"], check) == 7
    assert calls == [1]
    with pytest.raises(checks.CheckError):
        run.check_once("op", [b"other"], check)
