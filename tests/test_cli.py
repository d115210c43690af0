import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

import econclimb
from econclimb import climb_optimizer, scenario_sim, segment_between
from econclimb.cli_io import (
    _BAKED_RUNS,
    _BLOCK_ROWS,
    ConfigError,
    _csv,
    _json_text,
    _jsonable,
    build_scenario,
    fmt,
    load_config,
    main,
    validate_config,
)
from tests.csv_reference import csv_reference

CONFIG = Path(__file__).resolve().parent.parent / "configs" \
    / "e430_atc_climb.yaml"


def _read_config_dict():
    return yaml.safe_load(CONFIG.read_text())


def test_bundled_config_loads():
    cfg = load_config(CONFIG)
    assert cfg["aircraft"]["mass_kg"] == 472.0
    assert cfg["scenario"]["sim_step_s"] == 0.1  # default filled in
    assert cfg["cost_index"]["ci_max"]["mode"] == "calibrated"
    assert len(cfg["cost_index"]["events"]) == 1


def test_config_round_trip_is_idempotent():
    cfg = load_config(CONFIG)
    text = yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)
    cfg2 = validate_config(yaml.safe_load(text))
    assert cfg2 == cfg
    assert yaml.safe_dump(cfg2, sort_keys=True,
                          default_flow_style=None) == text


def test_unknown_keys_rejected(tmp_path):
    for mutate in (
        lambda c: c.update(extra_block={}),
        lambda c: c["aircraft"].update(wingspan_m=10.0),
        lambda c: c["scenario"].update(wind_ms=5.0),
        lambda c: c["cost_index"].update(ci1_fraction=0.5),
        lambda c: c["cost_index"]["ci_max"].update(slack=1.0),
        lambda c: c["cost_index"]["tau"].update(mode2="x"),
        lambda c: c["cost_index"]["events"][0].update(label="noise"),
    ):
        raw = _read_config_dict()
        mutate(raw)
        with pytest.raises(ConfigError):
            validate_config(raw)


def test_value_validation():
    raw = _read_config_dict()
    raw["cost_index"]["ci0_fraction"] = 1.2
    with pytest.raises(ConfigError, match="ci0_fraction"):
        validate_config(raw)

    raw = _read_config_dict()
    raw["cost_index"]["events"][0]["ci_in_fraction"] = -0.1
    with pytest.raises(ConfigError, match="ci_in_fraction"):
        validate_config(raw)

    raw = _read_config_dict()
    raw["aircraft"]["efficiency"] = 0.0
    with pytest.raises(ConfigError, match="efficiency"):
        validate_config(raw)

    raw = _read_config_dict()
    del raw["aircraft"]["mass_kg"]
    with pytest.raises(ConfigError, match="mass_kg"):
        validate_config(raw)

    raw = _read_config_dict()
    raw["scenario"]["waypoints_km"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError, match="waypoints_km"):
        validate_config(raw)

    raw = _read_config_dict()
    raw["cost_index"]["ci0_value_Cs"] = 100.0  # both forms at once
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(raw)

    raw = _read_config_dict()
    raw["cost_index"]["tau"] = {"mode": "seconds"}  # missing seconds
    with pytest.raises(ConfigError, match="seconds"):
        validate_config(raw)

    for block, key, value in (("scenario", "q0_coulombs", math.nan),
                              ("scenario", "h_dot_bar_ms", math.inf),
                              ("aircraft", "mass_kg", -math.inf)):
        raw = _read_config_dict()
        raw[block][key] = value
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            validate_config(raw)

    raw = _read_config_dict()
    raw["scenario"]["waypoints_km"][1] = [math.nan, 0.5]
    with pytest.raises(ConfigError, match="finite"):
        validate_config(raw)


def test_env_overrides(tmp_path):
    env = {"ECONCLIMB_SCENARIO__SIM_STEP_S": "0.5",
           "ECONCLIMB_COST_INDEX__CI0_FRACTION": "0.7",
           "HOME": "/ignored"}
    cfg = load_config(CONFIG, env=env)
    assert cfg["scenario"]["sim_step_s"] == 0.5
    assert cfg["cost_index"]["ci0_fraction"] == 0.7
    for name, value, message in (
            ("ECONCLIMB_AIRCRAFT__NO_SUCH_KEY", "1", "unknown key"),
            ("ECONCLIMB_AIRCRAFT____MASS_KG", "1",
             "malformed override variable"),
            ("ECONCLIMB_AIRCRAFT__MASS_KG", "[1", "unparseable value"),
            ("ECONCLIMB_SCENARIO__Q0_COULOMBS__X", "1",
             "q0_coulombs is not a mapping")):
        with pytest.raises(ConfigError, match=message):
            load_config(CONFIG, env={name: value})
    # an override may create a block the file leaves out
    raw = _read_config_dict()
    del raw["cost_index"]["tau"]
    path = tmp_path / "no_tau.yaml"
    path.write_text(yaml.safe_dump(raw))
    env = {"ECONCLIMB_COST_INDEX__TAU__MODE": "infinite"}
    assert load_config(path, env=env)["cost_index"]["tau"] == \
        {"mode": "infinite"}


def test_env_overrides_reach_mixed_case_keys(tmp_path):
    raw = _read_config_dict()
    cx = raw["cost_index"]
    del cx["ci0_fraction"]
    cx["ci0_value_Cs"] = 150.0
    cx["ci_max"] = {"mode": "value", "value_Cs": 300.0}
    cx["events"][0] = {"at_time_s": 100.0, "ci_in_value_Cs": 200.0}
    path = tmp_path / "values.yaml"
    path.write_text(yaml.safe_dump(raw))
    env = {"ECONCLIMB_COST_INDEX__CI0_VALUE_CS": "120",
           "ECONCLIMB_COST_INDEX__CI_MAX__VALUE_CS": "5"}
    cfg = load_config(path, env=env)
    assert cfg["cost_index"]["ci0_value_Cs"] == 120.0
    assert cfg["cost_index"]["ci_max"]["value_Cs"] == 5.0


def test_flag_overrides_beat_env():
    env = {"ECONCLIMB_SCENARIO__SIM_STEP_S": "0.5",
           "ECONCLIMB_SCENARIO__ATMOSPHERE_STEP_M": "2"}
    cfg = load_config(CONFIG, env=env, sim_step=0.25)
    assert cfg["scenario"]["sim_step_s"] == 0.25
    assert cfg["scenario"]["atmosphere_step_m"] == 2.0


def test_build_scenario_resolves_modes():
    cfg = load_config(CONFIG)
    scenario, climb = build_scenario(cfg)
    sched = scenario.schedule
    assert scenario.ci_max_mode == "calibrated"
    assert sched.ci_max == pytest.approx(327.98896536571016, rel=1e-10)
    assert sched.ci0 == pytest.approx(196.7933792194261, rel=1e-10)
    assert sched.tau == pytest.approx(7.708109233368014, rel=1e-8)
    assert scenario.q0 == 250000.0
    assert len(sched.events) == 1
    assert climb == segment_between(
        scenario.waypoints[0], scenario.waypoints[-1], scenario.h_dot_bar,
        scenario.atmo, scenario.atmo_step)
    quiet, _ = build_scenario(cfg, no_event=True)
    assert quiet.schedule.ci0 == sched.ci0
    assert quiet.schedule.events == ()


def test_fmt_six_significant_digits():
    assert fmt(123456.789) == "123457"
    assert fmt(0.000123456789) == "0.000123457"
    assert fmt(1.0) == "1"
    assert fmt(math.inf) == "inf"
    assert fmt(-math.inf) == "-inf"
    assert fmt(True) == "yes"
    assert fmt(False) == "no"


# ---------------------------------------------------------------------------
# subcommands

def _run(capsys, command, *flags):
    """main on the bundled config: (exit code, its captured stdout and
    stderr)."""
    code = main([command, "--config", str(CONFIG), *map(str, flags)])
    return code, capsys.readouterr()


def test_plan_output_is_stable_and_correct(tmp_path, capsys):
    rec1 = tmp_path / "plan1.json"
    rec2 = tmp_path / "plan2.json"
    code1, out1 = _run(capsys, "plan", "--out", rec1)
    code2, out2 = _run(capsys, "plan", "--out", rec2)
    assert code1 == code2 == 0
    assert out1 == out2
    assert rec1.read_bytes() == rec2.read_bytes()

    text = out1.out
    assert "v* = 140.19 km/h (38.9417 m/s)" in text
    assert "v* = 154.131 km/h" in text
    assert "total time: 735.951 s" in text
    assert "delta: -34.8598 s" in text
    assert "mode: calibrated" in text
    assert "battery depleted: no" in text

    record = json.loads(rec1.read_text())
    assert record["total_time_s"] == pytest.approx(735.951, abs=1e-3)
    assert record["segments"][1]["v_star_kmh"] == \
        pytest.approx(154.131, abs=1e-3)
    assert record["events"][0]["applied"] is True


def test_plan_no_event(capsys):
    code, out = _run(capsys, "plan", "--no-event")
    assert code == 0
    text = out.out
    assert "delta: 0 s" in text
    assert "event" not in text.splitlines()[2]


def test_profile_csv(tmp_path, capsys):
    csv_path = tmp_path / "profile.csv"
    assert _run(capsys, "profile", "--out", csv_path)[0] == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_s,x_m,h_m,v_ms,ci_Cs,q_C,e_J,v_track_ms"

    meta = json.loads((tmp_path / "profile.csv.meta.json").read_text())
    t_total = meta["total_time_s"]
    assert len(lines) - 1 == math.ceil(t_total / 0.1) + 1

    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    voltage = 133.2
    q_prev = None
    for t, x, h, v, ci, q, e, v_track in rows:
        assert e == pytest.approx(q * voltage, rel=2e-5)
        if q_prev is not None:
            assert q < q_prev
        q_prev = q
    assert rows[-1][1] == pytest.approx(30000.0, rel=1e-5)
    assert rows[-1][2] == pytest.approx(1000.0, rel=1e-9)


def test_csv_renders_cells_as_fmt():
    table = np.array([
        [math.inf, -math.inf, math.nan, -0.0, 0.0],
        [1e-7, 1.5e21, 123456.789, 0.000123456789, -2.5],
        [1.0, 0.0, 16200.0, 140.0, -7.0],
    ])
    expected = "".join(",".join(fmt(u) for u in row) + "\n"
                       for row in table.tolist())
    assert _csv("a,b,c,d,e", table) == "a,b,c,d,e\n" + expected
    assert _csv("a,b", np.empty((0, 2))) == "a,b\n"


# Values that == gets wrong for runs: -0.0 == 0.0 although they print -0
# and 0, and a NaN (of either sign, both printed "nan") equals nothing;
# and the infinities.
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]


@st.composite
def _run_tables(draw):
    """Tables whose columns are runs of equal values: runs long and short,
    one run or one per row, and run counts either side of _BAKED_RUNS."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 60),
                       st.integers(_BAKED_RUNS - 2, _BAKED_RUNS + 60),
                       st.integers(_BLOCK_ROWS - 2, _BLOCK_ROWS + 2)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # where runs end
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        runs = min(n, draw(st.one_of(
            st.sampled_from([1, 2, _BAKED_RUNS - 1, _BAKED_RUNS,
                             _BAKED_RUNS + 1, n]),
            st.integers(1, max(n, 1)))))
        # cycling through values of distinct bits keeps neighbouring runs
        # apart, so a column holds exactly `runs` runs
        cycle = draw(st.one_of(
            st.permutations([0.0, -0.0]),
            st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()),
                     min_size=2, max_size=4,
                     unique_by=lambda u: np.float64(u).tobytes())))
        cuts = sorted(rnd.sample(range(1, n), runs - 1)) if runs else []
        lengths = np.diff([0, *cuts, n])
        columns.append(np.repeat([cycle[k % len(cycle)] for k in range(runs)],
                                 lengths).astype(np.float64))
    return np.column_stack(columns) if n else np.empty((0, len(columns)))


def _alternating(n, runs, a, b):
    """A column of n rows: `runs` runs alternating between a and b."""
    return np.repeat([(a, b)[k % 2] for k in range(runs)],
                     np.diff(np.linspace(0, n, runs + 1).astype(int)))


@example(np.empty((0, 3)))
@example(np.array([[1.0, -0.0, math.nan, math.inf]]))
@example(np.full((500, 2), 7.25))
@example(np.column_stack([_alternating(600, runs, 0.0, -0.0)
                          for runs in (_BAKED_RUNS - 1, _BAKED_RUNS,
                                       _BAKED_RUNS + 1, 600)]))
@example(np.column_stack([_alternating(_BLOCK_ROWS + 1, 3, math.nan, -math.inf),
                          np.arange(_BLOCK_ROWS + 1.0)]))
@given(_run_tables())
def test_csv_matches_cell_by_cell_reference(table):
    header = ",".join(f"c{k}" for k in range(table.shape[1]))
    assert _csv(header, table) == csv_reference(header, table)


def test_profile_respects_sim_step(tmp_path, capsys):
    csv_path = tmp_path / "coarse.csv"
    assert _run(capsys, "profile", "--out", csv_path, "--sim-step", 5)[0] == 0
    lines = csv_path.read_text().splitlines()
    meta = json.loads((tmp_path / "coarse.csv.meta.json").read_text())
    assert len(lines) - 1 == math.ceil(meta["total_time_s"] / 5.0) + 1


def test_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert _run(capsys, "sweep", "--out", csv_path, "--v-min-kmh", 110,
                "--tau-s", "30,,inf")[0] == 0  # empty entries are skipped
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tau_s,v_ms,v_kmh,j_C,is_argmin"
    body = [ln.split(",") for ln in lines[1:]]
    taus = {row[0] for row in body}
    assert taus == {"inf", "30"}
    marks = [row for row in body if row[4] == "1"]
    assert len(marks) == 3  # baseline + one per requested tau
    base_marks = [row for row in marks if row[0] == "inf"]
    assert any(abs(float(row[2]) - 140.0) < 0.51 for row in base_marks)


def _sweep_curves(csv_path):
    """The sweep CSV as {tau cell: (v_kmh cells, j_C cells, argmin v_kmh
    cell)}, in file order."""
    curves = {}
    for tau, _, v_kmh, j, is_argmin in (
            ln.split(",") for ln in csv_path.read_text().splitlines()[1:]):
        vs, js, argmin = curves.setdefault(tau, ([], [], []))
        vs.append(v_kmh)
        js.append(j)
        if is_argmin == "1":
            argmin.append(v_kmh)
    return {tau: (vs, js, argmin) for tau, (vs, js, [argmin])
            in curves.items()}


def test_sweep_curves_order_and_argmins(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert _run(capsys, "sweep", "--out", csv_path, "--v-min-kmh", 100,
                "--v-step-kmh", 0.1, "--tau-s", "3000,300,30")[0] == 0
    curves = _sweep_curves(csv_path)
    assert list(curves) == ["inf", "3000", "300", "30"]
    # baseline minimum sits at the initial economy speed
    v_base = float(curves["inf"][2])
    assert v_base == pytest.approx(140.19, abs=0.1 + 1e-9)
    # faster filters pull the sweep minimum toward the commanded (higher) CI
    argmin_speeds = [float(curves[tau][2]) for tau in ("3000", "300", "30")]
    assert argmin_speeds[0] < argmin_speeds[1] < argmin_speeds[2]
    assert all(v_base <= u for u in argmin_speeds)


def test_sweep_without_events_curves_equal_the_baseline(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert _run(capsys, "sweep", "--out", csv_path, "--no-event",
                "--tau-s", "10")[0] == 0
    curves = _sweep_curves(csv_path)
    assert list(curves) == ["inf", "10"]
    assert curves["10"][1] == curves["inf"][1]


@pytest.mark.parametrize("flag", ["--v-min-kmh=0", "--v-max-kmh=200"])
def test_sweep_rejects_speeds_outside_the_envelope(flag, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, printed = _run(capsys, "sweep", "--out", out, flag)
    assert code == 2 and printed.out == ""
    assert printed.err.startswith(
        "config error: sweep speeds must lie in (0, 161] km/h, got "
        "--v-min-kmh ")
    assert not out.exists()


def test_sweep_rejects_empty_grid(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, printed = _run(capsys, "sweep", "--out", out, "--v-min-kmh", 170)
    assert code == 2 and "empty sweep grid" in printed.err
    code, printed = _run(capsys, "sweep", "--out", out, "--v-min-kmh", 100,
                         "--v-max-kmh", 120, "--tau-s", "abc")
    assert code == 2 and "bad tau entry 'abc'" in printed.err
    code, printed = _run(capsys, "sweep", "--out", out, "--tau-s", "5,-5")
    assert code == 2
    assert "tau entries must be positive, got '-5'" in printed.err
    assert not out.exists()


def test_sweep_rejects_a_grid_over_the_point_cap(tmp_path, capsys):
    # 1e300 km/h at 1e-300 km/h a point: rejected before anything is
    # allocated, as any step whose grid would pass 10^7 points is
    out = tmp_path / "sweep.csv"
    code, printed = _run(capsys, "sweep", "--out", out, "--v-min-kmh=-1e300",
                         "--v-step-kmh=1e-300")
    assert code == 2 and printed.out == ""
    assert printed.err.startswith("config error: sweep step 1e-300 km/h "
                                  "needs inf grid points")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--v-min-kmh=nan", "--v-max-kmh=nan",
                                  "--v-max-kmh=inf", "--v-step-kmh=inf",
                                  "--v-min-kmh=-inf"])
def test_sweep_rejects_non_finite_grid(flag, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIG), "--out", str(out),
                 flag]) == 2
    assert "sweep grid must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_reports_both_modes(tmp_path, capsys):
    rec = tmp_path / "cal.json"
    code, out = _run(capsys, "calibrate", "--out", rec)
    assert code == 0
    text = out.out
    assert "mode vmax" in text
    assert "mode calibrated" in text
    assert "140.19" in text
    record = json.loads(rec.read_text())
    assert record["chosen_mode"] == "calibrated"
    assert record["modes"]["vmax"]["ci_max_Cs"] == \
        pytest.approx(350.54, abs=0.01)
    # the envelope-based mode overshoots the reference by under 2 percent
    assert abs(record["modes"]["vmax"]["deviation_pct"]) < 2.0
    assert abs(record["modes"]["calibrated"]["deviation_pct"]) < 1e-6


def test_calibrate_without_a_reference_speed_shows_vmax_only(tmp_path,
                                                             capsys):
    raw = _read_config_dict()
    raw["cost_index"]["ci_max"] = {"mode": "vmax"}
    config, rec = tmp_path / "vmax.yaml", tmp_path / "cal.json"
    config.write_text(yaml.safe_dump(raw))
    assert main(["calibrate", "--config", str(config), "--out", str(rec)]) == 0
    assert capsys.readouterr().out.endswith(
        "calibrated mode not shown: set cost_index.ci_max.reference_v_kmh\n")
    modes = json.loads(rec.read_text())["modes"]
    assert list(modes) == ["vmax"]
    assert "deviation_pct" not in modes["vmax"]


# ---------------------------------------------------------------------------
# entry point and exit codes

def test_main_plan_ok(capsys):
    assert main(["plan", "--config", str(CONFIG)]) == 0
    assert "total time: 735.951 s" in capsys.readouterr().out


def test_main_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("bogus: 1\n")
    assert main(["plan", "--config", str(bad)]) == 2
    assert main(["plan", "--config", str(tmp_path / "missing.yaml")]) == 2
    notyaml = tmp_path / "notyaml.yaml"
    notyaml.write_text("{unbalanced\n")
    assert main(["plan", "--config", str(notyaml)]) == 2
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    capsys.readouterr()
    assert main(["plan", "--config", str(empty)]) == 2
    assert f"config {empty} is empty" in capsys.readouterr().err
    raw = _read_config_dict()  # a level climb: no altitude to climb
    raw["scenario"]["waypoints_km"] = [[0.0, 0.5], [30.0, 0.5]]
    del raw["cost_index"]["events"]
    level = tmp_path / "level.yaml"
    level.write_text(yaml.safe_dump(raw))
    assert main(["plan", "--config", str(level)]) == 2
    assert "config error: altitude band must climb" in \
        capsys.readouterr().err


def test_main_exit_code_solver_error(monkeypatch, capsys):
    # a reference speed below the best-economy speed cannot be calibrated
    monkeypatch.setenv("ECONCLIMB_COST_INDEX__CI_MAX__REFERENCE_V_KMH", "95.0")
    assert main(["plan", "--config", str(CONFIG)]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err


@pytest.mark.parametrize("command, key, value", [
    ("plan", "MASS_KG", "1e300"), ("calibrate", "MASS_KG", "1e300"),
    ("plan", "MASS_KG", "1e200"), ("plan", "GRAVITY_MS2", "1e300"),
    ("plan", "VMAX_KMH", "1e300"), ("calibrate", "VMAX_KMH", "1e300"),
    ("calibrate", "VMAX_KMH", "1e-300")])
def test_airframe_values_past_the_float_range_exit_2(command, key, value,
                                                     monkeypatch, capsys):
    # the config validates, and then the force model's Python-float ** or /
    # overflows, or divides by a speed whose square underflows to zero
    monkeypatch.setenv(f"ECONCLIMB_AIRCRAFT__{key}", value)
    assert main([command, "--config", str(CONFIG)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: a value leaves the float range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, overrides", [
    ("plan", {"AIRCRAFT__VMAX_KMH": "1e100"}),
    ("calibrate", {"AIRCRAFT__VMAX_KMH": "1e100"}),
    ("sweep", {"AIRCRAFT__CD2": "1e300", "COST_INDEX__CI_MAX__MODE": "value",
               "COST_INDEX__CI_MAX__VALUE_CS": "100"})])
def test_numpy_values_past_the_float_range_exit_2(command, overrides,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    # the config validates, and then a NumPy expression of the model
    # overflows: one line and exit 2, not a traceback or a table of inf
    for key, value in overrides.items():
        monkeypatch.setenv(f"ECONCLIMB_{key}", value)
    out = tmp_path / "out"
    code, printed = _run(capsys, command, "--out", out)
    assert code == 2 and printed.out == ""
    assert printed.err.startswith(
        "config error: a value leaves the float range (overflow encountered")
    assert printed.err.count("\n") == 1
    assert not out.exists()


def _light_config(tmp_path, **aircraft):
    """The bundled config on a constant-CI 1 kg airframe with a 100 m^2
    wing and a tiny cost-index ceiling, plus the aircraft keys given."""
    raw = _read_config_dict()
    raw["aircraft"].update(mass_kg=1.0, wing_area_m2=100.0, **aircraft)
    raw["cost_index"]["ci_max"] = {"mode": "value", "value_Cs": 0.001}
    raw["cost_index"]["tau"] = {"mode": "infinite"}
    path = tmp_path / "light.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_main_exit_code_optimum_below_speed_floor(tmp_path, capsys):
    # the config validates, and its constant-CI optimum lies below 5 m/s
    assert main(["plan", "--config", str(_light_config(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert "solver error: segment 0" in err
    assert "(5, 44.7222] m/s" in err
    # an envelope whose v_max is the 5 m/s floor itself is a config error
    slow = _light_config(tmp_path, vmax_kmh=18.0)
    assert main(["plan", "--config", str(slow)]) == 2
    assert "need v_max > 5 m/s" in capsys.readouterr().err


def test_main_exit_code_output_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["profile", "--config", str(CONFIG), "--out",
                 str(missing_dir)]) == 4
    assert "output error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "profile", "sweep",
                                     "calibrate"])
def test_every_command_maps_failures_to_exit_codes(command, tmp_path,
                                                   capsys):
    unwritable = tmp_path / "no" / "such" / "dir" / "out"
    code, out = _run(capsys, command, "--out", unwritable)
    assert code == 4 and "output error" in out.err
    assert out.out == ""  # nothing is printed unless every file is written
    bad = tmp_path / "bad.yaml"
    bad.write_text("bogus: 1\n")
    assert main([command, "--config", str(bad), "--out", str(unwritable)]) == 2
    assert "config error" in capsys.readouterr().err
    if command == "calibrate":  # it flies no events, so it has no --no-event
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, command, "--no-event")
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --no-event" in capsys.readouterr().err
    else:
        code, out = _run(capsys, command, "--out", unwritable, "--no-event")
        assert code == 4 and out.out == ""


def test_failed_meta_write_leaves_no_profile(tmp_path, capsys):
    csv_path = tmp_path / "p.csv"
    (tmp_path / "p.csv.meta.json").mkdir()  # the summary cannot go there
    code, out = _run(capsys, "profile", "--sim-step", "5", "--out", csv_path)
    assert code == 4 and "output error" in out.err and out.out == ""
    assert not csv_path.exists()


ATMO_STEP_VAR = "ECONCLIMB_SCENARIO__ATMOSPHERE_STEP_M"


@pytest.mark.parametrize("command,override", [
    ("plan", "--sim-step"), ("profile", "--sim-step"),
    ("plan", ATMO_STEP_VAR), ("sweep", ATMO_STEP_VAR),
    ("calibrate", ATMO_STEP_VAR),
])
def test_grid_step_too_fine_is_a_config_error(command, override, tmp_path,
                                              monkeypatch, capsys):
    # 1e-12 fails the point-count check before anything is allocated
    if override.startswith("--"):
        flags = [override, "1e-12"]
    else:
        flags = []
        monkeypatch.setenv(override, "1e-12")
    code, out = _run(capsys, command, *flags, "--out", tmp_path / "out")
    assert code == 2 and out.out == ""
    assert out.err.startswith("config error: ")
    assert "step 1e-12" in out.err and "grid points" in out.err
    assert not (tmp_path / "out").exists()


def test_too_fine_sim_step_exits_before_any_leg_is_planned(monkeypatch,
                                                           capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a leg was planned")

    # the bundled config sizes tau from a departure solve (climb_optimizer)
    # before run_scenario plans the legs (scenario_sim)
    monkeypatch.setattr(climb_optimizer, "solve_optimal_speed", forbidden)
    monkeypatch.setattr(scenario_sim, "solve_optimal_speed", forbidden)
    code, out = _run(capsys, "plan", "--sim-step", "6e-4")
    assert code == 2 and out.out == ""
    assert out.err.startswith("config error: sim step 0.0006 s needs")


def test_main_env_override_applies(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("ECONCLIMB_SCENARIO__SIM_STEP_S", "2.5")
    out = tmp_path / "fast.csv"
    assert main(["profile", "--config", str(CONFIG), "--out",
                 str(out)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "fast.csv.meta.json").read_text())
    lines = out.read_text().splitlines()
    assert len(lines) - 1 == math.ceil(meta["total_time_s"] / 2.5) + 1


def test_main_no_event_flag(capsys):
    assert main(["plan", "--config", str(CONFIG), "--no-event"]) == 0
    assert "delta: 0 s" in capsys.readouterr().out


def test_cli_import_does_not_load_scipy():
    src = Path(econclimb.__file__).resolve().parent.parent
    code = ("import sys, econclimb.cli_io; "
            "assert 'scipy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_jsonable_renders_every_scalar_kind():
    record = {"nan": math.nan, "inf": math.inf, "neg_inf": -math.inf,
              "f32": np.float32(0.1), "i64": np.int64(7),
              "on": np.bool_(True), "off": np.bool_(False), "none": None,
              "nested": (1.23456789, (np.float64(-math.inf),
                                      [np.bool_(False), np.int64(-3)]))}
    out = _jsonable(record)
    assert out == {"nan": "nan", "inf": "inf", "neg_inf": "-inf",
                   "f32": 0.1, "i64": 7, "on": True, "off": False,
                   "none": None,
                   "nested": [1.23457, ["-inf", [False, -3]]]}
    assert [type(out[k]) for k in ("f32", "i64", "on", "off")] \
        == [float, int, bool, bool]
    assert json.loads(_json_text(record)) == out
