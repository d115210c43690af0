import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import econclimb
from econclimb import (
    climb_optimizer,
    run_scenario,
    scenario_sim,
    segment_between,
)
from econclimb.cli_io import (
    _BLOCK_ROWS,
    ConfigError,
    _Loader,
    _csv,
    _json_text,
    _jsonable,
    _profile_csv,
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


def test_bundled_profile_csv_matches_cell_by_cell_reference():
    table = run_scenario(build_scenario(load_config(CONFIG))[0]).samples.table
    assert table.shape == (7361, 8)  # the 0.1 s step of the config
    assert _profile_csv(table) == csv_reference(
        "t_s,x_m,h_m,v_ms,ci_Cs,q_C,e_J,v_track_ms", table)


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


# Cells where a "%.6g" renderer can go wrong: the digits of a decimal
# midpoint (M + 0.5) * 10**e and of a binary tie such as 123456.5 rest on
# the last bit; 999999.5 * 10**e and a power of ten less one ulp round into
# the next decade; 1e-5 and 1e6 switch between fixed and e-notation; 1 and
# 1e26 bound the decades that the NumPy path renders, and below 1e-15 a
# scaling by a power of ten is inexact; and zeros, NaN of either sign, the
# infinities and subnormals take the one-at-a-time path.
_M = st.integers(100000, 999999)
_E = st.integers(-20, 30)
_EDGES = [1e-5, 1e6, 1e-15, 1e26, 9.999995e-6, 999999.5, 1e-4, 0.1, 1.0]
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308]


def _near(values):
    """values, or one of their float64 neighbours."""
    return st.tuples(values, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda vs: vs[0] if vs[1] is None else float(np.nextafter(*vs)))


_CELLS = st.tuples(st.one_of(
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
    _near(st.builds(lambda m, e: (m + 0.5) * 10.0 ** e, _M, _E)),
    st.builds(lambda m: m + 0.5, _M),
    _near(st.builds(lambda e: 10.0 ** e, _E)),
    _near(st.builds(lambda e: 999999.5 * 10.0 ** e, _E)),
    _near(st.sampled_from(_EDGES)),
    st.sampled_from(_SPECIAL),
    st.floats(),
), st.booleans()).map(lambda cell: -cell[0] if cell[1] else cell[0])


@st.composite
def _tables(draw):
    """Tables of drawn cells: row counts about a block and small ones, and
    C-ordered, Fortran-ordered or strided layouts."""
    rows = draw(st.one_of(st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                           _BLOCK_ROWS + 1]),
                          st.integers(0, 40)))
    cols = draw(st.integers(1, 6))
    cells = draw(st.lists(_CELLS, min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.choice(np.array(cells), size=(rows, cols))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(table)
    if layout == "strided":
        wide = np.zeros((rows, 2 * cols))
        wide[:, ::2] = table
        return wide[:, ::2]
    return table


@example(np.empty((0, 3)))
@example(np.array([[1.0, -0.0, math.nan, math.inf]]))
@example(np.full((_BLOCK_ROWS + 1, 2), 999999.5))
# scaled down by a power of ten onto a half: above, below and on the tie
@example(np.array([[2.577405e+22, 6.844745e+24, 1234565.0, 1234575.0]]))
# far below 1 and past 1e26, where a scaling by an inexact power of ten
# would misround; % renders them, as it does every cell below 1
@example(np.array([[4.676255e-18, 9.992585e-18, 9.751305e+28, 8.864315e+28]]))
# each kind of cell that % renders beside ordinary ones, on both sides of a
# block boundary: a zero, one below its decade, an exact tie, a carry and
# cells of both signs below 1
@example(np.asfortranarray(np.tile(
    [0.0, 271.828, np.nextafter(1e5, 0), -3.14159, 1234565.0, 999999.7,
     0.0271828, -0.000314159, np.nextafter(1.0, 0)],
    (_BLOCK_ROWS + 1, 1))))
@given(_tables())
def test_csv_matches_cell_by_cell_reference(table):
    header = ",".join(f"c{k}" for k in range(table.shape[1]))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        text = _csv(header, table)
    assert text == csv_reference(header, table)


def test_csv_matches_reference_on_dense_hard_cells():
    # ~400k cells of the families above, drawn by NumPy, over all the
    # decades of the NumPy path and a few past its edges
    rng = np.random.default_rng(2024)
    n = 20000
    m = rng.integers(100000, 1000000, n) + 0.5
    ten = 10.0 ** rng.integers(-20, 31, n)
    hard = [rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            10.0 ** rng.uniform(-16, 27, n), m * ten, m / (1.0 / ten), m,
            999999.5 * ten, ten, rng.integers(-10**9, 10**9, n) / 1000.0]
    hard += [np.nextafter(u, np.inf) for u in hard[1:]]
    hard += [np.nextafter(u, -np.inf) for u in hard[1:8]]
    signs = (rng.integers(0, 2, (n, len(hard)), dtype=np.uint64)
             << np.uint64(63))
    table = (np.column_stack(hard).view(np.uint64) ^ signs).view(np.float64)
    header = ",".join(f"c{k}" for k in range(table.shape[1]))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        text = _csv(header, table)
    assert text == csv_reference(header, table)


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


@pytest.mark.parametrize("flags", [
    ("--v-step-kmh", 0.9),
    ("--v-min-kmh", 100, "--v-step-kmh", 0.2),
    ("--v-min-kmh", 50, "--v-step-kmh", 0.6),
])
def test_sweep_grid_rounding_past_the_ceiling_ends_at_it(flags, tmp_path,
                                                        capsys):
    # arange's last point rounds above the 161 km/h default ceiling on these
    # grids; it is flown at the ceiling instead of rejecting the sweep
    csv_path = tmp_path / "sweep.csv"
    code, printed = _run(capsys, "sweep", "--out", csv_path, *flags)
    assert (code, printed.err) == (0, "")
    curves = _sweep_curves(csv_path)
    assert [vs[-1] for vs, _, _ in curves.values()] == ["161"] * len(curves)


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


def test_plan_prints_a_grid_over_the_point_cap_exactly(tmp_path, capsys):
    # one step just past the cap: rounded to four digits, the count would
    # read as the cap itself
    code, printed = _run(capsys, "plan", "--sim-step", "0.0006003332",
                         "--out", tmp_path / "plan.json")
    assert code == 2 and printed.out == ""
    assert printed.err == ("config error: sim step 0.0006003332 s needs "
                           "10000000.679491745 grid points, more than the "
                           "10000000 allowed\n")
    assert not (tmp_path / "plan.json").exists()


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


@pytest.mark.parametrize("content, override, message, located", [
    (b"\xff\xfe", None, "cannot read config", False),
    (b"aircraft: [1", None, "expected ',' or ']'", True),
    (b"aircraft: 'x", None, "found unexpected end of stream", True),
    (b"a: 1\x00", None, "unacceptable character #x0000", False),
    (None, "[1", "override ECONCLIMB_AIRCRAFT__MASS_KG: unparseable", True),
])
def test_unreadable_config_text_is_one_line(content, override, message,
                                            located, tmp_path, monkeypatch,
                                            capsys):
    # a file that is not UTF-8 or not YAML, or an override that is not
    # YAML, exits 2 with one line naming the problem and where it lies
    path = CONFIG
    if content is not None:
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
    if override is not None:
        monkeypatch.setenv("ECONCLIMB_AIRCRAFT__MASS_KG", override)
    assert main(["plan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1
    assert (" at line " in err and ", column " in err) == located


def test_unclosed_bracket_names_where_it_opened(tmp_path, capsys):
    # libyaml marks the problem where the stream ends, on a line past the
    # file's last, so the error also names the construct and its start
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"aircraft: [1")
    assert main(["plan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(", while parsing a flow sequence at line 1, "
                        "column 11\n")
    assert err.count("\n") == 1


def test_config_loader_uses_libyaml_where_pyyaml_has_it():
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(_Loader, base)


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


@pytest.mark.parametrize("overrides, clipped", [
    ({"COST_INDEX__CI0_FRACTION": "1e-300",
      "COST_INDEX__TAU__FACTOR": "1e98"}, True),
    ({"AIRCRAFT__WING_AREA_M2": "1.137e301",
      "SCENARIO__H_DOT_BAR_MS": "1.65e-8",
      "COST_INDEX__TAU__FACTOR": "1e18"}, False)])
def test_a_command_far_above_ci0_plans_a_finite_cost(overrides, clipped,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    # ci_in is ~1e302 C/s beside a ci0 ~1e-300 of it (or beside a huge
    # airframe): the filtered CI at arrival keeps its step from ci0, and the
    # time cost's tau (ci0 - ci_in) product no longer overflows to -inf.
    # In the first case t / tau is ~4e-99, and the time cost
    # ~ci_in t^2 / (2 tau) dwarfs the charge, not cancelling to zero.
    for key, value in overrides.items():
        monkeypatch.setenv(f"ECONCLIMB_{key}", value)
    out = tmp_path / "plan.json"
    code, printed = _run(capsys, "plan", "--out", out)
    assert code == 0, printed.err
    assert "inf" not in printed.out
    legs = json.loads(out.read_text())["segments"]
    assert len(legs) == 2
    assert all(math.isfinite(leg["j_star_C"]) for leg in legs)
    assert legs[1]["at_envelope_limit"] is clipped
    j_star = 1.29388e206 if clipped else 1.70366e305
    assert legs[1]["j_star_C"] == pytest.approx(j_star, rel=1e-12, abs=0.0)
    if clipped:
        assert legs[1]["v_star_kmh"] == 161.0


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


_SCALAR_MULTIPLY = ("config error: a value leaves the float range "
                    "(overflow encountered in scalar multiply)\n")


@pytest.mark.parametrize("command, overrides, code, err", [
    ("plan", {"WING_AREA_M2": "1e200", "VMAX_KMH": "1e50"}, 2,
     _SCALAR_MULTIPLY),
    ("calibrate", {"WING_AREA_M2": "1e200", "VMAX_KMH": "1e50"}, 2,
     _SCALAR_MULTIPLY),
    ("plan", {"CD0": "1e250", "VMAX_KMH": "1e20"}, 2, _SCALAR_MULTIPLY),
    ("plan", {"WING_AREA_M2": "1e280", "VMAX_KMH": "1e10"}, 2,
     _SCALAR_MULTIPLY),
    ("calibrate", {"WING_AREA_M2": "1e280", "VMAX_KMH": "1e10"}, 2,
     _SCALAR_MULTIPLY),
    ("plan", {"CD0": "1e300", "VMAX_KMH": "1e3"}, 2, _SCALAR_MULTIPLY),
    ("calibrate", {"CD0": "1e300", "VMAX_KMH": "1e3"}, 2, _SCALAR_MULTIPLY)])
def test_newton_products_past_the_float_range_keep_their_exit(
        command, overrides, code, err, monkeypatch, capsys):
    # the quartic at v_max stays finite through np.power, but a product of
    # the Newton's first step overflows, which Python floats would carry
    # as inf without raising: the solve goes the array way, and the
    # command exits and reports as NumPy's overflow makes it
    for key, value in overrides.items():
        monkeypatch.setenv(f"ECONCLIMB_AIRCRAFT__{key}", value)
    got, printed = _run(capsys, command)
    assert (got, printed.err) == (code, err)


@pytest.mark.parametrize("overrides", [
    {"WING_AREA_M2": "1e200", "VMAX_KMH": "1e50"},
    {"CD0": "1e250", "VMAX_KMH": "1e20"},
    {"WING_AREA_M2": "1e280", "VMAX_KMH": "1e10"},
    {"CD0": "1e300", "VMAX_KMH": "1e3"}])
def test_a_ceiling_past_the_float_range_exits_alike_in_plan_and_calibrate(
        overrides, monkeypatch, capsys):
    # calibrate's v_max ceiling overflows on these airframes, and plan's
    # departure solve does: the float range, not a ci0_fraction too small
    for key, value in overrides.items():
        monkeypatch.setenv(f"ECONCLIMB_AIRCRAFT__{key}", value)
    plan_code, plan = _run(capsys, "plan")
    calibrate_code, calibrate = _run(capsys, "calibrate")
    assert (calibrate_code, calibrate.err) == (plan_code, plan.err)
    assert plan_code == 2


def _number_keys(node, path=()):
    """(path, value) of every number a config block sets, events included
    and waypoint coordinates left out."""
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        if isinstance(value, float):
            yield path + (key,), value
        elif isinstance(value, dict) or key == "events":
            yield from _number_keys(value, path + (key,))


NUMBER_KEYS = dict(_number_keys(_read_config_dict()))

#: Each command at a 5 s step where it flies the replay; the sweep ends at
#: the bundled v_max, so that a v_max scaled up does not tabulate millions
#: of rows.
FUZZ_ARGS = {"plan": ["--sim-step", "5", "--out", "out.json"],
             "profile": ["--sim-step", "5", "--out", "out.csv"],
             "sweep": ["--v-max-kmh", "161", "--out", "out.csv"],
             "calibrate": ["--out", "out.json"]}

_NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)


@st.composite
def _scaled_keys(draw):
    """1-3 numeric keys of the bundled config, each set to its value times
    10^k for k in [-300, 300], or to a fraction between 0 and 1."""
    keys = {}
    for path in draw(st.lists(st.sampled_from(list(NUMBER_KEYS)),
                              min_size=1, max_size=3, unique=True)):
        k = draw(st.integers(-300, 300))
        if path[-1] == "atmosphere_step_m":
            k = max(k, -3)  # a 1e-4 m grid is the 10^7-point cap: 0.3 GB
        keys[path] = draw(st.sampled_from(
            [NUMBER_KEYS[path] * 10.0**k, 0.0, 1e-300, 1e-12, 0.5, 1.0]))
    return keys


def _finite_numbers(value, key=None):
    """Whether every number of a rendered JSON value but a tau is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v, k) for k, v in value.items())
    if isinstance(value, list):
        return all(_finite_numbers(v, key) for v in value)
    return key == "tau_s" or value not in ("nan", "inf", "-inf")


@example("plan", {("cost_index", "ci0_fraction"): 1e-300,
                  ("cost_index", "tau", "factor"): 1e98})
@example("plan", {("aircraft", "wing_area_m2"): 1.137e301,
                  ("scenario", "h_dot_bar_ms"): 1.65e-8,
                  ("cost_index", "tau", "factor"): 1e18})
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(FUZZ_ARGS)), _scaled_keys())
def test_every_config_that_validates_flies_or_fails_in_one_line(command,
                                                                 keys):
    raw = _read_config_dict()
    for path, value in keys.items():
        node = raw
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.yaml"
        config.write_text(yaml.safe_dump(raw))
        argv = [command, "--config", str(config), *FUZZ_ARGS[command]]
        argv[-1] = str(Path(tmp) / argv[-1])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        written = {name: (Path(tmp) / name).read_text()
                   for name in os.listdir(tmp) if name != "cfg.yaml"}
    assert code in (0, 2, 3), err
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert out == "" and written == {}
        return
    assert err == ""
    assert not _NON_FINITE.search(re.sub(r"tau: \S+|\S*/\S*", "", out))
    for name, text in written.items():
        if name.endswith(".json"):
            summary = json.loads(text)
            assert _finite_numbers(summary)
            v_max = raw["aircraft"]["vmax_kmh"] / 3.6 * (1.0 + 5e-6)
            for leg in summary.get("segments", []):
                assert 5.0 < leg["v_star_ms"] * (1.0 + 5e-6)
                assert leg["v_star_ms"] <= v_max
        else:
            cells = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                               ndmin=2)
            assert np.isfinite(cells[:, 1 if command == "sweep" else 0:]).all()
            if command == "profile":
                assert (np.diff(cells[:, 5]) <= 0.0).all()


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


def test_depletion_is_the_replayed_charge_going_negative(monkeypatch,
                                                          capsys):
    # the replayed climb ends with 4592 C left; the closed form of each leg
    # flown on to cruise would end below zero, and is no depletion
    monkeypatch.setenv("ECONCLIMB_SCENARIO__Q0_COULOMBS", "185000")
    assert main(["plan", "--config", str(CONFIG)]) == 0
    text = capsys.readouterr().out
    assert "final charge: 4592.33 C" in text
    assert "battery depleted: no" in text


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
