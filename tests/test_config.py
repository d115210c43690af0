"""The config schema: its table, fuzzing of validate_config, and the promise
that a config which validates and builds also flies."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from econclimb import run_scenario
from econclimb.cli_io import (
    _REQUIRED,
    _SCHEMA,
    ConfigError,
    build_scenario,
    load_config,
    main,
    validate_config,
)
from econclimb.errors import DomainError, EnvelopeError

CONFIG = Path(__file__).resolve().parent.parent / "configs" \
    / "e430_atc_climb.yaml"
REFERENCE = yaml.safe_load(CONFIG.read_text())

SOLVER_ERRORS = (EnvelopeError,)


# ---------------------------------------------------------------------------
# one row of the table at a time

def _config_reading(block, key):
    """The bundled config, changed so that validation reads block.key."""
    raw = copy.deepcopy(REFERENCE)
    cx = raw["cost_index"]
    if key == "ci0_value_Cs":
        del cx["ci0_fraction"]
        cx["ci_max"] = {"mode": "value", "value_Cs": 300.0}
    elif key == "value_Cs":
        cx["ci_max"] = {"mode": "value", "value_Cs": 300.0}
    elif key == "ci0_fraction":
        # the row's bound 0 is a zero cost index; the calibrated mode alone
        # divides by the fraction and rejects 0 (test_calibrated_fraction_*)
        cx["ci_max"] = {"mode": "vmax"}
    elif key == "seconds":
        cx["tau"] = {"mode": "seconds", "seconds": 10.0}
    elif key == "ci_in_value_Cs":
        cx["events"][0] = {"at_waypoint_km": [15.0, 0.5], "ci_in_value_Cs": 1.0}
    elif key == "at_time_s":
        cx["events"][0] = {"at_time_s": 100.0, "ci_in_fraction": 0.9}
    node = {"aircraft": raw["aircraft"], "scenario": raw["scenario"],
            "cost_index": cx, "cost_index.ci_max": cx["ci_max"],
            "cost_index.tau": cx["tau"],
            "cost_index.events[]": cx["events"][0]}[block]
    return raw, node


NUMBER_ROWS = [(block, key, row) for block, rows in _SCHEMA.items()
               for key, row in rows.items() if row is not None]


@pytest.mark.parametrize("block,key,row", NUMBER_ROWS,
                         ids=[f"{b}.{k}" for b, k, _ in NUMBER_ROWS])
def test_schema_row_bounds(block, key, row):
    low, low_allowed, high, _default = row
    raw, node = _config_reading(block, key)
    assert key in node or key == "gravity_ms2" or block == "cost_index"
    node[key] = low
    if low_allowed:
        assert validate_config(copy.deepcopy(raw))
    else:
        with pytest.raises(ConfigError, match=f"{key}: must be > "):
            validate_config(copy.deepcopy(raw))
    node[key] = low - 1e-9
    with pytest.raises(ConfigError, match=key):
        validate_config(copy.deepcopy(raw))
    if high < math.inf:
        node[key] = high
        assert validate_config(copy.deepcopy(raw))
        node[key] = high + 1e-9
        with pytest.raises(ConfigError, match=f"{key}: must be .* <= "):
            validate_config(copy.deepcopy(raw))


def test_schema_defaults_fill_canonical_form():
    raw = copy.deepcopy(REFERENCE)
    for block in ("aircraft", "scenario"):
        for key, row in _SCHEMA[block].items():
            if row is not None and row[3] != _REQUIRED:
                raw[block].pop(key, None)
    cfg = validate_config(raw)
    for block in ("aircraft", "scenario"):
        for key, row in _SCHEMA[block].items():
            if row is not None and row[3] != _REQUIRED:
                assert cfg[block][key] == row[3]


def test_modes_require_and_forbid_keys():
    for mode, extra, ok in (("vmax", {}, True),
                            ("vmax", {"reference_v_kmh": 140.0}, True),
                            ("vmax", {"value_Cs": 300.0}, False),
                            ("value", {}, False),
                            ("calibrated", {}, False)):
        raw = copy.deepcopy(REFERENCE)
        raw["cost_index"]["ci_max"] = {"mode": mode, **extra}
        if ok:
            cfg = validate_config(raw)
            assert cfg["cost_index"]["ci_max"] == {"mode": mode, **extra}
        else:
            with pytest.raises(ConfigError, match="cost_index.ci_max"):
                validate_config(raw)
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["tau"] = {"mode": "infinite", "factor": 0.01}
    with pytest.raises(ConfigError, match="tau.factor: not allowed"):
        validate_config(raw)
    for bad_mode in ([1, 2], {"a": 1}, None, 3, "fast"):
        raw = copy.deepcopy(REFERENCE)
        raw["cost_index"]["tau"]["mode"] = bad_mode
        with pytest.raises(ConfigError, match="cost_index.tau.mode"):
            validate_config(raw)


def test_event_time_must_be_positive():
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["events"] = [{"at_time_s": 0, "ci_in_fraction": 0.5}]
    with pytest.raises(ConfigError, match=r"events\[0\].at_time_s: must be > 0"):
        validate_config(raw)


def test_out_of_range_integers_and_keys_are_config_errors():
    raw = copy.deepcopy(REFERENCE)
    raw["aircraft"]["mass_kg"] = 10 ** 400
    with pytest.raises(ConfigError, match="mass_kg: must be finite"):
        validate_config(raw)
    raw = copy.deepcopy(REFERENCE)
    raw["scenario"]["waypoints_km"][1] = [10 ** 400, 0.5]
    with pytest.raises(ConfigError, match=r"waypoints_km\[1\]"):
        validate_config(raw)
    raw = copy.deepcopy(REFERENCE)
    raw["aircraft"][7] = 1.0
    with pytest.raises(ConfigError, match="aircraft: unknown key"):
        validate_config(raw)
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["events"] = {}
    with pytest.raises(ConfigError, match="cost_index.events: expected a list"):
        validate_config(raw)


# ---------------------------------------------------------------------------
# fuzzing: whatever value sits at whatever key path, only ConfigError

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    st.text(max_size=8),
    st.sampled_from(["vmax", "calibrated", "value", "seconds", "infinite",
                     "fraction_of_tc0", "mode", "events", "at_time_s"]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers(),
                                  st.sampled_from(sorted(
                                      {k for rows in _SCHEMA.values()
                                       for k in rows}))),
                        inner, max_size=4)),
    max_leaves=12)
_DELETE = object()


def _paths(node, prefix=()):
    """Every key path into nested mappings and lists, plus one fresh key."""
    yield prefix + ("fresh_key",)
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield prefix + (i,)
            yield from _paths(value, prefix + (i,))


def _mutate(raw, path, value):
    """Set (or delete) raw at path, if earlier mutations left it reachable."""
    node = raw
    try:
        for part in path[:-1]:
            node = node[part]
        if isinstance(node, list) and not (isinstance(path[-1], int)
                                           and path[-1] < len(node)):
            return
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        return


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(list(_paths(REFERENCE))),
                          st.one_of(st.just(_DELETE), _VALUES)),
                min_size=1, max_size=3))
def test_validate_config_raises_only_config_error(mutations):
    raw = copy.deepcopy(REFERENCE)
    for path, value in mutations:
        _mutate(raw, path, value)
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    assert validate_config(yaml.safe_load(yaml.safe_dump(cfg))) == cfg


# ---------------------------------------------------------------------------
# a config that validates and builds also flies

def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def _configs(draw):
    """Configs inside the schema bounds, around a light electric aircraft."""
    f = lambda lo, hi: draw(_floats(lo, hi))  # noqa: E731
    aircraft = {
        "wing_area_m2": f(6.0, 25.0), "mass_kg": f(250.0, 1500.0),
        "cd0": f(0.02, 0.06), "cd2": f(0.004, 0.04),
        "vmax_kmh": f(130.0, 400.0), "voltage_v": f(24.0, 800.0),
        "efficiency": f(0.3, 1.0),
    }
    if draw(st.booleans()):
        aircraft["gravity_ms2"] = f(8.0, 12.0)
    h0, xc = f(0.0, 3.0), f(3.0, 60.0)
    hc = h0 + f(0.05, 8.5)
    xs = draw(st.lists(_floats(0.02, 0.98), max_size=3, unique=True))
    interior = [[x * xc, f(h0, hc)] for x in sorted(xs)]
    scenario = {
        "waypoints_km": [[0.0, h0], *interior, [xc, hc]],
        "q0_coulombs": f(0.0, 1e6), "h_dot_bar_ms": f(0.2, 8.0),
        "sim_step_s": f(1.0, 20.0), "atmosphere_step_m": f(0.5, 100.0),
    }
    mode = draw(st.sampled_from(["vmax", "calibrated", "value"]))
    ci_max = {"mode": mode}
    if mode == "calibrated" or draw(st.booleans()):
        ci_max["reference_v_kmh"] = aircraft["vmax_kmh"] * f(0.6, 1.0)
    if mode == "value":
        ci_max["value_Cs"] = f(1.0, 1000.0)
    cost_index = {"ci_max": ci_max}
    if mode == "calibrated" or draw(st.booleans()):
        cost_index["ci0_fraction"] = f(0.0, 1.0)
    else:
        cost_index["ci0_value_Cs"] = f(0.0, 300.0)
    tau_mode = draw(st.sampled_from(["fraction_of_tc0", "seconds", "infinite"]))
    cost_index["tau"] = {"mode": tau_mode}
    if tau_mode == "fraction_of_tc0":
        cost_index["tau"]["factor"] = f(0.001, 5.0)
    elif tau_mode == "seconds":
        cost_index["tau"]["seconds"] = f(0.5, 3000.0)
    # each trigger kind in its own order, the two kinds interleaved freely
    times = sorted(draw(st.lists(_floats(0.01, 4000.0), max_size=3,
                                 unique=True)))
    timed = [{"at_time_s": t} for t in times]
    placed = [{"at_waypoint_km": wp} for wp in interior if draw(st.booleans())]
    events = []
    while timed or placed:
        queue = timed if not placed or (timed and draw(st.booleans())) \
            else placed
        event = queue.pop(0)
        if draw(st.booleans()):
            event["ci_in_fraction"] = f(0.0, 1.0)
        else:
            event["ci_in_value_Cs"] = f(0.0, 300.0)
        events.append(event)
    cost_index["events"] = events
    return {"aircraft": aircraft, "scenario": scenario,
            "cost_index": cost_index}


def _has_nan(value):
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_nan(v) for v in value)
    return value == "nan" or (isinstance(value, float) and math.isnan(value))


@settings(deadline=None)
@given(_configs())
def test_validated_config_flies(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        try:
            scenario, _climb = build_scenario(load_config(path))
        except (ConfigError, DomainError, *SOLVER_ERRORS):
            assume(False)
        try:
            run_scenario(scenario)
        except SOLVER_ERRORS:
            pass
        out = Path(tmp) / "plan.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["plan", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code == 0:
            assert not _has_nan(json.loads(out.read_text()))


def _plan(raw, capsys, tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["plan", "--config", str(path)])
    return code, capsys.readouterr()


def test_configs_rejected_before_the_runner(capsys, tmp_path):
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["events"].append({"at_time_s": 0, "ci_in_fraction": 0.5})
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 2 and "at_time_s: must be > 0" in out.err

    raw = copy.deepcopy(REFERENCE)
    raw["scenario"]["waypoints_km"] = [[0, 0], [15, 1.5], [30, 1]]
    raw["cost_index"]["events"][0]["at_waypoint_km"] = [15, 1.5]
    with pytest.raises(DomainError, match="altitude band"):
        build_scenario(validate_config(raw))
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 2 and "altitude band" in out.err

    for waypoints, got in (([[0, 0], [30, 12]], "got 0.0 to 12000.0 m"),
                           ([[0, -0.1], [30, 1]], "got -100.0 to 1000.0 m")):
        raw = copy.deepcopy(REFERENCE)
        raw["scenario"]["waypoints_km"] = waypoints
        raw["cost_index"]["events"] = []
        code, out = _plan(raw, capsys, tmp_path)
        assert code == 2 and got in out.err and len(out.err) < 200


# A rejected value is printed exactly: rounded to six digits, each of these
# would read as the bound it broke.

def test_number_past_its_bound_is_printed_exactly(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("ECONCLIMB_AIRCRAFT__EFFICIENCY", "1.0000001")
    code, out = _plan(copy.deepcopy(REFERENCE), capsys, tmp_path)
    assert code == 2 and out.err == ("config error: aircraft.efficiency: "
                                     "must be > 0 and <= 1, got 1.0000001\n")


def test_cruise_past_the_ceiling_is_printed_exactly(capsys, tmp_path):
    raw = copy.deepcopy(REFERENCE)
    raw["scenario"]["waypoints_km"][-1] = [30, 11.0000001]
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 2 and out.err == ("config error: altitude must lie in "
                                     "[0, 11000] m, got 0.0 to 11000.0001 m\n")


def test_interior_waypoint_off_the_band_is_printed_exactly(capsys, tmp_path):
    raw = copy.deepcopy(REFERENCE)
    raw["scenario"]["waypoints_km"][1] = [15, 1.0000001]
    raw["cost_index"]["events"] = []
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 2 and out.err == (
        "config error: interior waypoint (15000.0, 1000.0001000000001) lies "
        "outside the climb's altitude band [0.0, 1000.0] m\n")


def test_time_event_after_a_waypoint_event_flies(capsys, tmp_path):
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["events"].append({"at_time_s": 100,
                                        "ci_in_fraction": 0.5})
    code, listed_late = _plan(raw, capsys, tmp_path)
    assert code == 0
    raw["cost_index"]["events"].reverse()
    code, listed_first = _plan(raw, capsys, tmp_path)
    assert code == 0
    assert listed_late.out == listed_first.out
    assert "event 0: t = 100 s" in listed_late.out
    assert "event 1: t = 396.617 s" in listed_late.out
    assert "total time: 747.163 s" in listed_late.out


def test_calibrated_fraction_must_be_positive(capsys, tmp_path):
    # the calibrated ceiling divides by ci0_fraction, so 0 is rejected
    # before anything flies; in the other modes 0 is a zero cost index
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["ci0_fraction"] = 0.0
    with pytest.raises(ConfigError, match="cost_index.ci0_fraction: must be > 0"):
        validate_config(copy.deepcopy(raw))
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 2 and "cost_index.ci0_fraction" in out.err
    raw["cost_index"]["ci_max"] = {"mode": "vmax"}
    assert validate_config(raw)["cost_index"]["ci0_fraction"] == 0.0
    # one without ci0_fraction at all names the same key, and so does
    # calibrate in any mode, since it compares the modes at that fraction
    raw = copy.deepcopy(REFERENCE)
    del raw["cost_index"]["ci0_fraction"]
    raw["cost_index"]["ci0_value_Cs"] = 150.0
    with pytest.raises(ConfigError, match="cost_index.ci0_fraction"):
        validate_config(copy.deepcopy(raw))
    raw["cost_index"]["ci_max"] = {"mode": "vmax"}
    path = tmp_path / "value.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["calibrate", "--config", str(path)]) == 2
    assert "cost_index.ci0_fraction is required" in capsys.readouterr().err


def test_calibrated_fraction_near_zero(capsys, tmp_path):
    raw = copy.deepcopy(REFERENCE)
    raw["cost_index"]["ci0_fraction"] = 5e-324
    assert validate_config(copy.deepcopy(raw))
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 3
    assert "an infinite ci_max" in out.err and "sign change" not in out.err

    raw["cost_index"]["ci0_fraction"] = 1e-300
    code, out = _plan(raw, capsys, tmp_path)
    assert code == 0
    assert "ci_max: 1.96793e+302 C/s (mode: calibrated)" in out.out


@pytest.mark.parametrize("text,value", [("5e-1", 0.5), ("1e5", 100000.0),
                                        ("1.0e5", 100000.0), ("1E+3", 1000.0)])
def test_exponent_floats_are_numbers(text, value, tmp_path):
    # YAML 1.1 reads an exponent without a dot in the mantissa or a sign
    # as a string; the config file and the overrides read it as a number
    want = load_config(CONFIG, env={"ECONCLIMB_AIRCRAFT__MASS_KG": repr(value)})
    assert want["aircraft"]["mass_kg"] == value
    plain = CONFIG.read_text()
    assert "  mass_kg: 472.0\n" in plain
    path = tmp_path / "exponent.yaml"
    path.write_text(plain.replace("  mass_kg: 472.0\n", f"  mass_kg: {text}\n"))
    assert load_config(path) == want
    assert load_config(CONFIG, env={"ECONCLIMB_AIRCRAFT__MASS_KG": text}) == want
