"""Command-line surface: config parsing, plan/profile/sweep/calibrate.

The scenario configuration is a YAML document with three blocks (aircraft,
scenario, cost_index). Every numeric key carries its unit in its name,
unknown keys are rejected, and each key can be overridden through an
environment variable named ECONCLIMB_<BLOCK>__<KEY> (nested blocks join
with double underscores; values are parsed as YAML scalars).

Exit codes: 0 success, 2 configuration problem, 3 solver failure,
4 output I/O failure. A feasible-but-depleting battery is not an error;
it is reported in the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import yaml

from .atmosphere import TROPOSPHERE, _check_grid
from .climb_optimizer import (
    calibrate_ci_max_to_speed,
    segment_between,
    solve_optimal_speed,
    total_cost,
)
from .cost_index import CiEvent, CostIndexSchedule
from .errors import ConfigError, DomainError, EnvelopeError
from .scenario_sim import Scenario, run_scenario
from .vehicle import STANDARD_GRAVITY, AircraftParams

ENV_PREFIX = "ECONCLIMB_"

#: Default slot of a _SCHEMA row for a key that must be present.
_REQUIRED = "required"

# Block path -> key -> (lower bound, whether the bound itself is allowed,
# upper bound, default or _REQUIRED); keys that are not numbers have no row
# (None). Keys of an either/or pair, and keys of a moded block (see
# _MODES), are read only when the pair or the mode calls for them.
_SCHEMA = {
    "config": {"aircraft": None, "scenario": None, "cost_index": None},
    "aircraft": {
        "wing_area_m2": (0.0, False, math.inf, _REQUIRED),
        "mass_kg": (0.0, False, math.inf, _REQUIRED),
        "cd0": (0.0, False, math.inf, _REQUIRED),
        "cd2": (0.0, False, math.inf, _REQUIRED),
        "vmax_kmh": (0.0, False, math.inf, _REQUIRED),
        "voltage_v": (0.0, False, math.inf, _REQUIRED),
        "efficiency": (0.0, False, 1.0, _REQUIRED),
        "gravity_ms2": (0.0, False, math.inf, STANDARD_GRAVITY),
    },
    "scenario": {
        "waypoints_km": None,
        "q0_coulombs": (0.0, True, math.inf, _REQUIRED),
        "h_dot_bar_ms": (0.0, False, math.inf, _REQUIRED),
        "sim_step_s": (0.0, False, math.inf, 0.1),
        "atmosphere_step_m": (0.0, False, math.inf, 1.0),
    },
    "cost_index": {
        "ci0_fraction": (0.0, True, 1.0, _REQUIRED),
        "ci0_value_Cs": (0.0, True, math.inf, _REQUIRED),
        "ci_max": None, "tau": None, "events": None,
    },
    "cost_index.ci_max": {"mode": None,
                          "reference_v_kmh": (0.0, False, math.inf, _REQUIRED),
                          "value_Cs": (0.0, False, math.inf, _REQUIRED)},
    "cost_index.tau": {"mode": None,
                       "factor": (0.0, False, math.inf, _REQUIRED),
                       "seconds": (0.0, False, math.inf, _REQUIRED)},
    "cost_index.events[]": {
        "ci_in_fraction": (0.0, True, 1.0, _REQUIRED),
        "ci_in_value_Cs": (0.0, True, math.inf, _REQUIRED),
        "at_waypoint_km": None,
        "at_time_s": (0.0, False, math.inf, _REQUIRED),
    },
}
# Moded block -> mode -> (keys the mode requires, keys it also allows).
_MODES = {
    "cost_index.ci_max": {"vmax": ((), ("reference_v_kmh",)),
                          "calibrated": (("reference_v_kmh",), ()),
                          "value": (("value_Cs",), ("reference_v_kmh",))},
    "cost_index.tau": {"fraction_of_tc0": (("factor",), ()),
                       "seconds": (("seconds",), ()),
                       "infinite": ((), ())},
}
# lowercased key -> config key, for environment overrides
_CANONICAL_KEYS = {key.lower(): key for rows in _SCHEMA.values() for key in rows}


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader (on libyaml where PyYAML has it), also reading
    YAML 1.2's exponent floats.

    YAML 1.1 wants a dot in the mantissa and a sign in the exponent, so
    PyYAML reads 5e-1, 1e5, 1.0e5 and 1E+3 as strings; this loader reads
    them as floats, and every scalar PyYAML already resolves as before.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


# ---------------------------------------------------------------------------
# configuration loading and validation

def _block(raw, path, schema=None):
    """raw, checked to be a mapping of keys of _SCHEMA[schema or path]."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    unknown = sorted(str(key) for key in raw if key not in _SCHEMA[schema or path])
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    return raw


def _number(raw, key, path, row):
    """raw[key] checked against its schema row; the row's default if absent."""
    low, low_allowed, high, default = row
    if key not in raw:
        if default == _REQUIRED:
            raise ConfigError(f"{path}: missing required key {key}")
        return default
    path, value = f"{path}.{key}", raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or a huge int
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    value = float(value)
    if value < low or (value == low and not low_allowed) or value > high:
        upper = f" and <= {high:g}" if high < math.inf else ""
        raise ConfigError(f"{path}: must be {'>=' if low_allowed else '>'} "
                          f"{low:g}{upper}, got {value!r}")
    return value


def _pair(value, path):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(u, bool) or not isinstance(u, (int, float))
                   or not abs(u) <= sys.float_info.max for u in value)):
        raise ConfigError(f"{path}: expected finite [x, h] numbers, got {value!r}")
    return [float(value[0]), float(value[1])]


def _either(raw, keys, path, schema="cost_index"):
    """{key: value} for the one key of the pair ``keys`` that raw holds."""
    present = [key for key in keys if key in raw]
    if len(present) != 1:
        raise ConfigError(f"{path}: exactly one of {keys[0]} or {keys[1]} "
                          "is required")
    key = present[0]
    row = _SCHEMA[schema][key]
    return {key: _pair(raw[key], f"{path}.{key}") if row is None
            else _number(raw, key, path, row)}


def _moded(raw, path):
    """A ci_max or tau block: its mode plus the keys _MODES lets it carry."""
    block = _block(raw or {}, path)
    mode = block.get("mode")
    if not isinstance(mode, str) or mode not in _MODES[path]:
        raise ConfigError(f"{path}.mode: expected one of "
                          f"{', '.join(_MODES[path])}, got {mode!r}")
    required, allowed = _MODES[path][mode]
    out = {"mode": mode}
    for key, row in _SCHEMA[path].items():
        if key in required or (key in allowed and key in block):
            out[key] = _number(block, key, path, row)
        elif key in block and row is not None:
            raise ConfigError(f"{path}.{key}: not allowed with mode {mode}")
    return out


def validate_config(raw):
    """Validate a parsed config mapping and return its canonical form.

    The canonical form has every optional key filled with its default, so
    serializing and re-parsing it is idempotent.
    """
    raw = _block(raw, "config")
    for name in _SCHEMA["config"]:
        if name not in raw:
            raise ConfigError(f"config: missing required block {name}")
    cfg = {}
    for name in ("aircraft", "scenario"):
        block = _block(raw[name], name)
        cfg[name] = {key: _number(block, key, name, row)
                     for key, row in _SCHEMA[name].items() if row is not None}

    wps = raw["scenario"].get("waypoints_km")
    if not isinstance(wps, (list, tuple)) or len(wps) < 2:
        raise ConfigError("scenario.waypoints_km: expected a list of at "
                          "least two [x, h] pairs")
    cfg["scenario"]["waypoints_km"] = [
        _pair(wp, f"scenario.waypoints_km[{i}]") for i, wp in enumerate(wps)]

    cx = _block(raw["cost_index"], "cost_index")
    cost_index = _either(cx, ("ci0_fraction", "ci0_value_Cs"), "cost_index")
    cost_index["ci_max"] = _moded(cx.get("ci_max"), "cost_index.ci_max")
    if (cost_index["ci_max"]["mode"] == "calibrated"
            and not cost_index.get("ci0_fraction", 0.0) > 0.0):
        raise ConfigError("cost_index.ci0_fraction: must be > 0 with ci_max "
                          "mode calibrated (the anchor divides by it)")
    cost_index["tau"] = _moded(cx.get("tau"), "cost_index.tau")
    events = cx.get("events")
    if not isinstance(events, (list, tuple, type(None))):
        raise ConfigError("cost_index.events: expected a list")
    cost_index["events"] = []
    for i, ev in enumerate(events or ()):
        path, schema = f"cost_index.events[{i}]", "cost_index.events[]"
        ev = _block(ev, path, schema)
        cost_index["events"].append({
            **_either(ev, ("ci_in_fraction", "ci_in_value_Cs"), path, schema),
            **_either(ev, ("at_waypoint_km", "at_time_s"), path, schema)})
    cfg["cost_index"] = cost_index
    return cfg


def _parse_yaml(text, what):
    """text read as YAML; a parse error is a one-line ConfigError that
    starts with what and ends with the problem and where it is, then the
    construct it was parsing and where that began (libyaml marks an
    unclosed bracket where the stream ends, past the last line)."""
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        problem = exc
        if getattr(exc, "problem_mark", None) and getattr(exc, "problem", None):
            problem = ", ".join(
                f"{says} at line {mark.line + 1}, column {mark.column + 1}"
                for says, mark in ((exc.problem, exc.problem_mark),
                                   (exc.context, exc.context_mark))
                if says and mark)
        raise ConfigError(f"{what}: {' '.join(str(problem).split())}")


def _apply_env_overrides(raw, env):
    """Fold ECONCLIMB_* environment variables into the raw config mapping."""
    for name, text in sorted(env.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = [_CANONICAL_KEYS.get(part, part)
                for part in name[len(ENV_PREFIX):].lower().split("__")]
        if not all(path):
            raise ConfigError(f"malformed override variable {name}")
        value = _parse_yaml(text, f"override {name}: unparseable value")
        node = raw
        for part in path[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(
                    f"override {name}: {part} is not a mapping in the config"
                )
            node = nxt
        node[path[-1]] = value
    return raw


def load_config(path, env=None, sim_step=None):
    """Read, override, and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    raw = _parse_yaml(text, f"config {path} is not valid YAML")
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    raw = _block(raw, "config")
    raw = _apply_env_overrides(raw, env if env is not None else os.environ)
    if sim_step is not None:
        raw.setdefault("scenario", {})["sim_step_s"] = sim_step
    return validate_config(raw)


# ---------------------------------------------------------------------------
# scenario assembly

def _airframe(cfg):
    """(params, waypoints [m], origin-to-cruise segment) of a validated config."""
    ac = cfg["aircraft"]
    params = AircraftParams(
        wing_area=ac["wing_area_m2"],
        mass=ac["mass_kg"],
        cd0=ac["cd0"],
        cd2=ac["cd2"],
        v_max=ac["vmax_kmh"] / 3.6,
        voltage=ac["voltage_v"],
        efficiency=ac["efficiency"],
        gravity=ac["gravity_ms2"],
    )
    sc = cfg["scenario"]
    waypoints = tuple((x * 1000.0, h * 1000.0) for x, h in sc["waypoints_km"])
    climb = segment_between(waypoints[0], waypoints[-1], sc["h_dot_bar_ms"],
                            TROPOSPHERE, sc["atmosphere_step_m"])
    return params, waypoints, climb


def _cost_index(block, prefix, ci_max):
    """A validated either/or cost index in C/s: ``<prefix>_fraction`` of
    ci_max, or ``<prefix>_value_Cs``."""
    fraction = block.get(f"{prefix}_fraction")
    return block[f"{prefix}_value_Cs"] if fraction is None else fraction * ci_max


def _ci_max(mode, cx, params, climb):
    """The cost-index ceiling [C/s] that ci_max mode ``mode`` picks on
    climb, with the cost_index block cx holding the keys the mode reads."""
    if mode == "vmax":
        return calibrate_ci_max_to_speed(params, climb, params.v_max, 1.0)
    if mode == "calibrated":
        return calibrate_ci_max_to_speed(
            params, climb, cx["ci_max"]["reference_v_kmh"] / 3.6,
            cx["ci0_fraction"])
    return cx["ci_max"]["value_Cs"]


def build_scenario(cfg, no_event=False):
    """Resolve config modes into a concrete Scenario.

    Returns (scenario, climb), climb being the origin-to-cruise
    ClimbSegment the modes are resolved on. The resolved ci_max, ci0 and
    tau are on scenario.schedule, the ci_max mode on scenario.ci_max_mode.
    """
    params, waypoints, climb = _airframe(cfg)
    sc = cfg["scenario"]

    cx = cfg["cost_index"]
    mode = cx["ci_max"]["mode"]
    ci_max = _ci_max(mode, cx, params, climb)
    ci0 = _cost_index(cx, "ci0", ci_max)

    # A tau in mode fraction_of_tc0 takes a departure solve, so it is sized
    # only once the Scenario has passed its checks.
    tau_cfg = cx["tau"]
    tau = tau_cfg["seconds"] if tau_cfg["mode"] == "seconds" else math.inf
    events = () if no_event else tuple(
        CiEvent(ci_in=_cost_index(ev, "ci_in", ci_max),
                at_time=ev.get("at_time_s"),
                at_waypoint=(tuple(u * 1000.0 for u in ev["at_waypoint_km"])
                             if "at_waypoint_km" in ev else None))
        for ev in cx["events"])
    schedule = CostIndexSchedule(ci0=ci0, tau=tau, ci_max=ci_max,
                                 events=events)
    scenario = Scenario(
        waypoints=waypoints,
        aircraft=params,
        schedule=schedule,
        q0=sc["q0_coulombs"],
        h_dot_bar=sc["h_dot_bar_ms"],
        sim_step=sc["sim_step_s"],
        atmo=TROPOSPHERE,
        atmo_step=sc["atmosphere_step_m"],
        ci_max_mode=mode,
    )
    if tau_cfg["mode"] == "fraction_of_tc0":
        v0 = solve_optimal_speed(climb, ci0, ci0, math.inf, params).v_star
        schedule = replace(schedule, tau=tau_cfg["factor"] * climb.d / v0)
        scenario = replace(scenario, schedule=schedule)
    return scenario, climb


# ---------------------------------------------------------------------------
# output helpers

def fmt(value):
    """Fixed 6-significant-digit rendering used for all numeric output."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return f"{value:.6g}"


#: Rows rendered per block: few enough that the block's work arrays stay
#: small and are reused, many enough to spread NumPy's per-call cost.
_BLOCK_ROWS = 2048

# Tables of the "%.6g" renderer, in little-endian words (a word's first
# character is its low byte), indexed by the decimal exponent x of a cell
# rounded to six digits: "%.6g" writes fixed notation up to x = 5 and
# d.ddddde+XX past that. They reach x = 26, where the float32 log10 of a
# cell just below 1e26 can round it up.
_EXPONENTS = range(27)


def _words(texts):
    """The int64 words of ASCII texts of up to eight characters."""
    return np.array([int.from_bytes(text.encode(), "little") for text in texts],
                    dtype=np.int64)


_DIGITS = _words(f"{k:03d}" for k in range(1000))
_TAIL = _words("" if x <= 5 else f"e+{x:02d}" for x in _EXPONENTS)
# exact powers of ten (up to 10**21) in the decades in use
_UP = np.array([10.0 ** max(5 - x, 0) for x in _EXPONENTS])
_DOWN = np.array([10.0 ** max(x - 5, 0) for x in _EXPONENTS])
# The body's six digits take the point at byte x + 1 in fixed notation
# (at byte 6, cut off again, for x = 5) and at byte 1 in e-notation.
# XORed into a body, _ZERO zeroes what may be cut from its end: the point
# and the digits after it that are 0.
_POINT = [x + 1 if x <= 5 else 1 for x in _EXPONENTS]
_LOW = np.array([(1 << 8 * p) - 1 for p in _POINT], dtype=np.int64)
_DOT = _words("\0" * p + "." for p in _POINT)
_ZERO = _words("\0" * p + "." + "0" * (6 - p) for p in _POINT)


def _csv_cells(cells, words):
    """Render float64 cells as "%.6g" does, into words: three int64 a cell
    (sign, body, tail), whose NUL bytes are padding.

    NumPy renders a cell only where its digits are exact: |c| lies in
    [1, 1e26), where 10**(5 - x) is an exact power of ten, and
    q = |c| * 10**(5 - x), rounded once, lies in [1e5, 1e6) and is neither
    on a half-integer nor rounded up to 1e6. Then rint(q) is the six digits
    %.6g writes. Every other cell goes through % one at a time.
    """
    a = np.abs(cells)
    fast = (a >= 1.0) & (a < 1e26)
    a[~fast] = 1.0
    # x by a float32 log10, which is one off at worst next to a power of
    # ten; a cell it misses leaves [1e5, 1e6) and goes through %
    xi = np.log10(a.astype(np.float32)).astype(np.intp)
    q = a * _UP[xi] / _DOWN[xi]
    m = np.rint(q)
    fast &= (q >= 1e5) & (m < 1e6) & (np.abs(q - m) != 0.5)
    slow = np.flatnonzero(~fast)
    m[slow] = 1e5  # any six digits: % overwrites the cell
    m = m.astype(np.intp)
    high = m // 1000
    digits = _DIGITS[high] | _DIGITS[m - 1000 * high] << 24
    low = digits & _LOW[xi]
    body = low | (digits ^ low) << 8 | _DOT[xi]
    # cut the body after its last byte that _ZERO leaves nonzero: the float
    # exponent of the XORed body is the index of its highest set bit
    last = (body ^ _ZERO[xi]).astype(np.float64).view(np.int64) >> 52
    words[:, 0] = (cells < 0) * 45
    words[:, 1] = body & (256 << (last - 1023 & -8)) - 1
    words[:, 2] = _TAIL[xi]
    if slow.size:
        words.view("S24")[slow, 0] = ["%.6g" % u for u in cells[slow].tolist()]


def _csv(header, table):
    """CSV text: the header line, then one line per row of a 2-D float64
    table, each cell rendered as "%.6g" % renders it.

    A block of rows at a time is rendered into words, the separators take
    the last byte of each cell's tail, and one pass deletes the NUL bytes.
    Each block is decoded apart: the whole text is never bytes as well.
    """
    rows, cols = table.shape
    sep = np.full(cols, ord(",") << 56, dtype=np.int64)
    sep[-1] = ord("\n") << 56
    words = np.empty((min(rows, _BLOCK_ROWS), cols, 3), np.int64)
    parts = [f"{header}\n"]
    for lo in range(0, rows, _BLOCK_ROWS):
        block = words[:min(rows - lo, _BLOCK_ROWS)]
        _csv_cells(table[lo:lo + _BLOCK_ROWS].ravel(), block.reshape(-1, 3))
        block[:, :, 2] |= sep
        parts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _jsonable(value):
    """Round floats to output precision; keep JSON strictly standard.

    Non-finite floats become the strings "nan", "inf" and "-inf", and NumPy
    scalars their Python counterparts; a summary's exact types go first.
    """
    if type(value) is float:
        if math.isfinite(value):
            return float(f"{value:.6g}")
        return "nan" if math.isnan(value) else "-inf" if value < 0.0 else "inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if value is None or type(value) in (str, int, bool):
        return value
    if isinstance(value, (float, np.floating)):  # np.float64 included
        return _jsonable(float(value))
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _json_text(record):
    """A summary or report as the JSON text the commands write."""
    return json.dumps(_jsonable(record), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}")


class _OutputError(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands (each returns its stdout text and the (path, text) files it
# writes; main writes them)

def cmd_plan(cfg, args):
    result = run_scenario(build_scenario(cfg, args.no_event)[0])
    s = result.summary

    lines = [
        f"ci_max: {fmt(s['ci_max_Cs'])} C/s (mode: {s['ci_max_mode']})",
        f"ci0: {fmt(s['ci0_Cs'])} C/s  tau: {fmt(s['tau_s'])} s",
    ]
    for i, seg in enumerate(s["segments"]):
        lines.append(
            f"segment {i}: v* = {fmt(seg['v_star_kmh'])} km/h "
            f"({fmt(seg['v_star_ms'])} m/s)  t_c* = {fmt(seg['planned_time_s'])} s  "
            f"J* = {fmt(seg['j_star_C'])} C  Q_f = {fmt(seg['q_f_C'])} C"
            + ("  [envelope limit]" if seg["at_envelope_limit"] else "")
        )
    for i, ev in enumerate(s["events"]):
        state = "applied" if ev["applied"] else "skipped (after arrival)"
        lines.append(
            f"event {i}: t = {fmt(ev['t_s'])} s  ci_in = {fmt(ev['ci_in_Cs'])} C/s"
            f"  ({state})"
        )
    lines.append(
        f"total time: {fmt(s['total_time_s'])} s  "
        f"baseline: {fmt(s['baseline_time_s'])} s  "
        f"delta: {fmt(s['time_delta_s'])} s"
    )
    lines.append(
        f"energy used: {fmt(s['energy_used_J'])} J  "
        f"final charge: {fmt(s['final_q_C'])} C  "
        f"final energy: {fmt(s['final_e_J'])} J"
    )
    lines.append(f"battery depleted: {fmt(s['battery_depleted'])}")
    files = [] if args.out is None else [(args.out, _json_text(s))]
    return "\n".join(lines) + "\n", files


def _profile_csv(table):
    return _csv("t_s,x_m,h_m,v_ms,ci_Cs,q_C,e_J,v_track_ms", table)


def cmd_profile(cfg, args):
    result = run_scenario(build_scenario(cfg, args.no_event)[0])
    meta_path = f"{args.out}.meta.json"
    return (f"wrote {len(result.samples)} samples to {args.out} "
            f"(summary: {meta_path})\n",
            [(args.out, _profile_csv(result.samples.table)),
             (meta_path, _json_text(result.summary))])


def cmd_sweep(cfg, args):
    scenario, climb = build_scenario(cfg, args.no_event)
    v_min_kmh, v_step_kmh = args.v_min_kmh, args.v_step_kmh
    v_max_kmh = (cfg["aircraft"]["vmax_kmh"] if args.v_max_kmh is None
                 else args.v_max_kmh)
    if not all(map(math.isfinite, (v_min_kmh, v_max_kmh, v_step_kmh))):
        raise ConfigError(
            f"sweep grid must be finite: v from {v_min_kmh:g} to "
            f"{v_max_kmh:g} km/h step {v_step_kmh:g}"
        )
    if not v_step_kmh > 0.0 or v_min_kmh >= v_max_kmh:
        raise ConfigError(
            f"empty sweep grid: v from {v_min_kmh:g} to {v_max_kmh:g} km/h "
            f"step {v_step_kmh:g}"
        )
    _check_grid(v_max_kmh - v_min_kmh, v_step_kmh, "sweep step", "km/h")
    grid_kmh = np.arange(v_min_kmh, v_max_kmh + 0.5 * v_step_kmh, v_step_kmh)
    # arange's last point may overshoot v_max by rounding; clip it onto v_max
    grid_kmh = np.minimum(grid_kmh[grid_kmh <= v_max_kmh + 1e-12], v_max_kmh)
    v = grid_kmh / 3.6
    params, sched = scenario.aircraft, scenario.schedule
    if not (np.all(v > 0.0) and np.all(v <= params.v_max)):
        raise ConfigError(
            f"sweep speeds must lie in (0, {params.v_max * 3.6:g}] km/h, got "
            f"--v-min-kmh {v_min_kmh:g} to --v-max-kmh {v_max_kmh:g}"
        )

    if args.tau_s is None:
        taus = [] if math.isinf(sched.tau) else [sched.tau]
    else:
        taus = []
        for item in args.tau_s.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                value = math.inf if item.lower() == "infinite" else float(item)
            except ValueError:
                raise ConfigError(f"bad tau entry {item!r}")
            if not value > 0.0:
                raise ConfigError(f"tau entries must be positive, got {item!r}")
            taus.append(value)

    # One cost curve J(v) per time constant: the constant-CI baseline, then
    # the filter from ci0 toward the first event's command (ci0 if none).
    ci_in = sched.events[0].ci_in if sched.events else sched.ci0
    blocks = []
    for ci_cmd, tau in [(sched.ci0, math.inf), *((ci_in, tau) for tau in taus)]:
        j = total_cost(v, climb, sched.ci0, ci_cmd, tau, 0.0, params)
        is_argmin = (np.arange(len(v)) == np.argmin(j)).astype(float)
        blocks.append(np.column_stack([np.full_like(v, tau), v, v * 3.6, j,
                                       is_argmin]))
    return (f"wrote {len(blocks)} curves to {args.out}\n",
            [(args.out, _csv("tau_s,v_ms,v_kmh,j_C,is_argmin",
                             np.concatenate(blocks)))])


def cmd_calibrate(cfg, args):
    params, _waypoints, climb = _airframe(cfg)
    cx = cfg["cost_index"]
    if "ci0_fraction" not in cx:
        raise ConfigError(
            "cost_index.ci0_fraction is required to compare calibration modes"
        )
    fraction = cx["ci0_fraction"]
    ref_v_kmh = cx["ci_max"].get("reference_v_kmh")
    chosen = cx["ci_max"]["mode"]

    report = {"chosen_mode": chosen, "ci0_fraction": fraction, "modes": {}}
    for mode in ("vmax",) if ref_v_kmh is None else ("vmax", "calibrated"):
        ci_max = _ci_max(mode, cx, params, climb)
        ci0 = fraction * ci_max
        v0_kmh = 3.6 * solve_optimal_speed(climb, ci0, ci0, math.inf,
                                           params).v_star
        entry = report["modes"][mode] = {"ci_max_Cs": ci_max, "v0_kmh": v0_kmh}
        if ref_v_kmh is not None:
            entry["deviation_pct"] = 100.0 * (v0_kmh - ref_v_kmh) / ref_v_kmh
        if mode == "calibrated":
            entry["reference_v_kmh"] = ref_v_kmh

    lines = [f"chosen mode: {chosen}  (ci0 fraction: {fmt(fraction)})"]
    for mode_name, data in report["modes"].items():
        line = (f"mode {mode_name}: ci_max = {fmt(data['ci_max_Cs'])} C/s  "
                f"v0* = {fmt(data['v0_kmh'])} km/h")
        if "deviation_pct" in data:
            line += f"  (off reference by {fmt(data['deviation_pct'])}%)"
        lines.append(line)
    if ref_v_kmh is None:
        lines.append(
            "calibrated mode not shown: set cost_index.ci_max.reference_v_kmh"
        )
    files = [] if args.out is None else [(args.out, _json_text(report))]
    return "\n".join(lines) + "\n", files


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="econclimb",
        description="Minimum-DOC climb planning for battery-electric aircraft",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="scenario config file")
    shared.add_argument("--sim-step", type=float, default=None, metavar="S",
                        help="override scenario.sim_step_s")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, out_required=False):
        p = sub.add_parser(name, parents=[shared], help=help)
        p.add_argument("--out", required=out_required,
                       help="output file path" if out_required
                       else "optional output file path")
        p.set_defaults(run=run)
        return p

    p_plan = command("plan", cmd_plan, "solve the climb plan and print it")
    p_profile = command("profile", cmd_profile,
                        "simulate and write the profile", out_required=True)
    p_sweep = command("sweep", cmd_sweep, "tabulate cost vs airspeed",
                      out_required=True)
    command("calibrate", cmd_calibrate, "report ci_max calibration modes")
    for p in (p_plan, p_profile, p_sweep):
        p.add_argument("--no-event", action="store_true",
                       help="drop all ATC events (baseline run)")
    p_sweep.add_argument("--v-min-kmh", type=float, default=80.0)
    p_sweep.add_argument("--v-max-kmh", type=float, default=None,
                         help="default: aircraft vmax_kmh")
    p_sweep.add_argument("--v-step-kmh", type=float, default=0.5)
    p_sweep.add_argument("--tau-s", default=None,
                         help="comma-separated time constants; 'inf' allowed; "
                              "default: the configured tau")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, sim_step=args.sim_step)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            text, files = args.run(cfg, args)
        # All files or none: a failed write removes those written before it.
        for k, (path, body) in enumerate(files):
            try:
                _write_text(path, body)
            except _OutputError:
                for done, _ in files[:k]:
                    with contextlib.suppress(OSError):
                        os.remove(done)
                raise
        sys.stdout.write(text)
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # Python or NumPy floats past their range
        print(f"config error: a value leaves the float range "
              f"({exc.args[-1]})", file=sys.stderr)
        return 2
    except EnvelopeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
