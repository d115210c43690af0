"""Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and derives all of its randomness
from ``random.Random(seed)``, so the same seed gives byte-identical inputs.
No generator runs the program to choose or discard an input: each input is
valid by construction, and one that validates but later fails is counted as
a failed operation.

The input properties the program's behaviour depends on, and which the
generators vary:

* the number of ATC events (replan-storm 4-16, fine-profile 0-1, cli-cold 0-2);
* the trigger kind (elapsed time or waypoint crossing);
* the filter time constant mode (finite tau or ``inf``);
* the altitude band relative to ``atmosphere_step_m``, which sets the number
  of grid points in each density mean;
* ``sim_step``, which sets the number of profile rows.
"""

from __future__ import annotations

import math
import random

import yaml

#: The bundled reference scenario; every file-based workload runs it.
REFERENCE_CONFIG = "configs/e430_atc_climb.yaml"

# Yuneec E430 airframe of the reference config.
_E430 = {
    "wing_area_m2": 11.37, "mass_kg": 472.0, "cd0": 0.035, "cd2": 0.009,
    "vmax_kmh": 161.0, "voltage_v": 133.2, "efficiency": 0.7,
    "gravity_ms2": 9.80665,
}

# Airspeed bounds used to order mixed triggers without running the planner.
# Horizontal progress never beats v_max; the planner never flies below the
# zero-cost-index economy speed, about 27 m/s for airframes within a few
# percent of the E430, so 20 m/s is a safe floor for "when is the waypoint
# reached at the latest".
_V_FLOOR_MS = 20.0

#: Profile step of the fine-profile workload.  [s]
FINE_SIM_STEP_S = 0.01


def _aircraft(rng):
    ac = dict(_E430)
    ac["mass_kg"] = round(472.0 * rng.uniform(0.96, 1.04), 3)
    ac["cd0"] = round(0.035 * rng.uniform(0.95, 1.05), 6)
    return ac


def _on_line(origin, cruise, frac):
    """Point at slant fraction ``frac`` of the straight origin-cruise line."""
    return (origin[0] + frac * (cruise[0] - origin[0]),
            origin[1] + frac * (cruise[1] - origin[1]))


def _tau_cfg(rng):
    mode = rng.choice(("fraction_of_tc0", "seconds", "infinite"))
    if mode == "fraction_of_tc0":
        return {"mode": mode, "factor": round(rng.uniform(0.005, 0.05), 6)}
    if mode == "seconds":
        return {"mode": mode, "seconds": round(rng.uniform(5.0, 120.0), 3)}
    return {"mode": mode}


def _event_schedule(rng, n_events, slant_m, v_max, t_gap, s_gap):
    """``n_events`` (kind, value) events, time-ordered by construction.

    Two or more events come in two or three blocks of alternating trigger
    kind. A time event is placed ``t_gap`` seconds after the latest moment
    the previous event can happen (waypoints are reached no slower than
    ``_V_FLOOR_MS``); a waypoint event is placed an ``s_gap`` share of the
    route beyond the farthest the aircraft can have flown by then (no faster
    than ``v_max``). Waypoint events that would not fit before 95 % of the
    route are dropped. Returns (kind, seconds or slant metres) pairs.
    """
    if n_events == 0:
        return []
    n_blocks = min(n_events, rng.choice((2, 3)))
    cuts = sorted(rng.sample(range(1, n_events), n_blocks - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n_events])]
    kind = rng.choice(("time", "waypoint"))
    t_hi = 0.0
    s_hi = 0.0
    events = []
    for size in sizes:
        for _ in range(size):
            if kind == "time":
                t = t_hi + rng.uniform(*t_gap)
                events.append(("time", t))
                t_hi = t
                s_hi = max(s_hi, v_max * t)
            else:
                s = s_hi + rng.uniform(*s_gap) * slant_m
                if s >= 0.95 * slant_m:
                    continue
                events.append(("waypoint", s))
                s_hi = s
                t_hi = max(t_hi, s / _V_FLOOR_MS)
        kind = "waypoint" if kind == "time" else "time"
    return events


def _file_config(rng, n_events, sim_step_s):
    """One YAML-ready config near the reference flight, in km units.

    Routes stay within about 10 % of the reference's 30 km, 1 km climb, so a
    profile's row count (and so an operation's cost) moves little from seed
    to seed; the altitude band and ``atmosphere_step_m`` vary independently.
    """
    h0 = round(rng.uniform(0.0, 0.3), 3)
    x_c = round(rng.uniform(28.0, 32.0), 3)
    h_c = round(h0 + rng.uniform(0.8, 1.2), 3)
    origin, cruise = (0.0, h0), (x_c, h_c)
    scenario = {
        "waypoints_km": [list(origin), list(cruise)],
        "q0_coulombs": round(rng.uniform(200000.0, 300000.0), 1),
        "h_dot_bar_ms": round(rng.uniform(1.4, 1.9), 3),
        "atmosphere_step_m": rng.choice((0.5, 1.0, 2.0, 5.0, 20.0)),
    }
    if sim_step_s is not None:
        scenario["sim_step_s"] = sim_step_s
    ci_max = {"mode": rng.choice(("calibrated", "vmax")),
              "reference_v_kmh": round(rng.uniform(132.0, 148.0), 2)}
    slant_m = 1000.0 * math.hypot(x_c, h_c - h0)
    events = []
    for kind, value in _event_schedule(rng, n_events, slant_m,
                                       _E430["vmax_kmh"] / 3.6,
                                       t_gap=(30.0, 200.0), s_gap=(0.1, 0.3)):
        ev = {"ci_in_fraction": round(rng.uniform(0.3, 1.0), 4)}
        if kind == "time":
            ev["at_time_s"] = round(value, 3)
        else:
            wp = _on_line(origin, cruise, value / slant_m)
            ev["at_waypoint_km"] = [round(wp[0], 6), round(wp[1], 6)]
            scenario["waypoints_km"].insert(-1, ev["at_waypoint_km"])
        events.append(ev)
    return {
        "aircraft": _aircraft(rng),
        "scenario": scenario,
        "cost_index": {
            "ci0_fraction": round(rng.uniform(0.5, 0.7), 4),
            "ci_max": ci_max,
            "tau": _tau_cfg(rng),
            "events": events,
        },
    }


def config_text(cfg):
    """YAML text for a generated config (stable key order)."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


# --- cli-cold ---------------------------------------------------------------
# Why: what a shell user pays per command. Interpreter start and
# ``import econclimb`` dominate, so dropping a heavy dependency shows here and
# nowhere else. The four subcommands run in a fixed rotation so every run has
# the same command mix; configs are the bundled reference plus three seeded
# ones at the default profile step.

CLI_COMMANDS = ("plan", "profile", "sweep", "calibrate")
CLI_COLD_GENERATED = 3


def cli_cold_configs(seed):
    """Config texts for cli-cold: [(name, yaml_text or None)]; None = bundled."""
    rng = random.Random(seed)
    out = [("reference", None)]
    for i in range(CLI_COLD_GENERATED):
        cfg = _file_config(rng, n_events=rng.randint(0, 2), sim_step_s=None)
        out.append((f"gen{i}", config_text(cfg)))
    return out


# --- fine-profile -----------------------------------------------------------
# Why: long profiles. At a 0.01 s step the replay and the CSV writer take
# nearly all of the time and the solver well under a millisecond, so a
# columnar replay or a faster writer shows here, while replan-storm (many
# short legs, few rows) is where it should not move. Profiles differ in
# length, so the pool holds eleven generated configs besides the reference:
# with only a few, a run's median falls between a few length classes and
# jumps from seed to seed.

FINE_PROFILE_GENERATED = 11


def fine_profile_configs(seed):
    """Config texts for fine-profile: the reference plus 0-1 event configs."""
    rng = random.Random(seed)
    out = [("reference", None)]
    for i in range(FINE_PROFILE_GENERATED):
        cfg = _file_config(rng, n_events=rng.randint(0, 1),
                           sim_step_s=FINE_SIM_STEP_S)
        out.append((f"gen{i}", config_text(cfg)))
    return out


# --- replan-storm -----------------------------------------------------------
# Why: ATC re-commands the cost index many times per climb. Each event
# re-plans the rest of the climb (a density mean and a solve), and a coarse
# step keeps the replay short, so the economy-speed solver dominates and the
# CSV writer is not touched.

#: Cost-index ceiling of the reference calibration (327.99 C/s), rounded.
_CI_MAX_REF = 328.0


def replan_storm_scenarios(seed, count=200):
    """``count`` Scenario objects with 4-16 mixed ATC events each."""
    from econclimb import (TROPOSPHERE, AircraftParams, CiEvent,
                           CostIndexSchedule, Scenario)

    rng = random.Random(seed)
    scenarios = []
    for _ in range(count):
        ac = _aircraft(rng)
        params = AircraftParams(
            wing_area=ac["wing_area_m2"], mass=ac["mass_kg"], cd0=ac["cd0"],
            cd2=ac["cd2"], v_max=ac["vmax_kmh"] / 3.6,
            voltage=ac["voltage_v"], efficiency=ac["efficiency"],
            gravity=ac["gravity_ms2"])
        h0 = rng.uniform(0.0, 500.0)
        origin = (0.0, h0)
        cruise = (rng.uniform(25000.0, 40000.0), h0 + rng.uniform(300.0, 3000.0))
        slant = math.hypot(cruise[0] - origin[0], cruise[1] - origin[1])
        ci_max = _CI_MAX_REF * rng.uniform(0.8, 1.2)
        n_events = rng.randint(4, 16)
        waypoints = [origin]
        events = []
        for kind, value in _event_schedule(rng, n_events, slant, params.v_max,
                                           t_gap=(2.0, 15.0),
                                           s_gap=(0.02, 0.05)):
            ci_in = ci_max * rng.uniform(0.0, 1.0)
            if kind == "time":
                events.append(CiEvent(ci_in=ci_in, at_time=value))
            else:
                wp = _on_line(origin, cruise, value / slant)
                waypoints.append(wp)
                events.append(CiEvent(ci_in=ci_in, at_waypoint=wp))
        waypoints.append(cruise)
        tau = math.inf if rng.random() < 0.25 else math.exp(
            rng.uniform(math.log(2.0), math.log(600.0)))
        scenarios.append(Scenario(
            waypoints=tuple(waypoints),
            aircraft=params,
            schedule=CostIndexSchedule(
                ci0=ci_max * rng.uniform(0.3, 0.9), tau=tau, ci_max=ci_max,
                events=tuple(events)),
            q0=rng.uniform(200000.0, 300000.0),
            h_dot_bar=rng.uniform(1.2, 2.5),
            sim_step=rng.uniform(4.0, 6.0),
            atmo=TROPOSPHERE,
            atmo_step=rng.choice((0.5, 1.0, 2.0, 5.0, 20.0)),
        ))
    return scenarios
