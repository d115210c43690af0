"""Output checks run on every benchmark operation.

The checks test invariants of each output, not golden bytes, so a change
that alters the numbers within the program's own guarantees (for example an
exact replay) still passes them. Each check raises ``CheckError`` with the
reason on the first violation.

* Plans: each leg's ``v*`` matches the argmin of ``total_cost`` on a
  0.01 km/h airspeed grid within one grid step (the oracle of acceptance
  criterion 5).
* Profiles: the header is exact, there are ``ceil(T/dt)+1`` rows, ``t`` is
  strictly increasing and ends at ``total_time_s``, ``q`` never increases,
  the last ``q`` equals ``final_q_C``, and no cell is NaN.
* Sweeps: each curve has exactly one argmin mark, on its lowest cost.
* Calibrate: the calibrated mode's ``deviation_pct`` is about 0.

Numbers the CLI prints carry 6 significant digits, so comparisons against
printed values allow that rounding and no more.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from econclimb import segment_between, total_cost

PROFILE_HEADER = "t_s,x_m,h_m,v_ms,ci_Cs,q_C,e_J,v_track_ms"
SWEEP_HEADER = "tau_s,v_ms,v_kmh,j_C,is_argmin"

#: Oracle grid: step and lower edge, as in acceptance criterion 5.  [km/h]
GRID_STEP_KMH = 0.01
GRID_LO_KMH = 18.0

#: Relative half-width of a value printed with 6 significant digits.
PRINT_RTOL = 5e-6

#: Largest |deviation_pct| accepted for the calibrated mode.  [%]
CALIBRATE_DEV_PCT = 1e-3


class CheckError(AssertionError):
    """An operation's output violates one of its invariants."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _num(value):
    """JSON number, or the strings the CLI writes for non-finite floats."""
    if value == "inf":
        return math.inf
    _require(value != "nan", "NaN in output")
    return float(value)


_NAN_WORD = re.compile(r"\bnan\b", re.IGNORECASE)


def check_text(text):
    """Reject a NaN rendering anywhere in a text output."""
    _require(_NAN_WORD.search(text) is None, "NaN in output")


def oracle_speed_kmh(seg, ci0, ci_in, tau, params):
    """Argmin of total_cost on the 0.01 km/h grid over [18 km/h, v_max].

    A 1 km/h pass finds the basin, then the 0.01 km/h grid is evaluated
    within two coarse steps of it; J is unimodal in v on these segments, so
    this equals the full dense-grid argmin at a fraction of the cost.
    """
    vmax_kmh = params.v_max * 3.6
    coarse = np.append(np.arange(GRID_LO_KMH, vmax_kmh, 1.0), vmax_kmh)
    j = total_cost(coarse / 3.6, seg, ci0, ci_in, tau, 0.0, params)
    centre = coarse[int(np.argmin(j))]
    lo = max(GRID_LO_KMH, centre - 2.0)
    k0 = math.ceil((lo - GRID_LO_KMH) / GRID_STEP_KMH - 1e-9)
    k1 = math.floor((min(vmax_kmh, centre + 2.0) - GRID_LO_KMH)
                    / GRID_STEP_KMH + 1e-9)
    fine = GRID_LO_KMH + GRID_STEP_KMH * np.arange(k0, k1 + 1)
    if centre == vmax_kmh:
        fine = np.append(fine, vmax_kmh)
    j = total_cost(fine / 3.6, seg, ci0, ci_in, tau, 0.0, params)
    return float(fine[int(np.argmin(j))])


def check_plan_legs(summary, scenario, printed=False):
    """Every leg's v* against the grid oracle.

    ``summary`` is ``ScenarioResult.summary`` or its JSON form (``printed``:
    values rounded to 6 significant digits). Leg 0 is the constant-CI plan
    over the whole climb; leg k >= 1 re-plans from the k-th applied event to
    cruise over the whole climb's density band.
    """
    params = scenario.aircraft
    origin, cruise = scenario.waypoints[0], scenario.waypoints[-1]
    tau = _num(summary["tau_s"])
    ci0 = _num(summary["ci0_Cs"])
    applied = [e for e in summary["events"] if e["applied"]]
    segments = summary["segments"]
    _require(len(segments) == len(applied) + 1,
             f"{len(segments)} legs for {len(applied)} applied events")
    tol = GRID_STEP_KMH + 1e-9
    for k, leg in enumerate(segments):
        if k == 0:
            seg = segment_between(origin, cruise, scenario.h_dot_bar,
                                  scenario.atmo, scenario.atmo_step)
            args = (ci0, ci0, math.inf)
        else:
            ev = applied[k - 1]
            start = (_num(leg["start_x_m"]), _num(leg["start_h_m"]))
            seg = segment_between(start, cruise, scenario.h_dot_bar,
                                  scenario.atmo, scenario.atmo_step,
                                  density_band=(origin[1], cruise[1]))
            args = (_num(ev["ci_before_Cs"]), _num(ev["ci_in_Cs"]), tau)
        v_kmh = _num(leg["v_star_kmh"])
        want = oracle_speed_kmh(seg, *args, params)
        slack = tol + (PRINT_RTOL * v_kmh if printed else 0.0)
        _require(abs(v_kmh - want) <= slack,
                 f"leg {k}: v* {v_kmh:.6f} km/h, grid argmin {want:.2f} km/h")


def check_profile_columns(t, q, cells, summary, dt, printed=False):
    """Profile invariants on parsed columns.

    ``t`` and ``q`` are the time and charge columns, ``cells`` every numeric
    cell, ``summary`` the run summary and ``dt`` the step. With ``printed``
    the values are 6-significant-digit renderings: the row count then
    allows any total time that rounds to the printed one, and two
    consecutive times may print equal only where they lie within rounding of
    each other (the final sample is snapped to the total time and can fall
    arbitrarily close to the last grid point).
    """
    _require(not np.isnan(cells).any(), "NaN cell in profile")
    t_total = _num(summary["total_time_s"])
    rtol = PRINT_RTOL if printed else 0.0
    t_lo, t_hi = t_total * (1 - rtol), t_total * (1 + rtol)
    n_lo = math.ceil(t_lo / dt - 1e-9 * max(1.0, t_lo) / dt) + 1
    n_hi = math.ceil(t_hi / dt + 1e-9) + 1
    _require(n_lo <= len(t) <= n_hi,
             f"{len(t)} rows, expected ceil(T/dt)+1 in [{n_lo}, {n_hi}]")
    grid = dt * np.arange(len(t) - 1)
    _require(np.allclose(t[:-1], grid, rtol=2 * rtol, atol=1e-9),
             "t is not the fixed-step grid k*dt")
    steps = np.diff(t)
    if printed:
        _require((steps[:-1] > 0).all() and steps[-1] >= 0,
                 "t not strictly increasing")
    else:
        _require((steps > 0).all(), "t not strictly increasing")
    _require(math.isclose(t[-1], t_total, rel_tol=2 * rtol, abs_tol=1e-9),
             f"last t {t[-1]!r} != total_time_s {t_total!r}")
    _require((np.diff(q) <= 0).all(), "q increases")
    final_q = _num(summary["final_q_C"])
    _require(math.isclose(q[-1], final_q, rel_tol=2 * rtol, abs_tol=1e-9),
             f"last q {q[-1]!r} != final_q_C {final_q!r}")


def check_profile_csv(csv_text, summary, dt):
    """Profile CSV written by ``econclimb profile`` against its summary.

    Returns the number of data rows."""
    check_text(csv_text)
    header, _, body = csv_text.partition("\n")
    _require(header == PROFILE_HEADER, f"bad profile header {header!r}")
    _require(body.endswith("\n"), "profile does not end with a newline")
    cells = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(cells.shape[1] == PROFILE_HEADER.count(",") + 1,
             f"profile rows have {cells.shape[1]} cells")
    check_profile_columns(cells[:, 0], cells[:, 5], cells, summary, dt,
                          printed=True)
    return len(cells)


def check_samples(result, scenario):
    """In-memory replay result: profile invariants and the plan oracle."""
    smp = result.samples
    t = np.array([s.t for s in smp])
    q = np.array([s.q for s in smp])
    cells = np.array([[s.t, s.x, s.h, s.v, s.ci, s.q, s.e]
                      + ([] if s.v_track is None else [s.v_track]) for s in smp])
    check_profile_columns(t, q, cells, result.summary, scenario.sim_step)
    check_plan_legs(result.summary, scenario)


def check_sweep_csv(csv_text):
    """Exactly one argmin mark per curve, on the curve's lowest cost."""
    check_text(csv_text)
    rows = list(csv.reader(io.StringIO(csv_text)))
    _require(rows and ",".join(rows[0]) == SWEEP_HEADER,
             f"bad sweep header {rows[0] if rows else None!r}")
    curves = {}
    for row in rows[1:]:
        curves.setdefault(row[0], []).append((float(row[3]), row[4]))
    _require(curves, "sweep has no curves")
    for tau, pts in curves.items():
        marks = [i for i, (_, m) in enumerate(pts) if m == "1"]
        _require(len(marks) == 1, f"curve tau={tau}: {len(marks)} argmin marks")
        _require(pts[marks[0]][0] == min(j for j, _ in pts),
                 f"curve tau={tau}: argmin mark not on the lowest cost")


def check_calibrate_json(text):
    """The calibrated mode reproduces its reference speed."""
    check_text(text)
    report = json.loads(text)
    cal = report["modes"].get("calibrated")
    _require(cal is not None, "calibrate report has no calibrated mode")
    dev = _num(cal["deviation_pct"])
    _require(abs(dev) <= CALIBRATE_DEV_PCT,
             f"calibrated deviation_pct {dev!r}, expected about 0")
