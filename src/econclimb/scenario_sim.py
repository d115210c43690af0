"""Deterministic replay of a multi-segment climb with ATC cost-index events.

A scenario is planned first and then simulated. Planning picks one constant
airspeed per leg: the departure leg with the constant-CI initialization, and
a re-planned speed for the remaining geometry every time an ATC event fires.
Simulation then replays the flight on a fixed time step, integrating the
battery charge with the instantaneous charge rate at the local air density,
and emits one profile row per step.

Geometry conventions used by the replay:

* Horizontal position advances so each leg's endpoints are met exactly
  (linear interpolation over the leg's flight time at its constant v).
* Altitude climbs at the scenario's mean climb rate until the cruise
  altitude, then holds; the rate and the straight-line geometry are
  independent inputs, so the ceiling can be reached before the cruise
  waypoint.
* Re-planned legs keep the whole climb's density band for their mean
  density quantities, matching how the departure plan was calibrated.
* Events fire in time order, whatever their order in the schedule. A
  waypoint-triggered event fires when x reaches the waypoint's x (the
  moment the aircraft passes a waypoint on its straight line to cruise),
  and the leg that follows starts from the waypoint.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .atmosphere import TROPOSPHERE
from .cost_index import CostIndexSchedule, ci_at
from .climb_optimizer import (
    ClimbSegment,
    economy_speed,
    fms_initial_speed,
    segment_between,
    solve_optimal_speed,
    total_cost,
)
from .errors import DomainError
from .vehicle import _require_positive_speed, charge_rate, segment_discharge

_WAYPOINT_MATCH_RTOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """A climb flight plan plus everything needed to replay it.

    Attributes:
        waypoints: ((x, h), ...) in meters, ordered by x; the first entry is
            the origin, the last the cruise entry point, and any interior
            entries are named positions that ATC events may reference; their
            altitudes lie within the climb's band [origin h, cruise h].
        aircraft: airframe and powertrain constants.
        schedule: cost-index schedule with concrete values (C/s).
        q0: battery charge at the start of the climb  [C]
        h_dot_bar: mean climb rate  [m s^-1]
        sim_step: profile integration step  [s]
        atmo: density model used for segment means and local density.
        atmo_step: altitude grid spacing for the density means  [m]
        ci_max_mode: provenance label for schedule.ci_max, carried into the
            summary ("vmax", "calibrated", or "value").
    """

    waypoints: tuple[tuple[float, float], ...]
    aircraft: object
    schedule: CostIndexSchedule
    q0: float
    h_dot_bar: float
    sim_step: float = 0.1
    atmo: object = TROPOSPHERE
    atmo_step: float = 1.0
    ci_max_mode: str = "value"

    def __post_init__(self):
        wps = tuple((float(x), float(h)) for x, h in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        if len(wps) < 2:
            raise DomainError("scenario needs at least origin and cruise waypoints")
        xs = [x for x, _ in wps]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("waypoints must be strictly increasing in x")
        h0, hc = wps[0][1], wps[-1][1]
        if hc < h0:
            raise DomainError("cruise altitude must not lie below the origin")
        for x, h in wps[1:-1]:
            if not h0 <= h <= hc:
                raise DomainError(
                    f"interior waypoint ({x:g}, {h:g}) lies outside the "
                    f"climb's altitude band [{h0:g}, {hc:g}] m"
                )
        if self.q0 < 0.0:
            raise DomainError(f"q0 must be >= 0, got {self.q0!r}")
        if not self.h_dot_bar > 0.0:
            raise DomainError(f"h_dot_bar must be positive, got {self.h_dot_bar!r}")
        if not self.sim_step > 0.0:
            raise DomainError(f"sim_step must be positive, got {self.sim_step!r}")
        for ev in self.schedule.events:
            if ev.at_waypoint is not None and not self._is_interior_waypoint(ev.at_waypoint):
                raise DomainError(
                    f"event waypoint {ev.at_waypoint!r} is not an interior "
                    "scenario waypoint"
                )

    def _is_interior_waypoint(self, wp):
        for cand in self.waypoints[1:-1]:
            if (math.isclose(cand[0], wp[0], rel_tol=_WAYPOINT_MATCH_RTOL, abs_tol=1e-6)
                    and math.isclose(cand[1], wp[1], rel_tol=_WAYPOINT_MATCH_RTOL,
                                     abs_tol=1e-6)):
                return True
        return False


@dataclass(frozen=True)
class ProfileSample:
    """One integration step of the simulated climb."""

    t: float  # [s]
    x: float  # [m]
    h: float  # [m]
    v: float  # [m s^-1]
    ci: float  # [C s^-1]
    q: float  # [C]
    e: float  # [J]
    v_track: float  # [m s^-1]; constant-CI optimal speed at this row's CI


class Profile(Sequence):
    """Read-only sequence of ProfileSample over one float table.

    ``table`` is the (n, 8) float64 array of the columns t, x, h, v, ci, q,
    e and v_track; samples are built from its rows on access.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        table.flags.writeable = False
        self.table = table

    def __len__(self):
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Profile(self.table[index])
        return ProfileSample(*self.table[index].tolist())

    def __iter__(self):
        return (ProfileSample(*row) for row in self.table.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class _Leg:
    """One flown stretch at constant airspeed (internal)."""

    t0: float
    t1: float
    pos0: tuple[float, float]
    pos1: tuple[float, float]
    v: float
    ci_start: float
    ci_in: float


@dataclass
class ScenarioResult:
    plans: list
    samples: Profile
    summary: dict


def _tag_segment(exc, index):
    """Prefix a solver exception's message with the failing segment index."""
    head = exc.args[0] if exc.args else repr(exc)
    exc.args = (f"segment {index}: {head}",) + tuple(exc.args[1:])


def run_scenario(scn: Scenario) -> ScenarioResult:
    """Plan and replay the scenario.

    Returns the per-leg plans, the profile samples, and a summary
    mapping. Solver failures propagate with the leg index prepended;
    battery depletion is reported in the summary, not raised.
    """
    params = scn.aircraft
    sched = scn.schedule
    origin = scn.waypoints[0]
    cruise = scn.waypoints[-1]

    full_seg = segment_between(origin, cruise, scn.h_dot_bar, scn.atmo,
                               scn.atmo_step)
    try:
        plan0 = fms_initial_speed(full_seg, sched.ci0, params, q0=scn.q0)
    except Exception as exc:
        _tag_segment(exc, 0)
        raise

    plans = [plan0]
    legs = []
    event_log = []

    t_leg = 0.0
    pos_leg = origin
    v_leg = plan0.v_star
    ci_start_leg = sched.ci0
    ci_in_leg = sched.ci0
    q_leg = scn.q0  # closed-form charge bookkeeping at leg starts
    seg_cur = full_seg

    # Each trigger kind is already ordered by the schedule; fire whichever
    # pending event comes first (ties in list order), so the event log runs
    # in firing order and its applied entries line up with the legs.
    timed = [(i, ev) for i, ev in enumerate(sched.events) if ev.at_time is not None]
    placed = [(i, ev) for i, ev in enumerate(sched.events) if ev.at_time is None]
    while timed or placed:
        d_leg_full = math.hypot(cruise[0] - pos_leg[0], cruise[1] - pos_leg[1])
        t_arrival = t_leg + d_leg_full / v_leg
        next_events = []
        if placed:
            i, ev = placed[0]
            wp = (float(ev.at_waypoint[0]), float(ev.at_waypoint[1]))
            if not pos_leg[0] < wp[0] < cruise[0]:
                raise DomainError(
                    f"event waypoint x={wp[0]:g} m is not ahead of the "
                    f"aircraft (at x={pos_leg[0]:g} m)"
                )
            frac = (wp[0] - pos_leg[0]) / (cruise[0] - pos_leg[0])
            next_events.append((t_leg + frac * d_leg_full / v_leg, i, placed, wp))
        if timed:
            i, ev = timed[0]
            t_ev = float(ev.at_time)
            if t_ev <= t_leg:
                raise DomainError(
                    f"event at t={t_ev:g} s does not come after the previous "
                    f"leg start t={t_leg:g} s"
                )
            frac = (t_ev - t_leg) * v_leg / d_leg_full
            pos_ev = (pos_leg[0] + frac * (cruise[0] - pos_leg[0]),
                      pos_leg[1] + frac * (cruise[1] - pos_leg[1]))
            next_events.append((t_ev, i, timed, pos_ev))
        t_ev, _, queue, pos_ev = min(next_events)  # list indices are distinct
        ev = queue.pop(0)[1]

        if t_ev >= t_arrival:
            event_log.append({
                "t_s": t_ev, "x_m": None, "h_m": None,
                "ci_before_Cs": None, "ci_in_Cs": ev.ci_in, "applied": False,
            })
            continue

        ci_ev = ci_at(t_ev - t_leg, ci_start_leg, ci_in_leg, sched.tau)
        legs.append(_Leg(t0=t_leg, t1=t_ev, pos0=pos_leg, pos1=pos_ev,
                         v=v_leg, ci_start=ci_start_leg, ci_in=ci_in_leg))
        flown = (t_ev - t_leg) * v_leg
        q_leg = q_leg - segment_discharge(v_leg, seg_cur, params) * (flown / seg_cur.d)
        event_log.append({
            "t_s": t_ev, "x_m": pos_ev[0], "h_m": pos_ev[1],
            "ci_before_Cs": ci_ev, "ci_in_Cs": ev.ci_in, "applied": True,
        })

        # The whole climb's density means, exactly as segment_between would
        # take them over full_seg's band, atmosphere and grid step.
        seg_cur = ClimbSegment(pos_ev, cruise, scn.h_dot_bar, full_seg.rho_bar,
                               full_seg.delta_rho_bar)
        try:
            plan = solve_optimal_speed(seg_cur, ci_ev, ev.ci_in, sched.tau,
                                       params, q0=q_leg)
        except Exception as exc:
            _tag_segment(exc, len(plans))
            raise
        plans.append(plan)

        t_leg = t_ev
        pos_leg = pos_ev
        v_leg = plan.v_star
        ci_start_leg = ci_ev
        ci_in_leg = ev.ci_in

    d_last = math.hypot(cruise[0] - pos_leg[0], cruise[1] - pos_leg[1])
    t_total = t_leg + d_last / v_leg
    legs.append(_Leg(t0=t_leg, t1=t_total, pos0=pos_leg, pos1=cruise,
                     v=v_leg, ci_start=ci_start_leg, ci_in=ci_in_leg))

    samples = Profile(_simulate_profile(scn, legs, full_seg, t_total))

    last = samples[-1]
    final_q = last.q
    final_h = last.h
    summary = {
        "ci_max_Cs": sched.ci_max,
        "ci_max_mode": scn.ci_max_mode,
        "ci0_Cs": sched.ci0,
        "tau_s": sched.tau,
        "q0_C": scn.q0,
        "segments": [
            {
                "start_x_m": leg.pos0[0],
                "start_h_m": leg.pos0[1],
                "v_star_ms": plan.v_star,
                "v_star_kmh": plan.v_star * 3.6,
                "planned_time_s": plan.t_c_star,
                "flown_time_s": leg.t1 - leg.t0,
                "j_star_C": plan.j_star,
                "q_f_C": plan.q_f,
                "at_envelope_limit": plan.at_envelope_limit,
                "iterations": plan.iterations,
            }
            for leg, plan in zip(legs, plans)
        ],
        "events": event_log,
        "baseline_time_s": plan0.t_c_star,
        "total_time_s": t_total,
        "time_delta_s": t_total - plan0.t_c_star,
        "final_q_C": final_q,
        "final_e_J": last.e,
        "energy_used_J": (scn.q0 - final_q) * params.voltage,
        "closed_form_final_q_C": plans[-1].q_f,
        "battery_depleted": bool(final_q < 0.0
                                 or any(p.battery_depleted for p in plans)),
        "reaches_cruise_altitude": bool(
            final_h >= cruise[1] - scn.h_dot_bar * scn.sim_step),
    }
    return ScenarioResult(plans=plans, samples=samples, summary=summary)


def _sample_times(t_total, dt):
    """Fixed-step grid from 0, with a final sample snapped to t_total."""
    eps = 1e-9 * max(1.0, t_total)
    grid = dt * np.arange(math.ceil(t_total / dt))
    return np.append(grid[grid < t_total - eps], t_total)


def _simulate_profile(scn, legs, full_seg, t_total):
    """The replayed profile as one (n, 8) table, columns as in Profile."""
    params = scn.aircraft
    cruise_h = scn.waypoints[-1][1]
    origin_h = scn.waypoints[0][1]
    dt = scn.sim_step

    times = _sample_times(t_total, dt)
    leg_starts = np.asarray([leg.t0 for leg in legs])
    idx = np.clip(np.searchsorted(leg_starts, times, side="right") - 1,
                  0, len(legs) - 1)

    v = np.empty_like(times)
    ci = np.empty_like(times)
    x = np.empty_like(times)
    for k, leg in enumerate(legs):
        m = idx == k
        if not np.any(m):
            continue
        tl = times[m] - leg.t0
        v[m] = leg.v
        ci[m] = ci_at(tl, leg.ci_start, leg.ci_in, scn.schedule.tau)
        span = leg.t1 - leg.t0
        frac = tl / span if span > 0.0 else np.zeros_like(tl)
        x[m] = leg.pos0[0] + frac * (leg.pos1[0] - leg.pos0[0])

    h = np.minimum(origin_h + scn.h_dot_bar * times, cruise_h)

    # Charge integration on sub-intervals split at leg boundaries, so each
    # left-endpoint rate uses the airspeed actually flown there.
    interior_starts = [leg.t0 for leg in legs[1:] if 0.0 < leg.t0 < t_total]
    edges = np.unique(np.concatenate([times, np.asarray(interior_starts)]))
    e_idx = np.clip(np.searchsorted(leg_starts, edges, side="right") - 1,
                    0, len(legs) - 1)
    e_v = np.asarray([leg.v for leg in legs])[e_idx]
    e_h = np.minimum(origin_h + scn.h_dot_bar * edges, cruise_h)
    e_hdot = np.where(e_h < cruise_h, scn.h_dot_bar, 0.0)
    e_rho = scn.atmo.density(e_h)
    rates = charge_rate(e_v, e_hdot, e_rho, params)
    widths = np.diff(edges)
    q_edges = scn.q0 + np.concatenate([[0.0], np.cumsum(rates[:-1] * widths)])
    q = q_edges[np.searchsorted(edges, times)]

    # One tracking-speed solve per run of equal cost index, repeated over
    # the run. The speeds are those of a solve per row: the Newton loop
    # stops when its slowest element settles, and the distinct values are
    # the same.
    starts = np.flatnonzero(np.append(True, ci[1:] != ci[:-1]))
    v_track = np.repeat(economy_speed(full_seg, ci[starts], params),
                        np.diff(np.append(starts, len(ci))))
    return np.column_stack([times, x, h, v, ci, q, q * params.voltage,
                            v_track])


@dataclass(frozen=True)
class SweepCurve:
    """Cost-versus-speed curve for one filter time constant."""

    tau: float  # [s]; inf labels the constant-CI baseline
    label: str
    v: np.ndarray  # [m s^-1], read-only float64
    j: np.ndarray  # [C], read-only float64
    argmin_index: int


def sweep_cost(seg, schedule, params, v_grid, tau_list, q0=0.0):
    """Evaluate the cost curve over v_grid for each tau in tau_list.

    The constant-CI baseline (CI pinned at schedule.ci0) is always the first
    curve. Filtered curves use schedule.ci0 as the start value and the first
    event's commanded value as ci_in (falling back to ci0 when the schedule
    has no events, which collapses them onto the baseline).
    """
    v_arr = np.asarray(list(v_grid), dtype=float)
    if v_arr.size == 0:
        raise DomainError("v_grid is empty")
    if np.any(v_arr <= 0.0) or np.any(v_arr > params.v_max):
        raise DomainError("v_grid must lie in (0, v_max]")
    v_arr.flags.writeable = False
    ci_in = schedule.events[0].ci_in if schedule.events else schedule.ci0

    runs = [("constant-ci", schedule.ci0, math.inf)]
    runs += [(f"tau={float(tau):g}s", ci_in, float(tau)) for tau in tau_list]
    curves = []
    for label, ci_cmd, tau in runs:
        j = total_cost(v_arr, seg, schedule.ci0, ci_cmd, tau, q0, params)
        j.flags.writeable = False
        curves.append(SweepCurve(tau=tau, label=label, v=v_arr, j=j,
                                 argmin_index=int(np.argmin(j))))
    return curves


def mvt_crosscheck(seg, v, params, step=0.1, atmo=TROPOSPHERE):
    """Relative gap between closed-form and integrated segment discharge.

    The closed form replaces the time integrals of density (and inverse
    density) along the climb with altitude-band means. This check replays
    the same climb numerically: altitude sweeps the segment's band linearly
    over the flight time d/v while the climb-power term keeps the segment's
    mean climb rate, and the charge rate is integrated left-endpoint on the
    fixed step with an exact final partial step. Returns
    |closed - integrated| / |integrated|.

    Meaningful only when the segment's density means belong to its own
    altitude band (the default in segment_between).
    """
    _require_positive_speed(v)
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    t_c = seg.d / v
    n = int(math.floor(t_c / step))
    edges = step * np.arange(n + 1)
    if edges[-1] < t_c:
        edges = np.append(edges, t_c)
    h0, hc = seg.start[1], seg.end[1]
    left = edges[:-1]
    h_left = h0 + (hc - h0) * (left / t_c)
    rho_left = atmo.density(h_left)
    rates = charge_rate(v, seg.h_dot_bar, rho_left, params)
    discharge_num = -float(np.sum(rates * np.diff(edges)))
    discharge_closed = segment_discharge(v, seg, params)
    return abs(discharge_closed - discharge_num) / abs(discharge_num)
