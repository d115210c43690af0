"""Deterministic replay of a multi-segment climb with ATC cost-index events.

A scenario is planned leg by leg, then replayed. Every leg, the departure
included, flies the rest of the climb at the constant airspeed optimal for
its starting and commanded cost index (at departure, the current one), and
ends at the next ATC event before arrival, or at arrival. The replay
evaluates every column directly at the sample times. The charge drawn has
a closed form, since within a leg the airspeed is constant and the density
a power law of altitude, so the sample spacing does not affect accuracy.

Geometry conventions used by the replay:

* Every leg flies a straight piece of the line from the origin to the
  cruise waypoint, so x and h both advance linearly over the leg's flight
  time at its constant v, and the last sample is the cruise waypoint.
  The mean climb rate enters only the planner's closed form.
* Every leg keeps the whole climb's density band for its mean density
  quantities, the band the departure plan was calibrated on.
* Events fire in time order, whatever their order in the schedule, and
  events due together in list order, a zero-length leg apart. A
  waypoint-triggered event fires when x reaches the waypoint's x (the
  moment the aircraft passes a waypoint on its straight line to cruise).
  Both kinds of event fire where the flown leg is at their time, so the
  leg that follows starts on the line, also for a waypoint off it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .atmosphere import TROPOSPHERE, _check_grid
from .cost_index import CostIndexSchedule, ci_at
from .climb_optimizer import (
    _V_LO,
    ClimbSegment,
    economy_speed,
    segment_between,
    solve_optimal_speed,
)
from .errors import DomainError
from .vehicle import _charge_drawn, segment_discharge

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
        h_dot_bar: mean climb rate of the planner's closed-form charge;
            the replay climbs each leg at its own rate  [m s^-1]
        sim_step: profile sample spacing; does not affect accuracy  [s]
        atmo: density model: ``density(h)`` for the segment means and
            ``band_integral(h0, h, power)`` for the replayed charge.
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
        if not hc > h0:
            raise DomainError("cruise altitude must lie above the origin")
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
        # The longest flight the legs can make: together they fly the
        # origin-cruise line once, and every leg at v* >= _V_LO.
        _check_grid(math.hypot(xs[-1] - xs[0], hc - h0) / _V_LO,
                    self.sim_step, "sim step", "s")
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
    """One sample of the simulated climb."""

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


@dataclass
class ScenarioResult:
    plans: list
    samples: Profile
    summary: dict


def _pop_next_event(timed, placed, seg, t_leg, v_leg):
    """Remove and return (t, (x, h), event) of the pending event that fires
    first on a leg flying seg from t_leg at v_leg (ties in list order),
    with the point of the leg it fires at."""
    (x0, h0), (xc, hc) = seg.start, seg.end
    next_events = []
    if placed:
        i, ev = placed[0]
        frac = max(float(ev.at_waypoint[0]) - x0, 0.0) / (xc - x0)
        next_events.append((t_leg + frac * seg.d / v_leg, i, placed))
    if timed:
        i, ev = timed[0]
        next_events.append((max(float(ev.at_time), t_leg), i, timed))
    t_ev, _, queue = min(next_events)  # list indices are distinct
    frac = (t_ev - t_leg) * v_leg / seg.d
    return (t_ev, (x0 + frac * (xc - x0), h0 + frac * (hc - h0)),
            queue.pop(0)[1])


def run_scenario(scn: Scenario) -> ScenarioResult:
    """Plan and replay the scenario.

    Returns the per-leg plans, the profile samples, and a summary
    mapping. Solver failures propagate with the leg index prepended;
    battery depletion is reported in the summary, not raised.
    """
    params = scn.aircraft
    sched = scn.schedule
    origin, cruise = scn.waypoints[0], scn.waypoints[-1]

    full_seg = segment_between(origin, cruise, scn.h_dot_bar, scn.atmo,
                               scn.atmo_step)
    plans, legs, event_log = [], [], []
    t_leg, pos_leg = 0.0, origin
    ci_start_leg = ci_in_leg = sched.ci0
    q_leg = scn.q0  # closed-form charge bookkeeping at leg starts

    # Each trigger kind is already ordered by the schedule, and the event
    # log runs in firing order, so its applied entries line up with the legs.
    timed = [(i, ev) for i, ev in enumerate(sched.events) if ev.at_time is not None]
    placed = [(i, ev) for i, ev in enumerate(sched.events) if ev.at_time is None]
    while True:
        # Every leg, the departure included, flies the rest of the climb
        # with the whole climb's density means, exactly as segment_between
        # would take them over full_seg's band, atmosphere and grid step.
        seg = ClimbSegment(pos_leg, cruise, scn.h_dot_bar, full_seg.rho_bar,
                           full_seg.delta_rho_bar)
        try:
            plan = solve_optimal_speed(seg, ci_start_leg, ci_in_leg, sched.tau,
                                       params, q0=q_leg)
        except Exception as exc:  # prefix the failing segment's index
            head = exc.args[0] if exc.args else repr(exc)
            exc.args = (f"segment {len(plans)}: {head}",) + exc.args[1:]
            raise
        plans.append(plan)
        v_leg = plan.v_star

        # The leg ends at the first event before arrival, else at arrival;
        # events at or after arrival are logged as skipped.
        t_end, pos_end, ev = t_leg + seg.d / v_leg, cruise, None
        while ev is None and (timed or placed):
            t_ev, pos_ev, ev = _pop_next_event(timed, placed, seg, t_leg, v_leg)
            if t_ev < t_end:
                t_end, pos_end = t_ev, pos_ev
            else:
                event_log.append({"t_s": t_ev, "x_m": None, "h_m": None,
                                  "ci_before_Cs": None, "ci_in_Cs": ev.ci_in,
                                  "applied": False})
                ev = None
        legs.append((t_leg, t_end, *pos_leg, *pos_end, v_leg,
                     ci_start_leg, ci_in_leg))
        if ev is None:
            break

        ci_ev = ci_at(t_end - t_leg, ci_start_leg, ci_in_leg, sched.tau)
        flown = (t_end - t_leg) * v_leg
        q_leg = q_leg - segment_discharge(v_leg, seg, params) * (flown / seg.d)
        event_log.append({
            "t_s": t_end, "x_m": pos_end[0], "h_m": pos_end[1],
            "ci_before_Cs": ci_ev, "ci_in_Cs": ev.ci_in, "applied": True,
        })
        t_leg, pos_leg = t_end, pos_end
        ci_start_leg, ci_in_leg = ci_ev, ev.ci_in

    t_total, legs = t_end, np.array(legs)
    samples = Profile(_simulate_profile(scn, legs, full_seg, t_total))
    final_q = samples[-1].q
    summary = {
        "ci_max_Cs": sched.ci_max,
        "ci_max_mode": scn.ci_max_mode,
        "ci0_Cs": sched.ci0,
        "tau_s": sched.tau,
        "q0_C": scn.q0,
        "segments": [
            {
                "start_x_m": x0,
                "start_h_m": h0,
                "v_star_ms": plan.v_star,
                "v_star_kmh": plan.v_star * 3.6,
                "planned_time_s": plan.t_c_star,
                "flown_time_s": t1 - t0,
                "j_star_C": plan.j_star,
                "q_f_C": plan.q_f,
                "at_envelope_limit": plan.at_envelope_limit,
                "iterations": plan.iterations,
            }
            for (t0, t1, x0, h0, *_), plan in zip(legs.tolist(), plans)
        ],
        "events": event_log,
        "baseline_time_s": plans[0].t_c_star,
        "total_time_s": t_total,
        "time_delta_s": t_total - plans[0].t_c_star,
        "final_q_C": final_q,
        "final_e_J": samples[-1].e,
        "energy_used_J": (scn.q0 - final_q) * params.voltage,
        "closed_form_final_q_C": plans[-1].q_f,
        "battery_depleted": bool(final_q < 0.0
                                 or any(p.battery_depleted for p in plans)),
    }
    return ScenarioResult(plans=plans, samples=samples, summary=summary)


def _sample_times(t_total, dt):
    """Fixed-step grid from 0, with a final sample snapped to t_total."""
    eps = 1e-9 * max(1.0, t_total)
    grid = dt * np.arange(math.ceil(t_total / dt))
    return np.append(grid[grid < t_total - eps], t_total)


def _simulate_profile(scn, legs, full_seg, t_total):
    """The replayed profile as one (n, 8) table, columns as in Profile.

    ``legs`` holds one row per flown leg: t0, t1, x0, h0, x1, h1, v,
    ci_start and ci_in.
    """
    params = scn.aircraft
    times = _sample_times(t_total, scn.sim_step)
    t0, t1, x0, h0, x1, h1, v_leg, ci_start, ci_in = legs.T
    idx = np.searchsorted(t0, times, side="right") - 1

    # Each point gathers its leg's values column by column (no (n, 8)
    # copy of the table), and each column is one expression over the
    # sample times.
    tl = times - t0[idx]
    ci = ci_at(tl, ci_start[idx], ci_in[idx], scn.schedule.tau)
    span = (t1 - t0)[idx]
    frac = np.divide(tl, span, out=np.zeros_like(tl), where=span > 0.0)
    x = x0[idx] + frac * (x1 - x0)[idx]
    h = h0[idx] + frac * (h1 - h0)[idx]
    x[-1], h[-1] = scn.waypoints[-1]  # h0 + (h1 - h0) may miss h1 by an ulp
    v = v_leg[idx]
    del tl, span, frac  # grid-sized; the final table is the memory peak

    # The charge drawn by each sample: its leg's start value (one cumsum
    # over the legs) plus the closed form from the leg start at the leg's
    # speed. A leg climbs at the constant rate (h1 - h0) / (t1 - t0), so its
    # time integrals of rho and 1/rho are (t1 - t0) / (h1 - h0) times the
    # band integrals, taken from the origin and differenced at the leg
    # start; a leg that does not climb (zero length, or shorter than the
    # rounding of its altitude) draws nothing. Both are the same monotone
    # expression, so q never rises.
    band = functools.partial(scn.atmo.band_integral, scn.waypoints[0][1])
    per_m = np.divide(t1 - t0, h1 - h0, out=np.zeros_like(t0), where=h1 > h0)
    rho_0, inv_0 = band(h0, 1), band(h0, -1)
    per_leg = _charge_drawn(v_leg, h1 - h0, per_m * (band(h1, 1) - rho_0),
                            per_m * (band(h1, -1) - inv_0), params)
    at_start = np.append(0.0, np.cumsum(per_leg[:-1]))
    q = scn.q0 - (at_start[idx] + _charge_drawn(
        v, h - h0[idx], per_m[idx] * (band(h, 1) - rho_0[idx]),
        per_m[idx] * (band(h, -1) - inv_0[idx]), params))

    # One tracking-speed solve per run of equal cost index, repeated over
    # the run. The speeds are those of a solve per row: the Newton loop
    # stops when its slowest element settles, and the distinct values are
    # the same.
    starts = np.flatnonzero(np.append(True, ci[1:] != ci[:-1]))
    v_track = np.repeat(economy_speed(full_seg, ci[starts], params),
                        np.diff(np.append(starts, len(ci))))
    return np.column_stack([times, x, h, v, ci, q, q * params.voltage,
                            v_track])
