"""Leg-by-leg reference for the replay, used by the tests.

``replay_reference`` rebuilds each flown leg from a run's summary and
replays it with one boolean mask per leg, the loop ``_simulate_profile``
once ran. Its t, x, h, v, ci and v_track columns are the ones
``run_scenario`` must produce, bit for bit.

Its q and e columns are a numerical oracle for the closed-form charge: the
trapezoid rule on charge_rate over a fine grid (``ORACLE_STEP``) merged
with the sample times and the leg starts. Each grid interval then lies
inside one leg, which climbs its straight piece of the origin-cruise line
at the constant rate (h1 - h0) / (t1 - t0), so the integrand is smooth on
it and the rule converges as the step squared.
"""

import numpy as np

from econclimb import ci_at, segment_between
from econclimb.climb_optimizer import economy_speed
from econclimb.scenario_sim import _sample_times
from tests.force_reference import charge_rate

#: Spacing of the oracle's trapezoid grid.  [s]
ORACLE_STEP = 0.05


def _legs(scn, summary):
    """(t0, t1, pos0, pos1, v, ci_start, ci_in) of each flown leg: leg k
    ends at the k-th applied event, the last one at arrival."""
    applied = [ev for ev in summary["events"] if ev["applied"]]
    ci0 = scn.schedule.ci0
    t0s = [0.0] + [ev["t_s"] for ev in applied]
    t1s = t0s[1:] + [summary["total_time_s"]]
    pos0s = [(seg["start_x_m"], seg["start_h_m"])
             for seg in summary["segments"]]
    pos1s = pos0s[1:] + [scn.waypoints[-1]]
    ci_starts = [ci0] + [ev["ci_before_Cs"] for ev in applied]
    ci_ins = [ci0] + [ev["ci_in_Cs"] for ev in applied]
    speeds = [seg["v_star_ms"] for seg in summary["segments"]]
    return list(zip(t0s, t1s, pos0s, pos1s, speeds, ci_starts, ci_ins))


def replay_reference(scn, summary, times=None):
    """The (n, 8) profile table of a run, replayed one leg at a time, at
    the run's sample times or at the increasing ``times`` given, which
    end at arrival."""
    params = scn.aircraft
    origin, cruise = scn.waypoints[0], scn.waypoints[-1]
    full_seg = segment_between(origin, cruise, scn.h_dot_bar, scn.atmo,
                               scn.atmo_step)
    legs = _legs(scn, summary)
    t_total = summary["total_time_s"]
    if times is None:
        times = _sample_times(t_total, scn.sim_step)
    leg_starts = np.asarray([leg[0] for leg in legs])
    edges = np.unique(np.concatenate([
        times, leg_starts[1:], np.arange(0.0, t_total, ORACLE_STEP)]))
    idx = np.clip(np.searchsorted(leg_starts, edges, side="right") - 1,
                  0, len(legs) - 1)

    v = np.empty_like(edges)
    ci = np.empty_like(edges)
    x = np.empty_like(edges)
    h = np.empty_like(edges)
    hdot = np.empty_like(edges)
    for k, (t0, t1, pos0, pos1, v_leg, ci_start, ci_in) in enumerate(legs):
        m = idx == k
        tl = edges[m] - t0
        v[m] = v_leg
        ci[m] = ci_at(tl, ci_start, ci_in, scn.schedule.tau)
        span = t1 - t0
        frac = tl / span if span > 0.0 else np.zeros_like(tl)
        x[m] = pos0[0] + frac * (pos1[0] - pos0[0])
        h[m] = pos0[1] + frac * (pos1[1] - pos0[1])
        hdot[m] = (pos1[1] - pos0[1]) / span if span > 0.0 else 0.0
    x[-1], h[-1] = cruise  # the arrival

    # Each interval flies its left end's leg at that leg's climb rate.
    rho = scn.atmo.density(h)
    hdot = hdot[:-1]
    rates = (charge_rate(v[:-1], hdot, rho[:-1], params)
             + charge_rate(v[:-1], hdot, rho[1:], params))
    q = scn.q0 + np.concatenate([[0.0],
                                 np.cumsum(0.5 * rates * np.diff(edges))])

    rows = np.searchsorted(edges, times)
    x, h, v, ci, q = x[rows], h[rows], v[rows], ci[rows], q[rows]
    starts = np.flatnonzero(np.append(True, ci[1:] != ci[:-1]))
    v_track = np.repeat(economy_speed(full_seg, ci[starts], params)[0],
                        np.diff(np.append(starts, len(ci))))
    return np.column_stack([times, x, h, v, ci, q, q * params.voltage,
                            v_track])
