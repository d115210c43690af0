"""Leg-by-leg reference for the replay, used by the tests.

``replay_reference`` rebuilds each flown leg from a run's summary and
replays it with one boolean mask per leg, the loop ``_simulate_profile``
ran before it gathered every point's leg at once. The table it returns is
the one ``run_scenario`` must produce, bit for bit.
"""

import numpy as np

from econclimb import ci_at, segment_between
from econclimb.climb_optimizer import economy_speed
from econclimb.scenario_sim import _sample_times
from econclimb.vehicle import charge_rate


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


def replay_reference(scn, summary):
    """The (n, 8) profile table of a run, replayed one leg at a time."""
    params = scn.aircraft
    origin, cruise = scn.waypoints[0], scn.waypoints[-1]
    full_seg = segment_between(origin, cruise, scn.h_dot_bar, scn.atmo,
                               scn.atmo_step)
    legs = _legs(scn, summary)
    times = _sample_times(summary["total_time_s"], scn.sim_step)
    leg_starts = np.asarray([leg[0] for leg in legs])
    edges = np.unique(np.concatenate([times, leg_starts[1:]]))
    idx = np.clip(np.searchsorted(leg_starts, edges, side="right") - 1,
                  0, len(legs) - 1)

    v = np.empty_like(edges)
    ci = np.empty_like(edges)
    x = np.empty_like(edges)
    for k, (t0, t1, pos0, pos1, v_leg, ci_start, ci_in) in enumerate(legs):
        m = idx == k
        tl = edges[m] - t0
        v[m] = v_leg
        ci[m] = ci_at(tl, ci_start, ci_in, scn.schedule.tau)
        span = t1 - t0
        frac = tl / span if span > 0.0 else np.zeros_like(tl)
        x[m] = pos0[0] + frac * (pos1[0] - pos0[0])

    h = np.minimum(origin[1] + scn.h_dot_bar * edges, cruise[1])
    hdot = np.where(h < cruise[1], scn.h_dot_bar, 0.0)
    rates = charge_rate(v, hdot, scn.atmo.density(h), params)
    q = scn.q0 + np.concatenate([[0.0], np.cumsum(rates[:-1] * np.diff(edges))])

    rows = np.searchsorted(edges, times)
    x, h, v, ci, q = x[rows], h[rows], v[rows], ci[rows], q[rows]
    starts = np.flatnonzero(np.append(True, ci[1:] != ci[:-1]))
    v_track = np.repeat(economy_speed(full_seg, ci[starts], params),
                        np.diff(np.append(starts, len(ci))))
    return np.column_stack([times, x, h, v, ci, q, q * params.voltage,
                            v_track])
