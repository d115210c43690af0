"""Acceptance gate: every shipped guarantee, one test per criterion.

Each criterion below runs at its stated tolerance; ``pytest -v`` therefore
emits one pass/fail line per criterion, and each test also prints an
explicit [PASS] line with the measured numbers when it completes.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from econclimb import (
    ConstantAtmosphere,
    calibrate_ci_max,
    ci_at,
    cost_curvature,
    cost_gradient,
    final_charge_sensitivity,
    fms_initial_speed,
    segment_between,
    segment_discharge,
    solve_optimal_speed,
    total_cost,
)
from econclimb.cli_io import main
from tests.force_reference import mvt_crosscheck
from tests.ode_reference import ci_ode_check

CONFIG = Path(__file__).resolve().parent.parent / "configs" \
    / "e430_atc_climb.yaml"

V_REF_KMH = 140.19
TC0_REF = 770.8109233368014
CI_MAX_CAL = 327.98896536571016
CI0 = 0.6 * CI_MAX_CAL
CI_IN = 0.9 * CI_MAX_CAL
TAU = 0.01 * TC0_REF


def _report(num, text):
    print(f"[PASS] criterion {num:02d}: {text}")


def _random_segment(rng):
    h0 = rng.uniform(0.0, 8000.0)
    span = rng.uniform(150.0, 2000.0)
    x_span = rng.uniform(8000.0, 70000.0)
    h_dot = rng.uniform(0.5, 3.5)
    return segment_between((0.0, h0), (x_span, h0 + span), h_dot,
                           grid_step=10.0)


def test_criterion_01_initialization(params, full_segment, ci_max_cal):
    t0 = time.perf_counter()
    plan = fms_initial_speed(full_segment, 0.6 * ci_max_cal, params)
    elapsed = time.perf_counter() - t0
    v_kmh = plan.v_star * 3.6
    assert abs(v_kmh - 140.19) <= 0.1
    assert abs(plan.t_c_star - 771.0) <= 1.0
    assert elapsed < 1.0

    # envelope-anchored ceiling: the implied initial speed stays within 2%
    ci_max_vmax = calibrate_ci_max(params, full_segment)
    v_vmax = fms_initial_speed(full_segment, 0.6 * ci_max_vmax,
                               params).v_star * 3.6
    deviation = 100.0 * abs(v_vmax - 140.19) / 140.19
    assert deviation < 2.0
    _report(1, f"v0*={v_kmh:.2f} km/h, tc0*={plan.t_c_star:.1f} s, "
               f"solve {elapsed * 1e3:.1f} ms; vmax-mode off by "
               f"{deviation:.2f}%")


def test_criterion_02_event_replan(params, full_segment, replan_segment,
                                   ci_max_cal):
    ci0 = 0.6 * ci_max_cal
    ci_in = 0.9 * ci_max_cal
    t0 = time.perf_counter()
    plan0 = fms_initial_speed(full_segment, ci0, params)
    t1 = 0.5 * plan0.t_c_star  # event waypoint sits mid-climb
    tau = 0.01 * plan0.t_c_star
    plan1 = solve_optimal_speed(replan_segment, ci0, ci_in, tau, params)
    elapsed = time.perf_counter() - t0
    total = t1 + plan1.t_c_star
    delta = total - plan0.t_c_star
    assert abs(t1 - 386.0) <= 1.0
    assert abs(plan1.v_star * 3.6 - 154.13) <= 0.2
    assert abs(total - 736.0) <= 2.0
    assert abs(delta - (-35.0)) <= 2.0
    assert elapsed < 1.0
    _report(2, f"t1={t1:.1f} s, v1*={plan1.v_star * 3.6:.2f} km/h, "
               f"total={total:.1f} s, delta={delta:.1f} s, "
               f"solve {elapsed * 1e3:.1f} ms")


def test_criterion_03_energy_ordering(params, full_segment, replan_segment,
                                      ci_max_cal):
    # final available energy with the command is strictly below the
    # no-command value for any pack large enough to finish the climb
    ci0 = 0.6 * ci_max_cal
    ci_in = 0.9 * ci_max_cal
    tau = 0.01 * TC0_REF
    worst = math.inf
    for q0 in (200000.0, 250000.0, 400000.0):
        base = fms_initial_speed(full_segment, ci0, params, q0=q0)
        assert not base.battery_depleted
        # with the event: first half at v0, re-planned second half
        t1 = 0.5 * base.t_c_star
        q_mid = q0 - segment_discharge(base.v_star, full_segment, params) * 0.5
        replan = solve_optimal_speed(replan_segment, ci0, ci_in, tau, params,
                                     q0=q_mid)
        assert not replan.battery_depleted
        gap = (base.q_f - replan.q_f) * params.voltage
        assert replan.q_f < base.q_f
        worst = min(worst, gap)
    _report(3, f"commanded climb finishes with at least {worst:.0f} J less "
               "energy across packs")


def test_criterion_04_derivative_suites(params):
    rng = random.Random(4242)

    def draw_state():
        seg = _random_segment(rng)
        ci0 = rng.uniform(0.0, CI_MAX_CAL)
        ci_in = rng.uniform(0.0, CI_MAX_CAL)
        tau = rng.choice([rng.uniform(1.0, 80.0), rng.uniform(80.0, 8000.0),
                          math.inf])
        v = rng.uniform(22.0, 44.0)
        return seg, ci0, ci_in, tau, v

    for _ in range(20):
        seg, ci0, ci_in, tau, v = draw_state()
        h = 1e-5 * v
        fd = (total_cost(v + h, seg, ci0, ci_in, tau, 0.0, params)
              - total_cost(v - h, seg, ci0, ci_in, tau, 0.0, params)) / (2 * h)
        assert cost_gradient(v, seg, ci0, ci_in, tau, params) == \
            pytest.approx(fd, rel=1e-6)

    for _ in range(20):
        seg, _, _, _, v = draw_state()
        h = 1e-5 * v
        fd = (segment_discharge(v - h, seg, params)
              - segment_discharge(v + h, seg, params)) / (2 * h)
        assert final_charge_sensitivity(v, seg, params) == \
            pytest.approx(fd, rel=1e-6)

    for _ in range(20):
        seg, ci0, ci_in, tau, v = draw_state()
        h = 1e-4 * v
        fd = (cost_gradient(v + h, seg, ci0, ci_in, tau, params)
              - cost_gradient(v - h, seg, ci0, ci_in, tau, params)) / (2 * h)
        assert cost_curvature(v, seg, ci0, ci_in, tau, params) == \
            pytest.approx(fd, rel=1e-4)

    _report(4, "gradient and charge sensitivity at 1e-6, curvature at 1e-4, "
               "20 randomized states each")


def test_criterion_05_grid_oracle_equivalence(params):
    rng = random.Random(5050)
    grid_kmh = np.arange(18.0, 161.0 + 1e-9, 0.01)
    grid = grid_kmh / 3.6
    clipped = 0
    for _ in range(100):
        seg = _random_segment(rng)
        ci0 = rng.uniform(0.0, CI_MAX_CAL)
        ci_in = rng.uniform(0.0, CI_MAX_CAL)
        tau = TC0_REF * rng.uniform(0.001, 10.0)
        plan = solve_optimal_speed(seg, ci0, ci_in, tau, params)
        j = total_cost(grid, seg, ci0, ci_in, tau, 0.0, params)
        v_grid = grid[int(np.argmin(j))]
        assert abs(plan.v_star - v_grid) * 3.6 <= 0.01 + 1e-9
        if plan.at_envelope_limit:
            clipped += 1
            assert cost_gradient(params.v_max, seg, ci0, ci_in, tau,
                                 params) < 0.0
        else:
            assert cost_curvature(plan.v_star, seg, ci0, ci_in, tau,
                                  params) > 0.0
    _report(5, f"100 scenarios match the 0.01 km/h grid oracle "
               f"({clipped} clipped at the envelope)")


def test_criterion_06_filter_correctness():
    gap = abs(CI0 - CI_IN)
    worst = 0.0
    for k in range(1, 11):
        err = ci_ode_check(CI0, CI_IN, TAU, k * TAU)
        worst = max(worst, err)
        assert err <= 1e-6 * gap

    rng = random.Random(606)
    for _ in range(50):
        a = rng.uniform(0.0, CI_MAX_CAL)
        b = rng.uniform(0.0, CI_MAX_CAL)
        tau = rng.uniform(0.1, 100.0)
        s = rng.uniform(0.0, 60.0)
        t = rng.uniform(0.0, 60.0)
        two_step = ci_at(t, ci_at(s, a, b, tau), b, tau)
        assert two_step == pytest.approx(ci_at(s + t, a, b, tau),
                                         rel=1e-12, abs=1e-9)
        gap1 = abs(ci_at(s, a, b, tau) - b)
        gap2 = abs(ci_at(s + t, a, b, tau) - b)
        assert gap2 <= gap1 + 1e-12 * max(1.0, gap1)
    _report(6, f"analytic response within {worst:.2e} of the integrated "
               "filter; semigroup and monotone approach hold")


def test_criterion_07_mvt_approximation(params, full_segment):
    gap = mvt_crosscheck(full_segment, V_REF_KMH / 3.6, params)
    assert gap <= 0.01

    atmo = ConstantAtmosphere(1.17)
    stub_seg = segment_between((0.0, 0.0), (30000.0, 1000.0), 1.65,
                               atmo=atmo)
    stub_gap = mvt_crosscheck(stub_seg, V_REF_KMH / 3.6, params, atmo=atmo)
    assert stub_gap <= 1e-9
    _report(7, f"closed-form discharge within {gap:.2e} of integration "
               f"(uniform-density stub: {stub_gap:.1e})")


def test_criterion_08_limit_consistency(params, full_segment):
    worst = 0.0
    for ci in (60.0, CI0, 300.0):
        slow = solve_optimal_speed(full_segment, ci, 0.5 * ci, 1e9, params)
        fms = fms_initial_speed(full_segment, ci, params)
        diff = abs(slow.v_star - fms.v_star) * 3.6
        worst = max(worst, diff)
        assert diff < 0.01

    # level flight with uniform density: the charge sensitivity collapses
    # to the cruise economy expression
    from econclimb import ClimbSegment
    rho0 = 1.15
    seg = ClimbSegment(start=(0.0, 800.0), end=(25000.0, 800.0),
                       h_dot_bar=0.0, rho_bar=rho0, delta_rho_bar=1.0 / rho0)
    s, w = params.wing_area, params.weight
    scale = seg.d / (params.efficiency * params.voltage)
    for v in np.linspace(20.0, 44.0, 10):
        cruise = -scale * (rho0 * s * params.cd0 * v
                           - 4.0 * params.cd2 * w**2 / (rho0 * s * v**3))
        assert final_charge_sensitivity(v, seg, params) == \
            pytest.approx(cruise, rel=1e-12)
    _report(8, f"tau=1e9 s planner within {worst:.4f} km/h of the "
               "constant-CI initializer; cruise reduction exact at 10 speeds")


def test_criterion_09_tau_monotonicity(params, full_segment):
    ladder = [f * TC0_REF for f in (0.001, 0.01, 0.1, 1.0, 10.0)]
    speeds = []
    energies = []
    for tau in ladder:
        plan = solve_optimal_speed(full_segment, CI0, CI_IN, tau, params)
        speeds.append(plan.v_star)
        energies.append(segment_discharge(plan.v_star, full_segment, params)
                        * params.voltage)
    # smaller tau reacts faster to the higher command: speed and energy
    # use both fall as tau grows
    for a, b in zip(speeds, speeds[1:]):
        assert a >= b - 1e-12
    for a, b in zip(energies, energies[1:]):
        assert a >= b - 1e-9
    assert speeds[0] > speeds[-1]
    _report(9, f"v* spans {speeds[0] * 3.6:.2f} -> {speeds[-1] * 3.6:.2f} "
               "km/h over the 5-step tau ladder, energy ordered the same way")


def test_criterion_10_determinism_and_profile(tmp_path, capsys):
    rec1, rec2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert main(["plan", "--config", str(CONFIG), "--out", str(rec1)]) == 0
    text1 = capsys.readouterr().out
    assert main(["plan", "--config", str(CONFIG), "--out", str(rec2)]) == 0
    text2 = capsys.readouterr().out
    assert text1 == text2
    assert rec1.read_bytes() == rec2.read_bytes()

    csv1, csv2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(["profile", "--config", str(CONFIG), "--out",
                 str(csv1)]) == 0
    assert main(["profile", "--config", str(CONFIG), "--out",
                 str(csv2)]) == 0
    capsys.readouterr()
    assert csv1.read_bytes() == csv2.read_bytes()

    voltage = 133.2  # matches the bundled config
    lines = csv1.read_text().splitlines()
    assert lines[0].startswith("t_s,x_m,h_m,v_ms,ci_Cs,q_C,e_J")
    q_prev = None
    for ln in lines[1:]:
        cols = [float(c) for c in ln.split(",")]
        t, x, h, v, ci, q, e = cols[:7]
        assert e == pytest.approx(q * voltage, rel=2e-5)
        if q_prev is not None:
            assert q < q_prev
        q_prev = q
    _report(10, f"plan/profile byte-identical; {len(lines) - 1} profile rows "
                "satisfy E=Q*U and monotone charge")
