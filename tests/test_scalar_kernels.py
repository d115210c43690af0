"""The scalar solves run on Python floats; the kernels they replaced, kept in
``tests/kernel_reference.py``, ran on 0-d arrays and NumPy scalars. Both
must give the same raw bits (compared by ``float.hex``, which tells -0.0
from 0.0) and the same Newton step counts."""

import dataclasses
import math

from hypothesis import example, given
from hypothesis import strategies as st

import econclimb.climb_optimizer as co
from econclimb import ClimbSegment, ci_at, total_cost
from econclimb.vehicle import _polar
from tests import kernel_reference as ref
from tests.force_reference import e430

unit = st.floats(0.0, 1.0)


def _bits(x):
    return float(x).hex()


@st.composite
def _legs(draw):
    """(seg, craft, ci0, ci_in, tau, v): a random airframe on a random
    segment, CIs from 0 to its v_max ceiling, tau finite or inf, and an
    airspeed in [5 m/s, v_max]."""
    rho = draw(st.floats(0.3, 1.3))
    seg = ClimbSegment(start=(0.0, 0.0),
                       end=(draw(st.floats(1e3, 6e4)),
                            draw(st.floats(0.0, 3000.0))),
                       h_dot_bar=draw(st.floats(0.0, 5.0)), rho_bar=rho,
                       delta_rho_bar=(1.0 + 0.05 * draw(unit)) / rho)
    craft = dataclasses.replace(
        e430(), mass=draw(st.floats(1.0, 3000.0)),
        wing_area=draw(st.floats(5.0, 100.0)),
        cd0=draw(st.floats(0.01, 0.06)), cd2=draw(st.floats(0.005, 0.05)),
        v_max=draw(st.floats(10.0, 120.0)))
    ceiling = max(co.ci_for_speed(seg, craft.v_max, craft), 0.0)
    ci0, ci_in = (ceiling * draw(unit) for _ in range(2))
    tau = draw(st.one_of(
        st.just(math.inf),
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e * seg.d / craft.v_max)))
    v = co._V_LO + (craft.v_max - co._V_LO) * draw(unit)
    return seg, craft, ci0, ci_in, tau, v


# a light airframe on which a falling CI makes dJ/dv dip below zero twice
_LIGHT = (ClimbSegment(start=(0.0, 0.0), end=(55000.0, 300.0), h_dot_bar=0.0,
                       rho_bar=1.1, delta_rho_bar=0.91),
          dataclasses.replace(e430(), wing_area=26.0, mass=305.0, cd0=0.032,
                              cd2=0.005, v_max=100.0))


# at its v_max ceiling (the third CI each example tries) the quartic at
# v_max is zero up to rounding, and libm's 112.71...**4 rounds unlike
# np.power's: a first step on Python floats would end one ulp off
_CEILING_ROUNDS = (
    ClimbSegment(start=(0.0, 0.0), end=(55963.22948886671, 203.22781522515177),
                 h_dot_bar=0.7045205723083448, rho_bar=0.7300210978097248,
                 delta_rho_bar=1.3816484405414853),
    dataclasses.replace(e430(), wing_area=37.231761833562736,
                        mass=1655.4595628048305, cd0=0.03221657110976941,
                        cd2=0.032998991910774385, v_max=112.71274167660034))


@given(_legs())
@example((*_LIGHT, 900.0, 0.0, 550.0, 20.0))
@example((*_LIGHT, 0.0, 0.0, math.inf, 5.0))
@example((*_CEILING_ROUNDS, 0.0, 0.0, math.inf, 50.0))
def test_float_newton_matches_the_array_kernel(leg):
    seg, craft, ci0, ci_in, _, _ = leg
    for ci in (ci0, ci_in, co.ci_for_speed(seg, craft.v_max, craft)):
        v, steps = co.economy_speed(seg, ci, craft)
        v_ref, steps_ref = ref.economy_newton(seg, ci, craft)
        assert type(v) is float
        assert (_bits(v), steps) == (_bits(v_ref), steps_ref)


# a leg whose J rounds to another float where math.expm1 stands in for
# np.expm1 in the time cost
_COST_ROUNDS = (
    ClimbSegment(start=(0.0, 0.0), end=(2647.5922780188566, 2948.6238198523297),
                 h_dot_bar=1.8562562226326325, rho_bar=0.3487485387690457,
                 delta_rho_bar=2.9147109060646574),
    dataclasses.replace(e430(), wing_area=61.287170023599636,
                        mass=445.84900671805093, cd0=0.05573537171180692,
                        cd2=0.013116613657602496, v_max=65.0253933761278),
    1707.945930056239, 2617.541533382546, 149.75998033258807,
    19.33854601837329)


@given(_legs())
@example((*_LIGHT, 900.0, 0.0, 550.0, 20.0))
@example(_COST_ROUNDS)
def test_float_filter_and_cost_match_the_array_kernels(leg):
    seg, craft, ci0, ci_in, tau, v = leg
    a, b, climb = _polar(seg, craft)
    eu, k = craft.efficiency * craft.voltage, seg.d / tau
    gap = co._arrival_roots(seg, ci0, ci_in, tau, craft)[1]
    for w in [v] + [co._V_LO + (craft.v_max - co._V_LO) * j / 15
                    for j in range(16)]:
        ci = ref.ci_at(seg.d / w, ci0, ci_in, tau)
        assert _bits(ci_at(seg.d / w, ci0, ci_in, tau)) == _bits(ci)
        for q0 in (0.0, 2.5e5):
            assert _bits(total_cost(w, seg, ci0, ci_in, tau, q0, craft)) == \
                _bits(ref.total_cost(w, seg, ci0, ci_in, tau, q0, craft))
        # the gap the filtered solve roots states the filter inline; the
        # reference is its form around ci_at
        assert list(map(_bits, gap(w))) == list(map(_bits, (
            (a * w**3 - climb - b / w) / eu - ci,
            (3.0 * a * w**2 + b / w**2) / eu - (ci - ci_in) * k / w**2)))
