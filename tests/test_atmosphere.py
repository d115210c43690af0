import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from econclimb import (
    AtmosphereModel,
    ConstantAtmosphere,
    DegenerateSegmentError,
    DomainError,
    TROPOSPHERE,
    mean_density,
    mean_inverse_density,
)

# Frozen values computed once by direct evaluation of the power law
# rho = 4.1748e-11 * (288.14 - 0.00649 h)^4.256 at double precision.
RHO_TABLE = {
    0.0: 1.2266153393114863,
    250.0: 1.1974874823079392,
    500.0: 1.1688917671249483,
    750.0: 1.1408214196772363,
    1000.0: 1.1132697141618439,
    11000.0: 0.36515531852041967,
}


def test_density_frozen_values():
    for h, rho in RHO_TABLE.items():
        assert TROPOSPHERE.density(h) == pytest.approx(rho, rel=1e-14)


def test_density_sea_level_near_standard():
    # sanity anchor against the usual sea-level value
    assert TROPOSPHERE.density(0.0) == pytest.approx(1.225, rel=5e-3)


def test_density_vectorized_matches_scalar():
    hs = np.array([0.0, 250.0, 500.0, 750.0, 1000.0])
    rhos = TROPOSPHERE.density(hs)
    assert rhos.shape == hs.shape
    for h, rho in zip(hs, rhos):
        assert rho == TROPOSPHERE.density(float(h))


@given(st.floats(min_value=0.0, max_value=10999.0),
       st.floats(min_value=1e-6, max_value=1.0))
def test_density_strictly_decreasing(h, dh):
    assert TROPOSPHERE.density(h + dh) < TROPOSPHERE.density(h)


def test_density_domain_errors():
    with pytest.raises(DomainError):
        TROPOSPHERE.density(-1.0)
    with pytest.raises(DomainError):
        TROPOSPHERE.density(11000.1)
    with pytest.raises(DomainError):
        TROPOSPHERE.density(np.array([100.0, -5.0]))


def test_density_domain_error_names_the_altitude_range():
    with pytest.raises(DomainError) as info:
        TROPOSPHERE.density(np.linspace(0.0, 12000.0, 12001))
    assert str(info.value) == \
        "altitude must lie in [0, 11000] m, got 0 to 12000 m"
    with pytest.raises(DomainError) as info:
        ConstantAtmosphere(1.2).density(np.linspace(-100.0, 1000.0, 1101))
    assert str(info.value) == \
        "altitude must lie in [0, inf] m, got -100 to 1000 m"
    with pytest.raises(DomainError, match="got -1 m$"):
        TROPOSPHERE.density(-1.0)


# ---------------------------------------------------------------------------
# band means

def test_mean_density_two_point_band():
    # step equal to the span -> plain endpoint average
    expected = 0.5 * (TROPOSPHERE.density(0.0) + TROPOSPHERE.density(1000.0))
    assert mean_density(TROPOSPHERE, 0.0, 1000.0, step=1000.0) == \
        pytest.approx(expected, rel=1e-15)
    expected_inv = 0.5 * (1.0 / TROPOSPHERE.density(0.0)
                          + 1.0 / TROPOSPHERE.density(1000.0))
    assert mean_inverse_density(TROPOSPHERE, 0.0, 1000.0, step=1000.0) == \
        pytest.approx(expected_inv, rel=1e-15)


def test_mean_density_frozen_values():
    # reference climb band at the default 1 m grid
    assert mean_density(TROPOSPHERE, 0.0, 1000.0) == \
        pytest.approx(1.16924271654781, rel=1e-12)
    assert mean_inverse_density(TROPOSPHERE, 0.0, 1000.0) == \
        pytest.approx(0.855925952019917, rel=1e-12)
    # upper half of the climb
    assert mean_density(TROPOSPHERE, 500.0, 1000.0) == \
        pytest.approx(1.1409082054932758, rel=1e-12)
    assert mean_inverse_density(TROPOSPHERE, 500.0, 1000.0) == \
        pytest.approx(0.8766690319776704, rel=1e-12)
    # non-dividing step pins the top endpoint
    assert mean_density(TROPOSPHERE, 200.0, 800.0, step=2.0) == \
        pytest.approx(1.1690186958431767, rel=1e-12)
    assert mean_inverse_density(TROPOSPHERE, 200.0, 800.0, step=2.0) == \
        pytest.approx(0.8556611787613062, rel=1e-12)


def test_mean_density_step_refinement_converges():
    # halving the default step must not move the mean by more than 1e-6 rel
    coarse = mean_density(TROPOSPHERE, 0.0, 1000.0, step=1.0)
    fine = mean_density(TROPOSPHERE, 0.0, 1000.0, step=0.5)
    assert abs(fine - coarse) / coarse < 1e-6
    coarse_inv = mean_inverse_density(TROPOSPHERE, 0.0, 1000.0, step=1.0)
    fine_inv = mean_inverse_density(TROPOSPHERE, 0.0, 1000.0, step=0.5)
    assert abs(fine_inv - coarse_inv) / coarse_inv < 1e-6


def test_mean_density_matches_fine_grid_oracle():
    # 0.1 m grid values, frozen
    assert mean_density(TROPOSPHERE, 0.0, 1000.0, step=0.1) == \
        pytest.approx(1.169242086088158, rel=1e-12)
    assert mean_inverse_density(TROPOSPHERE, 0.0, 1000.0, step=0.1) == \
        pytest.approx(0.8559252067396129, rel=1e-12)
    # default grid agrees with the fine grid to well under 1e-4
    assert mean_density(TROPOSPHERE, 0.0, 1000.0) == \
        pytest.approx(1.169242086088158, rel=1e-4)


@given(st.floats(min_value=0.0, max_value=9000.0),
       st.floats(min_value=10.0, max_value=2000.0))
def test_mean_bounds_and_jensen(h0, span):
    hc = h0 + span
    rho_bar = mean_density(TROPOSPHERE, h0, hc)
    inv_bar = mean_inverse_density(TROPOSPHERE, h0, hc)
    # mean sits between the band's extreme densities (density decreases in h)
    assert TROPOSPHERE.density(hc) <= rho_bar <= TROPOSPHERE.density(h0)
    # Jensen: mean of reciprocals dominates reciprocal of mean
    assert inv_bar >= 1.0 / rho_bar


def test_mean_density_validation():
    with pytest.raises(DegenerateSegmentError):
        mean_density(TROPOSPHERE, 1000.0, 1000.0)
    with pytest.raises(DegenerateSegmentError):
        mean_density(TROPOSPHERE, 1000.0, 500.0)
    with pytest.raises(DomainError):
        mean_density(TROPOSPHERE, 0.0, 1000.0, step=0.0)
    with pytest.raises(DomainError):
        mean_density(TROPOSPHERE, 0.0, 12000.0)
    with pytest.raises(DomainError, match="atmosphere step 1e-12 m needs 1e"):
        mean_inverse_density(TROPOSPHERE, 0.0, 1000.0, step=1e-12)


@pytest.mark.parametrize("power", [1, -1])
@pytest.mark.parametrize("h0,hc", [(0.0, 1000.0), (250.0, 750.0),
                                   (3000.0, 11000.0), (1000.0, 0.0)])
def test_band_integral_matches_simpson(power, h0, hc):
    h = np.linspace(h0, hc, 20001)
    f = TROPOSPHERE.density(h) ** power
    simpson = (h[1] - h[0]) / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum()
                                     + 2.0 * f[2:-1:2].sum() + f[-1])
    assert TROPOSPHERE.band_integral(h0, hc, power) == \
        pytest.approx(simpson, rel=1e-12)


def test_band_integral_frozen_values_and_grid_means():
    # the exact band means the 1 m grid means approach (+6e-7, +9.7e-7)
    rho = TROPOSPHERE.band_integral(0.0, 1000.0, 1)
    inv = TROPOSPHERE.band_integral(0.0, 1000.0, -1)
    assert rho == pytest.approx(1169.2420160370964, rel=1e-14)
    assert inv == pytest.approx(855.925123930723, rel=1e-14)
    assert mean_density(TROPOSPHERE, 0.0, 1000.0) / (rho / 1000.0) - 1.0 == \
        pytest.approx(6.0e-7, rel=0.05)
    assert mean_inverse_density(TROPOSPHERE, 0.0, 1000.0) / (inv / 1000.0) \
        - 1.0 == pytest.approx(9.7e-7, rel=0.05)


@pytest.mark.parametrize("power", [1, -1])
@pytest.mark.parametrize("dh", [1e-9, 1e-300])
def test_band_integral_keeps_a_tiny_climb(dh, power):
    # a climb too small to move (t0 - lapse h) / t0 off 1 still counts
    assert TROPOSPHERE.band_integral(0.0, dh, power) == \
        pytest.approx(TROPOSPHERE.density(0.0) ** power * dh, rel=1e-12,
                      abs=0.0)


def test_band_integral_vectorized_and_validated():
    hs = np.array([0.0, 1e-9, 250.0, 1000.0, 11000.0])
    for power in (1, -1):
        out = TROPOSPHERE.band_integral(0.0, hs, power)
        assert out.shape == hs.shape and out[0] == 0.0
        assert np.all(np.diff(out) > 0.0)
        assert out.tolist() == pytest.approx(
            [TROPOSPHERE.band_integral(0.0, h, power) for h in hs],
            rel=1e-15)
    with pytest.raises(DomainError, match="altitude must lie in"):
        TROPOSPHERE.band_integral(0.0, 11001.0)
    uniform = AtmosphereModel(c0=1.0, t0=2.0, lapse=0.0, exponent=3.0)
    with pytest.raises(DomainError, match="nonzero lapse"):
        uniform.band_integral(0.0, 10.0)


def test_custom_model_parameters():
    model = AtmosphereModel(c0=1.0, t0=2.0, lapse=0.0, exponent=3.0,
                            h_max=100.0)
    assert model.density(50.0) == pytest.approx(8.0, rel=1e-15)


def test_constant_atmosphere_stub():
    atmo = ConstantAtmosphere(1.1)
    assert atmo.density(0.0) == 1.1
    assert atmo.density(123456.0) == 1.1
    assert mean_density(atmo, 0.0, 5000.0) == pytest.approx(1.1, rel=1e-15)
    assert mean_inverse_density(atmo, 0.0, 5000.0) == \
        pytest.approx(1.0 / 1.1, rel=1e-15)
    assert atmo.band_integral(0.0, 5000.0) == pytest.approx(5500.0, rel=1e-15)
    assert atmo.band_integral(0.0, np.array([0.0, 11.0]), -1).tolist() == \
        pytest.approx([0.0, 10.0], rel=1e-15)
    bounded = ConstantAtmosphere(1.1, h_max=100.0)
    with pytest.raises(DomainError):
        bounded.density(101.0)
    with pytest.raises(DomainError):
        bounded.band_integral(0.0, 101.0)
