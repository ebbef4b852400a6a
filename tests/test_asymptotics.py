"""Asymptotic constants and leading-order laws."""

import math

import pytest
from mpmath import mp, mpf

from winsor_bounds import asymptotics
from winsor_bounds.asymptotics import Regime
from winsor_bounds.errors import ExponentOverflowError, ParameterError

from reference import bisect, golden_section_min


def test_f_of_t_values():
    assert asymptotics.f_of_t(1.0) == 0.0
    assert abs(asymptotics.f_of_t(0.5) - (math.log(0.5) + 1.0)) < 1e-15
    with pytest.raises(ParameterError):
        asymptotics.f_of_t(0.0)


def test_t_star_against_bisection_oracle():
    oracle = bisect(asymptotics.f_of_t, 0.05, 0.5)
    constants = asymptotics.solve_t_star()
    assert abs(constants.t_star - oracle) < 1e-12
    # 50-digit evaluation of the same root: 0.20318786997997995384
    assert abs(constants.t_star - 0.20318786997997995) < 1e-12
    assert abs(constants.minus_ln_t_star - 1.59362426004004) < 1e-12


def test_t_star_identity():
    constants = asymptotics.solve_t_star()
    assert abs(2.0 * (1.0 - constants.t_star) - constants.minus_ln_t_star) <= 1e-10
    assert abs(
        constants.small_sigma_universal_slope
        + (1.0 - constants.t_star) * constants.t_star
    ) < 1e-15
    assert constants.large_sigma_universal_coeff == math.exp(2.0)


def test_small_sigma_slope_values():
    assert abs(asymptotics.winsor_small_sigma_slope(1.0) + 1.0 / (4.0 * (math.e - 1.0))) < 1e-15
    # c -> 0 tail behaves like -c/4 with a c^2/8 correction
    c = 1e-8
    assert abs(asymptotics.winsor_small_sigma_slope(c) + c / 4.0) < c * c


@pytest.mark.parametrize("c", [709.0, 709.78, 709.8, 720.0, 800.0, 1e200])
def test_small_sigma_slope_past_the_overflowing_denominator(c):
    # 4(e^c - 1) overflows past c ~ 708.4; the slope is a double up to
    # c ~ 757 and rounds to -0.0 beyond
    slope = asymptotics.winsor_small_sigma_slope(c)
    assert math.isfinite(slope) and slope <= 0.0
    with mp.workdps(50):
        expected = float(-mpf(c) ** 2 / (4 * mp.expm1(c)))
    assert slope == pytest.approx(expected, rel=1e-12, abs=0.0)


# below c ~ 1.5e-162, c^2 underflows to 0.0 where the quotient has overflowed;
# past c ~ 721.5, 4e^c/c^2 itself leaves the doubles
@pytest.mark.parametrize("c", [800.0, 1e200, 1e-160, 1e-170, 1e-300])
def test_large_sigma_coeff_overflow_signalled(c):
    with pytest.raises(ExponentOverflowError, match=r"^4e\^c/c\^2 overflows"):
        asymptotics.winsor_large_sigma_coeff(c)


@pytest.mark.parametrize("c", [709.0, 715.0, 721.0])
def test_large_sigma_coeff_where_4e_c_overflows(c):
    # 4e^c overflows before the divisions, but 4e^c/c^2 is a double
    with mp.workdps(50):
        expected = float(4 * mp.exp(mpf(c)) / mpf(c) ** 2)
    assert asymptotics.winsor_large_sigma_coeff(c) == pytest.approx(expected, rel=1e-13)


def test_large_sigma_coeff_values():
    assert abs(asymptotics.winsor_large_sigma_coeff(2.0) - math.exp(2.0)) < 1e-12
    assert abs(asymptotics.winsor_large_sigma_coeff(1.0) - 4.0 * math.e) < 1e-12
    assert abs(asymptotics.winsor_large_sigma_coeff(4.0) - math.exp(4.0) / 4.0) < 1e-12


def test_trunc_asymptote_values():
    assert abs(asymptotics.trunc_asymptote(1.0, 0.01, Regime.SMALL_SIGMA) - 0.9999) < 1e-12
    assert abs(asymptotics.trunc_asymptote(2.0, math.e, Regime.LARGE_SIGMA) - math.exp(-2.0)) < 1e-12


def test_universal_asymptote_values():
    constants = asymptotics.solve_t_star()
    slope = (1.0 - constants.t_star) * constants.t_star
    sigma = 0.01
    expected = 1.0 - slope * sigma * sigma
    assert abs(asymptotics.universal_asymptote(sigma, Regime.SMALL_SIGMA) - expected) < 1e-15
    sigma = 1e10
    expected = math.exp(2.0) * math.log(sigma) ** 2 / sigma**2
    assert abs(asymptotics.universal_asymptote(sigma, Regime.LARGE_SIGMA) - expected) < 1e-25


# c^2 underflows to 0 below c ~ 1.5e-162 and sigma^2 overflows past
# sigma ~ 1.3e154, where the asymptotes are still doubles
@pytest.mark.parametrize("c, sigma", [(1e-170, 1e170), (1.0, 1e155), (2.0, 3.0)])
def test_large_sigma_asymptotes_past_a_square_out_of_the_doubles(c, sigma):
    with mp.workdps(50):
        log_term = mp.log(mpf(sigma)) ** 2 / mpf(sigma) ** 2
        trunc_expected = float(4 * log_term / mpf(c) ** 2)
        universal_expected = float(mp.exp(2) * log_term)
    got = asymptotics.trunc_asymptote(c, sigma, Regime.LARGE_SIGMA)
    assert got == pytest.approx(trunc_expected, rel=1e-14, abs=0)
    got = asymptotics.universal_asymptote(sigma, Regime.LARGE_SIGMA)
    assert got == pytest.approx(universal_expected, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "asymptote",
    [lambda c, sigma: asymptotics.trunc_asymptote(c, sigma, Regime.LARGE_SIGMA),
     lambda c, sigma: asymptotics.universal_asymptote(sigma, Regime.LARGE_SIGMA)],
    ids=["trunc", "universal"],
)
def test_large_sigma_asymptote_overflow_signalled(asymptote):
    # a square that underflows to 0 must not be a divisor: 1e-200^2 is 0.0
    with pytest.raises(ExponentOverflowError, match=r"ln\^2\(sigma\)/sigma\^2 overflows"):
        asymptote(1e-200, 1e-200)
    with pytest.raises(ExponentOverflowError, match=r"ln\^2\(sigma\)/sigma\^2 overflows"):
        asymptote(1.0, 1e-200)
    # ln sigma is 0 at sigma = 1, an exact zero that is no underflow
    assert asymptote(1e-200, 1.0) == 0.0


def test_universal_slope_is_minimum_over_tilts():
    constants = asymptotics.solve_t_star()
    x, fun = golden_section_min(asymptotics.winsor_small_sigma_slope, 1e-6, 20.0, xtol=1e-8)
    assert abs(x - constants.minus_ln_t_star) < 1e-6
    assert abs(fun - constants.small_sigma_universal_slope) < 1e-6


def test_universal_coeff_is_minimum_over_tilts():
    x, fun = golden_section_min(asymptotics.winsor_large_sigma_coeff, 1e-6, 20.0, xtol=1e-8)
    assert abs(x - 2.0) < 1e-6
    assert abs(fun - math.exp(2.0)) < 1e-6


def test_parameter_validation():
    with pytest.raises(ParameterError):
        asymptotics.winsor_small_sigma_slope(0.0)
    with pytest.raises(ParameterError):
        asymptotics.trunc_asymptote(1.0, -1.0, Regime.SMALL_SIGMA)
    with pytest.raises(ParameterError):
        asymptotics.universal_asymptote(0.0, Regime.LARGE_SIGMA)
