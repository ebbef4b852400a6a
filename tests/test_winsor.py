"""Winsorized bound core: support-point map, moment matching, universal tilt."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from winsor_bounds import cli, law, roots, trunc, verify, winsor
from winsor_bounds.errors import (
    ExponentOverflowError, MaxIterationsError, NoSignChangeError, ParameterError,
)
from winsor_bounds.sweeps import SweepKind, sigma_grid
from winsor_bounds.winsor import BoundQuery

from reference import bisect

mp.dps = 50


def fixed_root(c, sigma):
    """The lower support magnitude of the fixed-tilt extremal law."""
    return winsor.lower_bound_fixed_c(BoundQuery(c, sigma)).a


def universal_root(sigma):
    """The lower support magnitude of the tilt-universal extremal law."""
    return winsor.lower_bound_universal(sigma).a


def optimal_moment(a, sigma):
    """The Winsorized moment of X_{a, sigma^2/a} at its optimal tilt."""
    return law._optimal_winsor_moment(a, sigma, winsor.optimal_c_for_two_point(a, sigma))


def mp_b_star(a, c):
    a, c = mpf(a), mpf(c)
    return (2 * (mp.e ** (c + a * c) - 1) - a * c) / c


class TestBStar:
    def test_unit_values(self):
        assert abs(winsor.b_star(1.0, 1.0) - (2.0 * math.e**2 - 3.0)) < 1e-12

    def test_against_high_precision(self):
        # 50-digit closed form: 119736.28343039563691
        assert abs(winsor.b_star(10.0, 1.0) - float(mp_b_star(10, 1))) < 1e-7
        assert abs(winsor.b_star(10.0, 1.0) - 119736.28343039563) < 1e-7

    def test_small_a_limit(self):
        for c in (0.3, 1.0, 4.0):
            limit = 2.0 * math.expm1(c) / c
            assert abs(winsor.b_star(1e-13, c) - limit) < 1e-9 * limit

    def test_exceeds_two(self):
        for a in (0.0, 0.5, 3.0):
            for c in (1e-6, 0.1, 2.0):
                assert winsor.b_star(a, c) > 2.0

    @given(
        a1=st.floats(min_value=0.0, max_value=50.0),
        delta=st.floats(min_value=1e-6, max_value=10.0),
        c=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_a(self, a1, delta, c):
        assert winsor.b_star(a1 + delta, c) > winsor.b_star(a1, c)

    def test_overflow_signalled(self):
        with pytest.raises(ExponentOverflowError):
            winsor.b_star(1000.0, 1.0)

    def test_overflowing_quotient_signalled(self):
        # z = 700.00001 leaves e^z a double, but dividing by c = 1e-5 overflows
        with pytest.raises(ExponentOverflowError, match=r"^the support point overflows"):
            winsor.b_star(7e7, 1e-5)

    def test_log_form_matches_direct(self):
        for a, c in ((0.1, 0.5), (2.0, 1.0), (30.0, 3.0), (0.0, 7.0)):
            direct = math.log(winsor.b_star(a, c))
            assert abs(winsor.log_b_star(a, c) - direct) < 1e-12 * max(1.0, abs(direct))

    @pytest.mark.parametrize("c", (1e-320, 5e-324))
    def test_subnormal_tilt(self, c):
        # z = c(1 + a) below DBL_MIN: the map is 2(1 + a) expm1(z)/z - a = a + 2
        assert winsor.b_star(0.5, c) == 2.5
        assert winsor.log_b_star(0.5, c) == math.log(2.5)
        assert winsor.log_b_star(0.0, c) == math.log(2.0)

    @pytest.mark.parametrize("log_map", (winsor.log_b_star, trunc.log_B_star))
    def test_log_form_where_its_slope_leaves_the_doubles(self, log_map):
        # z ~ 8.6e18: formed as ln a + z - ln S, the slope's exponent would
        # keep an ulp of z (1024) of roundoff and pass ln DBL_MAX
        a, c = 6.198772557999916e222, 1.3924193088795288e-204
        shift = c if log_map is winsor.log_b_star else 0
        z = mpf(shift) + mpf(a) * c
        expected = mp.log(2 * mp.expm1(z) - mpf(a) * c) - mp.log(c)
        assert log_map(a, c) == pytest.approx(float(expected), rel=1e-15)

    @pytest.mark.parametrize(
        "a, c", [(6.2e222, 1.39e-204), (1e200, 1e-180), (3e15, 1e3)]
    )
    @pytest.mark.parametrize("winsorized", (True, False), ids=("winsor", "trunc"))
    def test_log_form_slope_against_mpmath(self, a, c, winsorized):
        # ulp(z) is past ln(ac/2) at each point: the exponent ln a + z - ln S
        # cancelled to 0 or leaves the doubles, reading 2.0 or inf; z must
        # cancel exactly, leaving ln(ac/2)
        shift = c if winsorized else 0.0
        z = mpf(shift) + mpf(a) * c
        support = (2 * mp.expm1(z) - mpf(a) * c) / c
        expected = mpf(a) * (2 * mp.exp(z) - 1) / support
        slope = law._log_support(a, c, shift)[2]
        assert slope == pytest.approx(float(expected), rel=1e-13)

    @pytest.mark.parametrize(
        "a, c, winsorized",
        [
            (14.0, 2.0, True), (math.nextafter(14.0, 15.0), 2.0, True),  # z = 30, and past it
            (15.0, 2.0, False), (math.nextafter(15.0, 16.0), 2.0, False),
            (0.0, 1.5, True),  # the slope is 0
            (2.9e301, 1e-300, True), (2.9e301, 1e-300, False),  # z = 29, S overflows
            (0.5, 1.0, True), (0.5, 1.0, False), (1e-10, 1e-3, True), (1e5, 1e-5, False),
        ],
    )
    def test_slope_against_mpmath(self, a, c, winsorized):
        # a(2e^z - 1)/S, formed up to the cutover from the e^z - 1 that forms
        # S and past it in log form; the worst error measured was 3 ulps, one
        # ulp of z past the cutover
        shift = c if winsorized else 0.0
        z = mpf(shift) + mpf(a) * c
        support = (2 * mp.expm1(z) - mpf(a) * c) / c
        expected = float(mpf(a) * (2 * mp.exp(z) - 1) / support)
        slope = law._log_support(a, c, shift)[2]
        assert abs(slope - expected) <= 4.0 * math.ulp(expected), (slope, expected)

    def test_log_form_beyond_overflow(self):
        # 50-digit reference for ln b_star at a huge exponent
        a, c = 2000.0, 1.0
        expected = float(mp.log(mp_b_star(a, c)))
        assert abs(winsor.log_b_star(a, c) - expected) < 1e-9 * abs(expected)

    def test_validation(self):
        with pytest.raises(ParameterError):
            winsor.b_star(-0.5, 1.0)
        with pytest.raises(ParameterError):
            winsor.b_star(1.0, 0.0)


class TestSolveACSigma:
    def test_unit_case_against_log_grid_oracle(self):
        # dense log-grid scan over (1e-6, 1e3) + bisection of
        # a*b_star(a,1) - 1; overflow far above the root counts as positive
        def f(a):
            try:
                return a * (2.0 * math.expm1(1.0 + a) - a) - 1.0
            except OverflowError:
                return math.inf

        grid = [10 ** (-6 + 9 * k / 2000) for k in range(2001)]
        lo = max(a for a in grid if f(a) < 0)
        hi = min(a for a in grid if f(a) > 0)
        oracle = bisect(f, lo, hi)
        solved = fixed_root(1.0, 1.0)
        assert abs(solved - oracle) < 1e-10
        assert abs(solved - 0.2196629301855436) < 1e-10

    def test_residual_contract(self):
        for c in (0.1, 1.0, 5.0):
            for sigma in (1e-3, 1.0, 1e4):
                a = fixed_root(c, sigma)
                rel = math.expm1(
                    math.log(a) + winsor.log_b_star(a, c) - 2.0 * math.log(sigma)
                )
                assert abs(rel) <= 1e-10

    def test_small_sigma_asymptote(self):
        for c in (0.5, 2.0):
            sigma = 1e-3
            a = fixed_root(c, sigma)
            prediction = c * sigma * sigma / (2.0 * math.expm1(c))
            assert abs(a / prediction - 1.0) < 1e-3

    def test_large_sigma_asymptote_approached_from_below(self):
        # a ~ ln(sigma^2)/c holds only in the limit; the ratio climbs to 1
        ratios = []
        for sigma in (1e2, 1e4, 1e6, 1e10):
            a = fixed_root(1.0, sigma)
            ratios.append(a / (2.0 * math.log(sigma)))
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.85
        assert all(r < 1.0 for r in ratios)


class TestEll1:
    def test_zero_at_sigma_squared(self):
        for sigma in (0.3, 1.0, 7.0):
            assert winsor._ell1(sigma * sigma, sigma * sigma) == 0.0

    def test_diverges_at_zero(self):
        assert winsor._ell1(1e-290, 1.0) < -600.0

    @pytest.mark.parametrize("a, sigma", [(5e-324, 1e154), (1e-300, 1e10)])
    def test_where_a_over_sigma_squared_leaves_the_normals(self, a, sigma):
        # a/sigma^2 underflows to 0.0 or keeps a subnormal's few bits: a root
        # solve that starts far below the root at huge sigma probes such a
        expected = mp_ell1(mp.log(mpf(a)), sigma)
        assert winsor._ell1(a, sigma * sigma) == pytest.approx(float(expected), rel=1e-15, abs=0)

    def test_root_against_bisection(self):
        # interior root for sigma = 1; frozen from 50-digit bisection:
        # 0.14734064676109530794
        oracle = bisect(lambda a: winsor._ell1(a, 1.0), 1e-8, 0.999999)
        assert abs(oracle - 0.14734064676109532) < 1e-10


class TestSolveASigma:
    def test_unit_root(self):
        assert abs(universal_root(1.0) - 0.14734064676109532) < 1e-10

    def test_residual_and_interiority(self):
        for sigma in (1e-3, 0.1, 1.0, 30.0, 1e6):
            a = universal_root(sigma)
            assert 0.0 < a < sigma * sigma
            assert abs(winsor._ell1(a, sigma * sigma)) <= 1e-10

    def test_small_sigma_proportion_is_t_star(self):
        from winsor_bounds.asymptotics import t_star

        sigma = 1e-3
        assert abs(universal_root(sigma) / (sigma * sigma) - t_star()) < 1e-4

    def test_large_sigma_log_growth(self):
        ratios = []
        for sigma in (1e2, 1e4, 1e6, 1e10):
            ratios.append(universal_root(sigma) / math.log(sigma))
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.85


class TestWinsorMoment:
    def test_symmetric_two_point_is_cosh(self):
        for c in (0.25, 1.0, 3.0):
            assert abs(law._winsor_moment(1.0, 1.0, c) - math.cosh(c)) < 1e-14

    def test_universal_extremal_reproduces_published_value(self):
        solution = winsor.lower_bound_universal(1.0)
        direct = law._winsor_moment(solution.a, solution.b, solution.tilt)
        assert abs(direct - 0.8781357139504142) < 1e-10
        assert abs(direct - solution.bound) < 1e-12

    def test_vanishing_lower_point_gives_one(self):
        assert abs(law._winsor_moment(1e-14, 1.0, 2.0) - 1.0) < 1e-12

    def test_near_one_is_within_an_ulp(self):
        # extremal laws whose moment is within ~1e-8 of 1, where the plain
        # sum of the two atoms misses it by up to 1.7 * 2^-53
        for c in np.geomspace(1e-8, 1e-1, 15):
            for sigma in np.geomspace(1e-10, 1e-3, 15):
                extremal = winsor.lower_bound_fixed_c(BoundQuery(float(c), float(sigma)))
                moment = law._winsor_moment(extremal.a, extremal.b, float(c))
                a, b = mpf(extremal.a), mpf(extremal.b)
                exact = (a * mp.exp(c * min(1, b)) + b * mp.exp(-c * a)) / (a + b)
                assert moment <= 1.0
                assert abs(moment - exact) <= 2.0**-53

    def test_overflow_signalled_for_sub_cut_support(self):
        with pytest.raises(ExponentOverflowError):
            law._winsor_moment(1.0, 0.5, 2000.0)


class TestOptimalTilt:
    def test_matches_definition(self):
        a = universal_root(1.0)
        expected = math.log(1.0 / a) / (1.0 + a)
        assert abs(winsor.optimal_c_for_two_point(a, 1.0) - expected) < 1e-14
        assert abs(expected - 1.6690841151322773) < 1e-10

    def test_limits_to_two_for_large_sigma(self):
        values = []
        for sigma in (1e2, 1e6, 1e10):
            a = universal_root(sigma)
            values.append(winsor.optimal_c_for_two_point(a, sigma))
        assert abs(values[-1] - 2.0) < 0.01
        assert all(abs(v2 - 2.0) < abs(v1 - 2.0) for v1, v2 in zip(values, values[1:]))

    def test_domain_validation(self):
        with pytest.raises(ParameterError):
            winsor.optimal_c_for_two_point(2.0, 1.0)

    def test_optimal_moment_matches_direct_evaluation(self):
        for sigma in (0.2, 1.0, 50.0):
            a = 0.3 * sigma * sigma
            c = winsor.optimal_c_for_two_point(a, sigma)
            direct = law._winsor_moment(a, sigma * sigma / a, c)
            assert abs(optimal_moment(a, sigma) - direct) < 1e-12 * direct


class TestLowerBoundFixedC:
    def test_small_sigma_slope(self):
        c, sigma = 1.0, 1e-3
        bound = winsor.lower_bound_fixed_c(BoundQuery(c, sigma)).bound
        slope = -c * c / (4.0 * math.expm1(c))
        assert abs((bound - 1.0) / (sigma * sigma) / slope - 1.0) < 0.01

    def test_equals_universal_at_optimal_tilt(self):
        universal = winsor.lower_bound_universal(1.0)
        fixed = winsor.lower_bound_fixed_c(BoundQuery(universal.tilt, 1.0))
        assert abs(fixed.bound - universal.bound) < 1e-10

    def test_solution_record(self):
        solution = winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))
        assert abs(solution.a * winsor.b_star(solution.a, 1.0) - 1.0) < 1e-10
        assert solution.b > 2.0
        assert 0.0 < solution.bound <= 1.0
        assert (solution.kind, solution.tilt, solution.branch) == ("fixed-winsor", 1.0, None)

    def test_root_below_smallest_float_raises_no_sign_change(self):
        # the moment-matching root lies below the subnormal range, so the
        # bracket search contracts to 0 and must say so instead of probing it
        with pytest.raises(NoSignChangeError):
            winsor.lower_bound_fixed_c(BoundQuery(100.0, 1e-150))

    def test_moment_exponential_up_to_the_edge_of_the_doubles(self):
        # e^709.5 is a double (the edge is ln DBL_MAX ~ 709.78); the bound is 1
        solution = winsor.lower_bound_fixed_c(BoundQuery(709.5, 1.0))
        assert solution.bound == 1.0
        assert solution.a == pytest.approx(2.618e-306, rel=1e-3, abs=0.0)
        assert cli.main(["bound", "--kind", "fixed-winsor", "--c", "709.5", "--sigma", "1"]) == 0

    def test_subnormal_tilt(self):
        # b_star is a + 2 there, so a(a + 2) = 1 puts the root at sqrt(2) - 1
        solution = winsor.lower_bound_fixed_c(BoundQuery(1e-320, 1.0))
        assert abs(solution.a - (math.sqrt(2.0) - 1.0)) <= 1e-15
        assert solution.bound == 1.0

    def test_tiny_tilt_seed_does_not_underflow(self):
        # c * sigma^2 underflows to 0.0 here, but the root, ~sigma^2/2, is a
        # normal double: the seed must be formed without that product
        solution = winsor.lower_bound_fixed_c(BoundQuery(1e-300, 1e-152))
        assert solution.bound == 1.0
        assert solution.a == pytest.approx(5e-305, rel=1e-15)

    @pytest.mark.parametrize("c, sigma", [(1e10, 1e22), (1e50, 1e10)])
    def test_root_below_the_doubles_costs_one_probe(self, c, sigma, solves):
        # the first Newton step underflows to 0.0; one probe at the smallest
        # positive double, where the equation is still positive, settles it
        with pytest.raises(NoSignChangeError):
            winsor.lower_bound_fixed_c(BoundQuery(c, sigma))
        assert len(solves.points) <= 3

    @given(
        c=st.floats(min_value=0.05, max_value=8.0),
        sigma=st.floats(min_value=1e-2, max_value=1e3),
        cut=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_cut_rescaling_is_bitwise(self, c, sigma, cut):
        direct = winsor.lower_bound_fixed_c(BoundQuery(c, sigma, cut))
        rescaled = winsor.lower_bound_fixed_c(BoundQuery(c * cut, sigma / cut, 1.0))
        assert direct.bound == rescaled.bound
        assert direct.a == rescaled.a
        assert direct.b == rescaled.b

    @given(
        c=st.floats(min_value=0.05, max_value=8.0),
        sigma=st.floats(min_value=1e-2, max_value=1e3),
        grow=st.floats(min_value=1.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing_in_sigma(self, c, sigma, grow):
        first = winsor.lower_bound_fixed_c(BoundQuery(c, sigma)).bound
        second = winsor.lower_bound_fixed_c(BoundQuery(c, sigma * grow)).bound
        assert second <= first + 1e-12


@pytest.mark.parametrize(
    "solve",
    [
        lambda: winsor.lower_bound_universal(1e-158),
        lambda: winsor.lower_bound_fixed_c(BoundQuery(700.0, 3.6184987596427426e-06)),
    ],
    ids=["universal", "fixed"],
)
def test_subnormal_root_collapses_in_a_few_evaluations(solve, solves):
    # adjacent subnormals near the root differ by more than the tolerance
    # in f; a Newton step too small to move a moves it one ulp, so the
    # collapsed bracket is found at once
    with pytest.raises(MaxIterationsError, match="adjacent floats"):
        solve()
    assert len(solves.points) <= 3


@pytest.mark.parametrize("start", (1e30, 1e100, 2e307))
def test_universal_root_from_far_above(start, solves, lanes):
    # ell1 ~ 2a far above the root, so each Newton move lowers ln a by ~1;
    # the progress rule bisects instead (19 to 23 evaluations, against 69
    # from 1e30 and more than 200 from the other two by Newton alone)
    lane = lanes[SweepKind.UNIVERSAL_WINSOR]
    seeded = lane(None, 1e154)[-1]
    del solves.points[:]
    assert lane(None, 1e154, start)[-1] == pytest.approx(seeded, rel=2e-15, abs=0)
    assert len(solves.points) <= 40


class TestLowerBoundUniversal:
    def test_published_unit_value(self):
        solution = winsor.lower_bound_universal(1.0)
        assert 0.878 <= solution.bound < 0.879
        assert abs(solution.bound - 0.8781357139504142) < 1e-10

    def test_published_sigma_ten_value(self):
        solution = winsor.lower_bound_universal(10.0)
        assert 0.194 <= solution.bound < 0.195
        assert abs(solution.bound - 0.19416734442430944) < 1e-10

    def test_small_sigma_slope_uses_t_star(self):
        from winsor_bounds.asymptotics import solve_t_star

        sigma = 1e-3
        slope = solve_t_star().small_sigma_universal_slope
        bound = winsor.lower_bound_universal(sigma).bound
        assert abs((bound - 1.0) / (sigma * sigma) / slope - 1.0) < 0.01

    def test_cut_maps_onto_level_one_problem(self):
        scaled = winsor.lower_bound_universal(2.0, cut=2.0)
        base = winsor.lower_bound_universal(1.0)
        assert scaled.bound == base.bound
        assert (scaled.a, scaled.b, scaled.tilt) == (base.a, base.b, base.tilt)
        assert scaled.cut == 2.0 and scaled.sigma == 2.0 and scaled.c is None

    def test_bound_never_exceeds_one_at_tiny_sigma(self):
        # the bound is 1 - (1 - t_star) t_star sigma^2 as sigma -> 0, within
        # an ulp of 1 below sigma ~ 1e-8: it must round to at most 1
        for sigma in np.geomspace(1e-150, 1e-3, 300):
            bound = winsor.lower_bound_universal(float(sigma)).bound
            assert 0.0 < bound <= 1.0, (sigma, bound)

    def test_answers_where_sigma_squared_products_overflow(self):
        # ell1 once formed 2(a+1)(a - sigma^2), which overflows here
        assert 0.0 < winsor.lower_bound_universal(1e153).bound <= 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            winsor.lower_bound_universal(-1.0)
        with pytest.raises(ParameterError):
            winsor.lower_bound_universal(1.0, cut=-2.0)


def test_derivative_identity_for_log_optimal_moment():
    # d/da ln(optimal moment) = ell1(a) / (1+a)^2, checked by central
    # differences at step 1e-6
    step = 1e-6
    for sigma in (0.7, 1.0, 2.0):
        for fraction in (0.05, 0.5, 0.9):
            a = fraction * sigma * sigma
            numeric = (
                math.log(optimal_moment(a + step, sigma))
                - math.log(optimal_moment(a - step, sigma))
            ) / (2.0 * step)
            analytic = winsor._ell1(a, sigma * sigma) / (1.0 + a) ** 2
            if abs(analytic) > 0.05:
                assert abs(numeric - analytic) <= 1e-4 * abs(analytic)


def mp_optimal_moment(a, sigma):
    a, sigma2 = mpf(a), mpf(sigma) ** 2
    return a * (1 + a) * (sigma2 / a) ** (1 / (1 + a)) / (a * a + sigma2)


def direct_optimal_moment(a, sigma):
    # the closed form as written, a(1+a) e^{c_opt} / (a^2 + sigma^2)
    c_opt = winsor.optimal_c_for_two_point(a, sigma)
    return a * (1.0 + a) * math.exp(c_opt) / (a * a + sigma * sigma)


@pytest.mark.parametrize(
    "grid",
    [
        np.geomspace(1e-150, 1e-3, 300),
        sigma_grid(0.05, 100.0, 200, "log"),
        verify.SIGMA_GRID,
        np.geomspace(1e3, 1e150, 300),
    ],
    ids=["tiny-sigma", "figure-grid", "verify-grid", "huge-sigma"],
)
def test_optimal_moment_accuracy_against_mpmath(grid):
    # at the universal extremal a, the library's moment is at least as
    # accurate as the direct closed form, and within 1e-15 relative
    def worst_error(moment):
        worst = 0.0
        for sigma in grid:
            a = universal_root(float(sigma))
            exact = mp_optimal_moment(a, float(sigma))
            worst = max(worst, float(abs(moment(a, float(sigma)) - exact) / exact))
        return worst

    worst = worst_error(optimal_moment)
    assert worst <= worst_error(direct_optimal_moment)
    assert worst <= 1e-15


def mp_moment_match(u, c, sigma, shift):
    a, c = mp.e ** u, mpf(c)
    z = mpf(shift) + a * c
    return u + mp.log((2 * mp.expm1(z) - a * c) / c) - 2 * mp.log(mpf(sigma))


def mp_ell1(u, sigma):
    a = mp.e ** u
    r = a / mpf(sigma) ** 2
    return mp.log(r) - 2 * (a + 1) * (r - 1) / (a * r + 1)


COLUMN_CASES = [(c, sigma) for c in (1e-3, 0.5, 2.0, 40.0) for sigma in (1e-4, 0.3, 5.0, 1e5)]
EPS = sys.float_info.epsilon


def near_root(f, root):
    """Three points about root at which f^2 is below roots.TOL, so that the
    equation supplies f''."""
    slope = f(root)[1]
    return [root * math.exp(k / slope) for k in (-9e-7, -2e-8, 5e-7)]


def check_curvature(f, g, points, rel, abs_per_slope2):
    """f'' is supplied exactly where f^2 <= roots.TOL and agrees with
    mpmath's second derivative of g in u = ln a there, within rel or
    abs_per_slope2 * f'^2 (forming s(1 - s) + ca(s + a/S) loses the bits
    that cancel between its terms); the certificate needs |f''| <= f'."""
    supplied = 0
    for a in points:
        value, slope, curvature = f(a)
        assert (curvature is None) == (value * value > roots.TOL), (a, value)
        if curvature is None:
            continue
        supplied += 1
        exact = mp.diff(g, mp.log(mpf(a)), 2)
        assert curvature == pytest.approx(float(exact), rel=rel, abs=abs_per_slope2 * slope**2)
        assert abs(curvature) <= slope
    assert supplied >= 3


class TestColumnEquations:
    """The equations the bounds hand to the root solver, with their slopes
    and second derivatives in u = ln a: values, slopes and curvatures
    against mpmath, and upper ends above the root at which the equation is
    not negative."""

    @pytest.mark.parametrize("c, sigma", COLUMN_CASES)
    @pytest.mark.parametrize("winsorized", (True, False), ids=("winsor", "trunc"))
    def test_moment_match(self, c, sigma, winsorized, solves, lanes, trunc_root):
        shift = c if winsorized else 0.0
        root = lanes[SweepKind.FIXED_C_WINSOR](c, sigma)[0] if winsorized else trunc_root(c, sigma)
        ((f, start, hi),) = solves.equations
        assert hi == sigma
        assert root <= hi and f(hi)[0] >= 0.0
        # at hi the slope keeps only ~z*eps relative accuracy (z = shift + ac
        # cancels against ln S); the solver needs it for its steps only
        g = lambda v: mp_moment_match(v, c, sigma, shift)
        for a in (0.1 * root, root, math.sqrt(root * hi), hi):
            value, slope, _ = f(a)
            u = mpf(math.log(a))
            assert value == pytest.approx(float(g(u)), rel=1e-12, abs=1e-12)
            if a < hi:
                assert slope == pytest.approx(float(mp.diff(g, u)), rel=1e-12)
        # the worst error measured, over these cases and c = 700, was
        # 2.5 eps f'^2, at c = 700
        check_curvature(f, g, [0.1 * root, hi, *near_root(f, root)], 1e-12, 8.0 * EPS)
        assert all(f(a)[2] > 0.0 for a in near_root(f, root))

    @pytest.mark.parametrize("c", (1e-320, 5e-324))
    @pytest.mark.parametrize("winsorized", (True, False), ids=("winsor", "trunc"))
    def test_moment_match_where_z_is_subnormal(self, c, winsorized, solves, lanes, trunc_root):
        # z = shift + ac below DBL_MIN: the map is 2(1 + a) expm1(z)/z - a =
        # a + 2 (shift c) or a(2 expm1(z)/z - 1) = a (shift 0), where the
        # quotient (2 expm1(z) - ac)/c keeps only a subnormal's bits
        sigma, shift = 10.0, c if winsorized else 0.0
        root = lanes[SweepKind.FIXED_C_WINSOR](c, sigma)[0] if winsorized else trunc_root(c, sigma)
        ((f, start, hi),) = solves.equations
        g = lambda v: mp_moment_match(v, c, sigma, shift)
        for a in (0.3, 3.0, root, hi):
            value, slope, _ = f(a)
            u = mpf(math.log(a))
            assert value == pytest.approx(float(g(u)), rel=1e-12, abs=1e-15)
            assert slope == pytest.approx(float(mp.diff(g, u)), rel=1e-12)
        # f'' is 2a/(a + 2)^2 (shift c) or 2ac, a subnormal (shift 0)
        check_curvature(f, g, [0.3, 3.0, hi, *near_root(f, root)], 1e-12, 8.0 * EPS)

    @pytest.mark.parametrize("c", (1e-3, 0.5, 2.0, 40.0, 700.0))
    def test_threshold(self, c, solves):
        # ln B_star(a, c) = 0, through the same log-form body as the moment
        # matches; past LOG_FORM_CUTOVER (c = 40, 700 at a = 1) in log form.
        # It supplies no f'', so its solve never takes a certified step
        root = trunc.solve_A_c(c)
        ((f, start, hi),) = solves.equations
        assert hi == 1.0
        g = lambda v: mp_moment_match(v, c, 1.0, 0.0) - v
        for a in (0.1 * root, root, 1.0):
            value, slope, curvature = f(a)
            u = mpf(math.log(a))
            assert value == pytest.approx(float(g(u)), rel=1e-12, abs=1e-12)
            assert slope == pytest.approx(float(mp.diff(g, u)), rel=1e-12)
            assert curvature is None

    @pytest.mark.parametrize("sigma", (1e-100, 1e-4, 0.3, 1.0, 5.0, 1e5, 1e150))
    def test_ell1(self, sigma, solves, lanes):
        root = lanes[SweepKind.UNIVERSAL_WINSOR](None, sigma)[0]
        ((f, start, hi),) = solves.equations
        assert hi == 0.5 * sigma * sigma
        assert root < hi and f(hi)[0] > 0.3
        g = lambda v: mp_ell1(v, sigma)
        for a in (0.1 * root, 0.9 * root, 1.1 * root, hi):
            value, slope, _ = f(a)
            u = mpf(math.log(a))
            assert value == pytest.approx(float(g(u)), rel=1e-12, abs=1e-12)
            assert slope == pytest.approx(float(mp.diff(g, u)), rel=1e-9, abs=1e-12)
        # the worst error measured was 2.9e-16 relative, over these sigmas
        # and 61 more from 1e-150 to 1e150
        check_curvature(f, g, [0.1 * root, hi, *near_root(f, root)], 1e-15, 0.0)
        # more than 5% from the root in a, f^2 > TOL and no f'' is
        # formed: |f''| <= f' is needed only within that 5%
        far = np.geomspace(1e-6 * root, hi, 200).tolist()
        assert all(f(a)[2] is None for a in far if abs(math.log(a / root)) > 0.05)


# starts at which f is about each offset, on both sides of the root and
# from near sqrt(roots.TOL) down to near roots.TOL
CERTIFICATE_OFFSETS = (-9e-7, -3e-7, -2e-9, 4e-11, 5e-8, 8e-7)
CERTIFICATE_CASES = {
    kind: [(c, sigma) for c in (1e-3, 0.1, 1.0, 3.0, 30.0, 300.0)
           for sigma in (1e-4, 0.05, 1.0, 20.0, 1e4, 1e100)]
    for kind in ("winsor", "trunc")
}
CERTIFICATE_CASES["universal"] = [
    (None, sigma) for sigma in (1e-100, 1e-3, 0.05, 0.5, 1.0, 5.0, 100.0, 1e5, 1e50, 1e150)
]
# the points of each kind with TOL < |f(start)| <= sqrt(TOL) and start below
# hi: 216, 215 and 60 (a truncated root at a tiny tilt lies near hi = sigma)
CERTIFICATE_POINTS = {"winsor": 216, "trunc": 215, "universal": 60}


@pytest.mark.parametrize("kind", list(CERTIFICATE_CASES))
def test_certified_step_bounds_the_residual(kind, solves, lanes, trunc_root):
    # From a start where TOL < |f| <= sqrt(TOL), a solve whose second-order
    # step is certified returns that step after one evaluation.  The bound
    # is formed from f as evaluated, as the |f| <= TOL test is, so the
    # 50-digit residual at the returned root is at most the bound plus f's
    # own evaluation error at the start, and at most TOL.
    checked = certified = 0
    for c, sigma in CERTIFICATE_CASES[kind]:
        if kind == "winsor":
            root = lanes[SweepKind.FIXED_C_WINSOR](c, sigma)[0]
            g = lambda v: mp_moment_match(v, c, sigma, c)
        elif kind == "trunc":
            root = trunc_root(c, sigma)
            g = lambda v: mp_moment_match(v, c, sigma, 0.0)
        else:
            root = lanes[SweepKind.UNIVERSAL_WINSOR](None, sigma)[0]
            g = lambda v: mp_ell1(v, sigma)
        f, _, hi = solves.equations[-1]
        slope = f(root)[1]
        for offset in CERTIFICATE_OFFSETS:
            start = root * math.exp(offset / slope)
            value, slope_at, curvature = f(start)
            if start >= hi or curvature is None or abs(value) <= roots.TOL:
                continue
            checked += 1
            assert abs(curvature) <= slope_at, (c, sigma, offset)
            step, bound = roots._second_order_step(start, value / slope_at, slope_at, curvature)
            evaluations = []
            got = roots._solve(lambda a: evaluations.append(a) or f(a), start, hi)
            residual = abs(g(mp.log(mpf(got))))
            assert residual <= roots.TOL, (c, sigma, offset, residual)
            if bound <= roots.TOL:
                certified += 1
                assert (got, evaluations) == (step, [start]), (c, sigma, offset)
                evaluation_error = abs(mpf(value) - g(mp.log(mpf(start))))
                assert residual <= bound + evaluation_error, (c, sigma, offset)
    # 488 of 491 points were certified when written: the three others are
    # _ell1's at |f| = 9e-7, where f' = 0.59 puts the Newton remainder
    # above TOL
    assert checked >= CERTIFICATE_POINTS[kind], checked
    assert certified >= 0.95 * checked, (checked, certified)


def test_query_rescaling_fields():
    # a Bound keeps the caller's inputs and reports the tilt and the
    # support at cut level 1
    query = BoundQuery(c=1.5, sigma=4.0, cut=2.0)
    solution = winsor.lower_bound_fixed_c(query)
    assert (solution.c, solution.sigma, solution.cut, solution.tilt) == (1.5, 4.0, 2.0, 3.0)
    rescaled = winsor.lower_bound_fixed_c(BoundQuery(3.0, 2.0))
    assert (solution.a, solution.b) == (rescaled.a, rescaled.b)


BOUND_KINDS = ("universal-winsor", "fixed-winsor", "trunc")


def bound_of(kind, c, sigma, cut):
    """One Bound through the public call of its kind."""
    if kind == "universal-winsor":
        return winsor.lower_bound_universal(sigma, cut)
    query = BoundQuery(c, sigma, cut)
    return (winsor.lower_bound_fixed_c if kind == "fixed-winsor" else trunc.lower_bound_trunc)(query)


@given(
    kind=st.sampled_from(BOUND_KINDS),
    c=st.floats(min_value=0.1, max_value=10.0),
    sigma=st.floats(min_value=1e-3, max_value=1e6),
    cut=st.floats(min_value=0.5, max_value=2.0),
)
@example(kind="trunc", c=1.0, sigma=0.5, cut=1.0)  # the small-sigma branch
@example(kind="trunc", c=1.0, sigma=3.0, cut=1.0)  # the large-sigma branch
@settings(max_examples=200, deadline=None)
def test_bound_is_a_zero_mean_two_point_law(kind, c, sigma, cut):
    # the extremal law on {-a, b} with masses b/(a+b) and a/(a+b): finite
    # positive support, masses summing to 1, mean zero and second moment
    # a*b = (sigma/cut)^2, at cut level 1
    r = bound_of(kind, c, sigma, cut)
    assert r.kind == kind and (r.c is None) == (kind == "universal-winsor")
    assert (r.branch is None) == (kind != "trunc")
    a, b = r.a, r.b
    assert 0.0 < a < math.inf and 0.0 < b < math.inf
    p_neg, p_pos = b / (a + b), a / (a + b)
    assert abs(p_neg + p_pos - 1.0) <= 1e-14
    assert abs(b * p_pos - a * p_neg) <= 1e-14 * (a * p_neg + b * p_pos)
    s = sigma / cut
    assert abs(a * b - s * s) <= 4.0 * math.ulp(s * s)


# t in (2, 1500]: the helper's first double past 2, and a geometric grid
W_EXP_ARGUMENTS = [math.nextafter(2.0, 3.0), *np.geomspace(2.001, 1500.0, 60).tolist()]
# t in (1, 2], where the universal seed reads it too: the first double past
# 1 and a linear grid up to 2
W_EXP_ARGUMENTS += [math.nextafter(1.0, 2.0), *np.linspace(1.0, 2.0, 41)[1:].tolist()]
# the helper's worst relative error measured on that grid, per range of t,
# was 1.30e-3 below 2 (at t = 1.45), 7.06e-4 below 10, 4.75e-9 below 100
# and 1.9e-13 above; each bound is that worst case plus about half of it
# again
W_EXP_TOLERANCES = ((2.0, 2e-3), (10.0, 1e-3), (100.0, 1e-8), (math.inf, 3e-13))
# (c, sigma/cut, cut): cut a power of 2, so sigma/cut is formed exactly;
# at every one the cold solve starts from W(e^t) (t > 2)
LARGE_SIGMA_CASES = [
    (c, s, cut) for c, cut in zip((0.1, 1.0, 3.0, 10.0), (0.5, 1.0, 2.0, 1.0))
    for s in (1e2, 1e4, 1e6)
]


def mp_bound(kind, tilt, s, a):
    """The bound of kind at cut level 1, tilt and sigma = s, from the
    50-digit root found from the library's a."""
    if kind == "universal-winsor":
        a = mp.e ** mp.findroot(lambda u: mp_ell1(u, s), mp.log(a))
        return a, mp_optimal_moment(a, s)
    shift = tilt if kind == "fixed-winsor" else 0.0
    a = mp.e ** mp.findroot(lambda u: mp_moment_match(u, tilt, s, shift), mp.log(a))
    c, b = mpf(tilt), mpf(s) ** 2 / a
    if kind == "fixed-winsor":
        pos = mp.exp(c * min(1, b))
    else:
        pos = mp.exp(c * b) if b < 1 else 1
    return a, (a * pos + b * mp.exp(-c * a)) / (a + b)


class TestLambertWSeeds:
    """The cold seeds W(e^t) of the three moment matches at large sigma."""

    def test_w_exp_against_mpmath(self):
        for t in W_EXP_ARGUMENTS:
            exact = mp.lambertw(mp.exp(t)).real
            error = float(abs(winsor._w_exp(t) - exact) / exact)
            assert error <= next(tol for below, tol in W_EXP_TOLERANCES if t < below), t

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_large_sigma_bounds_against_mpmath(self, kind):
        # the worst error measured was 0.99 eps in a and 1.88 eps in the
        # bound (universal); the bound is about twice that
        eps = sys.float_info.epsilon
        for c, s, cut in LARGE_SIGMA_CASES:
            r = bound_of(kind, c / cut, s * cut, cut)
            a, bound = mp_bound(kind, r.tilt, s, r.a)
            assert abs(r.a - a) <= 4.0 * eps * a, (c, s, cut)
            assert abs(r.bound - bound) <= 4.0 * eps * bound, (c, s, cut)
