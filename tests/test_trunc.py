"""Truncated bound core: support map, branch threshold, piecewise bound."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from winsor_bounds import law, trunc, winsor
from winsor_bounds.errors import ExponentOverflowError, ParameterError
from winsor_bounds.trunc import Branch
from winsor_bounds.winsor import BoundQuery

from reference import bisect


class TestBStar:
    def test_unit_values(self):
        assert abs(trunc.B_star(1.0, 1.0) - (2.0 * (math.e - 1.0) - 1.0)) < 1e-14
        # high-precision closed form: 10.778112197861300454
        assert abs(trunc.B_star(2.0, 1.0) - 10.7781121978613) < 1e-12

    def test_small_a_expansion(self):
        # B_star = a + a^2 c + O(a^3)
        for c in (0.5, 2.0):
            a = 1e-6
            assert abs(trunc.B_star(a, c) - (a + a * a * c)) < 1e-17

    @given(
        a1=st.floats(min_value=1e-6, max_value=50.0),
        grow=st.floats(min_value=1.01, max_value=10.0),
        c=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, a1, grow, c):
        assume(a1 * grow * c < 700.0)  # stay inside the exponent range
        assert trunc.B_star(a1 * grow, c) > trunc.B_star(a1, c)

    def test_overflow_signalled(self):
        with pytest.raises(ExponentOverflowError):
            trunc.B_star(1000.0, 1.0)

    def test_overflowing_quotient_signalled(self):
        # z = ac = 700 leaves e^z a double, but dividing by c = 1e-5 overflows
        with pytest.raises(ExponentOverflowError, match=r"^the support point overflows"):
            trunc.B_star(7e7, 1e-5)

    @pytest.mark.parametrize("a, c", [(1e-200, 1e-200), (1e-160, 1e-160)])
    def test_underflowing_or_subnormal_ac_against_mpmath(self, a, c):
        # ac underflows to 0.0 or is subnormal: (2 expm1(ac) - ac)/c kept
        # none or few of its bits; the map is a(2 expm1(z)/z - 1) = a there
        with mp.workdps(50):
            z = mpf(a) * mpf(c)
            exact = (2 * mp.expm1(z) - z) / mpf(c)
            assert trunc.B_star(a, c) == pytest.approx(float(exact), rel=2**-52, abs=0)
            log_exact = float(mp.log(exact))
        assert trunc.log_B_star(a, c) == pytest.approx(log_exact, rel=2**-52, abs=0)

    @pytest.mark.parametrize(
        "a, c", [(1.5e-154, 1.5e-154), (1e-300, 1.0), (1.0, 1e-300), (0.3, 2.0)]
    )
    def test_normal_ac_keeps_the_quotient(self, a, c):
        assert trunc.B_star(a, c) == (2.0 * math.expm1(a * c) - a * c) / c

    def test_log_form(self):
        for a, c in ((0.01, 1.0), (3.0, 2.0), (25.0, 1.0)):
            assert abs(trunc.log_B_star(a, c) - math.log(trunc.B_star(a, c))) < 1e-12
        assert math.isfinite(trunc.log_B_star(5000.0, 1.0))


class TestSolveAc:
    def test_unit_threshold_against_bisection(self):
        # oracle: bisection of 2(e^a - 1) - a - 1 on (0.1, 1) to 1e-12;
        # 50-digit value 0.58307387603669099768
        oracle = bisect(lambda a: 2.0 * math.expm1(a) - a - 1.0, 0.1, 1.0)
        assert abs(trunc.solve_A_c(1.0) - oracle) < 1e-10
        assert abs(trunc.solve_A_c(1.0) - 0.583073876036691) < 1e-10

    def test_tiny_tilt_limit_is_one(self):
        assert abs(trunc.solve_A_c(1e-8) - 1.0) < 1e-6

    @pytest.mark.parametrize("c", (5e-324, 1e-323, 1e-310))
    def test_subnormal_tilt_threshold_is_one(self, c):
        # ac is subnormal, so B_star(a, c) is a and the threshold is 1; the
        # seed ln(1 + c)/c is c/c = 1 there, where ln(1 + c/2)/c underflowed
        # to 0.0 and was refused as a start
        assert trunc.solve_A_c(c) == 1.0

    def test_defining_identity_across_tilts(self):
        for c in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            threshold = trunc.solve_A_c(c)
            assert abs(trunc.B_star(threshold, c) - 1.0) <= 1e-10

    def test_extreme_tilt_root_below_static_bracket(self):
        # for c ~ 1e8 the threshold sits near ln(c/2)/c, far below 1e-6
        threshold = trunc.solve_A_c(1e8)
        assert threshold < 1e-6
        assert abs(trunc.B_star(threshold, 1e8) - 1.0) <= 1e-10


class TestSolveAcSigma:
    def test_threshold_fixed_point(self, trunc_root):
        # at sigma^2 = A_c the matching root is A_c itself
        threshold = trunc.solve_A_c(1.0)
        solved = trunc_root(1.0, math.sqrt(threshold))
        assert abs(solved - threshold) < 1e-10 * threshold

    def test_unit_case_against_bisection(self, trunc_root):
        # oracle: bisection of a*(2(e^a - 1) - a) - 1 on (0.1, 2) to 1e-12;
        # 50-digit value 0.72000445973684125831
        oracle = bisect(lambda a: a * (2.0 * math.expm1(a) - a) - 1.0, 0.1, 2.0)
        solved = trunc_root(1.0, 1.0)
        assert abs(solved - oracle) < 1e-10
        assert abs(solved - 0.7200044597368412) < 1e-10

    def test_residual_contract(self, trunc_root):
        for c in (0.1, 1.0, 5.0):
            for sigma in (1e-3, 1.0, 1e4):
                a = trunc_root(c, sigma)
                rel = math.expm1(
                    math.log(a) + trunc.log_B_star(a, c) - 2.0 * math.log(sigma)
                )
                assert abs(rel) <= 1e-10

    def test_large_sigma_log_growth(self, trunc_root):
        ratios = []
        for sigma in (1e2, 1e4, 1e8):
            a = trunc_root(1.0, sigma)
            ratios.append(a / (2.0 * math.log(sigma)))
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.85


class TestTruncMoment:
    def test_cut_point_maps_to_zero(self):
        for c in (0.5, 1.0, 4.0):
            assert abs(law._trunc_moment(1.0, 1.0, c) - 0.5 * (1.0 + math.exp(-c))) < 1e-14

    def test_small_branch_closed_form(self):
        for sigma2, c in ((0.25, 1.0), (0.04, 3.0)):
            expected = (sigma2 + math.exp(-c * sigma2)) / (1.0 + sigma2)
            assert abs(law._trunc_moment(sigma2, 1.0, c) - expected) < 1e-14

    def test_sub_cut_support_keeps_exponential(self):
        assert abs(law._trunc_moment(0.5, 0.5, 1.0) - math.cosh(0.5)) < 1e-14

    def test_exponential_up_to_the_edge_of_the_doubles(self):
        # cb = 709.65 lies below ln DBL_MAX ~ 709.78, so e^(cb) is a double
        value = law._trunc_moment(1.0, 0.9, 788.5)
        assert math.isfinite(value)
        assert value == pytest.approx(8.29e307, rel=1e-3)
        with pytest.raises(ExponentOverflowError, match=r"^e\^\(cb\) overflows"):
            law._trunc_moment(1.0, 0.9, 800.0)

    def test_underflow_to_zero_is_reported(self):
        # e^(-ca) underflows, leaving the upper mass a/(a+b)
        value = law._trunc_moment(1.0, 1e6, 2000.0)
        assert value == pytest.approx(1.0 / (1.0 + 1e6), rel=1e-12)


class TestLowerBoundTrunc:
    def test_small_branch(self):
        solution = trunc.lower_bound_trunc(BoundQuery(1.0, 0.5))
        assert solution.branch is Branch.SMALL_SIGMA
        expected = (0.25 + math.exp(-0.25)) / 1.25
        assert abs(solution.bound - expected) < 1e-12
        assert abs(solution.bound - 0.823040626457124) < 1e-12
        assert (solution.a, solution.b) == (0.25, 1.0)

    def test_large_branch(self):
        solution = trunc.lower_bound_trunc(BoundQuery(1.0, 1.0))
        assert solution.branch is Branch.LARGE_SIGMA
        assert abs(solution.bound - 0.6619812012305112) < 1e-10
        assert solution.b >= 1.0
        assert solution.a >= trunc.solve_A_c(solution.tilt)

    def test_branch_continuity(self, trunc_root):
        for c in (0.5, 1.0, 2.0, 5.0):
            threshold = trunc.solve_A_c(c)
            sigma = math.sqrt(threshold)
            small = law._trunc_moment(threshold, 1.0, c)
            a = trunc_root(c, sigma)
            large = law._trunc_moment(a, max(threshold / a, 1.0), c)
            assert abs(small - large) <= 1e-10 * small

    def test_branch_tie_goes_small(self):
        threshold = trunc.solve_A_c(1.0)
        solution = trunc.lower_bound_trunc(BoundQuery(1.0, math.sqrt(threshold)))
        # solver noise may land sigma^2 an ulp either side of the threshold,
        # but the bound itself is branch-continuous
        small_value = law._trunc_moment(threshold, 1.0, 1.0)
        assert abs(solution.bound - small_value) < 1e-10

    def test_small_sigma_slope(self):
        c, sigma = 2.0, 1e-3
        bound = trunc.lower_bound_trunc(BoundQuery(c, sigma)).bound
        assert abs((bound - 1.0) / (sigma * sigma) / (-c) - 1.0) < 0.01

    def test_large_sigma_asymptote_ratio_climbs_to_one(self):
        ratios = []
        for sigma in (1e2, 1e4, 1e6, 1e10):
            bound = trunc.lower_bound_trunc(BoundQuery(1.0, sigma)).bound
            asymptote = 4.0 * math.log(sigma) ** 2 / (sigma * sigma)
            ratios.append(bound / asymptote)
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.8

    @given(
        c=st.floats(min_value=0.05, max_value=8.0),
        sigma=st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_winsor(self, c, sigma):
        query = BoundQuery(c, sigma)
        assert (
            trunc.lower_bound_trunc(query).bound
            <= winsor.lower_bound_fixed_c(query).bound + 1e-12
        )

    def test_cut_rescaling_is_bitwise(self):
        direct = trunc.lower_bound_trunc(BoundQuery(1.0, 2.0, 2.0))
        rescaled = trunc.lower_bound_trunc(BoundQuery(2.0, 1.0, 1.0))
        assert direct.bound == rescaled.bound
        assert direct.branch == rescaled.branch

    def test_validation(self):
        with pytest.raises(ParameterError):
            trunc.lower_bound_trunc(BoundQuery(1.0, 1.0, -1.0))


class TestBranchInClosedForm:
    def test_bound_solves_no_threshold(self, monkeypatch):
        queries = (BoundQuery(1.0, 0.5), BoundQuery(1.0, 1.0))
        expected = [trunc.lower_bound_trunc(q) for q in queries]

        def refuse(c):
            raise AssertionError("A_c solved on the bound path")

        monkeypatch.setattr(trunc, "solve_A_c", refuse)
        for query, before in zip(queries, expected):
            solution = trunc.lower_bound_trunc(query)
            assert solution.bound == before.bound
            assert solution.branch is before.branch
        assert [s.branch for s in expected] == [Branch.SMALL_SIGMA, Branch.LARGE_SIGMA]

    @pytest.mark.parametrize("c", [float(c) for c in np.geomspace(1e-6, 1e3, 25)])
    def test_branch_agrees_with_solved_threshold(self, c):
        threshold = trunc.solve_A_c(c)
        for factor, branch in ((1.0 - 1e-9, Branch.SMALL_SIGMA), (1.0 + 1e-9, Branch.LARGE_SIGMA)):
            query = BoundQuery(c, math.sqrt(threshold * factor))
            assert trunc.lower_bound_trunc(query).branch is branch

    def test_product_underflowing_to_zero_takes_small_branch(self):
        # sigma^2 * c underflows to 0.0; a log-form test would take log(0)
        solution = trunc.lower_bound_trunc(BoundQuery(1e-8, 1e-160))
        assert solution.branch is Branch.SMALL_SIGMA
        assert solution.bound == 1.0

    @pytest.mark.parametrize("z", (709.01, 709.05, 709.09, 709.1, 709.5))
    def test_branch_at_the_largest_tilt(self, z):
        # at c = DBL_MAX, B_star(sigma^2, c) <= 1 holds up to z = c sigma^2
        # ~ 709.09, above 709, and the small branch is exact: (sigma^2, 1)
        c = sys.float_info.max
        sigma = math.sqrt(z / c)
        a = sigma * sigma
        with mp.workdps(50):
            small = (2 * mp.expm1(mpf(a) * c) - mpf(a) * c) / c <= 1
        solution = trunc.lower_bound_trunc(BoundQuery(c, sigma))
        assert solution.branch is (Branch.SMALL_SIGMA if small else Branch.LARGE_SIGMA)
        assert solution.a <= a and solution.b >= 1.0

    def test_huge_tilt_tiny_sigma(self):
        # the A_c solve cannot bracket c = 1e300, but the bound needs no A_c
        solution = trunc.lower_bound_trunc(BoundQuery(1e300, 1e-150))
        assert solution.branch is Branch.SMALL_SIGMA
        assert solution.bound == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_tiny_tilt_tiny_sigma(self):
        assert trunc.lower_bound_trunc(BoundQuery(1e-300, 1e-100)).bound == 1.0

    @pytest.mark.parametrize("sigma", (1e4, 1e100, 1.34e154))
    def test_tiny_tilt_large_sigma(self, sigma):
        # bracketing probes a near 1e301, where (2 expm1(ac) - ac)/c
        # overflows although its log does not
        solution = trunc.lower_bound_trunc(BoundQuery(1e-300, sigma))
        assert solution.branch is Branch.LARGE_SIGMA
        assert solution.bound == 1.0
        assert trunc.log_B_star(2e301, 1e-300) == pytest.approx(
            math.log(2.0 * math.expm1(20.0) - 20.0) + 300.0 * math.log(10.0), rel=1e-15
        )

    @pytest.mark.parametrize("c", (1e-308, 1e-310, 1e-320))
    def test_seed_quotient_overflowing_is_capped_at_sigma(self, c):
        # ln(1 + sigma^2)/c overflows to inf; the seed is capped at sigma
        solution = trunc.lower_bound_trunc(BoundQuery(c, 1e5))
        assert solution.branch is Branch.LARGE_SIGMA
        assert solution.bound == 1.0


@pytest.mark.parametrize("sigma", (1e-200, 1e160))
def test_solve_A_c_sigma_where_sigma_squared_leaves_the_doubles(sigma):
    # sigma^2 underflows to 0.0 or overflows to inf; the log-form equation
    # ln a + ln B_star(a, c) = 2 ln sigma never forms it
    a = trunc._A_c_sigma(1.0, (sigma, sigma * sigma, math.log(sigma)), None)
    assert abs(math.log(a) + trunc.log_B_star(a, 1.0) - 2.0 * math.log(sigma)) <= 1e-12


def test_huge_tilt_root_is_bracketed_in_a_few_probes(solves):
    # at c * min(sigma, 1) > LN_DBL_MAX the seed follows the large-tilt law
    # a c e^{ac} = c^2 sigma^2 / 2; the root ~7.3e-298 lies hundreds of
    # halvings below min(sigma, 1) = 1e-140
    solution = trunc.lower_bound_trunc(BoundQuery(1e300, 1e-140))
    assert solution.branch is Branch.LARGE_SIGMA
    assert 0 < len(solves.points) <= 4


def test_tiny_tilt_seed_is_clamped_to_sigma(solves):
    # the seed ln(1 + sigma^2)/c = 1.84e301 ignores that a*B_star ~ a^2 at
    # tiny ac; clamped to sigma it starts at the root
    solution = trunc.lower_bound_trunc(BoundQuery(1e-300, 1e4))
    assert solution.bound == 1.0
    assert 0 < len(solves.points) <= 4


@pytest.mark.parametrize("c", (1e-20, 1e-16, 1.0, 1e300))
def test_threshold_against_mpmath(c):
    # B_star(a, c) = 1 is 2 expm1(z) - z = c in z = ac, solved here in ln z
    with mp.workdps(60):
        g = lambda v: mp.log(2 * mp.expm1(mp.exp(v)) - mp.exp(v)) - mp.log(c)
        exact = mp.exp(mp.findroot(g, mp.log(mp.log1p(mpf(c) / 2)))) / mpf(c)
        assert abs(trunc.solve_A_c(c) - exact) <= 1e-15 * exact


def test_huge_tilt_root_far_below_its_seed_against_mpmath():
    # the root a ~ 7.3e-298 lies more than 200 halvings below min(sigma, 1);
    # the bound is subnormal, so it carries only ~9 significant digits
    solution = trunc.lower_bound_trunc(BoundQuery(1e300, 1e-140))
    with mp.workdps(50):
        c, sigma2 = mpf(1e300), mpf(1e-140) ** 2

        def g(u):  # ln a + ln B_star(a, c) - ln sigma^2 with a = e^u
            a = mp.exp(u)
            return u + mp.log((2 * mp.expm1(a * c) - a * c) / c) - mp.log(sigma2)

        a = mp.exp(mp.findroot(g, (mp.log(1e-298), mp.log(1e-297)), solver="anderson"))
        b = sigma2 / a
        exact = (a + b * mp.exp(-c * a)) / (a + b)
        assert solution.branch is Branch.LARGE_SIGMA
        assert abs(solution.bound - exact) <= 1e-6 * exact
        assert exact == pytest.approx(5.3369e-315, rel=1e-4)
