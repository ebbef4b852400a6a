"""Brute-force search oracles versus the analytic solvers."""

import math
import re
import warnings

import numpy as np
import pytest

from winsor_bounds import oracle, trunc, winsor
from winsor_bounds.certificates import MomentKind
from winsor_bounds.distributions import BoundQuery
from winsor_bounds.errors import ExponentOverflowError, NoSignChangeError
from winsor_bounds.trunc import Branch


class TestGridMin:
    def test_winsor_matches_analytic(self):
        analytic = winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))
        found = oracle.refine_grid_min(1.0, 1.0, MomentKind.WINSOR)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound
        assert (
            abs(math.log(found.argmin_a / analytic.a_c_sigma))
            <= math.log(found.cell_ratio)
        )

    def test_trunc_large_branch(self):
        analytic = trunc.lower_bound_trunc(BoundQuery(1.0, 1.0))
        assert analytic.branch is Branch.LARGE_SIGMA
        found = oracle.refine_grid_min(1.0, 1.0, MomentKind.TRUNC)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound
        assert (
            abs(math.log(found.argmin_a / analytic.A_c_sigma))
            <= math.log(found.cell_ratio)
        )

    def test_trunc_small_branch_argmin_at_sigma_squared(self):
        analytic = trunc.lower_bound_trunc(BoundQuery(1.0, 0.5))
        assert analytic.branch is Branch.SMALL_SIGMA
        found = oracle.refine_grid_min(1.0, 0.5, MomentKind.TRUNC)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound
        assert abs(math.log(found.argmin_a / 0.25)) <= math.log(found.cell_ratio)

    def test_universal_joint_search(self):
        analytic = winsor.lower_bound_universal(1.0)
        found = oracle.universal_grid_min(1.0)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound
        assert abs(math.log(found.argmin_a / analytic.a_sigma)) <= math.log(
            found.cell_ratio
        )
        assert abs(math.log(found.argmin_c / analytic.c_sigma)) <= math.log(
            found.cell_ratio_c
        )

    def test_argmin_ties_resolve_to_smaller_a(self):
        values = oracle.two_point_moment_grid(
            MomentKind.WINSOR, 1.0, 1.0, np.array([0.2, 0.2196, 0.25])
        )
        assert int(np.argmin(values)) == 1

    @pytest.mark.parametrize(
        "search",
        [lambda s: oracle.refine_grid_min(1.0, s, MomentKind.WINSOR),
         lambda s: oracle.refine_grid_min(1.0, s, MomentKind.TRUNC),
         oracle.universal_grid_min],
        ids=["refine-winsor", "refine-trunc", "universal"],
    )
    @pytest.mark.parametrize(
        "sigma, error, fate",
        [(1e200, ExponentOverflowError, "overflows"), (1e-200, NoSignChangeError, "underflows")],
        ids=["overflow", "underflow"],
    )
    def test_refuses_sigma_squared_outside_the_doubles(self, search, sigma, error, fate):
        # the grids are spanned by multiples of sigma^2: where it is inf or
        # 0.0 they would hold NaN or no geometric sequence
        with pytest.raises(error, match=rf"^sigma\^2 {fate}"):
            search(sigma)

    @pytest.mark.parametrize(
        "search, sigma, error, quantity",
        [
            (lambda s: oracle.refine_grid_min(1.0, s, MomentKind.WINSOR), 1.3e154,
             ExponentOverflowError, "the grid's upper end"),
            (lambda s: oracle.refine_grid_min(1.0, s, MomentKind.TRUNC), 1.3e154,
             ExponentOverflowError, "the grid's upper end"),
            (oracle.universal_grid_min, 1e154, ExponentOverflowError, "the grid's largest term"),
            (lambda s: oracle.refine_grid_min(1.0, s, MomentKind.WINSOR), 1e-160,
             NoSignChangeError, "the grid's lower end"),
            (lambda s: oracle.refine_grid_min(1.0, s, MomentKind.TRUNC), 1e-160,
             NoSignChangeError, "the grid's lower end"),
            (oracle.universal_grid_min, 1e-160, NoSignChangeError, "the grid's lower end"),
        ],
        ids=["refine-winsor-overflow", "refine-trunc-overflow", "universal-overflow",
             "refine-winsor-underflow", "refine-trunc-underflow", "universal-underflow"],
    )
    def test_refuses_grid_ends_outside_the_doubles(self, search, sigma, error, quantity):
        # sigma^2 is a double, but an end of the grid, or the universal
        # scan's largest moment term, is not: NumPy would warn and form NaN
        # or inf, or find no geometric sequence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=rf"^{re.escape(quantity)} "):
                search(sigma)


class TestThreePointProbes:
    def test_probes_satisfy_constraints(self):
        probe = oracle.sample_three_point(1.0, 2_000, seed=7)
        mean = np.sum(probe.support * probe.masses, axis=1)
        second = np.sum(probe.support**2 * probe.masses, axis=1)
        assert np.all(np.abs(mean) <= 1e-12)
        assert np.all(second <= 1.0 + 1e-12)

    def test_probes_never_undercut_bounds(self):
        probe = oracle.sample_three_point(1.0, 100_000, seed=1)
        floor_fixed = winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0)).bound
        floor_universal = winsor.lower_bound_universal(1.0).bound
        floor_trunc = trunc.lower_bound_trunc(BoundQuery(1.0, 1.0)).bound
        assert float(np.min(oracle.probe_moments(probe, MomentKind.WINSOR, 1.0))) >= floor_fixed
        assert (
            float(np.min(oracle.probe_moments(probe, MomentKind.WINSOR, probe.tilts)))
            >= floor_universal
        )
        assert float(np.min(oracle.probe_moments(probe, MomentKind.TRUNC, 1.0))) >= floor_trunc

    def test_seed_reproducibility(self):
        first = oracle.sample_three_point(2.0, 500, seed=42)
        second = oracle.sample_three_point(2.0, 500, seed=42)
        assert np.array_equal(first.support, second.support)
        assert np.array_equal(first.tilts, second.tilts)


class TestCollapse:
    def test_moments_decrease_to_zero(self):
        points = oracle.trunc_collapse_sequence(1.0, (0.5, 0.2, 0.1, 0.05))
        moments = [p.moment for p in points]
        assert all(m2 < m1 for m1, m2 in zip(moments, moments[1:]))
        assert moments[-1] < 0.1
        assert points[-1].c == 1.0 / 0.05**2

    def test_below_one_percent_by_a_of_twentieth(self):
        points = oracle.trunc_collapse_sequence(1.0, (0.05,))
        assert points[0].moment < 1e-2

    def test_winsor_floor_survives_collapse_path(self):
        floor = winsor.lower_bound_universal(1.0).bound
        for a in (0.5, 0.2, 0.1, 0.05, 0.01):
            moment = winsor._optimal_winsor_moment(a, 1.0, winsor.optimal_c_for_two_point(a, 1.0))
            assert moment >= floor * (1.0 - 1e-12)

    def test_matches_scalar_reference(self):
        # the same arithmetic as a scalar loop with math.exp; NumPy's exp may
        # differ from libm's by an ulp, so each moment may move by a few ulps
        rtol = 4.0 * np.finfo(float).eps
        for sigma in (0.3, 1.0, 10.0):
            sigma2 = sigma * sigma
            a_values = np.geomspace(2.0 * sigma2, 1e-3 * min(1.0, sigma2), 500)
            for point in oracle.trunc_collapse_sequence(sigma, a_values):
                a = point.a
                b, c = sigma2 / a, 1.0 / (a * a)
                upper = b if b < 1.0 else 0.0
                expected = (a * math.exp(c * upper) + b * math.exp(-c * a)) / (a + b)
                assert point.c == c
                assert abs(point.moment - expected) <= rtol * expected

    def test_underflow_reports_zero(self):
        points = oracle.trunc_collapse_sequence(1.0, (1e-3,))
        # e^{-ca} = e^{-1000} underflows; only the positive mass remains
        expected = 1e-3 / (1e-3 + 1e3)
        assert points[0].moment == expected

    def test_refuses_a_whose_tilt_or_support_point_is_no_double(self):
        # 1/a^2 = 1e320 at sigma = 1; b = sigma^2/a = 1e310 at sigma = 1e100
        with pytest.raises(ExponentOverflowError, match=r"^the tilt 1/a\^2 overflows"):
            oracle.trunc_collapse_sequence(1.0, (0.5, 1e-160))
        with pytest.raises(ExponentOverflowError, match=r"^b = sigma\^2/a overflows") as raised:
            oracle.trunc_collapse_sequence(1e100, np.array([0.5, 1e-110]))
        assert str(raised.value).endswith("(operands 1e+100, 1e-110)")

    def test_input_validation(self):
        from winsor_bounds.errors import ParameterError

        with pytest.raises(ParameterError):
            oracle.trunc_collapse_sequence(1.0, (0.1, 0.2))
        with pytest.raises(ParameterError):
            oracle.trunc_collapse_sequence(1.0, ())
        with pytest.raises(ParameterError):
            oracle.trunc_collapse_sequence(-1.0, (0.1,))
