"""Brute-force search oracles versus the analytic solvers."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from winsor_bounds import law, oracle, trunc, verify, winsor
from winsor_bounds.certificates import MomentKind, _capped_exp, capped_exp
from winsor_bounds.winsor import BoundQuery
from winsor_bounds.errors import (
    ExponentOverflowError, MaxIterationsError, NoSignChangeError, ParameterError,
)
from winsor_bounds.trunc import Branch


class TestGridMin:
    def test_winsor_matches_analytic(self):
        analytic = winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))
        found = oracle.refine_grid_min(1.0, 1.0, MomentKind.WINSOR)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound
        assert (
            abs(math.log(found.argmin_a / analytic.a))
            <= math.log(found.cell_ratio)
        )

    def test_trunc_large_branch(self):
        analytic = trunc.lower_bound_trunc(BoundQuery(1.0, 1.0))
        assert analytic.branch is Branch.LARGE_SIGMA
        found = oracle.refine_grid_min(1.0, 1.0, MomentKind.TRUNC)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound
        assert (
            abs(math.log(found.argmin_a / analytic.a))
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
        assert abs(math.log(found.argmin_a / analytic.a)) <= math.log(
            found.cell_ratio
        )
        assert abs(math.log(found.argmin_c / analytic.tilt)) <= math.log(
            found.cell_ratio_c
        )

    @pytest.mark.parametrize("sigma", [1e3, 1e4])
    def test_universal_joint_search_at_large_sigma(self, sigma):
        # the extremal a is ~ln sigma there, far below sigma^2 * 1e-5
        analytic = winsor.lower_bound_universal(sigma)
        found = oracle.universal_grid_min(sigma)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound

    @pytest.mark.parametrize(
        "kind, lower_bound",
        [(MomentKind.WINSOR, winsor.lower_bound_fixed_c),
         (MomentKind.TRUNC, trunc.lower_bound_trunc)],
        ids=["winsor", "trunc"],
    )
    @pytest.mark.parametrize("c", [0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("sigma", [1.0, 1e5, 1e6, 1e8])
    def test_refine_matches_analytic_at_large_sigma_and_tilt(self, kind, lower_bound, c, sigma):
        # sigma^2 * 1e-8 alone starts the coarse grid above the extremal a
        # at most of these points
        analytic = lower_bound(BoundQuery(c, sigma))
        found = oracle.refine_grid_min(c, sigma, kind)
        assert abs(found.min_value - analytic.bound) <= 1e-6 * analytic.bound

    def test_refine_grid_starts_below_the_extremal_a(self):
        for c in np.geomspace(1e-2, 1e2, 9):
            for sigma in np.geomspace(1e-3, 1e150, 154):
                query = BoundQuery(float(c), float(sigma))
                for kind, lower_bound in (
                    (MomentKind.WINSOR, winsor.lower_bound_fixed_c),
                    (MomentKind.TRUNC, trunc.lower_bound_trunc),
                ):
                    lower_end = refine_ends(float(c), float(sigma), kind)[0]
                    assert lower_end < lower_bound(query).a, (c, sigma, kind)

    def test_universal_grid_starts_below_the_extremal_a(self):
        for sigma in np.geomspace(1e-3, 1e150, 154):
            lower_end = min(sigma * sigma * 1e-5, 0.5 * math.log1p(sigma))
            assert lower_end < winsor.lower_bound_universal(sigma).a, sigma

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
            (lambda s: oracle.refine_grid_min(500.0, s, MomentKind.WINSOR), 1e153,
             ExponentOverflowError, "the grid's largest term a * e^c"),
            (lambda s: oracle.refine_grid_min(1e3, s, MomentKind.TRUNC), 1e153,
             ExponentOverflowError, "b = sigma^2/a at the grid's lower end"),
        ],
        ids=["refine-winsor-overflow", "refine-trunc-overflow", "universal-overflow",
             "refine-winsor-underflow", "refine-trunc-underflow", "universal-underflow",
             "refine-winsor-term-overflow", "refine-trunc-support-overflow"],
    )
    def test_refuses_grid_ends_outside_the_doubles(self, search, sigma, error, quantity):
        # sigma^2 is a double, but an end of the grid, or the universal
        # scan's largest moment term, is not: NumPy would warn and form NaN
        # or inf, or find no geometric sequence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=rf"^{re.escape(quantity)} "):
                search(sigma)

    @pytest.mark.parametrize("c, sigma", [(709.0, 1.0), (720.0, 1.0), (1e4, 1.0), (700.0, 1e3)])
    def test_winsor_refuses_where_a_e_c_overflows(self, c, sigma):
        # every b >= 1 reads e^c, so the grid's upper end a times e^c is its
        # largest term; at (709, 1) only that product overflows, not e^c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ExponentOverflowError,
                match=rf"^the grid's largest term a \* e\^c overflows to inf \(operands {c!r}, {sigma!r}\)$",
            ):
                oracle.refine_grid_min(c, sigma, MomentKind.WINSOR)

    @pytest.mark.parametrize("c", [720.0, 745.0, 800.0, 2000.0, 1e4])
    def test_trunc_answers_past_ln_dbl_max(self, c):
        # the grid starts at min(sigma^2 * 1e-8, 1/c, sigma/2), which keeps
        # clear of e^-c, and cells whose e^(cb) overflows read as inf
        for sigma in np.geomspace(1e-3, 1e2, 6):
            analytic = trunc.lower_bound_trunc(BoundQuery(c, float(sigma)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                found = oracle.refine_grid_min(c, float(sigma), MomentKind.TRUNC)
            assert (
                abs(math.log(found.argmin_a / analytic.a)) <= math.log(found.cell_ratio)
            ), sigma
            # the small-sigma minimum sits on the kink at b = 1, where the
            # value is only as close as the cell: 9e-6 at (300, 0.1)
            if analytic.branch is Branch.LARGE_SIGMA:
                assert abs(found.min_value - analytic.bound) <= 1e-9 * analytic.bound, sigma


def refine_ends(c, sigma, kind):
    """refine_grid_min's a span for the kind."""
    sigma2 = sigma * sigma
    if kind is MomentKind.WINSOR:
        return min(sigma2 * 1e-8, 1.0 / c, 0.5 * c * math.exp(-c - 1.0) * sigma2), sigma2 * 1e2
    return min(sigma2 * 1e-8, 1.0 / c, 0.5 * sigma), sigma2 * 1e2


def unblocked_stages(kind, sigma, a_ends, c_ends, stages, window):
    """oracle's search with one np.argmin over each whole (a, c) grid, through
    oracle.two_point_moment_grid as the module holds it: (a, c, values, i, j)
    of each stage in turn."""
    for na, nc in stages:
        a, c = np.geomspace(*a_ends, na), np.geomspace(*c_ends, nc)
        with np.errstate(over="ignore" if kind is MomentKind.TRUNC else None):
            values = oracle.two_point_moment_grid(kind, c[None, :], sigma, a[:, None])
        i, j = divmod(int(np.argmin(values)), nc)
        yield a, c, values, i, j
        a_ends = a[max(i - window, 0)], a[min(i + window, na - 1)]
        c_ends = c[max(j - window, 0)], c[min(j + window, nc - 1)]


def unblocked_search(kind, sigma, a_ends, c_ends, stages, window):
    *_, (a, c, values, i, j) = unblocked_stages(kind, sigma, a_ends, c_ends, stages, window)
    return a, c, i, j, float(values[i, j])


def unblocked_refine_grid_min(c, sigma, kind):
    a, _, i, _, value = unblocked_search(
        kind, sigma, refine_ends(c, sigma, kind), (c, c), [(n, 1) for n in oracle.REFINE_STAGES],
        oracle.REFINE_WINDOW_CELLS,
    )
    return oracle.GridMinResult(
        argmin_a=float(a[i]), argmin_c=c, min_value=value,
        cell_ratio=float((a[-1] / a[0]) ** (1.0 / (a.size - 1))),
    )


def universal_stages(sigma):
    """unblocked_stages over universal_grid_min's grids."""
    a_ends = (min(sigma * sigma * 1e-5, 0.5 * math.log1p(sigma)), sigma * sigma * (1.0 - 1e-9))
    return unblocked_stages(
        MomentKind.WINSOR, sigma, a_ends, oracle.UNIVERSAL_TILTS, oracle.UNIVERSAL_STAGES,
        oracle.UNIVERSAL_WINDOW_CELLS,
    )


def unblocked_universal_grid_min(sigma):
    *_, (a, c, values, i, j) = universal_stages(sigma)
    return oracle.GridMinResult(
        argmin_a=float(a[i]), argmin_c=float(c[j]), min_value=float(values[i, j]),
        cell_ratio=float(a[1] / a[0]), cell_ratio_c=float(c[1] / c[0]),
    )


def tied_moments(kind, c, sigma, a, out=None, scratch=None):
    """1.0 on every cell: each scan's first cell is its argmin."""
    out = np.empty(np.broadcast_shapes(np.shape(c), np.shape(a))) if out is None else out
    out[...] = 1.0
    return out


def nan_moments(kind, c, sigma, a, out=None, scratch=None):
    """-1.0 for a > 1e-2 and c <= 1, NaN for a > 1e-2 and c > 1, else 0.0:
    the first NaN in row-major order beats every -1.0 before it."""
    out = np.empty(np.broadcast_shapes(np.shape(c), np.shape(a))) if out is None else out
    out[...] = np.where(a > 1e-2, np.where(c > 1.0, np.nan, -1.0), 0.0)
    return out


SEARCHES = {
    "universal": (oracle.universal_grid_min, unblocked_universal_grid_min),
    "refine-winsor": (
        lambda s: oracle.refine_grid_min(2.0, s, MomentKind.WINSOR),
        lambda s: unblocked_refine_grid_min(2.0, s, MomentKind.WINSOR),
    ),
    "refine-trunc": (
        lambda s: oracle.refine_grid_min(0.5, s, MomentKind.TRUNC),
        lambda s: unblocked_refine_grid_min(0.5, s, MomentKind.TRUNC),
    ),
}


# verify's universal sigmas and 20 from near the least sigma the joint scan
# answers to near the largest
SIGMA_LADDER = [0.5, 1.0, 10.0, 1e3, *map(float, np.geomspace(1e-150, 1e149, 20))]


class TestSearchInBlocks:
    @pytest.mark.parametrize("sigma", SIGMA_LADDER)
    def test_universal_matches_one_argmin_over_each_grid(self, sigma):
        # the joint scan skips the rows whose floor rules them out, and
        # still gives the one argmin's result, bit for bit
        expected = unblocked_universal_grid_min(sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = oracle.universal_grid_min(sigma)
        assert repr(found) == repr(expected)
        assert all(type(field) is float for field in found)

    @pytest.mark.parametrize("sigma", SIGMA_LADDER)
    def test_row_floors_hold_on_every_stage_grid(self, sigma):
        # each row's least computed cell is at least its closed-form floor,
        # the least moment over every tilt, up to the margin
        for a, _, values, _, _ in universal_stages(sigma):
            floors = oracle._row_floors(sigma, a)
            assert np.all(values.min(axis=1) >= floors * (1.0 - oracle._FLOOR_MARGIN)), sigma

    def test_rows_a_rounding_error_below_their_floor_are_scanned(self):
        # at the optimal tilt c* = ln b/(1 + a) a computed cell can fall an
        # ulp below the computed floor: the margin keeps such a row, here
        # a grid's one row, two tilts wide
        below = 0
        for a in np.geomspace(0.01, 0.9, 200):
            tilt = math.log(1.0 / a) / (1.0 + a)
            cell = oracle.two_point_moment_grid(MomentKind.WINSOR, np.array([tilt, 2.0 * tilt]), 1.0, a)
            below += cell[0] < oracle._row_floors(1.0, np.array([a]))[0]
            _, _, i, j, value = oracle._search(1.0, (a, a), (tilt, 2.0 * tilt), ((1, 2),), 0)
            assert (i, j) == (0, 0) and abs(value / cell[0] - 1.0) <= 1e-15, a
        assert below > 0

    def test_suite_cell_budget(self, monkeypatch):
        # A count, not a timing: one oracle suite sent 1,949,008 cells
        # through two_point_moment_grid when the joint scans evaluated
        # every row, and 235,108 once each skips the rows its floors rule
        # out.  The ceiling is that count plus about 6%.  Every cell, the
        # refined searches' too, is formed by oracle._moment.
        cells, moments = [], oracle._moment

        def counted(kind, c, sigma, a, out, scratch):
            cells.append(np.broadcast(np.asarray(c), np.asarray(a)).size)
            return moments(kind, c, sigma, a, out, scratch)

        monkeypatch.setattr(oracle, "_moment", counted)
        assert all(result.passed for result in verify.run_suite("oracle", 1))
        assert sum(cells) <= 250_000, f"{sum(cells)} cells"

    @pytest.mark.parametrize("kind", list(MomentKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("c, sigma", [*verify.ORACLE_PAIRS, (50.0, 1e3), (0.1, 1e8)])
    def test_refine_matches_one_argmin_over_each_grid(self, kind, c, sigma):
        expected = unblocked_refine_grid_min(c, sigma, kind)
        found = oracle.refine_grid_min(c, sigma, kind)
        assert repr(found) == repr(expected)
        assert all(type(field) is float for field in found[:4])

    @pytest.mark.parametrize("c", [745.0, 1e4])
    def test_refine_matches_one_argmin_where_cells_overflow(self, c):
        expected = unblocked_refine_grid_min(c, 1.0, MomentKind.TRUNC)
        assert repr(oracle.refine_grid_min(c, 1.0, MomentKind.TRUNC)) == repr(expected)

    @pytest.mark.parametrize("moments", [tied_moments, nan_moments], ids=["ties", "nan"])
    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_ties_resolve_row_major_and_nan_first(self, monkeypatch, moments, search):
        # the refined searches form their cells with oracle._moment
        blocked, unblocked = SEARCHES[search]
        monkeypatch.setattr(oracle, "two_point_moment_grid", moments)
        monkeypatch.setattr(oracle, "_moment", moments)
        found = blocked(1.0)
        assert repr(found) == repr(unblocked(1.0))
        if moments is nan_moments:
            # the refined truncated search runs at c = 0.5, where no cell is NaN
            nan_expected = search != "refine-trunc"
            assert math.isnan(found.min_value) is nan_expected
            if nan_expected:
                assert found.argmin_c > 1.0
            else:
                assert found.min_value == -1.0
            assert found.argmin_a > 1e-2
        else:
            assert found.min_value == 1.0


def moment_by_formula(kind, c, sigma, a):
    """The two-point moment (a F(b) + b e^{-ca}) / (a + b), b = sigma^2/a,
    with F formed at every b: the form two_point_moment_grid must give."""
    b = sigma * sigma / a
    f_values = np.exp(c * np.minimum(b, 1.0) if kind is MomentKind.WINSOR
                      else np.where(b < 1.0, c * b, 0.0))
    return (a * f_values + b * np.exp(-c * a)) / (a + b)


class TestTwoPointMomentGrid:
    TILTS = np.geomspace(0.05, 20.0, 7)[None, :]
    CASES = {
        # (tilt, a, every b >= 1): a column of a against a scalar tilt and
        # against a row of tilts
        "b above 1, scalar c": (1.5, np.geomspace(1e-3, 0.9, 50)[:, None], True),
        "b above 1, row of tilts": (TILTS, np.geomspace(1e-3, 0.9, 50)[:, None], True),
        # sigma = 1, a = 1: b is exactly 1.0, the least b of the block
        "a row at b = 1": (TILTS, np.array([[0.25], [0.5], [1.0]]), True),
        "b on both sides of 1": (TILTS, np.geomspace(1e-2, 1e2, 41)[:, None], False),
        "b on both sides of 1, scalar c": (1.5, np.geomspace(1e-2, 1e2, 41)[:, None], False),
        "a NaN b": (TILTS, np.array([[0.5], [math.nan], [0.25]]), False),
    }

    @pytest.mark.parametrize("kind", list(MomentKind))
    @pytest.mark.parametrize("case", CASES)
    def test_gives_the_bits_of_the_formula(self, kind, case, monkeypatch):
        c, a, shortcut = self.CASES[case]
        expected = moment_by_formula(kind, c, 1.0, a)
        seen = []

        def recording(kind, c, x, out):
            seen.append(np.ndim(x))
            return _capped_exp(kind, c, x, out)

        monkeypatch.setattr(oracle, "_capped_exp", recording)
        got = oracle.two_point_moment_grid(kind, c, 1.0, a)
        out, scratch = np.full(expected.shape, 7.0), np.full(expected.shape, 7.0)
        oracle.two_point_moment_grid(kind, c, 1.0, a, out=out, scratch=scratch)
        assert got.tobytes() == out.tobytes() == expected.tobytes()
        # F at the scalar 1.0 where every b >= 1, at each b otherwise
        assert seen == ([0, 0] if shortcut else [2, 2])


def brute_force_min(y, f):
    """The least sum p F over the laws on three points of y, every triple in
    turn: the 3x3 system sum p (1, y, y^2) = (1, 0, 1), kept where each
    weight is >= 0."""
    triples = np.array(list(itertools.combinations(range(y.size), 3)))
    rows = np.stack((np.ones(triples.shape), y[triples], y[triples] ** 2), axis=1)
    weights = np.linalg.solve(rows, np.broadcast_to([[1.0], [0.0], [1.0]], rows.shape[:2] + (1,)))
    weights = weights[..., 0]
    feasible = np.all(weights >= 0.0, axis=1)
    return float(np.min(np.sum(weights * f[triples], axis=1)[feasible]))


# (kind, c, sigma) of the small-grid LPs: both truncated branches, the
# small-sigma one at (1, 0.5) and (3, 0.3) with its optimum on the cut, and
# a tilt so small that the last pivots gain less than 1e-6 of the value
SMALL_GRID_CASES = [
    (MomentKind.WINSOR, 1.0, 1.0), (MomentKind.WINSOR, 2.0, 0.5), (MomentKind.WINSOR, 0.7, 3.0),
    (MomentKind.WINSOR, 1e-3, 0.3),
    (MomentKind.TRUNC, 1.0, 0.5), (MomentKind.TRUNC, 3.0, 0.3), (MomentKind.TRUNC, 1.0, 2.0),
]
SMALL_GRID = np.geomspace(0.03, 30.0, 13)  # in units of sigma, either side of 0


def assert_is_a_law(found, sigma):
    """Nonnegative weights that hold the moments (1, 0, sigma^2), up to the
    roundoff of the closed-form weights."""
    support, weights = np.array(found.support) / sigma, np.array(found.weights)
    assert weights.min() >= 0.0
    moments = [weights.sum(), weights @ support, weights @ support**2]
    assert np.allclose(moments, [1.0, 0.0, 1.0], rtol=0.0, atol=1e-12)


def assert_dual_meets_f_on_the_basis(found, kind, c):
    """alpha + beta x + gamma x^2 = F(x) at each basis point, to 1e-13 of
    the pricing's scale max(F, |alpha| + |beta x| + |gamma| x^2)."""
    x, f = np.array(found.support), capped_exp(kind, c, np.array(found.support))
    terms = abs(found.alpha) + np.abs(x) * (abs(found.beta) + abs(found.gamma) * np.abs(x))
    dual = found.alpha + x * (found.beta + found.gamma * x)
    assert np.all(np.abs(dual - f) <= 1e-13 * np.maximum(f, terms)), (dual, f)


SOLVE = {MomentKind.WINSOR: winsor.lower_bound_fixed_c, MomentKind.TRUNC: trunc.lower_bound_trunc}


def verify_lp_cases():
    """(kind, c, bound) of the five LPs of verify's oracle suite."""
    cases = [(MomentKind.WINSOR, 1.0, winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))),
             (MomentKind.TRUNC, 1.0, trunc.lower_bound_trunc(BoundQuery(1.0, 1.0)))]
    return cases + [(MomentKind.WINSOR, u.tilt, u)
                    for u in map(winsor.lower_bound_universal, (0.5, 1.0, 10.0))]


# (kind, c, bound, on SMALL_GRID): verify's five LPs and the small-grid ones
WARM_COLD_CASES = [(*case, False) for case in verify_lp_cases()] + [
    (kind, c, SOLVE[kind](BoundQuery(c, sigma)), True) for kind, c, sigma in SMALL_GRID_CASES
]


class TestLPMin:
    @pytest.mark.parametrize("kind, c, sigma", SMALL_GRID_CASES,
                             ids=[f"{k.value}-{c}-{s}" for k, c, s in SMALL_GRID_CASES])
    def test_matches_brute_force_on_a_small_grid(self, monkeypatch, kind, c, sigma):
        # 13 points a side: with -1, 0, 1 and the cut, about 30 points, whose
        # 4,000-odd triples each solve as one 3x3 system
        monkeypatch.setattr(oracle, "LP_GRID", SMALL_GRID)
        x = np.unique(np.concatenate((-sigma * oracle.LP_GRID, sigma * oracle.LP_GRID,
                                      (-sigma, 0.0, sigma, 1.0))))
        assert 28 <= x.size <= 30
        found = oracle.lp_min(kind, c, sigma)
        expected = brute_force_min(x / sigma, capped_exp(kind, c, x))
        assert abs(found.value - expected) <= 1e-12 * expected
        assert found.value >= SOLVE[kind](BoundQuery(c, sigma)).bound
        assert set(found.support) <= set(x.tolist()) and found.beta > 0.0 > found.gamma
        if kind is MomentKind.TRUNC and sigma < 1.0:  # the small-sigma branch weighs the cut
            assert dict(zip(found.support, found.weights)).get(1.0, 0.0) > 1e-12
        assert_is_a_law(found, sigma)
        assert_dual_meets_f_on_the_basis(found, kind, c)

    def test_cases_of_verify(self):
        # the five LPs of verify's oracle suite, whose support verify checks:
        # laws, at most 1e-3 above each bound, with beta > 0 > gamma
        for kind, c, bound in verify_lp_cases():
            found = oracle.lp_min(kind, c, bound.sigma)
            assert bound.bound <= found.value <= bound.bound * (1.0 + 1e-3)
            assert found.beta > 0.0 > found.gamma and found.pivots <= 25
            assert_is_a_law(found, bound.sigma)
            assert_dual_meets_f_on_the_basis(found, kind, c)

    def test_cases_of_verify_from_their_bounds_support(self):
        # a count, not a timing: started as verify starts them, at the grid
        # points at or outside -a and b with 0, the five LPs take 6, 5, 5, 7
        # and 8 pivots (31; 76 from {-1, 0, 1}).  Each ceiling is its count
        # plus 2 and may only go down
        for (kind, c, bound), pivots in zip(verify_lp_cases(), (6, 5, 5, 7, 8)):
            found = oracle.lp_min(kind, c, bound.sigma, start=(-bound.a, bound.b))
            assert bound.bound <= found.value <= bound.bound * (1.0 + 1e-3)
            assert found.beta > 0.0 > found.gamma and found.pivots <= pivots + 2
            assert_is_a_law(found, bound.sigma)
            assert_dual_meets_f_on_the_basis(found, kind, c)

    @pytest.mark.parametrize(
        "kind, c, bound, small", WARM_COLD_CASES,
        ids=[f"{'small-' * small}{k.value}-{c:.4g}-{b.sigma:g}" for k, c, b, small in WARM_COLD_CASES],
    )
    def test_warm_and_cold_starts_reach_one_optimum(self, monkeypatch, kind, c, bound, small):
        # pricing over the whole grid decides optimality, so a start at the
        # bound's support moves only the pivot path: the values agree to
        # 1e-14 and the supports among weights above 1e-12 are one (no case
        # here has a degenerate optimum that would let them differ by a cell)
        if small:
            monkeypatch.setattr(oracle, "LP_GRID", SMALL_GRID)
        cold = oracle.lp_min(kind, c, bound.sigma)
        warm = oracle.lp_min(kind, c, bound.sigma, start=(-bound.a, bound.b))
        assert abs(warm.value - cold.value) <= 1e-14 * cold.value
        support = [[x for x, p in zip(r.support, r.weights) if p > 1e-12] for r in (cold, warm)]
        assert support[0] == support[1]

    def test_a_start_past_the_grid_begins_at_its_ends(self):
        cold = oracle.lp_min(MomentKind.WINSOR, 1.0, 1.0)
        found = oracle.lp_min(MomentKind.WINSOR, 1.0, 1.0, start=(-1e9, 1e9))
        assert abs(found.value - cold.value) <= 1e-14 * cold.value

    def test_refuses_a_start_whose_first_basis_is_no_law(self):
        # from -0.5 and 0.5 (in units of sigma) with 0, 1 + y1 y3 > 0 makes
        # 0's weight negative: no law on them has variance sigma^2
        with pytest.raises(ParameterError, match=r"^the grid LP's basis \[.+\] is no law$"):
            oracle.lp_min(MomentKind.WINSOR, 1.0, 1.0, start=(-0.5, 0.5))
        for start in ((0.5, 1.0), (-0.5, -0.1), (-0.5, math.nan)):
            with pytest.raises(ParameterError, match=r"^start must be \(-a, b\) with a, b > 0"):
                oracle.lp_min(MomentKind.WINSOR, 1.0, 1.0, start=start)

    def test_bland_rule_after_three_degenerate_pivots(self):
        # a count, not a timing: Bland's rule, taken after the third
        # degenerate pivot, ends here in 4 pivots; Dantzig's rule alone in 6
        found = oracle.lp_min(MomentKind.TRUNC, 0.01, 1.0)
        assert found.pivots == 4 and found.support == (-1.0, -0.9862658461312831, 1.0)

    def test_least_grid_index_leaves_among_tied_ratios(self):
        # a count, not a timing: degenerate pivots tie in the ratio test
        # here; with the least grid index leaving, as Bland's rule needs,
        # the LP ends in 13 pivots (17 when the greatest leaves)
        found = oracle.lp_min(MomentKind.WINSOR, 3.0, 0.5)
        assert found.pivots == 13
        assert found.support == (-0.01834571189201247, -0.017845246728376146, 13.627162656405138)

    def test_oracle_suite_no_longer_reads_the_seed(self):
        assert repr(verify.run_suite("oracle", 1)) == repr(verify.run_suite("oracle", 7))

    @pytest.mark.parametrize(
        "name, spoil",
        [("oracle.lp_value_above_bound", lambda r: r._replace(value=r.value * (1.0 - 1e-3))),
         ("oracle.lp_support_at_extremal_law",
          lambda r: r._replace(support=tuple(x * (oracle.LP_GRID[1] / oracle.LP_GRID[0]) ** 2
                                             for x in r.support))),
         ("oracle.lp_support_at_extremal_law", lambda r: r._replace(gamma=0.0))],
        ids=["value-below-bound", "support-two-cells-out", "gamma-zero"],
    )
    def test_verify_fails_a_spoiled_lp(self, monkeypatch, name, spoil):
        # each LP check fails, alone, when lp_min answers below the bound, off
        # the extremal law or with a dual of the wrong sign
        lp_min = oracle.lp_min
        monkeypatch.setattr(oracle, "lp_min", lambda *args, **kwargs: spoil(lp_min(*args, **kwargs)))
        failed = [check.name for check in verify.run_suite("oracle") if not check.passed]
        assert failed == [name]

    @pytest.mark.parametrize(
        "kind, c, sigma, quantity",
        [(MomentKind.WINSOR, 1.0, 1.4e148, "the square of the grid's end sigma * 1e6"),
         (MomentKind.TRUNC, 1.0, 7e-155, "the square of the cut in units of sigma, 1/sigma"),
         (MomentKind.WINSOR, 710.0, 1.0, "the grid's largest F"),
         (MomentKind.TRUNC, 1e4, 1.0, "the grid's largest F"),
         # F is finite, but a basis's dual overflows on the grid; priced, it cycles
         (MomentKind.WINSOR, 700.0, 1.0, "the grid LP's pricing")],
        ids=["grid-end", "cut", "winsor-f", "trunc-f", "winsor-pricing"],
    )
    def test_refuses_a_grid_past_the_doubles(self, kind, c, sigma, quantity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExponentOverflowError, match=rf"^{re.escape(quantity)} overflows"):
                oracle.lp_min(kind, c, sigma)

    @pytest.mark.parametrize("sigma", [1.3e148, 8e-155])
    def test_answers_next_to_the_refused_sigmas(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = oracle.lp_min(MomentKind.TRUNC, 1.0, sigma)
        assert 0.0 < found.value <= 1.0

    def test_pivot_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_LP_PIVOTS", 2)
        with pytest.raises(MaxIterationsError, match=r"^the grid LP did not reach its optimum in 2 "):
            oracle.lp_min(MomentKind.WINSOR, 1.0, 1.0)


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
            moment = law._optimal_winsor_moment(a, 1.0, winsor.optimal_c_for_two_point(a, 1.0))
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

    @pytest.mark.parametrize("a", ("0.5", None, 1j, 0.0, -0.1, math.inf, math.nan))
    def test_refuses_an_a_that_is_no_positive_real(self, a):
        # each element is checked as a public argument is, so a str, None or
        # a complex is refused as a ParameterError, not a bare TypeError
        from winsor_bounds.errors import ParameterError

        with pytest.raises(ParameterError, match=r"^each of a_values must be a positive real"):
            oracle.trunc_collapse_sequence(1.0, (0.5, a))
