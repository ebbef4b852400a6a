"""Brute-force search oracles versus the analytic solvers."""

import math
import re
import warnings

import numpy as np
import pytest

from winsor_bounds import law, oracle, trunc, verify, winsor
from winsor_bounds.certificates import MomentKind, capped_exp
from winsor_bounds.winsor import BoundQuery
from winsor_bounds.errors import ExponentOverflowError, NoSignChangeError
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
        kind, sigma, refine_ends(c, sigma, kind), (c, c), oracle.REFINE_STAGES,
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
            _, _, i, j, value = oracle._search(
                MomentKind.WINSOR, 1.0, (a, a), (tilt, 2.0 * tilt), ((1, 2),), 0
            )
            assert (i, j) == (0, 0) and abs(value / cell[0] - 1.0) <= 1e-15, a
        assert below > 0

    def test_suite_cell_budget(self, monkeypatch):
        # A count, not a timing: one oracle suite sent 1,949,008 cells
        # through two_point_moment_grid when the joint scans evaluated
        # every row, and 235,108 once each skips the rows its floors rule
        # out.  The ceiling is that count plus about 6%.
        cells, moments = [], oracle.two_point_moment_grid

        def counted(kind, c, sigma, a, out=None, scratch=None):
            cells.append(np.broadcast(np.asarray(c), np.asarray(a)).size)
            return moments(kind, c, sigma, a, out=out, scratch=scratch)

        monkeypatch.setattr(oracle, "two_point_moment_grid", counted)
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
        blocked, unblocked = SEARCHES[search]
        monkeypatch.setattr(oracle, "two_point_moment_grid", moments)
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


def one_pass_probe(sigma, n, seed):
    """(support, masses, tilts) of sample_three_point: the draws in the same
    order, then the arithmetic as whole-array expressions with np.sum."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 2.0, size=(n, 3))
    masses = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    centered = points - np.sum(points * masses, axis=1, keepdims=True)
    second = np.maximum(np.sum(centered * centered * masses, axis=1, keepdims=True), 1e-300)
    target = rng.uniform(0.05, 1.0, size=(n, 1)) ** 2
    support = centered * (np.sqrt(target / second) * sigma)
    return support, masses, rng.uniform(0.05, 10.0, size=n)


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

        def recording(kind, c, x, out=None):
            seen.append(np.ndim(x))
            return capped_exp(kind, c, x, out=out)

        monkeypatch.setattr(oracle, "capped_exp", recording)
        got = oracle.two_point_moment_grid(kind, c, 1.0, a)
        out, scratch = np.full(expected.shape, 7.0), np.full(expected.shape, 7.0)
        oracle.two_point_moment_grid(kind, c, 1.0, a, out=out, scratch=scratch)
        assert got.tobytes() == out.tobytes() == expected.tobytes()
        # F at the scalar 1.0 where every b >= 1, at each b otherwise
        assert seen == ([0, 0] if shortcut else [2, 2])


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

    def test_blocks_give_the_bits_of_one_pass(self):
        # sample_three_point and probe_moments form the arithmetic in row
        # blocks, 10,000 rows being three whole blocks and a partial one
        n, sigma, seed = 10_000, 2.0, 5
        support, masses, tilts = one_pass_probe(sigma, n, seed)
        probe = oracle.sample_three_point(sigma, n, seed)
        for got, expected in ((probe.support, support), (probe.masses, masses), (probe.tilts, tilts)):
            assert got.tobytes() == expected.tobytes()
        for kind in MomentKind:
            for c in (np.float64(1.5), tilts):
                f_values = capped_exp(kind, c[:, None] if c.ndim else c, support)
                expected = np.sum(masses * f_values, axis=1)
                assert oracle.probe_moments(probe, kind, c).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [1, 7])
    def test_row_sums_give_the_bits_of_np_sum_on_the_suite_calls(self, seed):
        # the row sums are two column adds; np.sum(axis=1) adds three
        # columns left to right too.  The three probe_moments calls of
        # verify's oracle suite, at its sigma, over 12,345 rows: four whole
        # row blocks of 2,730 and a partial one
        n = 12_345
        assert n % (oracle._BLOCK // 3) != 0
        support, masses, tilts = one_pass_probe(1.0, n, seed)
        probe = oracle.sample_three_point(1.0, n, seed)
        assert probe.support.tobytes() == support.tobytes()
        for kind, c in ((MomentKind.WINSOR, 1.0), (MomentKind.WINSOR, tilts),
                        (MomentKind.TRUNC, 1.0)):
            f_values = capped_exp(kind, c[:, None] if np.ndim(c) else c, support)
            expected = np.sum(masses * f_values, axis=1)
            got = oracle.probe_moments(probe, kind, probe.tilts if np.ndim(c) else c)
            assert got.tobytes() == expected.tobytes(), kind

    @pytest.mark.parametrize(
        "sigma, error, quantity",
        [(1.4e154, ExponentOverflowError, "sigma^2 overflows"),
         (1.35e154, ExponentOverflowError, "sigma^2 overflows"),
         (1e-162, NoSignChangeError, "sigma^2 underflows"),
         (2.98e-153, NoSignChangeError, "0.05 sigma in units of 2^-511, the root of the least "
                                        "normal double underflows")],
    )
    def test_refuses_sigma_where_a_law_leaves_the_doubles(self, sigma, error, quantity):
        # at 1.4e154 the squared spreads overflowed to non-finite supports;
        # at 1e-162 (sigma u)^2 underflowed and every law was the point mass at 0;
        # below 2.9833e-153 a law's second moment had fewer than 53 bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=rf"^{re.escape(quantity)} .*\(operands {re.escape(repr(sigma))}\)$"):
                oracle.sample_three_point(sigma, 1_000, seed=1)

    @pytest.mark.parametrize("sigma", [1.34e154, 2.99e-153])
    def test_laws_at_the_edges_hold_their_fraction_of_sigma_squared(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = oracle.sample_three_point(sigma, 1_000, seed=1)
            moments = [oracle.probe_moments(probe, kind, c) for kind, c in
                       ((MomentKind.WINSOR, 1.0), (MomentKind.WINSOR, probe.tilts),
                        (MomentKind.TRUNC, 1.0))]
        assert np.all(np.isfinite(probe.support))
        assert all(np.all(np.isfinite(m)) for m in moments)
        # the fractions, drawn third, as sample_three_point draws them
        rng = np.random.default_rng(1)
        rng.normal(size=(1_000, 3))
        rng.dirichlet((1.0, 1.0, 1.0), size=1_000)
        fraction = rng.uniform(0.05, 1.0, size=1_000)
        units = probe.support / sigma
        assert np.all(np.abs(np.sum(units * probe.masses, axis=1)) <= 1e-12)
        assert np.allclose(np.sum(units * units * probe.masses, axis=1), fraction**2, rtol=1e-12, atol=0.0)
        if sigma < 1.0:  # E X^2 itself is a normal double, to the same bits
            second = np.sum(probe.support * probe.support * probe.masses, axis=1)
            assert np.allclose(second, (sigma * fraction) ** 2, rtol=1e-12, atol=0.0)

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
