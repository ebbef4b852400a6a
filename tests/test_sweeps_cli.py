"""Sweep tables, CSV round-trips, and the command-line surface."""

import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import winsor_bounds
from winsor_bounds import asymptotics, cli, law, sweeps, verify
from winsor_bounds.errors import LN_DBL_MAX, ParameterError, WinsorBoundsError
from winsor_bounds.sweeps import (
    SweepKind, SweepTable, compute_sweep, read_csv, sigma_grid, write_csv,
)
from winsor_bounds.trunc import Branch, lower_bound_trunc
from winsor_bounds.winsor import BoundQuery, lower_bound_fixed_c, lower_bound_universal

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestSigmaGrid:
    def test_log_grid_endpoints(self):
        grid = sigma_grid(0.1, 100.0, 4, "log")
        assert len(grid) == 4
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(100.0)
        ratios = [g2 / g1 for g1, g2 in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < 1e-9

    def test_linear_grid(self):
        assert sigma_grid(1.0, 3.0, 3, "linear") == (1.0, 2.0, 3.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sigma_grid(2.0, 1.0, 10)
        with pytest.raises(ParameterError):
            sigma_grid(1.0, 2.0, 1)
        with pytest.raises(ParameterError):
            sigma_grid(1.0, 2.0, 10, "cubic")

    @pytest.mark.parametrize("scale", ("log", "linear"))
    def test_refuses_points_that_do_not_increase(self, scale):
        # ends two ulps apart hold three doubles: five points repeat one,
        # and the refusal names points and both ends, not compute_sweep's
        # sigma_values
        top = 1.0000000000000004
        assert sigma_grid(1.0, top, 3, scale) == (1.0, 1.0000000000000002, top)
        with pytest.raises(ParameterError, match=r"^points=5 over \[1\.0, 1\.0000000000000004\] "):
            sigma_grid(1.0, top, 5, scale)


# Sweeps start each lane's root solve from its column's extrapolated path,
# the scalar lower_bound_* calls from their seeds; both run roots._solve to
# the same tolerance, so their bounds differ by a few ulps at most.
SWEEP_RTOL = 2e-15


class TestComputeSweep:
    def test_universal_kind(self):
        grid = sigma_grid(0.5, 5.0, 5)
        table = compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid)
        assert table.column_labels == ("bound",)
        for (sigma, value) in table.rows:
            assert value == pytest.approx(lower_bound_universal(sigma).bound, rel=SWEEP_RTOL, abs=0)
            assert 0.0 < value <= 1.0

    def test_ratio_kinds_stay_in_unit_interval(self):
        log_grid = sigma_grid(0.2, 50.0, 8)
        # a linear grid's unequal ln-sigma steps extrapolate the lanes'
        # starts, and its truncated columns cross from the small-sigma
        # branch to the large one
        linear_grid = sigma_grid(0.05, 3.0, 50, "linear")
        cases = [(kind, log_grid, (1.0, 2.0)) for kind in
                 (SweepKind.RATIO_UNIVERSAL_OVER_FIXED, SweepKind.RATIO_TRUNC_OVER_WINSOR)]
        cases.append((SweepKind.RATIO_TRUNC_OVER_WINSOR, linear_grid, (0.5, 1.0, 5.0)))
        for kind, grid, c_values in cases:
            table = compute_sweep(kind, grid, c_values)
            assert len(table.rows) == len(grid)
            for row in table.rows:
                assert all(0.0 < value <= 1.0 + 1e-12 for value in row[1:])

    def test_requires_c_where_needed(self):
        grid = sigma_grid(0.5, 5.0, 3)
        with pytest.raises(ParameterError):
            compute_sweep(SweepKind.FIXED_C_WINSOR, grid)
        with pytest.raises(ParameterError):
            compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid, c_values=(1.0,))

    @pytest.mark.parametrize("sigmas", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0, 2.0)])
    def test_requires_increasing_sigmas(self, sigmas):
        with pytest.raises(ParameterError, match="strictly increasing"):
            compute_sweep(SweepKind.UNIVERSAL_WINSOR, sigmas)


FIGURE_GRID = sigma_grid(0.05, 100.0, 200)
FIGURE_TILTS = (1.0, 1.5, 2.0, 3.0, 5.0)
WIDE_GRID = tuple(float(s) for s in np.geomspace(1e-6, 1e8, 600))
WIDE_TILTS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
SCALAR = {
    SweepKind.UNIVERSAL_WINSOR: lambda c, sigma, cut: lower_bound_universal(sigma, cut),
    SweepKind.FIXED_C_WINSOR: lambda c, sigma, cut: lower_bound_fixed_c(BoundQuery(c, sigma, cut)),
    SweepKind.TRUNC: lambda c, sigma, cut: lower_bound_trunc(BoundQuery(c, sigma, cut)),
}


def scalar_rows(kind, sigmas, tilts, cut):
    """The sweep's rows from a row-major loop over the scalar calls."""
    columns = tilts or (None,)
    return [(s, *(SCALAR[kind](c, s, cut).bound for c in columns)) for s in sigmas]


def outcome(compute):
    try:
        return compute()
    except WinsorBoundsError as exc:
        return type(exc), str(exc)


# steps in ln sigma that grow along the grid
NONUNIFORM_GRID = tuple(0.05 * 2000.0 ** ((i / 39) ** 2) for i in range(40))


def through(points, x):
    """The polynomial through points (x_i, u_i) at x, in Lagrange's form."""
    total = 0.0
    for i, (xi, ui) in enumerate(points):
        weight = 1.0
        for j, (xj, _) in enumerate(points):
            if j != i:
                weight *= (x - xj) / (xi - xj)
        total += weight * ui
    return total


class TestColumnSolverAgainstScalar:
    """Sweeps solve by warm-started Newton columns; every lane must agree
    with its scalar lower_bound_* call, and a failing lane must fail as the
    row-major scalar loop fails first."""

    @pytest.mark.parametrize("kind", list(SCALAR), ids=lambda k: k.value)
    def test_figure_grid(self, kind):
        tilts = () if kind is SweepKind.UNIVERSAL_WINSOR else FIGURE_TILTS
        table = compute_sweep(kind, FIGURE_GRID, tilts)
        for row, expected in zip(table.rows, scalar_rows(kind, FIGURE_GRID, tilts, 1.0)):
            assert row[0] == expected[0]
            assert row[1:] == pytest.approx(expected[1:], rel=SWEEP_RTOL, abs=0)

    @pytest.mark.parametrize("cut", (1.0, 2.5))
    @pytest.mark.parametrize("kind", list(SCALAR), ids=lambda k: k.value)
    def test_wide_grid(self, kind, cut):
        tilts = () if kind is SweepKind.UNIVERSAL_WINSOR else WIDE_TILTS
        table = compute_sweep(kind, WIDE_GRID, tilts, cut)
        for row, expected in zip(table.rows, scalar_rows(kind, WIDE_GRID, tilts, cut)):
            assert row[1:] == pytest.approx(expected[1:], rel=SWEEP_RTOL, abs=0)

    @pytest.mark.parametrize(
        "kind, sigmas, tilts, cut",
        [
            (SweepKind.FIXED_C_WINSOR, tuple(np.geomspace(1e-8, 10.0, 60)), (400.0,), 1.0),
            (SweepKind.FIXED_C_WINSOR, tuple(np.geomspace(1e-8, 10.0, 60)), (1.0, 400.0), 2.5),
            # c = 400 fails at the small sigma, c = 1 only at the large
            (SweepKind.FIXED_C_WINSOR, tuple(np.geomspace(1e-80, 1e160, 60)), (1.0, 400.0), 1.0),
            (SweepKind.UNIVERSAL_WINSOR, tuple(np.geomspace(1e-161, 1e-157, 30)), (), 1.0),
            (SweepKind.UNIVERSAL_WINSOR, tuple(np.geomspace(1e-158, 1e-150, 30)), (), 1.0),
            (SweepKind.TRUNC, tuple(np.geomspace(1e-2, 1e300, 60)), (1e-300,), 1.0),
            (SweepKind.TRUNC, tuple(np.geomspace(1e-2, 1e300, 60)), (1.0, 1e-300), 1.0),
            # at sigma = 1e154 a start from the last root, ~2e-299, makes
            # a/sigma^2 underflow; the extrapolated one, ~2e307, is ~10^305
            # above the root, where the solver's progress rule bisects
            (SweepKind.UNIVERSAL_WINSOR, (1e-150, 1e-149, 1e154), (), 1.0),
        ],
        ids=["fixed-400", "fixed-400-cut", "fixed-400-tiny", "universal-subnormal",
             "universal-subnormal-edge", "trunc-tiny-tilt", "trunc-tiny-tilt-second",
             "universal-jump"],
    )
    def test_failing_lanes_fail_as_the_scalar_loop(self, kind, sigmas, tilts, cut):
        sigmas = tuple(float(s) for s in sigmas)
        got = outcome(lambda: compute_sweep(kind, sigmas, tilts, cut).rows)
        expected = outcome(lambda: scalar_rows(kind, sigmas, tilts, cut))
        if isinstance(expected, tuple):  # the scalar loop raised: same class, same message
            assert got == expected
        else:
            assert [row[1:] for row in got] == [
                pytest.approx(row[1:], rel=SWEEP_RTOL, abs=0) for row in expected
            ]

    @pytest.mark.parametrize(
        "sigmas",
        [sigma_grid(0.05, 3.0, 50, "linear"), sigma_grid(0.05, 100.0, 2),
         sigma_grid(0.05, 100.0, 3)],
        ids=["linear", "two-point", "three-point"],
    )
    @pytest.mark.parametrize("kind", list(SCALAR), ids=lambda k: k.value)
    def test_unequal_or_few_steps(self, kind, sigmas):
        # a linear grid's ln-sigma steps shrink along the column; two and
        # three points give a path of no roots, one root and two roots
        tilts = () if kind is SweepKind.UNIVERSAL_WINSOR else (0.5, 1.0, 5.0)
        table = compute_sweep(kind, sigmas, tilts)
        for row, expected in zip(table.rows, scalar_rows(kind, sigmas, tilts, 1.0)):
            assert row[1:] == pytest.approx(expected[1:], rel=SWEEP_RTOL, abs=0)

    def test_jump_is_solved_once_per_lane(self, solves):
        # the lane at 1e154 answers from its extrapolated start, ~10^305
        # above the root, and is not solved again from its seed
        compute_sweep(SweepKind.UNIVERSAL_WINSOR, (1e-150, 1e-149, 1e154))
        assert len(solves.equations) == 3

    @pytest.mark.parametrize("kind", list(SCALAR), ids=lambda k: k.value)
    def test_adjacent_sigmas_with_one_logarithm(self, kind):
        # 1e100 and its next two doubles share one ln sigma: the third lane
        # starts from the last root, not from a line through the last two
        sigmas = (1e100, math.nextafter(1e100, math.inf))
        sigmas += (math.nextafter(sigmas[1], math.inf),)
        assert len({math.log(s) for s in sigmas}) == 1
        tilts = () if kind is SweepKind.UNIVERSAL_WINSOR else (1e-90, 1.0)
        table = compute_sweep(kind, sigmas, tilts)
        for row, expected in zip(table.rows, scalar_rows(kind, sigmas, tilts, 1.0)):
            assert row[1:] == pytest.approx(expected[1:], rel=SWEEP_RTOL, abs=0)

    @pytest.mark.parametrize("c", (0.5, 1.0, 5.0))
    def test_truncated_column_crossing_the_threshold(self, c, solves):
        # sigma^2 passes A_c inside the grid: the small-sigma lanes solve no
        # root, so the first large-sigma lane starts from its seed, as the
        # scalar call does, and the path grows again from there
        sigmas = sigma_grid(0.05, 3.0, 50, "linear")
        rows = compute_sweep(SweepKind.TRUNC, sigmas, (c,)).rows
        sweep_starts = [start for _, start, _ in solves.equations]
        solves.equations.clear()
        scalar = [lower_bound_trunc(BoundQuery(c, sigma)) for sigma in sigmas]
        first_large = [s.branch for s in scalar].index(Branch.LARGE_SIGMA)
        assert 0 < first_large < len(sigmas) - 3
        assert len(sweep_starts) == len(solves.equations) == len(sigmas) - first_large
        assert sweep_starts[0] == solves.equations[0][1]
        assert [row[1] for row in rows] == pytest.approx(
            [s.bound for s in scalar], rel=SWEEP_RTOL, abs=0
        )

    @pytest.mark.parametrize(
        "kind, slope",
        [(SweepKind.UNIVERSAL_WINSOR, 4.0), (SweepKind.UNIVERSAL_WINSOR, -4.0),
         (SweepKind.FIXED_C_WINSOR, 4.0)],
        ids=["universal-overflow", "universal-underflow", "fixed-overflow"],
    )
    def test_extrapolation_leaving_the_doubles(self, kind, slope, lanes):
        # In a sweep, two roots an ulp of sigma apart that a rounding moves
        # by an ulp or two make a line of several decades per decade of
        # sigma.  Here the path is built directly: the root at sigma = 0.5,
        # then one on a line of four decades per decade, which leaves the
        # doubles at sigma = 1e150.  The lane there starts from the last root
        # and answers as the scalar call does.
        x1, x2, x3 = (math.log(sigma) for sigma in (0.5, 0.6, 1e150))
        a1 = lanes[kind](1.0, 0.5)[0]  # the universal lane reads no c
        a2 = a1 * math.exp(slope * (x2 - x1))
        path = sweeps._extend(sweeps._extend(None, x1, a1), x2, a2)
        line = math.log(a2) + (math.log(a2) - math.log(a1)) / (x2 - x1) * (x3 - x2)
        assert not math.log(math.ulp(0.0)) < line < LN_DBL_MAX
        assert sweeps._start(path, x3) == a2
        got = lanes[kind](1.0, 1e150, a2)
        expected = SCALAR[kind](1.0, 1e150, 1.0)
        assert got[:4] == pytest.approx(expected[4:8], rel=SWEEP_RTOL, abs=0)

    @pytest.mark.parametrize(
        "kind, sigmas, tilt, cut",
        [
            # five lanes: the seed, then paths of one, two, three and four roots
            (SweepKind.UNIVERSAL_WINSOR, sigma_grid(0.5, 5.0, 5), None, 1.0),
            (SweepKind.FIXED_C_WINSOR, sigma_grid(0.5, 5.0, 5), 1.0, 1.0),
            # the small-sigma lanes solve no root; the first large one starts
            # from its seed and the path grows again from there
            (SweepKind.TRUNC, sigma_grid(0.05, 3.0, 50, "linear"), 1.0, 1.0),
            (SweepKind.UNIVERSAL_WINSOR, NONUNIFORM_GRID, None, 1.0),
            (SweepKind.FIXED_C_WINSOR, NONUNIFORM_GRID, 2.0, 1.0),
            # the abscissae are ln(sigma/cut), the tilt c*cut
            (SweepKind.FIXED_C_WINSOR, sigma_grid(0.2, 50.0, 12), 1.5, 2.5),
            (SweepKind.TRUNC, sigma_grid(0.2, 50.0, 12), 1.5, 2.5),
        ],
        ids=["universal-few-roots", "fixed-few-roots", "trunc-restart", "universal-nonuniform",
             "fixed-nonuniform", "fixed-cut", "trunc-cut"],
    )
    def test_lanes_start_on_the_path_polynomial(self, kind, sigmas, tilt, cut, solves, lanes):
        # Each lane starts on the polynomial in (ln sigma, ln a) through its
        # column's last roots, at most four, since the column last had none,
        # and from its seed where it has none; it answers as the scalar call.
        tilts = () if tilt is None else (tilt,)
        rows = compute_sweep(kind, sigmas, tilts, cut).rows
        starts = [start for _, start, _ in solves.equations]
        path, expected = [], []
        for sigma in sigmas:
            del solves.equations[:]
            x = math.log(sigma / cut)
            root, *_, branch = lanes[kind](tilt and tilt * cut, sigma / cut)
            if branch is Branch.SMALL_SIGMA:  # a truncated lane that solves no root
                path = []
                continue
            expected.append(math.exp(through(path[-4:], x)) if path else solves.equations[0][1])
            path.append((x, math.log(root)))
        assert len(expected) > 4
        assert starts == pytest.approx(expected, rel=1e-9, abs=0)
        assert [row[1:] for row in rows] == [
            pytest.approx(row[1:], rel=SWEEP_RTOL, abs=0)
            for row in scalar_rows(kind, sigmas, tilts, cut)
        ]

    @pytest.mark.parametrize(
        "kind, sigmas, tilts, cut, message",
        [
            (SweepKind.FIXED_C_WINSOR, (1.0, 2.0), (1e-9, 1e300), 1e10, "c*cut overflows to inf"),
            # the first column's lane fails first, in the row where the
            # second's c*cut overflows
            (SweepKind.FIXED_C_WINSOR, (2e-150, 1.0), (50.0, 1e308), 2.0,
             "the root's seed underflows to 0.0"),
            # the first lane reads c*cut before sigma^2, and sigma^2 before
            # the next lane's c*cut
            (SweepKind.FIXED_C_WINSOR, (1e-200, 1.0), (1e-300, 1.0), 1e-30,
             "c*cut underflows to 0.0"),
            (SweepKind.FIXED_C_WINSOR, (1e-200, 1.0), (1.0, 1e-300), 1e-30,
             "sigma^2 underflows to 0.0"),
            (SweepKind.TRUNC, (1.0, 1e150, 1e160), (1.0, 2.0), 1.0, "sigma^2 overflows to inf"),
            (SweepKind.UNIVERSAL_WINSOR, (1.0, 1e150, 1e160), (), 1.0, "sigma^2 overflows to inf"),
            (SweepKind.UNIVERSAL_WINSOR, (1.0, 1e300), (), 1e-10, "sigma/cut overflows to inf"),
        ],
        ids=["c-cut", "c-cut-after-a-failed-lane", "c-cut-before-sigma2", "sigma2-before-c-cut",
             "trunc-sigma2", "universal-sigma2", "sigma-cut"],
    )
    def test_inputs_leaving_the_doubles_fail_as_the_scalar_loop(
        self, kind, sigmas, tilts, cut, message
    ):
        # c*cut is formed once per column and sigma/cut and sigma^2 once per
        # row, but a sweep raises the scalar loop's first error, at its lane
        expected = outcome(lambda: scalar_rows(kind, sigmas, tilts, cut))
        assert isinstance(expected, tuple) and expected[1].startswith(message)
        assert outcome(lambda: compute_sweep(kind, sigmas, tilts, cut).rows) == expected

    def test_figure_sweeps_f_evaluation_budget(self, solves):
        # A count, not a timing: the three figure sweeps made 3,061 solves
        # and 3,451 evaluations of the equations handed to roots._solve when
        # a certified second-order step came to replace the evaluation that
        # only confirmed |f| <= TOL (6,180 before, once lanes started from
        # the cubic through the column's last four roots; 8,968 from the line
        # through its last two, 11,933 from its last root).  The ceiling is
        # that count plus 5%; a change that needs more evaluations is a
        # regression, not a new ceiling.
        compute_sweep(SweepKind.UNIVERSAL_WINSOR, FIGURE_GRID)
        compute_sweep(SweepKind.RATIO_UNIVERSAL_OVER_FIXED, FIGURE_GRID, FIGURE_TILTS)
        compute_sweep(SweepKind.RATIO_TRUNC_OVER_WINSOR, FIGURE_GRID, FIGURE_TILTS)
        evaluations = len(solves.points)
        assert evaluations <= 3_623, f"{evaluations} evaluations in {len(solves.equations)} solves"

    def test_figure_sweeps_exp_budget(self):
        # A count, not a timing: the three figure sweeps called math.exp
        # 11,895 times once a certified second-order step came to replace
        # the evaluation that only confirmed |f| <= TOL (14,624 before, when
        # the support map's slope came to reuse the e^z - 1 that forms the
        # map; 25,368 before that).  The ceiling is that count plus 5%; a
        # change that needs more calls is a regression, not a new ceiling.
        asymptotics.t_star()  # solved, and cached, at the first universal seed
        calls = [0]

        def count(frame, event, arg):
            if event == "c_call" and arg is math.exp:
                calls[0] += 1

        sys.setprofile(count)
        try:
            compute_sweep(SweepKind.UNIVERSAL_WINSOR, FIGURE_GRID)
            compute_sweep(SweepKind.RATIO_UNIVERSAL_OVER_FIXED, FIGURE_GRID, FIGURE_TILTS)
            compute_sweep(SweepKind.RATIO_TRUNC_OVER_WINSOR, FIGURE_GRID, FIGURE_TILTS)
        finally:
            sys.setprofile(None)
        assert calls[0] <= 12_490, f"{calls[0]} calls"

    def test_ratio_kinds_divide_the_scalar_bounds(self):
        grid = FIGURE_GRID[::10]
        fixed = compute_sweep(SweepKind.FIXED_C_WINSOR, grid, FIGURE_TILTS).rows
        trunc_rows = compute_sweep(SweepKind.TRUNC, grid, FIGURE_TILTS).rows
        universal = compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid).rows
        over_fixed = compute_sweep(SweepKind.RATIO_UNIVERSAL_OVER_FIXED, grid, FIGURE_TILTS).rows
        over_winsor = compute_sweep(SweepKind.RATIO_TRUNC_OVER_WINSOR, grid, FIGURE_TILTS).rows
        for f, t, u, uf, tw in zip(fixed, trunc_rows, universal, over_fixed, over_winsor):
            assert uf[1:] == tuple(u[1] / value for value in f[1:])
            assert tw[1:] == tuple(tv / fv for tv, fv in zip(t[1:], f[1:]))

    def test_figure_sweeps_never_import_numpy(self):
        script = (
            "import sys\n"
            "from winsor_bounds.sweeps import SweepKind, compute_sweep, sigma_grid\n"
            "grid = sigma_grid(0.05, 100.0, 200)\n"
            "tilts = (1.0, 1.5, 2.0, 3.0, 5.0)\n"
            "compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid)\n"
            "compute_sweep(SweepKind.RATIO_UNIVERSAL_OVER_FIXED, grid, tilts)\n"
            "compute_sweep(SweepKind.RATIO_TRUNC_OVER_WINSOR, grid, tilts)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        src = str(Path(winsor_bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestCsvRoundTrip:
    def test_bitwise_round_trip_and_recompute(self, tmp_path):
        grid = sigma_grid(0.3, 30.0, 7)
        table = compute_sweep(SweepKind.FIXED_C_WINSOR, grid, c_values=(1.0, 2.5))
        path = str(tmp_path / "sweep.csv")
        write_csv(table, path)
        header, rows = read_csv(path)
        assert header == ("sigma", "c=1.0", "c=2.5")
        assert len(rows) == 7
        for row, original in zip(rows, table.rows):
            assert row == original  # parse is bitwise
            sigma = row[0]
            for value, c in zip(row[1:], (1.0, 2.5)):
                scalar = lower_bound_fixed_c(BoundQuery(c, sigma)).bound
                assert value == pytest.approx(scalar, rel=SWEEP_RTOL, abs=0)

    def test_cells_are_written_as_repr(self, tmp_path):
        # each float cell is written as its repr: the shortest
        # decimal that reads back to the same double
        values = (5e-324, 1e-05, 0.1 + 0.2, 1e16, 1.0, 1.7976931348623157e308)
        table = SweepTable(SweepKind.FIXED_C_WINSOR, (1.0,), values,
                           tuple((value, value) for value in values))
        path = str(tmp_path / "cells.csv")
        write_csv(table, path)
        expected = "sigma,c=1.0\n" + "".join(f"{value!r},{value!r}\n" for value in values)
        assert Path(path).read_bytes() == expected.encode("utf-8")
        _, rows = read_csv(path)
        assert [tuple(map(float.hex, row)) for row in rows] == [
            tuple(map(float.hex, row)) for row in table.rows
        ]

    def test_rows_are_the_bytes_csv_writer_writes(self, tmp_path):
        # each line is its cells' reprs joined by commas: csv.writer, which
        # formats a float with str (its repr), quotes none of them
        values = (5e-324, 1e-05, 1e16, 1.7976931348623157e308, math.inf, -0.0)
        table = SweepTable(SweepKind.FIXED_C_WINSOR, (1e-05, 1.7976931348623157e308), values,
                           tuple((value, value, -value) for value in values))
        path = tmp_path / "cells.csv"
        write_csv(table, str(path))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("sigma", *table.column_labels))
        writer.writerows(table.rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        "text, reason",
        [("", "it has no header row"),
         ("sigma,bound\n0.5,0.9\n1.0,x\n", "could not convert string to float: 'x'"),
         ("sigma,bound\n0.5,0.9,0.8\n1.0\n", "line 2 has 3 cells, the header 2"),
         ('sigma,"bound\n0.5,0.9\n', "unexpected end of data")],
        ids=["empty", "non-numeric-cell", "row-wider-than-header", "unclosed-quote"],
    )
    def test_read_csv_refuses_a_file_that_is_no_sweep(self, tmp_path, text, reason):
        # refused as invalid input, not with a bare StopIteration or ValueError
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParameterError) as raised:
            read_csv(str(path))
        assert str(raised.value) == f"{str(path)!r} is no sweep CSV: {reason}"

    def test_read_csv_reads_a_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("sigma,c=1.0\n", encoding="utf-8")
        assert read_csv(str(path)) == (("sigma", "c=1.0"), ())

    def test_file_format(self, tmp_path):
        grid = sigma_grid(0.5, 2.0, 3)
        table = compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid)
        path = str(tmp_path / "fmt.csv")
        write_csv(table, path)
        raw = Path(path).read_bytes().decode("utf-8")
        assert "\r" not in raw
        assert raw.startswith("sigma,bound\n")
        assert raw.endswith("\n") and not raw.endswith("\n\n")

    def test_no_partial_file_on_failure(self, tmp_path):
        grid = sigma_grid(0.5, 2.0, 3)
        table = compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid)
        path = tmp_path / "target.csv"
        write_csv(table, str(path))
        before = path.read_text()

        # a failing write must leave the existing file untouched
        class Boom:
            def __repr__(self):
                raise RuntimeError("mid-write failure")

        broken = table.__class__(
            kind=table.kind,
            c_values=table.c_values,
            sigma_values=table.sigma_values,
            rows=tuple([(0.5, Boom())]),
        )
        with pytest.raises(RuntimeError):
            write_csv(broken, str(path))
        assert path.read_text() == before
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


# Every outcome of `bound` through cli.main, above all at the edges of the
# doubles: (arguments, exit code, stdout line or stderr prefix).  Exit 0
# prints that line, with a bound in (0, 1], and nothing on stderr; any other
# exit prints nothing on stdout and an error line that starts with the
# prefix, never a traceback.
BOUND_OUTCOMES = [
    # each kind, both truncated branches and cut != 1
    ("--kind universal-winsor --sigma 0.5", 0,
     "kind=universal-winsor sigma=0.5 cut=1.0 bound=0.9628089920021728 "
     "a=0.04600518755148301 b=5.434169781836724 c_sigma=1.6182584704341085"),
    ("--kind universal-winsor --sigma 3 --cut 2", 0,
     "kind=universal-winsor sigma=3.0 cut=2.0 bound=0.7836480671083161 "
     "a=0.25855487873494265 b=8.70221444286335 c_sigma=1.7190966905706577"),
    ("--kind fixed-winsor --c 1 --sigma 0.5", 0,
     "kind=fixed-winsor c=1.0 sigma=0.5 cut=1.0 bound=0.9666471012757268 "
     "a=0.0667537518834264 b=3.7451078470702397"),
    ("--kind fixed-winsor --c 2 --sigma 3 --cut 0.5", 0,
     "kind=fixed-winsor c=2.0 sigma=3.0 cut=0.5 bound=0.3688921294709884 "
     "a=1.5792598672126366 b=22.795488410364857"),
    ("--kind trunc --c 1 --sigma 3", 0,
     "kind=trunc c=1.0 sigma=3.0 cut=1.0 branch=large-sigma bound=0.3782227133508496 "
     "A_c=0.583073876036691 a=1.544530637494661 b=5.827012932937764"),
    ("--kind trunc --c 2 --sigma 3 --cut 2", 0,
     "kind=trunc c=2.0 sigma=3.0 cut=2.0 branch=large-sigma bound=0.21553204934348869 "
     "A_c=0.3234724509862722 a=0.5750369738734217 b=3.9127918763972813"),
    ("--kind trunc --c 1e-320 --sigma 1", 0,
     "kind=trunc c=1e-320 sigma=1.0 cut=1.0 branch=small-sigma bound=1.0 "
     "A_c=1.0 a=1.0 b=1.0"),
    ("--kind trunc --c 1 --sigma 0.5", 0,
     "kind=trunc c=1.0 sigma=0.5 cut=1.0 branch=small-sigma bound=0.823040626457124 "
     "A_c=0.583073876036691 a=0.25 b=1.0"),
    # the smallest tilt, directly and through cut, where A_c's seed must
    # not underflow to 0.0 (it did as ln(1 + c/2)/c, refused as a start)
    ("--kind trunc --c 5e-324 --sigma 2", 0,
     "kind=trunc c=5e-324 sigma=2.0 cut=1.0 branch=large-sigma bound=1.0 A_c=1.0 a=2.0 b=2.0"),
    ("--kind trunc --c 1e-323 --sigma 2 --cut 0.5", 0,
     "kind=trunc c=1e-323 sigma=2.0 cut=0.5 branch=large-sigma bound=1.0 A_c=1.0 a=4.0 b=4.0"),
    # a threshold A_c near 7e-298, and a subnormal truncated bound whose
    # root lies near 7e-298
    ("--kind trunc --c 1e300 --sigma 1e-150", 0,
     "kind=trunc c=1e+300 sigma=1e-150 cut=1.0 branch=small-sigma "
     "bound=0.36787944117144233 A_c=6.9008238071765375e-298 a=1e-300 b=1.0"),
    ("--kind trunc --c 1e300 --sigma 1e-140", 0,
     "kind=trunc c=1e+300 sigma=1e-140 cut=1.0 branch=large-sigma "
     "bound=5.33690126e-315 A_c=6.9008238071765375e-298 a=7.295416660952395e-298 "
     "b=1.37072362892218e+17"),
    # ell1 once overflowed in sigma^2-sized products
    ("--kind universal-winsor --sigma 1e153", 0,
     "kind=universal-winsor sigma=1e+153 cut=1.0 bound=8.99316484829178e-301 "
     "a=348.3688882570524 b=2.8705203986589235e+303 c_sigma=2.0"),
    # a root near 5e-305, whose seed once underflowed in c*sigma^2
    ("--kind fixed-winsor --c 1e-300 --sigma 1e-152", 0,
     "kind=fixed-winsor c=1e-300 sigma=1e-152 cut=1.0 bound=1.0 "
     "a=5.000000000000001e-305 b=2.0"),
    # a seed ln(1 + sigma^2)/c that once overflowed at a tiny tilt
    ("--kind trunc --c 1e-310 --sigma 1e5", 0,
     "kind=trunc c=1e-310 sigma=100000.0 cut=1.0 branch=large-sigma bound=1.0 A_c=1.0 "
     "a=100000.0 b=100000.0"),
    # e^709.5 is a double just below ln(DBL_MAX) ~ 709.78 (once refused at 709)
    ("--kind fixed-winsor --c 709.5 --sigma 1", 0,
     "kind=fixed-winsor c=709.5 sigma=1.0 cut=1.0 bound=1.0 a=2.618107614395963e-306 "
     "b=3.81955269715189e+305"),
    # a subnormal tilt, where the support map is a + 2
    ("--kind fixed-winsor --c 1e-320 --sigma 1", 0,
     "kind=fixed-winsor c=1e-320 sigma=1.0 cut=1.0 bound=1.0 a=0.41421356237309503 "
     "b=2.414213562373095"),
    # the extremal mass a/(a+b) underflows to zero; the law is still valid
    ("--kind fixed-winsor --c 500 --sigma 1", 0,
     "kind=fixed-winsor c=500.0 sigma=1.0 cut=1.0 bound=1.0 a=1.7811441016853215e-215 "
     "b=5.61436887141135e+214"),
    ("--kind universal-winsor --sigma -1", 2, "error: sigma must be a positive real, got -1.0\n"),
    ("--kind trunc --sigma 1", 2, "error: trunc requires --c\n"),
    ("--kind universal-winsor --c 1 --sigma 1", 2, "error: universal-winsor takes no --c\n"),
    # valid input whose answer or an intermediate leaves the doubles: exit 3
    ("--kind fixed-winsor --c 1e200 --sigma 1 --cut 1e200", 3, "error: c*cut overflows to inf"),
    ("--kind fixed-winsor --c 1e-200 --sigma 1e-200 --cut 1e-200", 3,
     "error: c*cut underflows to 0.0"),
    ("--kind fixed-winsor --c 1 --sigma 1e-320 --cut 1e10", 3,
     "error: sigma/cut underflows to 0.0"),
    ("--kind universal-winsor --sigma 1e300 --cut 1e-10", 3, "error: sigma/cut overflows to inf"),
    ("--kind universal-winsor --sigma 1e160", 3, "error: sigma^2 overflows to inf"),
    # sigma^2 = 0.0 leaves no positive double for the lower atom
    ("--kind universal-winsor --sigma 1e-170", 3, "error: sigma^2 underflows to 0.0"),
    ("--kind fixed-winsor --c 1 --sigma 1e-170", 3, "error: sigma^2 underflows to 0.0"),
    ("--kind trunc --c 1 --sigma 1e-170", 3, "error: sigma^2 underflows to 0.0"),
    ("--kind trunc --c 1.6e14 --sigma 1e150", 3, "error: b = sigma^2/a overflows to inf"),
    ("--kind fixed-winsor --c 100 --sigma 1e-150", 3, "error: the root's seed underflows to 0.0"),
    ("--kind trunc --c 5.080218046912991e24 --sigma 1e140", 3,
     "error: the truncated bound underflows to 0.0"),
    ("--kind fixed-winsor --c 709.9 --sigma 1", 3, "error: e^(c*min(1, b)) overflows to inf"),
    # the root of ell1 lies below the smallest positive double
    ("--kind universal-winsor --sigma 4.466835921509689e-162", 3,
     "error: f > 0 at the smallest positive double"),
]


def _row_id(argv):
    """'--kind trunc --c 1 --sigma 0.5' -> 'trunc,c=1,sigma=0.5'."""
    return argv.removeprefix("--kind ").replace(" --", ",").replace(" ", "=")


class TestCli:
    def test_bound_universal(self, capsys):
        code = cli.main(["bound", "--kind", "universal-winsor", "--sigma", "1"])
        assert code == 0
        out = capsys.readouterr().out
        fields = dict(pair.split("=", 1) for pair in out.split())
        assert 0.878 <= float(fields["bound"]) < 0.879
        assert "c_sigma" in fields
        assert cli.main(["bound", "--kind", "universal-winsor", "--sigma", "10"]) == 0
        fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
        assert 0.194 <= float(fields["bound"]) < 0.195

    def test_bound_trunc_small_branch(self, capsys):
        code = cli.main(["bound", "--kind", "trunc", "--c", "1", "--sigma", "0.5"])
        assert code == 0
        fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
        assert fields["branch"] == "small-sigma"
        assert abs(float(fields["bound"]) - 0.823040626457124) < 1e-12

    def test_bound_fixed_winsor(self, capsys):
        code = cli.main(["bound", "--kind", "fixed-winsor", "--c", "1", "--sigma", "1"])
        assert code == 0
        fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
        assert abs(float(fields["a"]) - 0.2196629301855436) < 1e-9

    @pytest.mark.parametrize(
        "argv, code, expected", BOUND_OUTCOMES, ids=[_row_id(row[0]) for row in BOUND_OUTCOMES]
    )
    def test_bound_outcome(self, argv, code, expected, capsys):
        assert cli.main(["bound", *argv.split()]) == code
        captured = capsys.readouterr()
        if code == cli.EXIT_OK:
            assert captured.err == ""
            assert captured.out == expected + "\n"
            fields = dict(pair.split("=", 1) for pair in captured.out.split())
            assert 0.0 < float(fields["bound"]) <= 1.0
        else:
            assert captured.out == ""
            assert captured.err.startswith(expected)
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("raw", ["1,2", "abc"])
    def test_bound_takes_one_real_c(self, raw, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bound", "--kind", "trunc", "--c", raw, "--sigma", "1"])
        assert excinfo.value.code == 2
        assert "--c" in capsys.readouterr().err

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "fig.csv")
        code = cli.main([
            "sweep", "--kind", "ratio-trunc-over-winsor", "--c", "1,2",
            "--sigma-min", "0.5", "--sigma-max", "5", "--points", "4",
            "--scale", "log", "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ("sigma", "c=1.0", "c=2.0")
        assert len(rows) == 4

    @pytest.mark.parametrize("raw", ["1,x", ","])
    def test_sweep_refuses_a_bad_tilt_list(self, raw, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        code = cli.main([
            "sweep", "--kind", "fixed-winsor", "--c", raw,
            "--sigma-min", "0.5", "--sigma-max", "5", "--points", "3", "--out", out,
        ])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --c expects")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("out", ("missing/x.csv", "directory"))
    def test_sweep_refuses_an_unwritable_out(self, out, tmp_path, capsys):
        # a missing directory or a directory: exit 2, and no file is left behind
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / out)
        code = cli.main([
            "sweep", "--kind", "universal-winsor",
            "--sigma-min", "0.5", "--sigma-max", "2", "--points", "3", "--out", out,
        ])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out!r}: ")
        assert sorted(os.listdir(tmp_path)) == ["directory"]
        assert os.listdir(tmp_path / "directory") == []

    def test_sweep_bad_range_exit_code(self, tmp_path):
        out = str(tmp_path / "x.csv")
        code = cli.main([
            "sweep", "--kind", "universal-winsor",
            "--sigma-min", "5", "--sigma-max", "0.5", "--points", "4", "--out", out,
        ])
        assert code == 2
        assert not os.path.exists(out)

    def test_sweep_refuses_a_grid_that_does_not_increase(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        code = cli.main([
            "sweep", "--kind", "fixed-winsor", "--c", "1", "--sigma-min", "1",
            "--sigma-max", "1.0000000000000004", "--points", "5", "--out", out,
        ])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: points=5 over [1.0, 1.0000000000000004] ")
        assert "sigma_values" not in err
        assert not os.path.exists(out)

    def test_verify_roots_suite(self, capsys):
        assert cli.main(["verify", "--suite", "roots"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_unknown_suite_exit_code(self, capsys):
        # run_suite, not argparse, refuses it and names the valid suites
        assert cli.main(["verify", "--suite", "bogus"]) == 2
        assert "suite must be one of roots, " in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ("-1", "-5"))
    def test_verify_refuses_a_negative_seed(self, seed, capsys, monkeypatch):
        # verify takes no --seed, which selected nothing: argparse refuses it,
        # with any value, before run_suite builds its Grid, so no suite
        # solves: exit 2 with the usage and the error line, no traceback
        monkeypatch.setattr(verify, "Grid", None)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--seed", seed])
        assert excinfo.value.code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: --seed {seed}\n")
        assert "Traceback" not in err

    def test_collapse_demo(self, capsys):
        assert cli.main(["collapse-demo", "--sigma", "1", "--steps", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7  # header + 6 rows
        last = lines[-1].split()
        assert float(last[2]) < 1e-2
        assert abs(float(last[3]) - 0.8781357139504142) < 1e-10

    def test_collapse_demo_needs_a_step(self, capsys):
        assert cli.main(["collapse-demo", "--sigma", "1", "--steps", "0"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --steps must be >= 1, got 0\n"

    def test_collapse_demo_single_step(self, capsys):
        assert cli.main(["collapse-demo", "--sigma", "1", "--steps", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_collapse_demo_rejects_steps_past_the_doubles(self, capsys):
        # a = 0.5 * 0.5^k keeps its tilt 1/a^2 a double for the first 511 k
        # only, and at sigma = 1e100 keeps b = sigma^2/a one for the first 359
        a_values = [0.5 * 0.5**k for k in range(520)]
        assert sum(1.0 / (a * a) < math.inf for a in a_values) == 511
        assert sum(1e100 * 1e100 / a < math.inf for a in a_values) == 359
        for sigma, limit in (("1", "511 at sigma=1.0"), ("1e100", "359 at sigma=1e+100")):
            for steps in (int(limit.split()[0]) + 1, 1100):
                argv = ["collapse-demo", "--sigma", sigma, "--steps", str(steps)]
                assert cli.main(argv) == cli.EXIT_VALIDATION
                assert capsys.readouterr().err.startswith(f"error: --steps must be <= {limit}")

    @pytest.mark.parametrize("sigma, steps", [("1", "511"), ("1e100", "359")])
    def test_collapse_demo_prints_doubles_up_to_the_limit(self, sigma, steps, capsys):
        assert cli.main(["collapse-demo", "--sigma", sigma, "--steps", steps]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == int(steps)
        assert all(math.isfinite(float(x)) for row in rows for x in row.split())

    def test_collapse_demo_first_tilt_past_the_doubles_exit_code(self, capsys):
        # sigma^2 = 1e-200 is a double, but the first tilt 1/a^2 = 4e400 is not
        assert cli.main(["collapse-demo", "--sigma", "1e-100"]) == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: the tilt 1/a^2 overflows to inf")

    def test_collapse_demo_underflowing_sigma_squared_exit_code(self, capsys):
        assert cli.main(["collapse-demo", "--sigma", "1e-200"]) == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: sigma^2 underflows to 0.0")

    def test_collapse_demo_sigma_ten_floor(self, capsys):
        assert cli.main(["collapse-demo", "--sigma", "10", "--steps", "3"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert 0.194 <= float(last[3]) < 0.195

    def test_collapse_demo_small_sigma_stays_in_regime(self, capsys):
        # the start point must keep b = sigma^2/a at or above the cut, or
        # the truncated moment explodes instead of collapsing
        assert cli.main(["collapse-demo", "--sigma", "0.01", "--steps", "4"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
        moments = [float(row[2]) for row in rows]
        assert all(math.isfinite(m) for m in moments)
        assert all(m2 < m1 for m1, m2 in zip(moments, moments[1:]))
        assert moments[-1] < 1e-5

    def test_constants(self, capsys):
        assert cli.main(["constants"]) == 0
        fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
        assert abs(float(fields["t_star"]) - 0.20318786997997995) < 1e-12
        assert abs(float(fields["minus_ln_t_star"]) - 1.59362426004004) < 1e-12
        assert abs(float(fields["large_sigma_universal_coeff"]) - math.exp(2.0)) < 1e-15

    @pytest.mark.parametrize("sigma", (1e100, 1e150))
    def test_huge_sigma_is_valid(self, sigma, capsys):
        # b = sigma^2/a squares past the double range; the bounds stay exact
        bounds = (
            lower_bound_universal(sigma).bound,
            lower_bound_fixed_c(BoundQuery(1.0, sigma)).bound,
            lower_bound_trunc(BoundQuery(1.0, sigma)).bound,
        )
        assert all(0.0 < bound <= 1.0 for bound in bounds)
        for kind in ("universal-winsor", "fixed-winsor", "trunc"):
            tilt = [] if kind == "universal-winsor" else ["--c", "1"]
            code = cli.main(["bound", "--kind", kind, *tilt, "--sigma", repr(sigma)])
            assert code == 0
            fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
            assert 0.0 < float(fields["bound"]) <= 1.0

    def test_tiny_trunc_threshold_is_printed(self, capsys):
        code = cli.main(["bound", "--kind", "trunc", "--c", "1e300", "--sigma", "1e-150"])
        assert code == 0
        fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
        assert fields["A_c"].startswith("6.90082380717")
        assert fields["A_c"].endswith("e-298")
        assert 0.0 < float(fields["bound"]) <= 1.0

    def test_runtime_never_imports_scipy(self):
        script = (
            "import sys\n"
            "from winsor_bounds import cli\n"
            "code = cli.main(['verify', '--suite', 'asymptotics'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(winsor_bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_runtime_only_job_needs_no_test_extras(self):
        # CI's runtime-only job installs the package and pytest alone, then
        # runs the test modules its pytest step lists: each must import with
        # hypothesis, mpmath and scipy refused
        workflow = (REPO_ROOT / ".github" / "workflows" / "tests.yml").read_text()
        job = workflow.split("\n  runtime-only:\n", 1)[1]
        step = next(line for line in job.splitlines() if "python -m pytest" in line)
        modules = [Path(word).stem for word in step.split() if word.startswith("tests/")]
        assert modules
        script = (
            "import importlib, sys\n"
            "class RefuseTestExtras:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] in ('hypothesis', 'mpmath', 'scipy'):\n"
            "            raise ImportError(f'{name} is a test extra')\n"
            "sys.meta_path.insert(0, RefuseTestExtras())\n"
            f"for module in {['conftest', *modules]!r}:\n"
            "    importlib.import_module(module)\n"
        )
        src = str(Path(winsor_bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, str(REPO_ROOT / "tests")))}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_bound_and_sweep_never_import_numpy(self, tmp_path):
        # run without site (python -S), so only the interpreter's own start-up
        # modules precede the package's: bound and constants load none of the
        # six below, and sweep none but tempfile and random (its write_csv
        # loads tempfile, which loads random).  argparse loads shutil itself.
        # law.minorant, built for a bound of each kind (the truncated one on
        # both branches) and evaluated at a float, loads no NumPy either
        out = str(tmp_path / "ratio.csv")
        script = (
            "import sys\n"
            "from winsor_bounds import cli\n"
            "codes = [cli.main(['bound', '--kind', kind, '--c', '1', '--sigma', '2'])\n"
            "         for kind in ('fixed-winsor', 'trunc')]\n"
            "codes.append(cli.main(['bound', '--kind', 'universal-winsor', '--sigma', '2']))\n"
            "codes.append(cli.main(['constants']))\n"
            "names = ('dataclasses', 'inspect', 'typing', 'tempfile', 'random', 'csv')\n"
            "print('loaded:', *(name for name in names if name in sys.modules))\n"
            "codes.append(cli.main(['sweep', '--kind', 'ratio-trunc-over-winsor', '--c', '1,2',\n"
            f"    '--sigma-min', '0.1', '--sigma-max', '10', '--points', '5', '--out', {out!r}]))\n"
            "print('loaded:', *(name for name in names if name in sys.modules))\n"
            "from winsor_bounds import BoundQuery, law, lower_bound_fixed_c, lower_bound_trunc\n"
            "from winsor_bounds import lower_bound_universal\n"
            "bounds = (lower_bound_universal(2.0), lower_bound_fixed_c(BoundQuery(1.0, 2.0)),\n"
            "          lower_bound_trunc(BoundQuery(1.0, 0.5)), lower_bound_trunc(BoundQuery(1.0, 2.0)))\n"
            "print('G:', *(type(law.minorant(bound)(0.5)).__name__ for bound in bounds))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
            "sys.exit(max(codes))\n"
        )
        src = str(Path(winsor_bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        after_bound, after_sweep = (line.split()[1:] for line in lines if line.startswith("loaded:"))
        assert after_bound == []
        assert not {"dataclasses", "inspect", "typing", "csv"} & set(after_sweep)
        assert lines[-2:] == ["G: float float float float", "[]"]
        assert len(read_csv(out)[1]) == 5

    def test_scalar_verify_suites_never_import_numpy(self):
        # run without site, as above: the roots, ordering and asymptotics
        # suites load none of the four below.  Then site adds the installed
        # packages, and certificates loads NumPy; no suite and no
        # collapse-demo loads dataclasses
        script = (
            "import sys\n"
            "from winsor_bounds import cli\n"
            "names = ('numpy', 'dataclasses', 'winsor_bounds.certificates',\n"
            "         'winsor_bounds.oracle')\n"
            "runs = {suite: ['verify', '--suite', suite]\n"
            "        for suite in ('roots', 'ordering', 'asymptotics', 'certificates', 'oracle')}\n"
            "runs['collapse-demo'] = ['collapse-demo', '--sigma', '1', '--steps', '3']\n"
            "for label, argv in runs.items():\n"
            "    if label == 'certificates':\n"
            "        import site\n"
            "        site.main()\n"
            "    code = cli.main(argv)\n"
            "    print('loaded:', label, code, *(name for name in names if name in sys.modules))\n"
        )
        src = str(Path(winsor_bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded = {line.split()[1]: line.split()[2:] for line in done.stdout.splitlines()
                  if line.startswith("loaded:")}
        assert loaded == {
            "roots": ["0"], "ordering": ["0"], "asymptotics": ["0"],
            "certificates": ["0", "numpy", "winsor_bounds.certificates"],
            "oracle": ["0", "numpy", "winsor_bounds.certificates", "winsor_bounds.oracle"],
            "collapse-demo": ["0", "numpy", "winsor_bounds.certificates", "winsor_bounds.oracle"],
        }

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        from winsor_bounds.errors import MaxIterationsError

        def non_convergent(*args, **kwargs):
            raise MaxIterationsError("no convergence in 200 iterations")

        monkeypatch.setattr(cli, "lower_bound_fixed_c", non_convergent)
        code = cli.main(["bound", "--kind", "fixed-winsor", "--c", "1", "--sigma", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iterations" in captured.err

    def test_verify_all_under_a_minute(self, verify_all, capsys, monkeypatch):
        # the session's single run of every suite, printed through cmd_verify
        calls = []

        def recorded(name):
            calls.append(name)
            return verify_all.results

        monkeypatch.setattr(verify, "run_suite", recorded)
        assert cli.main(["verify", "--suite", "all"]) == 0
        assert calls == ["all"]
        assert sum(verify_all.seconds.values()) < 60.0
        out = capsys.readouterr().out
        assert "33/33 checks passed" in out

    def test_all_runs_each_suite_once_in_order(self, monkeypatch):
        calls = []

        def stub(name):
            def suite(grid):
                calls.append((name, grid))
                return [name]

            return suite

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, stub(name))
        assert verify.run_suite("all", seed=7) == list(verify.SUITES)
        assert [name for name, _ in calls] == list(verify.SUITES)
        # one table per call, shared by its suites: nothing crosses calls
        grid = calls[0][1]
        assert isinstance(grid, verify.Grid)
        assert all(shared is grid for _, shared in calls)
        assert verify.run_suite("roots", seed=7) == ["roots"]
        assert calls[-1][1] is not grid

    def test_failed_verification_exit_code(self, verify_all, capsys, monkeypatch):
        checks = list(verify_all.by_suite["roots"])
        checks[2] = checks[2]._replace(passed=False, detail="forced failure")
        monkeypatch.setitem(verify.SUITES, "roots", lambda grid: checks)
        assert cli.main(["verify", "--suite", "roots"]) == cli.EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [checks[2].line()]
        assert lines[-1] == f"{len(checks) - 1}/{len(checks)} checks passed"

    def test_failing_checks_print_their_worst_and_detail(self, capsys, monkeypatch):
        # a zero grid bound, a rescaled bound one ulp off and one minorant
        # whose beta = G'(0) is cut by 10%, as the negative control cuts it
        zeroed = (verify.C_GRID[0], verify.SIGMA_GRID[-1])
        sigma = verify.SIGMA_GRID[10]
        a_shrunk = lower_bound_fixed_c(BoundQuery(2.0, sigma)).a
        minorant = law.minorant

        def solved_off(query):
            solution = lower_bound_fixed_c(query)
            if query == BoundQuery(*zeroed):
                return solution._replace(bound=0.0)
            if query == BoundQuery(0.7 * 3.0, 30.0 / 3.0):  # the third rescaled query
                return solution._replace(bound=math.nextafter(solution.bound, 0.0))
            return solution

        def shrunk(result):
            good, a = minorant(result), result.a
            if (result.kind, a, result.tilt) != ("fixed-winsor", a_shrunk, 2.0):
                return good
            return law.QuadraticMinorant(
                contact_points=good.contact_points,
                lower_value=good.lower_value + 0.1 * good.beta * a,
                lower_slope=good.lower_slope - 0.1 * good.beta,
                gamma=good.gamma,
            )

        monkeypatch.setattr(verify.winsor, "lower_bound_fixed_c", solved_off)
        monkeypatch.setattr(law, "minorant", shrunk)
        failed = {}
        for suite in ("ordering", "certificates"):
            assert cli.main(["verify", "--suite", suite]) == cli.EXIT_VERIFY_FAILED
            for line in capsys.readouterr().out.splitlines():
                if line.startswith("FAIL "):
                    failed[line.split(":")[0][5:]] = line
        assert sorted(failed) == [
            "certificates.contact_tangency",  # the shrunk minorant leaves F's slope
            "certificates.minorant_below_moment",
            "ordering.bound_chain",
            "ordering.cut_rescaling_identity",
        ]
        assert failed["ordering.bound_chain"].startswith(
            "FAIL ordering.bound_chain: worst=inf tol=1.0e-12 ("
        )
        assert failed["ordering.cut_rescaling_identity"].startswith(
            "FAIL ordering.cut_rescaling_identity: worst=inf tol=0.0e+00 ("
        )
        detail = re.fullmatch(
            r"FAIL certificates\.minorant_below_moment: worst=\S+ tol=\S+ \((.*)\)",
            failed["certificates.minorant_below_moment"],
        ).group(1)
        assert re.fullmatch(rf"winsor c=2\.0 sigma={sigma:.3g} x=\S+", detail), detail


def test_asymptotic_convergence_script(tmp_path):
    # the last line is the ratio that asymptotics.slow_convergence_regression pins
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "asymptotic_convergence.py"), "--c", "2"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split()[-1] == "1.201178"


def test_figures_match_the_reference(tmp_path):
    # the three figure tables on the full 200-sigma grid, as the script
    # writes them, against the benchmark's stored reference (read only)
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "reproduce_figures.py"),
         "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    references = sorted((REPO_ROOT / "perfbench" / "reference").glob("fig*.csv"))
    assert [ref.name for ref in references] == sorted(p.name for p in tmp_path.iterdir())
    for ref in references:
        got_header, got = read_csv(str(tmp_path / ref.name))
        want_header, want = read_csv(str(ref))
        assert got_header == want_header
        assert [len(row) for row in got] == [len(row) for row in want]
        for got_row, want_row in zip(got, want):
            for g, w in zip(got_row, want_row):
                assert g == w or abs(g - w) <= 1e-12 * max(abs(g), abs(w)), (ref.name, g, w)


def test_sources_parse_with_the_least_supported_grammar():
    # pyproject.toml declares requires-python >= 3.10: every Python file of
    # the package, its tests, scripts and benchmark must parse with 3.10's
    # grammar, whichever interpreter runs the tests (files are only read)
    assert 'requires-python = ">=3.10"' in (REPO_ROOT / "pyproject.toml").read_text()
    paths = sorted(
        path for top in ("src", "tests", "scripts", "perfbench")
        for path in (REPO_ROOT / top).rglob("*.py")
    )
    assert len(paths) >= 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
