"""Parameter sweeps over sigma, serialized as CSV.

These reproduce the package's reference figures: the universal Winsorized
bound against sigma, and the ratio panels universal/fixed-tilt and
truncated/Winsorized across a tilt list.  Each sweep kind is one entry of
``_KINDS``, a bound lane over another or over nothing.  A sweep checks its
arguments, then loops row by row over the lanes, the bodies of the scalar
``lower_bound_*`` calls, solving each distinct bound column (lane, tilt)
once per row, and divides; what the lanes read of sigma is formed once per
row, and c*cut once per column.  Each lane returns ``Bound``'s fields from
a on, and the sweep reads a, bound and branch of them by position.  Each
lane (one sigma of one column) starts its root solve from the column's
extrapolated path: the cubic in (ln sigma, ln a) through the column's last
four roots, the predictor of numerical continuation.  A lane that fails
from there is solved again from its seed, so a sweep answers, and raises,
what the loop over the scalar calls would.
Files are written atomically (temp file + rename) with every value at full
double precision, so emitted CSVs diff cleanly and round-trip bitwise.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from enum import Enum

from .errors import (
    ParameterError, WinsorBoundsError, _choice, exp_or_inf, require_integer, require_positive,
)
from .trunc import Branch, _trunc_lane
from .winsor import _effective_c, _fixed_lane, _row, _universal_lane


class SweepKind(str, Enum):
    UNIVERSAL_WINSOR = "universal-winsor"
    FIXED_C_WINSOR = "fixed-winsor"
    TRUNC = "trunc"
    RATIO_UNIVERSAL_OVER_FIXED = "ratio-universal-over-fixed"
    RATIO_TRUNC_OVER_WINSOR = "ratio-trunc-over-winsor"


class SweepTable(namedtuple("SweepTable", "kind c_values sigma_values rows")):
    """Grid of bound (or ratio) values: one row per sigma, one value column
    per tilt (a single column for the universal kind); each of ``rows`` is
    (sigma, value per column)."""

    __slots__ = ()

    @property
    def column_labels(self) -> tuple[str, ...]:
        return tuple(f"c={c!r}" for c in self.c_values) or ("bound",)


def sigma_grid(sigma_min: float, sigma_max: float, points: int, scale: str = "log") -> tuple[float, ...]:
    """Sweep grid over sigma; log spacing by default since the bounds are
    governed by ln(sigma).  Ends that are reals but out of order, or not
    positive and finite, are refused together; an end that is no real
    (a str, None), or an int past the doubles, is refused by name.  Ends so
    close that the points do not strictly increase are refused too."""
    try:
        ordered = 0.0 < sigma_min < sigma_max < math.inf
    except TypeError:  # no real: require_positive names it below
        ordered = True
    if not ordered:
        raise ParameterError(
            f"need 0 < sigma_min < sigma_max, got [{sigma_min!r}, {sigma_max!r}]"
        )
    sigma_min = require_positive("sigma_min", sigma_min)
    sigma_max = require_positive("sigma_max", sigma_max)
    require_integer("points", points, 2)
    if scale == "log":
        lo, hi = math.log(sigma_min), math.log(sigma_max)
        grid = tuple(math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points))
    elif scale == "linear":
        grid = tuple(sigma_min + (sigma_max - sigma_min) * i / (points - 1) for i in range(points))
    else:
        raise ParameterError(f"scale must be 'log' or 'linear', got {scale!r}")
    if any(right <= left for left, right in zip(grid, grid[1:])):
        raise ParameterError(
            f"points={points} over [{sigma_min!r}, {sigma_max!r}] give a {scale} grid that"
            " does not strictly increase: give fewer points or ends further apart"
        )
    return grid


def _start(path, x: float) -> float | None:
    """Where a column's next lane, at ln sigma = x, starts its root solve,
    given the column's path (see _extend): on the path's polynomial, at the
    last root where that leaves the positive finite doubles, and at the
    lane's seed (None) where the column has no path."""
    if path is None:
        return None
    a, s0, s1, s2, d0, d1, d2, d3 = path
    start = exp_or_inf(d0 + (x - s0) * (d1 + (x - s1) * (d2 + (x - s2) * d3)))
    return start if 0.0 < start < math.inf else a


def _extend(path, x: float, a: float):
    """path with the root a at ln sigma = x added.  A path is a column's last
    root and the Newton form of the cubic in (ln sigma, ln a) through its
    last four roots, (a, s0, s1, s2, d0, d1, d2, d3): s_k the k-th newest
    abscissa, d_k the divided difference over the k + 1 newest roots, so a
    root updates each d_k with one division.  A path starts at one root, its
    differences 0 at abscissae -1e300 and -2e300, far below every ln sigma:
    through fewer roots it is a constant, a line or a quadratic to 1e-300.
    It starts afresh at a root on the last abscissa (adjacent sigmas whose
    logarithms round to one double)."""
    u = math.log(a)
    if path is None or x == path[1]:
        return a, x, -1e300, -2e300, u, 0.0, 0.0, 0.0
    _, s0, s1, s2, d0, d1, d2, _ = path
    e1 = (u - d0) / (x - s0)
    e2 = (e1 - d1) / (x - s1)
    return a, x, s0, s1, u, e1, e2, (e2 - d2) / (x - s2)


# Each kind as a quotient of bound lanes, (numerator, denominator or None):
# the figures' ratio panels divide one bound column by another at each tilt.
# A lane is the body of a lower_bound_* call at cut level 1,
# (c*cut or None, _row(sigma, cut), start) -> Bound's fields from a on.
_KINDS = {
    SweepKind.UNIVERSAL_WINSOR: (_universal_lane, None),
    SweepKind.FIXED_C_WINSOR: (_fixed_lane, None),
    SweepKind.TRUNC: (_trunc_lane, None),
    SweepKind.RATIO_UNIVERSAL_OVER_FIXED: (_universal_lane, _fixed_lane),
    SweepKind.RATIO_TRUNC_OVER_WINSOR: (_trunc_lane, _fixed_lane),
}


def compute_sweep(kind: SweepKind, sigma_values, c_values=(), cut: float = 1.0) -> SweepTable:
    """Evaluate the requested bound or ratio over the sigma grid."""
    kind = _choice(SweepKind, "kind", kind)
    c_values = tuple(require_positive("c", value) for value in c_values)
    sigma_values = tuple(require_positive("sigma", value) for value in sigma_values)
    cut = require_positive("cut", cut)
    if any(right <= left for left, right in zip(sigma_values, sigma_values[1:])):
        raise ParameterError("sigma_values must be strictly increasing")
    tilted = set(_KINDS[kind]) - {_universal_lane, None}
    if tilted and not c_values:
        raise ParameterError(f"sweep kind {kind.value!r} requires a tilt list")
    if c_values and not tilted:
        raise ParameterError(f"{kind.value} sweeps take no tilt list")

    # the distinct bound columns, keyed (lane, c) with c None for the universal
    # lane, in first-use order, and each value as (numerator, denominator or
    # None) column indices
    keys = {}
    cells = [
        [lane and keys.setdefault((lane, None if lane is _universal_lane else c), len(keys))
         for lane in _KINDS[kind]]
        for c in c_values or (None,)
    ]
    # each column as (lane, c*cut or None), c*cut formed once; where one leaves
    # the doubles, the first row runs as its scalar calls, raising where they do
    columns = tuple(keys)
    try:
        lanes = [(lane, c and _effective_c(c, cut)) for lane, c in columns]
    except WinsorBoundsError:
        lanes = None

    # each column's path (see _extend), None before its first root and after
    # a lane on the small-sigma branch, which solves none
    paths = [None] * len(columns)
    small = Branch.SMALL_SIGMA
    rows = []
    for sigma in sigma_values:
        if lanes is None:
            for lane, c in columns:
                lane(c and _effective_c(c, cut), _row(sigma, cut), None)
        row = _row(sigma, cut)  # raises where the row's first scalar call does
        log_sigma = row[2]
        bounds = []
        for j, (lane, c) in enumerate(lanes):
            path = paths[j]
            try:
                fields = lane(c, row, _start(path, log_sigma))
            except WinsorBoundsError:  # answer, or raise, as the scalar call does
                fields = lane(c, row, None)
            paths[j] = None if fields[4] is small else _extend(path, log_sigma, fields[0])
            bounds.append(fields[3])
        rows.append((sigma, *(bounds[n] if d is None else bounds[n] / bounds[d] for n, d in cells)))
    return SweepTable(kind, c_values, sigma_values, tuple(rows))


def write_csv(table: SweepTable, path: str) -> None:
    """Write the sweep atomically: UTF-8, header row, LF line endings,
    shortest round-tripping decimal for every value.  Each line is its cells
    joined by commas, the bytes csv.writer writes: no float repr and no
    column label holds a character that it would quote."""
    import tempfile  # only a write needs it, and it loads random

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(("sigma", *table.column_labels)) + "\n")
            handle.writelines(",".join(map(repr, row)) + "\n" for row in table.rows)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_csv(path: str) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Parse an emitted sweep back into (column names, numeric rows).  A file
    with no header row, a row whose width is not the header's, a cell that
    is no number or a quote left open is refused."""
    import csv  # only a read needs it

    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, strict=True)
        try:
            header, rows = tuple(next(reader, ())), []
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) != len(header):
                    raise ValueError(
                        f"line {reader.line_num} has {len(row)} cells, the header {len(header)}"
                    )
                rows.append(tuple(map(float, row)))
        except (ValueError, csv.Error) as exc:  # no number, no UTF-8 or no closing quote
            raise ParameterError(f"{path!r} is no sweep CSV: {exc}") from None
    if not header:
        raise ParameterError(f"{path!r} is no sweep CSV: it has no header row")
    return header, tuple(rows)
