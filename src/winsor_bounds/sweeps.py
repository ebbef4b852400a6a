"""Parameter sweeps over sigma, serialized as CSV.

These reproduce the package's reference figures: the universal Winsorized
bound against sigma, and the ratio panels universal/fixed-tilt and
truncated/Winsorized across a tilt list.  Each sweep kind is one entry of
``_KINDS``, a bound lane over another or over nothing.  A sweep checks its
arguments, then loops row by row over the bodies of the scalar
``lower_bound_*`` calls, solving each distinct bound column (lane, tilt)
once per row, and divides; what the bodies read of sigma is formed once per
row, and of the tilt once per column.  Each lane (one sigma of one column)
starts its root solve from the column's extrapolated path: the cubic in
(ln sigma, ln a) through the column's last four roots, the predictor of
numerical continuation.  A lane that fails from there is solved again from
its seed, so a sweep answers, and raises, what the loop over the scalar
calls would.
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
from .trunc import _trunc_lane
from .winsor import _effective_c, _fixed_lane, _row, _tilt, _universal_lane


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
    (a str, None), or an int past the doubles, is refused by name."""
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
        return tuple(math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points))
    if scale == "linear":
        return tuple(
            sigma_min + (sigma_max - sigma_min) * i / (points - 1) for i in range(points)
        )
    raise ParameterError(f"scale must be 'log' or 'linear', got {scale!r}")


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


# Each bound as a lane, (its tilt's inputs from (c, cut), its body): the body
# of its lower_bound_* call at cut level 1, (tilt inputs, _row(sigma, cut),
# start) -> (root, ..., bound), the root None where none was solved.
_UNIVERSAL = (lambda c, cut: None, _universal_lane)
_FIXED = (_tilt, _fixed_lane)
_TRUNC = (_effective_c, _trunc_lane)

# Each kind as a quotient of bound lanes, (numerator, denominator or None):
# the figures' ratio panels divide one bound column by another at each tilt.
_KINDS = {
    SweepKind.UNIVERSAL_WINSOR: (_UNIVERSAL, None),
    SweepKind.FIXED_C_WINSOR: (_FIXED, None),
    SweepKind.TRUNC: (_TRUNC, None),
    SweepKind.RATIO_UNIVERSAL_OVER_FIXED: (_UNIVERSAL, _FIXED),
    SweepKind.RATIO_TRUNC_OVER_WINSOR: (_TRUNC, _FIXED),
}


def compute_sweep(kind: SweepKind, sigma_values, c_values=(), cut: float = 1.0) -> SweepTable:
    """Evaluate the requested bound or ratio over the sigma grid."""
    kind = _choice(SweepKind, "kind", kind)
    c_values = tuple(require_positive("c", value) for value in c_values)
    sigma_values = tuple(require_positive("sigma", value) for value in sigma_values)
    cut = require_positive("cut", cut)
    if any(right <= left for left, right in zip(sigma_values, sigma_values[1:])):
        raise ParameterError("sigma_values must be strictly increasing")
    tilted = set(_KINDS[kind]) - {_UNIVERSAL, None}
    if tilted and not c_values:
        raise ParameterError(f"sweep kind {kind.value!r} requires a tilt list")
    if c_values and not tilted:
        raise ParameterError(f"{kind.value} sweeps take no tilt list")

    # the distinct bound columns, keyed (lane, c) with c None for the universal
    # lane, in first-use order, and each value as (numerator, denominator or
    # None) column indices
    keys = {}
    cells = [
        [lane and keys.setdefault((lane, None if lane is _UNIVERSAL else c), len(keys))
         for lane in _KINDS[kind]]
        for c in c_values or (None,)
    ]
    # each column as (body, its tilt's inputs), formed once; where one leaves
    # the doubles, the first row runs as its scalar calls, raising where they do
    columns = tuple(keys)
    try:
        lanes = [(body, form(c, cut)) for (form, body), c in columns]
    except WinsorBoundsError:
        lanes = None

    # each column's path (see _extend), None before its first root and after
    # a lane that solves none
    paths = [None] * len(columns)
    rows = []
    for sigma in sigma_values:
        if lanes is None:
            for (form, body), c in columns:
                body(form(c, cut), _row(sigma, cut), None)
        row = _row(sigma, cut)  # raises where the row's first scalar call does
        log_sigma = row[2]
        bounds = []
        for j, (body, tilt) in enumerate(lanes):
            path = paths[j]
            try:
                solved = body(tilt, row, _start(path, log_sigma))
            except WinsorBoundsError:  # answer, or raise, as the scalar call does
                solved = body(tilt, row, None)
            root = solved[0]
            paths[j] = None if root is None else _extend(path, log_sigma, root)
            bounds.append(solved[-1])
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
