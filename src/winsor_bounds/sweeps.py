"""Parameter sweeps over sigma, serialized as CSV.

These reproduce the package's reference figures: the universal Winsorized
bound against sigma, and the ratio panels universal/fixed-tilt and
truncated/Winsorized across a tilt list.  Each sweep kind is one entry of
``_KINDS``, a bound lane over another or over nothing.  A sweep checks its
arguments, then loops row by row over the bodies of the scalar
``lower_bound_*`` calls, solving each distinct bound column (lane, tilt)
once per row, and divides.  Each lane (one sigma of one column) starts its
root solve from the column's extrapolated path: the line in (ln sigma, ln a)
through the column's last two roots, the secant predictor of numerical
continuation.  A lane that fails from there is solved again from its seed,
so a sweep answers, and raises, what the loop over the scalar calls would.
Files are written atomically (temp file + rename) with every value at full
double precision, so emitted CSVs diff cleanly and round-trip bitwise.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum

from .distributions import _effective_c, _effective_sigma
from .errors import ParameterError, WinsorBoundsError, exp_or_inf, require_positive
from .trunc import _trunc
from .winsor import _fixed_c, _universal


class SweepKind(str, Enum):
    UNIVERSAL_WINSOR = "universal-winsor"
    FIXED_C_WINSOR = "fixed-winsor"
    TRUNC = "trunc"
    RATIO_UNIVERSAL_OVER_FIXED = "ratio-universal-over-fixed"
    RATIO_TRUNC_OVER_WINSOR = "ratio-trunc-over-winsor"


@dataclass(frozen=True)
class SweepTable:
    """Grid of bound (or ratio) values: one row per sigma, one value column
    per tilt (a single column for the universal kind)."""

    kind: SweepKind
    c_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]  # (sigma, value per column)

    @property
    def column_labels(self) -> tuple[str, ...]:
        return tuple(f"c={c!r}" for c in self.c_values) or ("bound",)


def sigma_grid(sigma_min: float, sigma_max: float, points: int, scale: str = "log") -> tuple[float, ...]:
    """Sweep grid over sigma; log spacing by default since the bounds are
    governed by ln(sigma)."""
    if not (math.isfinite(sigma_min) and math.isfinite(sigma_max) and 0.0 < sigma_min < sigma_max):
        raise ParameterError(
            f"need 0 < sigma_min < sigma_max, got [{sigma_min!r}, {sigma_max!r}]"
        )
    if points < 2:
        raise ParameterError(f"points must be >= 2, got {points!r}")
    if scale == "log":
        lo, hi = math.log(sigma_min), math.log(sigma_max)
        return tuple(math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points))
    if scale == "linear":
        return tuple(
            sigma_min + (sigma_max - sigma_min) * i / (points - 1) for i in range(points)
        )
    raise ParameterError(f"scale must be 'log' or 'linear', got {scale!r}")


def _start(path, log_sigma: float) -> float | None:
    """Where a column's next lane, at ln sigma = log_sigma, starts its root
    solve, given path, the column's last roots as (ln sigma, ln a, a),
    oldest first: on the line in (ln sigma, ln a) through the last two, at
    the last root where only one is known or where that line leaves the
    positive finite doubles, and at the lane's seed (None) where none is."""
    if len(path) < 2:
        return path[-1][2] if path else None
    (s1, u1, _), (s2, u2, a2) = path
    if s2 == s1:  # adjacent sigmas whose logarithms round to one double
        return a2
    start = exp_or_inf(u2 + (u2 - u1) / (s2 - s1) * (log_sigma - s2))
    return start if 0.0 < start < math.inf else a2


# Each bound as a lane, (c, sigma, cut, start) -> (root, ..., bound): the
# body of its lower_bound_* call on arguments already checked, rescaled to
# cut level 1 as lower_bound_* rescales them; the root None where none was solved.
_UNIVERSAL = lambda c, sigma, cut, start: _universal(_effective_sigma(sigma, cut), start)
_FIXED = lambda c, sigma, cut, start: _fixed_c(
    _effective_c(c, cut), _effective_sigma(sigma, cut), start
)
_TRUNC = lambda c, sigma, cut, start: _trunc(
    _effective_c(c, cut), _effective_sigma(sigma, cut), start
)

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
    kind = SweepKind(kind)
    c_values = tuple(float(c) for c in c_values)
    sigma_values = tuple(float(s) for s in sigma_values)
    if any(right <= left for left, right in zip(sigma_values, sigma_values[1:])):
        raise ParameterError("sigma_values must be strictly increasing")
    tilted = set(_KINDS[kind]) - {_UNIVERSAL, None}
    if tilted and not c_values:
        raise ParameterError(f"sweep kind {kind.value!r} requires a tilt list")
    if c_values and not tilted:
        raise ParameterError(f"{kind.value} sweeps take no tilt list")
    for name, values in (("c", c_values), ("sigma", sigma_values), ("cut", (cut,))):
        for value in values:
            require_positive(name, value)

    # the distinct bound columns, keyed (lane, c) with c None for the universal
    # lane, in first-use order, and each value as (numerator, denominator or
    # None) column indices
    keys = {}
    cells = [
        [lane and keys.setdefault((lane, None if lane is _UNIVERSAL else c), len(keys))
         for lane in _KINDS[kind]]
        for c in c_values or (None,)
    ]
    columns = tuple(keys)

    # each column's last two roots as (ln sigma, ln a, a), oldest first; a
    # lane that solves no root starts its column's path afresh
    paths = [()] * len(columns)
    rows = []
    for sigma in sigma_values:
        log_sigma = math.log(sigma)
        bounds = []
        for j, (lane, c) in enumerate(columns):
            path = paths[j]
            try:
                solved = lane(c, sigma, cut, _start(path, log_sigma))
            except WinsorBoundsError:  # answer, or raise, as the scalar call does
                solved = lane(c, sigma, cut, None)
            root = solved[0]
            paths[j] = () if root is None else (*path[-1:], (log_sigma, math.log(root), root))
            bounds.append(solved[-1])
        rows.append((sigma, *(bounds[n] if d is None else bounds[n] / bounds[d] for n, d in cells)))
    return SweepTable(kind, c_values, sigma_values, tuple(rows))


def write_csv(table: SweepTable, path: str) -> None:
    """Write the sweep atomically: UTF-8, header row, LF line endings,
    shortest round-tripping decimal for every value."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("sigma", *table.column_labels))
            for row in table.rows:
                writer.writerow(tuple(repr(value) for value in row))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_csv(path: str) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Parse an emitted sweep back into (column names, numeric rows)."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        rows = tuple(tuple(float(cell) for cell in row) for row in reader if row)
    return header, rows
