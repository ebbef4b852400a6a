"""Brute-force extremal search, independent of the analytic solvers.

Three verification routes:

* grid minimization of the closed-form two-point moments over the lower
  support magnitude (and jointly over the tilt, skipping rows a closed-form
  floor rules out), with staged window refinement around the coarse argmin;
* an exact linear program over every law on a support grid with the same
  moment constraints (lp_min), which must never undercut any bound: a
  simplex whose 3-point bases are solved in closed form, started at the
  law on {-1, 0, 1} or at a bound's support;
* the collapse construction (a, sigma^2/a) with tilt 1/a^2 showing that the
  truncated moment has no positive tilt-universal floor while the
  Winsorized one does.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .certificates import MomentKind, _capped_exp, _reals, capped_exp
from .errors import (
    ExponentOverflowError, MaxIterationsError, ParameterError, _choice, exp_or_inf, in_range,
    require_positive,
)

# points of each stage of the searches, a or (a, c): the first spans the whole grid,
# each later one a window of cells on either side of the previous argmin
REFINE_STAGES = (10_000, 1_000)
REFINE_WINDOW_CELLS = 2            # previous-grid cells kept on each side of the argmin
UNIVERSAL_STAGES = ((2_000, 200), (300, 300), (300, 300))
UNIVERSAL_TILTS = (0.05, 20.0)     # the tilt span of the joint scan
UNIVERSAL_WINDOW_CELLS = 12        # previous-grid cells kept on each side of the argmin
# A joint scan skips a row whose floor exceeds U (1 + _FLOOR_MARGIN), U the least cell of the
# least floor's row.  A cell errs by (c a + 8) 2^-53 (-c*a's rounding, then an ulp a step) where
# b e^(-ca) matters, c a < ln(b/a) + 37 < 750; a floor by 2e-13 (its exponent is below 710).
_FLOOR_MARGIN = 1e-9
LP_GRID = np.geomspace(1e-6, 1e6, 1_000)  # lp_min's grid in units of sigma, either side of 0
_PRICE_TOL = 1e-12  # a scaled reduced cost below -_PRICE_TOL enters the basis
_LP_PIVOTS = 200    # verify's five cases take 5-8 from their bounds' supports (12-17 cold)
_EPS = 2.0 ** -52   # a weight's numerator 1 + y_i y_j rounds by at most _EPS |y_i y_j|


class GridMinResult(namedtuple(
    "GridMinResult", "argmin_a argmin_c min_value cell_ratio cell_ratio_c", defaults=(None,)
)):
    """Minimum of a two-point moment over a search grid.

    ``argmin_c`` is the fixed tilt, or the grid argmin for joint searches.
    ``cell_ratio`` is the ratio between adjacent points of the (finest) a
    grid; ``cell_ratio_c`` likewise for joint searches over the tilt.
    """

    __slots__ = ()


def two_point_moment_grid(kind: MomentKind, c, sigma: float, a: np.ndarray) -> np.ndarray:
    """Closed-form moment of X_{a, sigma^2/a} for each a (and tilt c,
    broadcastable)."""
    kind, sigma = _choice(MomentKind, "kind", kind), require_positive("sigma", sigma)
    with np.errstate(under="ignore"):
        return _moment(kind, _reals("c", c), sigma, _reals("a", a))[()]


def _moment(kind: MomentKind, c, sigma: float, a: np.ndarray) -> np.ndarray:
    """two_point_moment_grid's body, for callers that hold a float array a
    and np.errstate(under="ignore") already."""
    b = sigma * sigma / a
    # (a * F(b) + b * exp(-c * a)) / (a + b), one operation at a time in two
    # arrays; where every b >= 1 (so none is NaN), F(b) is F(1), once per tilt
    if np.all(b >= 1.0):
        out = a * _capped_exp(kind is MomentKind.WINSOR, c, np.ones(()))
    else:
        out = _capped_exp(kind is MomentKind.WINSOR, c, b)
        out *= a
    scratch = np.multiply(-c, a, out=np.empty_like(out))
    np.exp(scratch, out=scratch)
    scratch *= b
    out += scratch
    b += a
    out /= b
    return out


def _search(sigma: float, a_ends, c_ends, stages, window: int):
    """Least Winsorized two-point moment over one geometric (a, c) grid per
    stage of (a points, c points): the first spans a_ends x c_ends, each
    later one ``window`` cells of the last on either side of its argmin.
    Each grid skips the rows that _row_floors rules out (their cells all
    exceed the least of the least floor's row) and forms the rest as one
    array; its argmin is np.argmin's over the whole grid: the first NaN,
    else the first least value in row-major order (the smaller a, then the
    smaller c).  Returns the last grids, the argmin's indices and its value."""
    kind = MomentKind.WINSOR
    for na, nc in stages:
        a, c = np.geomspace(*a_ends, na), np.geomspace(*c_ends, nc)
        floors = _row_floors(sigma, a)
        upper = two_point_moment_grid(kind, c, sigma, a[floors.argmin()]).min()
        kept = np.flatnonzero(~(floors > upper * (1.0 + _FLOOR_MARGIN)))  # NaN keeps rows
        values = two_point_moment_grid(kind, c, sigma, a[kept, None]).ravel()
        at = int(values.argmin())
        i, j = int(kept[at // nc]), at % nc
        a_ends = a[max(i - window, 0)], a[min(i + window, na - 1)]
        c_ends = c[max(j - window, 0)], c[min(j + window, nc - 1)]
    return a, c, i, j, float(values[at])


def _row_floors(sigma: float, a: np.ndarray) -> np.ndarray:
    """Per a, with b = sigma^2/a: the least Winsorized moment over every tilt,
    (1 + a) b^(1/(1+a)) / (a + b) at c* = ln b/(1 + a), where b >= 1; else -inf."""
    b = sigma * sigma / a
    return np.where(b >= 1.0, (1.0 + a) * b ** (1.0 / (1.0 + a)) / (a + b), -np.inf)


def refine_grid_min(c: float, sigma: float, kind: MomentKind) -> GridMinResult:
    """Minimization over a in [a_lo, sigma^2 * 1e2] at the tilt c: a coarse
    sweep, then a fine one over REFINE_WINDOW_CELLS of its cells on either
    side of its argmin (REFINE_STAGES); ties go to the smaller a.  in_range
    refuses a sigma for which an end of the grid, or b = sigma^2/a at its
    lower end, is no positive double, and, for the Winsorized kind, where
    the grid's largest term a * e^c overflows: every b >= 1 reads e^c.
    Truncated cells whose e^(cb) overflows read as inf."""
    c, sigma = require_positive("c", c), require_positive("sigma", sigma)
    kind = _choice(MomentKind, "kind", kind)
    sigma2 = in_range("sigma^2", sigma * sigma, sigma)
    a_hi = in_range("the grid's upper end sigma^2 * 1e2", sigma2 * 1e2, sigma)
    if kind is MomentKind.WINSOR:
        in_range("the grid's largest term a * e^c", a_hi * exp_or_inf(c), c, sigma)
        # at a <= 1/c, a b_star(a, c) < 2a e^(c+1) / c, at most sigma^2 at the last term
        a_lo = min(sigma2 * 1e-8, 1.0 / c, 0.5 * c * math.exp(-c - 1.0) * sigma2)
    else:
        # at a <= 1/c, B_star(a, c) <= (2e - 3) a, so the root is at least
        # min(1/c, sigma / sqrt(2e - 3)), which the last two terms do not exceed
        a_lo = min(sigma2 * 1e-8, 1.0 / c, 0.5 * sigma)
    a_lo = in_range("the grid's lower end", a_lo, c, sigma)
    in_range("b = sigma^2/a at the grid's lower end", sigma2 / a_lo, sigma, a_lo)
    ends = a_lo, a_hi
    with np.errstate(over="ignore" if kind is MomentKind.TRUNC else None, under="ignore"):
        for n in REFINE_STAGES:
            a = np.geomspace(*ends, n)
            values = _moment(kind, c, sigma, a)
            i = int(values.argmin())  # the first NaN, else the first least value
            ends = a[max(i - REFINE_WINDOW_CELLS, 0)], a[min(i + REFINE_WINDOW_CELLS, n - 1)]
    return GridMinResult(
        argmin_a=float(a[i]), argmin_c=c, min_value=float(values[i]),
        cell_ratio=float((a[-1] / a[0]) ** (1.0 / (a.size - 1))),
    )


def universal_grid_min(sigma: float) -> GridMinResult:
    """Joint minimization of the Winsorized moment over (a, c).

    A broad log-log scan followed by repeated window refinements
    (UNIVERSAL_STAGES).  The objective has a curved shallow valley in the
    (a, c) plane, so the refinement window must span many coarse cells to
    keep the true minimum inside.  The coarse a grid spans
    min(sigma^2 * 1e-5, ln(1 + sigma)/2) to sigma^2, which holds the
    extremal a at every sigma.  Each stage skips the rows whose floor, the
    least moment over every tilt, rules them out (7 in 8 cells at verify's
    sigmas).  in_range refuses a sigma for which sigma^2 * 1e-5 underflows,
    or the largest moment term, a * e^c at the grid's upper corner, overflows.
    The argmin holds to one refined cell of the extremal (a, c) only up to
    sigma of about 10, where verify reads it: it drifts to 2.35 cells at
    sigma = 1e3 and 1.88 at 1e4 (the value stays within 1e-8 there), since
    the a grid spans up to sigma^2 while the extremal a grows like ln sigma.
    """
    sigma = require_positive("sigma", sigma)
    sigma2 = in_range("sigma^2", sigma * sigma, sigma)
    # the extremal a grows like ln sigma, not sigma^2 (0.74 ln sigma at 1e3,
    # 0.98 ln sigma at 1e100): from sigma ~ 550 on, ln(1 + sigma)/2 starts
    # the grid below it
    a_lo = min(
        in_range("the grid's lower end sigma^2 * 1e-5", sigma2 * 1e-5, sigma),
        0.5 * math.log1p(sigma),
    )
    a_hi = sigma2 * (1.0 - 1e-9)
    in_range("the grid's largest term a * e^c", a_hi * math.exp(UNIVERSAL_TILTS[1]), sigma)
    a, c, i, j, value = _search(
        sigma, (a_lo, a_hi), UNIVERSAL_TILTS, UNIVERSAL_STAGES, UNIVERSAL_WINDOW_CELLS
    )
    return GridMinResult(
        argmin_a=float(a[i]), argmin_c=float(c[j]), min_value=value,
        cell_ratio=float(a[1] / a[0]), cell_ratio_c=float(c[1] / c[0]),
    )


LPResult = namedtuple("LPResult", "value support weights alpha beta gamma pivots")


def lp_min(kind: MomentKind, c: float, sigma: float, start=None) -> LPResult:
    """The least E F(X) over the laws on x in sigma * (+-LP_GRID, -1, 0, 1) and the
    cut 1 with E X = 0, E X^2 = sigma^2 (at least the bound), by a revised simplex
    on bases y1 < y2 < y3 in units of sigma, each in closed form from differences
    of its nodes: the law's weights p_k = (1 + y_i y_j)/((y_k - y_i)(y_k - y_j)),
    the dual alpha + beta y + gamma y^2 through F at the nodes by Newton's divided
    differences, and the entering column's ratio-test direction the Lagrange basis
    at its y.  The first basis is the grid points at or outside -a and b, with 0,
    for start = (-a, b), by default (-sigma, sigma); a start that is no such pair
    of reals is refused as a ParameterError.  A basis whose weights are
    negative beyond the rounding of 1 + y_i y_j is no law and is refused (a first
    one as a ParameterError, a later one as a MaxIterationsError); within it a
    weight reads 0.  Dantzig pricing of costs scaled by max(F, |alpha| + |beta x| +
    |gamma| x^2) decides optimality over the whole grid whatever the start, which
    moves only the pivot path; Bland's rule after three degenerate pivots.  Returns
    the value, the basis in increasing x (one weight may be 0), its dual alpha +
    beta x + gamma x^2 <= F and the pivots.  in_range refuses a sigma whose grid end
    sigma * 1e6 or cut 1/sigma in units of sigma squares past the doubles, and a
    (c, sigma) whose F overflows; a basis whose dual overflows on the grid, so that
    a reduced cost is not finite, is refused as an ExponentOverflowError."""
    c, sigma = require_positive("c", c), require_positive("sigma", sigma)
    kind = _choice(MomentKind, "kind", kind)
    end, cut = sigma * float(LP_GRID[-1]), 1.0 / sigma
    in_range("the square of the grid's end sigma * 1e6", end * end, sigma)
    in_range("the square of the cut in units of sigma, 1/sigma", cut * cut, sigma)
    x = np.unique(np.concatenate((-sigma * LP_GRID, sigma * LP_GRID, (-sigma, 0.0, sigma, 1.0))))
    with np.errstate(over="ignore"):
        f = capped_exp(kind, c, x)
    in_range("the grid's largest F", float(f.max()), c, sigma)
    try:  # -sigma and sigma are grid points
        lower, upper = (-sigma, sigma) if start is None else start
        ordered = lower < 0.0 < upper
    except (TypeError, ValueError):  # no pair, or no reals
        ordered = False
    if not ordered:
        raise ParameterError(f"start must be (-a, b) with a, b > 0, got {start!r}")
    basis = [max(int(np.searchsorted(x, lower, "right")) - 1, 0), int(np.searchsorted(x, 0.0)),
             min(int(np.searchsorted(x, upper)), x.size - 1)]
    y, degenerate = x / sigma, 0
    y_abs = np.abs(y)
    for pivot in range(_LP_PIVOTS + 1):
        basis.sort()
        (y1, y2, y3), (f1, f2, f3) = y[basis].tolist(), f[basis].tolist()
        d12, d13, d23 = y2 - y1, y3 - y1, y3 - y2
        # each weight's numerator, signed so that its denominator (dens) is positive,
        # and the bound on its rounding
        numerators = (1.0 + y2 * y3, -(1.0 + y1 * y3), 1.0 + y1 * y2)
        rounding = (abs(y2 * y3), abs(y1 * y3), abs(y1 * y2))
        if any(n < -_EPS * r for n, r in zip(numerators, rounding)):
            error = ParameterError if pivot == 0 else MaxIterationsError
            raise error(f"the grid LP's basis {x[basis].tolist()} is no law")
        dens = (d12 * d13, d12 * d23, d13 * d23)
        p = [max(0.0, n) / d for n, d in zip(numerators, dens)]
        s12, s23 = (f2 - f1) / d12, (f3 - f2) / d23
        gamma = (s23 - s12) / d13
        beta, alpha = s12 - gamma * (y1 + y2), f1 - y1 * (s12 - gamma * y2)
        with np.errstate(over="ignore", invalid="ignore"):  # a dual past the doubles is refused
            scale = np.maximum(f, abs(alpha) + y_abs * (abs(beta) + abs(gamma) * y_abs))
            reduced = (f - (alpha + y * (beta + gamma * y))) / scale
        if not np.isfinite(reduced).all():
            raise ExponentOverflowError(
                f"the grid LP's pricing overflows to inf or NaN (operands {c!r}, {sigma!r})")
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -_PRICE_TOL)
        if not entering.size:
            return LPResult(p[0] * f1 + p[1] * f2 + p[2] * f3, tuple(x[basis].tolist()),
                            tuple(p), alpha, beta / sigma, gamma / sigma / sigma, pivot)
        j = int(entering[0] if degenerate >= 3 else reduced.argmin())
        u = float(y[j])
        step = ((u - y2) * (u - y3) / dens[0], (u - y1) * (y3 - u) / dens[1],
                (u - y1) * (u - y2) / dens[2])
        ratios = [w / s if s > 0.0 else math.inf for w, s in zip(p, step)]
        least = min(ratios)
        degenerate += least == 0.0
        # of the tied, the least grid index leaves: basis is sorted
        basis[ratios.index(least)] = j
    raise MaxIterationsError(f"the grid LP did not reach its optimum in {_LP_PIVOTS} pivots")


CollapsePoint = namedtuple("CollapsePoint", "a c moment")


def trunc_collapse_sequence(sigma: float, a_values) -> list[CollapsePoint]:
    """Truncated moments along the collapse path b = sigma^2/a, c = 1/a^2.

    The moments fall to 0 once a decreases below min(1, sigma^2), which is
    where the positive support point clears the cut (b >= 1); exact
    underflow of e^{-c a} to 0 is reported as 0.  Points with a > sigma^2
    sit outside the collapse regime and may evaluate to huge values or
    infinity, reported as data.  in_range refuses an a whose c or b is no double.
    """
    sigma = require_positive("sigma", sigma)
    a_values = [require_positive("each of a_values", a) for a in a_values]
    if not a_values:
        raise ParameterError("a_values must be a non-empty list of positive reals")
    if any(later >= earlier for earlier, later in zip(a_values, a_values[1:])):
        raise ParameterError("a_values must be strictly decreasing")
    a = np.array(a_values, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        c = 1.0 / (a * a)
    last = float(a[-1])  # a decreases: the last a has the largest c and b
    in_range("the tilt 1/a^2", float(c[-1]), last)
    in_range("b = sigma^2/a", sigma * sigma / last, sigma, last)
    with np.errstate(over="ignore"):
        moments = two_point_moment_grid(MomentKind.TRUNC, c, sigma, a)
    return [
        CollapsePoint(a=float(x), c=float(t), moment=float(m))
        for x, t, m in zip(a, c, moments)
    ]
