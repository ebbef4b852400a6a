"""Grid checks of the quadratic tangent-minorant certificates.

``law.minorant`` builds the parabola G that proves a Bound (see ``law``).
This module checks its geometry on dense grids (G <= F, equality only near
the contacts) and reads the value and slope gaps at each contact
(one-sided on the cut) from the grid's own F and G there.

_capped_exp and _horner (QuadraticMinorant.__call__ for a chunk of checks)
compute every F and G a report reads.
F - G is convex on each piece of F, so its gap nears equality only near a
contact: the grid check evaluates only the points that convexity witnesses
(_kept, walked in lockstep arrays of _psi) do not prove clear of the
equality tolerance, and reports what the whole grid would.
check_certificates evaluates many checks together, _CHUNK points at a time.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import _choice
from .law import QuadraticMinorant

GAP_RTOL = 1e-12       # allowed negative gap, relative to max(1, F)
EQUALITY_RTOL = 1e-10  # |F - G| below this counts as contact
CONTACT_WINDOW = 1e-2  # equality must sit within this relative distance
GRID_BASE_POINTS = 100_001  # uniform points across the span of the grid
GRID_WINDOW_POINTS = 2_001  # points in the window around each contact and the kink
_CHUNK = 1 << 13  # the most points check_certificates evaluates at once; a whole grid is more
_Q = 1.0001 * EQUALITY_RTOL  # psi's margin over the equality tolerance


class MomentKind(str, Enum):
    WINSOR = "winsor"
    TRUNC = "trunc"


def _horner(x, x_lo, value, slope, gamma, counts) -> np.ndarray:
    """value + slope*u + gamma*u^2 with u = x - x_lo in Horner form, as
    QuadraticMinorant.__call__ forms it, in u's array with one temporary;
    each coefficient is repeated ``counts`` times, one at a time."""
    u = x - np.repeat(x_lo, counts)
    u_slope = u * np.repeat(gamma, counts)
    u_slope += np.repeat(slope, counts)
    u *= u_slope
    u += np.repeat(value, counts)
    return u


def capped_exp(kind: MomentKind, c, x, out=None):
    """F(x): exp(c*min(1,x)) for winsor, exp(c*x*1{x<1}) for trunc; c is a
    scalar or an array that broadcasts against x.  Written into ``out`` when
    given, which must have the broadcast shape and share no memory with x."""
    kind = _choice(MomentKind, "kind", kind)
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(c), x.shape))
    with np.errstate(under="ignore"):
        return _capped_exp(kind, c, x, out)[()]


def _capped_exp(kind: MomentKind, c, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """capped_exp's body, for callers that hold an array x, an ``out`` and
    np.errstate(under="ignore") already."""
    if kind is MomentKind.WINSOR:
        np.multiply(c, np.minimum(x, 1.0, out=out), out=out)
    else:
        out.fill(0.0)
        np.multiply(c, x, out=out, where=x < 1.0)
    return np.exp(out, out=out)


class CertificateReport(
    namedtuple(
        "CertificateReport", "passed worst_gap worst_x equality_localized n_points contact_gaps"
    )
):
    """Outcome of a grid check; violations are reported as data, not raised.
    worst_gap is the min of (F - G)/max(1, F), >= -GAP_RTOL to pass, at
    worst_x; equality_localized says the near-contact points are the only
    equalities; n_points counts the grid's points; contact_gaps maps each
    contact x0 to its (value gap, slope gap), see check_certificate."""

    __slots__ = ()


def _grid_pieces(contacts) -> np.ndarray:
    """The pieces of the grids of the rows (x_lo, x_hi) of ``contacts``, grid
    by grid, as rows of np.linspace's (start, stop, num): a window and the
    point at each contact and x = 1 (each centre once), then a wide span."""
    x0 = np.column_stack((contacts, np.ones(len(contacts))))
    window, size = 1e-3 * (1.0 + np.abs(x0)), np.abs(contacts)
    span = 10.0 * np.where(np.isnan(size[:, 0]), math.nan, np.fmax(np.fmax(*size.T), 1.0))
    num = np.broadcast_to((GRID_WINDOW_POINTS, 1.0), (*x0.shape, 2))
    rows = np.stack((np.stack((x0 - window, x0), 2), np.stack((x0 + window, x0), 2), num), 3)
    spans = np.stack((-span, span, np.full(len(x0), GRID_BASE_POINTS)), 1)[:, None]
    once = np.column_stack([(x0[:, :k] != x0[:, k, None]).all(1) for k in range(3)])
    keep = np.column_stack((once.repeat(2, 1), np.ones(len(x0), dtype=bool)))
    return np.concatenate((rows.reshape(-1, 6, 3), spans), 1)[keep]


def certificate_grid(minorant: QuadraticMinorant) -> np.ndarray:
    """Evaluation grid: the points check_certificate covers, sorted and unique."""
    pieces = _grid_pieces(np.array([minorant.contact_points], dtype=float)).tolist()
    return np.unique(np.concatenate([np.linspace(a, b, int(num)) for a, b, num in pieces]))


def _psi(k, x, below):
    """psi(x) = (1 - 1e-12 - q) F - G - 1e-13 (|v| + |s||u| + |gamma| u^2) - q
    - 1e-299 (q = _Q, u = x - x_lo), a bound on its float error, and F(x) =
    e^{cx} where ``below`` (inf from cx = 709 on), else f_flat, for arrays of
    walks with rows k = (x_lo, v, s, gamma, c, f_flat).  psi(x) > 0 puts
    check_certificate's gap at x above EQUALITY_RTOL: 1e-12 F covers c*x's
    rounding and exp's error, the 1e-13 term is about 100 times the Horner
    error gamma_3 (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3), 1e-299 covers subnormals, q (F + 1) clears EQUALITY_RTOL max(1, F)."""
    x_lo, value, slope, gamma, c, f = k
    cx = c * x
    f = np.where(below, np.where(cx < 709.0, np.exp(cx), math.inf), f)
    u = x - x_lo
    g = value + u * (slope + gamma * u)
    spread = np.abs(value) + np.abs(slope * u) - gamma * u * u
    psi = (1.0 - 1e-12 - _Q) * f - g - 1e-13 * spread - _Q - 1e-299
    return psi, 1e-12 * (f + np.abs(g) + _Q) + 1e-15 * spread + 1e-300, f


def _witnesses(k, p, end, below) -> np.ndarray:
    """For each walk from p toward end (k as _psi's), a point w with psi(w)
    > max(0, psi(p)) beyond both errors, or end if none.  All walks step out
    together, the first step 2 sqrt(-psi(p) / psi''(p)), then doubling.  On
    a region where F keeps one formula and u one sign, psi is convex, so psi
    > 0 from w to end; F and |u| are monotone there, so finite at w and at
    end, they are finite between."""
    value, margin, f = _psi(k, p, below)
    target = np.maximum(value + margin, 0.0)
    curvature = np.where(below, k[4] * k[4] * f, 0.0) - 2.0 * k[3]
    h = np.maximum(2.0 * np.sqrt(np.maximum(-value, margin) / curvature), 1e-6 * (1.0 + np.abs(p)))
    sign = np.where(end > p, 1.0, -1.0)
    w, found = end.copy(), np.zeros(p.shape, dtype=bool)
    walk = np.flatnonzero(np.isfinite(value))
    while walk.size:
        x = p[walk] + sign[walk] * h[walk]
        short = (x - end[walk]) * sign[walk] < 0.0
        walk, x = walk[short], x[short]
        value, margin, _ = _psi(k[:, walk], x, below[walk])
        hit = value - margin > target[walk]
        w[walk[hit]], found[walk[hit]] = x[hit], True
        walk = walk[~hit]
        h[walk] *= 2.0
    found = np.flatnonzero(found)
    lost = found[~np.isfinite(_psi(k[:, found], end[found], below[found])[0])]
    w[lost] = end[lost]
    return w


# kept intervals that take every point: one holds all, two meet none
_WHOLE = np.array(((-math.inf, math.inf), (math.inf, -math.inf), (math.inf, -math.inf)))


def _kept(checks, coef, spans) -> np.ndarray:
    """Each check's intervals [left, right) as an (n, 3, 2) array, from its
    rows of ``coef`` (x_lo, x_hi, v, s, gamma, c) and ``spans`` (its span's
    piece): outside them psi > 0 at every point of the span.  x is split at
    x_lo and at the cut 1 into three regions; in each, the contacts it holds
    (else its point nearest x_lo) are kept, and every point up to the
    witness from the outermost toward each end, walked for all checks at
    once; a point that ends one region and starts the next is kept once.  A
    check whose span or step is not finite, or whose minorant overrides
    __call__, keeps _WHOLE."""
    start, stop, num = spans.T
    plain = [type(check.minorant).__call__ is QuadraticMinorant.__call__ for check in checks]
    bounded = np.isfinite(start) & np.isfinite((stop - start) / (num - 1.0)) & np.array(plain, bool)
    winsor = np.array([check.kind is MomentKind.WINSOR for check in checks], bool)
    x_lo, _, value, slope, gamma, c = coef.T
    f_flat = np.where(winsor, np.where(c < 709.0, np.exp(c), math.inf), 1.0)
    k = np.array((x_lo, value, slope, gamma, c, f_flat))[:, bounded]
    cuts = np.stack((start, np.minimum(x_lo, 1.0), np.maximum(x_lo, 1.0), stop), 1)[bounded]
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    below = lo < 1.0  # the region's points are below 1, where F = e^{cx}
    contacts = coef[bounded, None, :2]
    inside = (lo[..., None] <= contacts) & (contacts <= hi[..., None])
    inside &= ~(below[..., None] & (contacts >= 1.0))
    nearest = np.minimum(np.maximum(k[0, :, None], lo), hi)
    p = np.where(inside.any(2), np.where(inside, contacts, math.inf).min(2), nearest)
    q = np.where(inside.any(2), np.where(inside, contacts, -math.inf).max(2), nearest)
    ends, walk = np.stack((lo, hi), 2), np.nonzero(np.stack((p > lo, q < hi), 2))
    ends[walk] = _witnesses(k[:, walk[0]], np.stack((p, q), 2)[walk], ends[walk], below[walk[:2]])
    ends[..., 1] = np.nextafter(ends[..., 1], math.inf)
    ends[:, 1:, 0] = np.maximum(ends[:, 1:, 0], ends[:, :-1, 1])
    kept = np.tile(_WHOLE, (len(checks), 1, 1))
    kept[bounded] = ends
    return kept


def _first_at(start, stop, num, bound):
    """For each piece np.linspace(start, stop, num) (arrays), the index of
    its first point, as _points forms them, at or above bound; num if none."""
    step = (stop - start) / np.maximum(num - 1.0, 1.0)
    point = lambda i: np.where(i == num - 1.0, stop, i * step + start)
    i = np.ceil(np.fmin(np.fmax((bound - start) / step, 0.0), num))  # fmax: 0/0 where num = 1
    while (down := (i > 0.0) & (point(i - 1.0) >= bound)).any():
        i -= down
    while (up := (i < num) & (point(i) < bound)).any():
        i += up
    return i.astype(np.intp)


def _runs(pieces, kept):
    """The run table of checks with grid ``pieces`` (np.linspace's (start,
    stop, num), each check's last its span) and ``kept`` intervals: for each
    run, the points of a piece in a kept interval, its check, its piece and
    its index range [first, end); by check, then piece, then x."""
    start, stop, num = pieces.T
    span = num == GRID_BASE_POINTS  # each check's last piece
    owner = np.cumsum(span) - span
    left, right = kept[owner, :, 0], kept[owner, :, 1]  # each piece's check's, by slot
    meets = (left <= stop[:, None]) & (start[:, None] < right)
    whole = left[:, 0] == -math.inf
    meets[:, 0] |= whole
    piece, slot = np.nonzero(meets)
    owner, start, stop, num, whole = (column[piece] for column in (owner, start, stop, num, whole))
    first = _first_at(start, stop, num, left[piece, slot])
    end = _first_at(start, stop, num, right[piece, slot])
    first[whole], end[whole] = 0, num[whole]
    keep = first < end
    return owner[keep], start[keep], stop[keep], num[keep], first[keep], end[keep]


def _points(runs) -> np.ndarray:
    """The points of a run table's runs as one array, each formed as
    np.linspace forms its piece: index*step + start, the last point stop."""
    start, stop, num, first, end = runs[1:]
    size = end - first
    ends = np.cumsum(size)
    x = np.arange(ends[-1], dtype=float)
    x -= np.repeat((ends - size - first).astype(float), size)
    x *= np.repeat((stop - start) / np.maximum(num - 1.0, 1.0), size)
    x += np.repeat(start, size)
    last = end == num
    x[ends[last] - 1] = stop[last]
    return x


def _evaluate(checks, coef, pieces, bounds, kept) -> list[CertificateReport]:
    """One pass over each of ``checks`` (Winsorized first, check j's pieces
    from row bounds[j] on), as its report.  Run tables are formed for slabs
    of checks of one kind with at most _CHUNK (piece, kept slot) pairs, at
    seven pieces a check, and go to _fold in chunks of whole checks of at
    most _CHUNK points; a larger check, such as a whole grid, goes alone."""
    folds, slab = [], _CHUNK // 21
    split = sum(check.kind is MomentKind.WINSOR for check in checks)
    slabs = [*range(0, split, slab), *range(split, len(checks), slab), len(checks)]
    for first, last in zip(slabs, slabs[1:]):
        runs = _runs(pieces[bounds[first]:bounds[last]], kept[first:last])
        ends = [0, *np.cumsum(np.bincount(runs[0], minlength=last - first)).tolist()]
        counts = np.add.reduceat(runs[5] - runs[4], ends[:-1]).tolist()
        a = 0
        while a < last - first:
            b, n = a + 1, counts[a]
            while b < last - first and n + counts[b] <= _CHUNK:
                n, b = n + counts[b], b + 1
            chunk = [column[ends[a]:ends[b]] for column in runs]
            chunk[0], mine = chunk[0] - a, slice(first + a, first + b)
            folds.append(_fold(checks[mine], coef[mine], chunk, counts[a:b]))
            a = b
    worst, worst_x, localized, f, g = (np.concatenate(column, -1) for column in zip(*folds))
    contacts, (slope, gamma, c) = coef[:, :2].T, coef[:, 3:].T
    g_slope = slope + 2.0 * gamma * (contacts - contacts[0])
    slope_gap = np.where(contacts < 1.0, c * f, 0.0) - g_slope
    slope_gap = np.where(contacts == 1.0, np.where(0.0 > g_slope, 0.0, g_slope), np.abs(slope_gap))
    scale = np.where(f > 1.0, f, 1.0)  # max(1, F), 1 where F is NaN
    return [CertificateReport(  # passed, worst_gap, worst_x, equality_localized, ...
        worst_gap >= -GAP_RTOL and localized, worst_gap if worst_gap == worst_gap else math.nan,
        worst_x, localized, check.n_points, dict(zip(check.minorant.contact_points, zip(*gaps))),
    ) for check, worst_gap, worst_x, localized, *gaps in zip(
        checks, worst.tolist(), worst_x.tolist(), localized.tolist(),
        (np.abs(f - g) / scale).T.tolist(), (slope_gap / scale).T.tolist(),
    )]


def _fold(checks, coef, runs, counts):
    """One chunk of checks of one kind: F, G and the gap at all their points
    as one array.  Returns each check's worst gap and its x by argmin's rule
    (a NaN first, then the least gap, then the least x), whether its
    equalities lie near its contacts, and F and G at each contact (at its
    one-point piece).  A lone check calls its own minorant, whose __call__
    may be overridden: its whole grid is more than _CHUNK points."""
    x = _points(runs)
    ends = np.cumsum(size := runs[5] - runs[4])
    starts = np.cumsum(counts) - counts
    contacts, (x_lo, value, slope, gamma, c) = coef[:, :2].T, coef[:, [0, 2, 3, 4, 5]].T
    point = np.flatnonzero(runs[3] == 1.0)  # the one-point pieces: each contact and the cut
    slot, piece = np.nonzero(runs[2][point] == contacts[:, runs[0][point]])
    at = np.zeros(contacts.shape, dtype=np.intp)  # each contact's offset in x
    at[slot, runs[0][point[piece]]] = ends[point[piece]] - 1
    g = checks[0].minorant(x) if len(checks) == 1 else _horner(x, x_lo, value, slope, gamma, counts)
    f = _capped_exp(checks[0].kind, np.repeat(c, counts), x, np.empty_like(x))
    at_contacts = f[at], g[at]
    gap = np.subtract(f, g, out=g)
    gap /= np.maximum(f, 1.0, out=f)
    del f
    worst = np.minimum.reduceat(gap, starts)
    ties = gap == np.repeat(worst, counts)
    if np.isnan(worst).any():  # a NaN is its check's worst
        ties |= np.isnan(gap)
    worst_x = np.minimum.reduceat(np.where(ties, x, math.inf), starts)
    # a run's points are sorted: with both its ends in a window, all are near a contact
    near = lambda x, j: np.abs(x - contacts[:, j]) <= window[:, j]
    window = CONTACT_WINDOW * (1.0 + np.abs(contacts))
    covered = (near(x[ends - size], runs[0]) & near(x[ends - 1], runs[0])).any(0)
    localized = np.ones(len(checks), dtype=bool)
    if not covered.all():  # equalities are sought in the runs that no window covers
        loose = np.flatnonzero(np.repeat(~covered, size))
        loose = loose[np.abs(gap[loose]) <= EQUALITY_RTOL]
        owner = runs[0][np.searchsorted(ends, loose, "right")]
        localized[owner[~near(x[loose], owner).any(0)]] = False
    return worst, worst_x, localized, *at_contacts


_Check = namedtuple("_Check", "minorant kind c n_points")


def check_certificate(
    minorant: QuadraticMinorant, kind: MomentKind, c: float
) -> CertificateReport:
    """Verify G <= F on certificate_grid with equality only near the contacts.

    contact_gaps holds, for each contact x0, the value and slope gaps
    relative to max(1, F(x0)), from the F and G computed at x0's own grid
    point.  Inside a piece of F they are |F - G| and |F' - G'|, with G'(x) =
    lower_slope + 2 gamma (x - x_lo).  On the cut (x0 = 1) the slope gap is
    max(G'(1), 0): with gamma < 0, F - G is convex on x < 1 and on x >= 1,
    so a zero value there plus G'(1) <= 0 is what proves G <= F on the right
    of the cut.

    The report is argmin's on the sorted grid: a NaN gap first, then the least
    gap, then the least x.  One np.errstate ignores every floating-point
    error: a G of -inf, or an F - G past the doubles, is a gap of +inf, and an
    F of +inf a NaN gap (inf/inf), which fails it.  Only the points in _kept's
    intervals are evaluated: every other one has psi > 0, so a gap above
    EQUALITY_RTOL, which is no equality and, while the evaluated worst is NaN
    or at most EQUALITY_RTOL, no worst gap or tie of it.  Otherwise, and for
    a minorant whose __call__ is overridden or a grid whose points are not
    ordered, a second pass evaluates the whole grid (106,007 points at three
    distinct centres).  This is check_certificates on one case."""
    return check_certificates([(minorant, kind, c)])[0]


def check_certificates(cases) -> list[CertificateReport]:
    """check_certificate's report for each (minorant, kind, c) of ``cases``,
    bit for bit.  The checks go by kind; their grid pieces and coefficients
    are formed once, as arrays, and _kept walks all their witnesses in
    lockstep.  Their first passes are evaluated in chunks (_evaluate); a
    second, whole-grid pass runs per check."""
    cases = [(minorant, _choice(MomentKind, "kind", kind), c) for minorant, kind, c in cases]
    if not cases:
        return []
    order = sorted(range(len(cases)), key=lambda j: cases[j][1] is MomentKind.TRUNC)
    coef = np.array([(*cases[j][0].contact_points, *cases[j][0][1:], cases[j][2]) for j in order])
    with np.errstate(all="ignore"):
        pieces = _grid_pieces(coef[:, :2])
        spans = np.flatnonzero(pieces[:, 2] == GRID_BASE_POINTS)  # each check's last piece
        bounds = [0, *(spans + 1).tolist()]
        n_points = np.add.reduceat(pieces[:, 2], bounds[:-1]).astype(int).tolist()
        checks = [_Check(*cases[j], n) for j, n in zip(order, n_points)]
        kept = _kept(checks, coef, pieces[spans])
        reports = _evaluate(checks, coef, pieces, bounds, kept)
        for j in np.flatnonzero(kept[:, 0, 0] > -math.inf).tolist():
            if reports[j].worst_gap > EQUALITY_RTOL:  # not NaN
                one, mine = slice(j, j + 1), pieces[bounds[j]:bounds[j + 1]]
                [reports[j]] = _evaluate(checks[one], coef[one], mine, [0, len(mine)], _WHOLE[None])
    return [reports[j] for j in sorted(range(len(order)), key=order.__getitem__)]
