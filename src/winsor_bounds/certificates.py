"""Grid checks of the quadratic tangent-minorant certificates.

``law.minorant`` builds the parabola G that proves a Bound (see ``law``).
This module checks its geometry on dense grids (G <= F, equality only near
the contacts) and reads the value and slope gaps at each contact
(one-sided on the cut) from the grid's own F and G there.

_capped_exp and _horner (QuadraticMinorant.__call__ for a chunk of checks)
compute every F and G a report reads.
F - G is convex on each piece of F, so its gap nears equality only near a
contact, and the grid check skips points by two rules.  Convexity
witnesses (_kept, walked in lockstep arrays of _psi) prove most points
clear of the equality tolerance.  In a contact's window, where they prove
nothing, a Taylor bound with rounding margins (_reach) proves all but the
few points nearest the contact above every gap that could be the worst.
The check evaluates the rest and reports what the whole grid would.
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


def _grid_pieces(contacts, reach=None) -> np.ndarray:
    """The pieces of the grids of the rows (x_lo, x_hi) of ``contacts``, grid
    by grid, as rows (start, stop, num, lo, hi): a window and the point at
    each contact and x = 1 (each centre once), then a wide span, each as
    np.linspace's (start, stop, num).  [lo, hi] is a contact's ``reach``
    (see _reach) on its window, and (-inf, inf) on every other piece and
    where reach is None."""
    x0 = np.column_stack((contacts, np.ones(len(contacts))))
    window, size = 1e-3 * (1.0 + np.abs(x0)), np.abs(contacts)
    span = 10.0 * np.where(np.isnan(size[:, 0]), math.nan, np.fmax(np.fmax(*size.T), 1.0))
    num = np.broadcast_to((GRID_WINDOW_POINTS, 1.0), (*x0.shape, 2))
    lo, hi = np.full((*x0.shape, 2), -math.inf), np.full((*x0.shape, 2), math.inf)
    if reach is not None:
        lo[:, :2, 0], hi[:, :2, 0] = reach[..., 0], reach[..., 1]
    starts, stops = np.stack((x0 - window, x0), 2), np.stack((x0 + window, x0), 2)
    rows = np.stack((starts, stops, num, lo, hi), 3)
    spans = np.tile((-1.0, 1.0, GRID_BASE_POINTS, -math.inf, math.inf), (len(x0), 1))
    spans[:, :2] *= span[:, None]
    once = np.column_stack([(x0[:, :k] != x0[:, k, None]).all(1) for k in range(3)])
    keep = np.column_stack((once.repeat(2, 1), np.ones(len(x0), dtype=bool)))
    return np.concatenate((rows.reshape(-1, 6, 5), spans[:, None]), 1)[keep]


def certificate_grid(minorant: QuadraticMinorant) -> np.ndarray:
    """Evaluation grid: the points check_certificate covers, sorted and unique."""
    pieces = _grid_pieces(np.array([minorant.contact_points], dtype=float))[:, :3].tolist()
    return np.unique(np.concatenate([np.linspace(a, b, int(num)) for a, b, num in pieces]))


def _spread(u, value, slope, gamma):
    """|v| + |s||u| + |gamma| u^2 (gamma < 0): the size of G's terms at u."""
    return np.abs(value) + np.abs(slope * u) - gamma * u * u


def _slack(f, spread):
    """A bound on the rounding of F and G at a point with F <= f and _spread
    <= spread: 1e-12 F covers c*x's rounding and exp's error, the 1e-13 term
    is about 100 times the Horner error gamma_3 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), 1e-299 covers subnormals."""
    return 1e-12 * f + 1e-13 * spread + 1e-299


def _curvature(below, c, f, gamma):
    """(F - G)'' = c^2 F - 2 gamma where F = e^{cx} (``below`` the cut), else
    -2 gamma; positive, as gamma < 0."""
    return np.where(below, c * c * f, 0.0) - 2.0 * gamma


def _psi(k, x, below):
    """psi(x) = (1 - q) F - G - q - _slack (q = _Q, u = x - x_lo), a bound on
    its float error, and F(x) = e^{cx} where ``below`` (inf from cx = 709
    on), else f_flat, for arrays of walks with rows k = (x_lo, v, s, gamma,
    c, f_flat).  psi(x) > 0 puts check_certificate's gap at x above
    EQUALITY_RTOL: _slack covers the rounding of F and G, and q (F + 1)
    clears EQUALITY_RTOL max(1, F)."""
    x_lo, value, slope, gamma, c, f = k
    cx = c * x
    f = np.where(below, np.where(cx < 709.0, np.exp(cx), math.inf), f)
    u = x - x_lo
    g = value + u * (slope + gamma * u)
    spread = _spread(u, value, slope, gamma)
    psi = (1.0 - _Q) * f - g - _Q - _slack(f, spread)
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
    curvature = _curvature(below, k[4], f, k[3])
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


def _reach(winsor, coef) -> np.ndarray:
    """Each check's reach [x0 - r, x0 + r'] around each of its contacts x0
    (rows of ``coef`` as _kept's, ``winsor`` true for the checks of the
    Winsorized kind), as an (n, 2, 2) array: every point of
    x0's window past it has a computed gap above q = max(0, the least gap
    at the check's contacts), and so above its worst gap, which is at most
    q because the fold evaluates each contact's own point.  On a side of
    x0, to x0 -+ 1e-3 (1 + |x0|), that lies on one piece of F (below or
    above the cut 1), Taylor gives h = F - G >= h(x0) - B d + m d^2 / 2 at
    d = |x - x0|, with B >= |h'(x0)| and m = (c^2 (the side's least F, below
    1) - 2 gamma) (1 - 1e-12) <= h'' > 0.  r is the larger root (0 if none)
    of that bound = q (1 + 1e-12) max(1, F) + 2 slack, where slack is
    _slack with F and _spread at their largest on the side (_spread is
    convex in u), _psi's bound on the rounding of F and G, taken once at x0
    and once at x; the 1e-12 terms of B, m and max(1, F) cover their
    rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    3).  F and G at the contacts are formed as _fold forms them.  A side
    that reaches the cut and a bound that is not finite reach their whole
    side (-+inf)."""
    x_lo, _, value, slope, gamma, c = (column[:, None, None] for column in coef.T)
    winsor = winsor[:, None, None]
    x0 = coef[:, :2, None]
    far = x0 + np.array((-1.0, 1.0)) * (1e-3 * (1.0 + np.abs(x0)))  # each side's window end
    x = np.concatenate((x0, far), 2)  # (n, 2, 3): each contact, then its two sides' ends
    f = np.exp(np.where(winsor, c * np.minimum(x, 1.0), np.where(x < 1.0, c * x, 0.0)))
    u = x - x_lo
    g = _horner(x.ravel(), *coef[:, [0, 2, 3, 4]].T, 6).reshape(x.shape)
    q = np.maximum(((f - g) / np.maximum(f, 1.0))[:, :, :1].min(1, keepdims=True), 0.0)
    spread = _spread(u, value, slope, gamma)
    f0, u0 = f[..., :1], u[..., :1]
    f_lo, f_hi = np.minimum(f0, f[..., 1:]), np.maximum(f0, f[..., 1:])
    slack = _slack(f_hi, np.maximum(spread[..., :1], spread[..., 1:]))
    below = x0 < 1.0
    f_slope, curve = np.where(below, c * f0, 0.0), 2.0 * gamma * u0  # F'(x0), G'(x0) - slope
    b = np.abs(f_slope - (slope + curve))
    b += 1e-12 * (np.abs(f_slope) + np.abs(slope) + np.abs(curve))
    m = _curvature(below, c, f_lo, gamma) * (1.0 - 1e-12)
    target = q * (1.0 + 1e-12) * np.maximum(f_hi, 1.0) + 2.0 * slack - (f0 - g[..., :1])
    disc = b * b + 2.0 * m * target
    r = np.where(disc < 0.0, 0.0, (b + np.sqrt(disc)) / m)  # no root: the bound clears q everywhere
    one_piece = (np.minimum(x0, far) > 1.0) | (np.maximum(x0, far) < 1.0)
    r = np.where(one_piece & (m > 0.0) & np.isfinite(r), r, math.inf)
    return x0 + np.array((-1.0, 1.0)) * r


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
    """The run table of checks with grid ``pieces`` (_grid_pieces' rows,
    each check's last its span) and ``kept`` intervals: for each run, the
    points of a piece in a kept interval, its check, its piece and its
    index range [first, end); by check, then piece, then x.  A piece keeps
    only its points in its [lo, hi] and one index on either side; a check
    that keeps _WHOLE keeps every point."""
    start, stop, num, lo, hi = pieces.T
    span = num == GRID_BASE_POINTS  # each check's last piece
    owner = np.cumsum(span) - span
    near_first = _first_at(start, stop, num, lo) - 1
    near_end = _first_at(start, stop, num, np.nextafter(hi, math.inf)) + 1
    left, right = kept[owner, :, 0], kept[owner, :, 1]  # each piece's check's, by slot
    meets = (left <= stop[:, None]) & (start[:, None] < right)
    whole = left[:, 0] == -math.inf
    meets[:, 0] |= whole
    piece, slot = np.nonzero(meets)
    owner, start, stop, num, whole = (column[piece] for column in (owner, start, stop, num, whole))
    first = np.maximum(_first_at(start, stop, num, left[piece, slot]), near_first[piece])
    end = np.minimum(_first_at(start, stop, num, right[piece, slot]), near_end[piece])
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
    distinct centres).  Of the window around a contact x0, the first pass
    also skips the points outside _reach's radius, with one index of margin:
    on a side of x0 that does not reach the cut, a Taylor bound on F - G,
    less margins for the rounding of F, G, the slope and the curvature,
    proves their gaps above max(0, the least contact gap), so above the
    worst gap, and they lie within CONTACT_WINDOW of x0, where an equality
    is allowed.  This is check_certificates on one case."""
    return check_certificates([(minorant, kind, c)])[0]


def check_certificates(cases) -> list[CertificateReport]:
    """check_certificate's report for each (minorant, kind, c) of ``cases``,
    bit for bit.  The checks go by kind; their grid pieces and coefficients
    are formed once, as arrays; _kept walks all their witnesses in lockstep,
    and _reach bounds all their contact windows.  Their first passes are
    evaluated in chunks (_evaluate); a second, whole-grid pass runs per
    check."""
    cases = [(minorant, _choice(MomentKind, "kind", kind), c) for minorant, kind, c in cases]
    if not cases:
        return []
    order = sorted(range(len(cases)), key=lambda j: cases[j][1] is MomentKind.TRUNC)
    coef = np.array([(*cases[j][0].contact_points, *cases[j][0][1:], cases[j][2]) for j in order])
    winsor = np.array([cases[j][1] is MomentKind.WINSOR for j in order], bool)
    with np.errstate(all="ignore"):
        pieces = _grid_pieces(coef[:, :2], _reach(winsor, coef))
        spans = np.flatnonzero(pieces[:, 2] == GRID_BASE_POINTS)  # each check's last piece
        bounds = [0, *(spans + 1).tolist()]
        n_points = np.add.reduceat(pieces[:, 2], bounds[:-1]).astype(int).tolist()
        checks = [_Check(*cases[j], n) for j, n in zip(order, n_points)]
        kept = _kept(checks, coef, pieces[spans, :3])
        reports = _evaluate(checks, coef, pieces, bounds, kept)
        for j in np.flatnonzero(kept[:, 0, 0] > -math.inf).tolist():
            if reports[j].worst_gap > EQUALITY_RTOL:  # not NaN
                one, mine = slice(j, j + 1), pieces[bounds[j]:bounds[j + 1]]
                [reports[j]] = _evaluate(checks[one], coef[one], mine, [0, len(mine)], _WHOLE[None])
    return [reports[j] for j in sorted(range(len(order)), key=order.__getitem__)]
