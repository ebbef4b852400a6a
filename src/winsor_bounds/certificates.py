"""Grid checks of the quadratic tangent-minorant certificates.

``law.minorant`` builds the parabola G that proves a Bound (see ``law``).
This module checks its geometry on dense grids (G <= F, equality only near
the contacts) and reads the value and slope gaps at each contact
(one-sided on the cut) from F and G formed once, at the contact itself.

_f_and_g computes every F and G a report reads, F by _capped_exp and G as
QuadraticMinorant.__call__ forms it.
F - G is convex on each piece of F (x < 1 and x >= 1), so its gap nears
equality only near a contact, and the grid check skips points by one rule
(_radius): from each contact, and the cut where the piece x >= 1 holds
none, a Taylor bound with rounding margins gives in closed form a radius
on each side past which every point's gap is above every gap that could
be the worst, and, but in a contact's window, above the equality
tolerance.  The check evaluates the rest in one pass and reports what the
whole grid would.  check_certificates evaluates many checks together,
_CHUNK points at a time.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import ParameterError, _choice, require_real
from .law import QuadraticMinorant

GAP_RTOL = 1e-12       # allowed negative gap, relative to max(1, F)
EQUALITY_RTOL = 1e-10  # |F - G| below this counts as contact
CONTACT_WINDOW = 1e-2  # equality must sit within this relative distance
GRID_BASE_POINTS = 100_001  # uniform points across the span of the grid
GRID_WINDOW_POINTS = 2_001  # points in the window around each contact and the kink
_CHUNK = 1 << 13  # the most points check_certificates evaluates at once; a whole grid is more


class MomentKind(str, Enum):
    WINSOR = "winsor"
    TRUNC = "trunc"


def capped_exp(kind: MomentKind, c, x):
    """F(x): exp(c*min(1,x)) for winsor, exp(c*x*1{x<1}) for trunc; c is a
    scalar or an array that broadcasts against x."""
    kind = _choice(MomentKind, "kind", kind)
    with np.errstate(under="ignore"):
        return _capped_exp(kind is MomentKind.WINSOR, _reals("c", c), _reals("x", x))[()]


def _reals(name: str, value) -> np.ndarray:
    """value as a float array, or a ParameterError naming ``name`` unless it
    is a real or an array of reals (of a bool, integer or float dtype)."""
    try:
        array = np.asarray(value)
        if array.dtype.kind in "biuf":  # not a str, None, a complex or another object
            return array.astype(float, copy=False)
    except ValueError:  # a ragged sequence
        pass
    raise ParameterError(f"{name} must be a real or an array of reals, got {value!r}")


def _capped_exp(winsor, c, x: np.ndarray) -> np.ndarray:
    """capped_exp's body, for callers that hold an array x and
    np.errstate(under="ignore") already, in one new array: the Winsorized F
    where ``winsor`` (a bool, or an array that broadcasts against x), else
    the truncated one."""
    f = np.minimum(x, 1.0, out=np.empty(np.broadcast(c, x).shape))
    f *= c
    # F is 1 where the kind is truncated and x is not below the cut (or NaN); a
    # comparison, not a logical or, is fast with a bool scalar
    np.copyto(f, 0.0, where=(x < 1.0) < np.logical_not(winsor))
    return np.exp(f, out=f)


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


def _f_and_g(winsor, coef, x, at=lambda column: column[:, None, None], g=None):
    """F and G at points x of the checks with rows (x_lo, x_hi, v, s, gamma,
    c) of ``coef`` (``winsor`` true for the Winsorized kind); at(column)
    spreads a column of the checks over x's shape, by default an (n, k, j)
    x.  G is QuadraticMinorant.__call__'s Horner form, bit for bit, with one
    temporary, unless ``g`` is given; F is _capped_exp's, formed once no
    temporary of G is alive."""
    x_lo, _, value, slope, gamma, c = coef.T
    if g is None:
        u = x - at(x_lo)
        g = at(gamma) * u
        g += at(slope)
        g *= u
        g += at(value)
        del u
    return _capped_exp(at(winsor), at(c), x), g


def _radius(winsor, coef, x0, far, level) -> np.ndarray:
    """For each anchor x0, an (n, k, 1) array, and the ends ``far`` (n, k, 2)
    of its two sides [far, x0] and [x0, far'] (args as _f_and_g's), the radii
    (r, r') past which every point x of a side has a computed gap above
    ``level`` (n, 1, 1).  With l = level (1 + 1e-11) + 1e-300, that holds
    where psi = (1 - l - 1.01e-12) F - G - l - 1e-13 S - 1e-299 > 0, S the
    largest _spread on the side (_spread is convex): then F - G less _slack,
    the rounding of F and G at x, is above l (F + 1) >= l max(1, F).  The
    1e-11 covers the rounding of the gap, the 1e-14 F that of psi's
    coefficient of F.  On a side that lies on one piece of F (x < 1 or x >=
    1), Taylor gives psi(x) >= psi(x0) - B d + m d^2 / 2 at d = |x - x0|,
    with B at least psi's fall per unit of d at x0 and m at most psi'' =
    c^2 (1 - l - 1.01e-12) F - 2 gamma (F is monotone on a piece), each less
    1e-12 of its terms for their rounding, and psi(x0) less _slack at x0.  r
    is the larger root of that bound (0 if none), and inf where it or F at
    the side's end is not finite, m <= 0 or the side leaves its piece."""
    x_lo, _, value, slope, gamma, c = coef.T.reshape(6, -1, 1, 1)
    x = np.concatenate((x0, far), 2)  # each anchor, then its two sides' ends
    f, g = _f_and_g(winsor, coef, x)
    spread = _spread(x - x_lo, value, slope, gamma)
    level = level * (1.0 + 1e-11) + 1e-300
    k = 1.0 - level - 1.01e-12  # psi's coefficient of F
    below = x0 < 1.0
    f0, f_slope = f[..., :1], np.where(below, c * f[..., :1], 0.0)  # F(x0), F'(x0)
    curve = 2.0 * gamma * (x0 - x_lo)  # G'(x0) - s
    b = np.array((1.0, -1.0)) * (k * f_slope - (slope + curve))  # psi's fall per unit of d
    b += 1e-12 * (np.abs(k * f_slope) + np.abs(slope) + np.abs(curve))
    kf = np.where(below, c * c * np.minimum(k * f0, k * f[..., 1:]), 0.0)
    m = kf - 2.0 * gamma - 1e-12 * (np.abs(kf) - 2.0 * gamma)
    spread_hi = np.maximum(spread[..., :1], spread[..., 1:])
    deficit = _slack(np.abs(k) * f0 + level, spread[..., :1] + spread_hi) + 1e-299
    deficit -= k * f0 - g[..., :1] - level  # psi(x0)
    disc = b * b + 2.0 * m * deficit
    r = np.where(disc < 0.0, 0.0, np.maximum(b + np.sqrt(disc), 0.0) / m)  # no root: all clear
    one_piece = (np.maximum(x0, far) < 1.0) | (np.minimum(x0, far) >= 1.0)
    finite = np.isfinite(r) & (f[..., 1:] < math.inf)  # F is monotone on the side
    return np.where(one_piece & (m > 0.0) & finite, r, math.inf)


def _around(x0, r) -> np.ndarray:
    """The intervals [x0 - r, x0 + r'] for radii (r, r') on the last axis,
    each end moved out by 2^-48 (|x0| + r), 32 ulps, for the rounding of r
    and of x0 -+ r."""
    return x0 + np.array((-1.0, 1.0)) * (r + 2.0**-48 * (np.abs(x0) + r))


def _reach(winsor, bounded, coef, f, g):
    """The points each check must evaluate (args as _f_and_g's; ``bounded``
    false for a check whose minorant overrides __call__; F and G at its
    contacts, (n, 2, 1)): its reach on the window of each of its contacts,
    as an (n, 2, 2) array, and its kept intervals on the whole grid, as an
    (n, 3, 2) array, sorted and disjoint.  Every other point has a computed
    gap above q = max(0, the least gap at the check's contacts), and so
    above its worst gap, which is at most q as the fold evaluates each
    contact's own point; outside the kept intervals it is above
    EQUALITY_RTOL too.  Both come from _radius: the reach from
    each contact's window, to x0 -+ 1e-3 (1 + |x0|), at level q; the kept
    intervals from each anchor's whole piece of F, x < 1 or x >= 1, within
    the span, at level max(q, EQUALITY_RTOL).  The anchors are the contacts,
    then the cut 1 where x_hi < 1 leaves the piece x >= 1 without one.  A
    check with x_lo >= 1, contacts out of order or NaN, or not ``bounded``
    keeps every point."""
    contacts = coef[:, :2, None]
    q = np.maximum(((f - g) / np.maximum(f, 1.0)).min(1, keepdims=True), 0.0)
    window = contacts + np.array((-1.0, 1.0)) * (1e-3 * (1.0 + np.abs(contacts)))
    reach = _around(contacts, _radius(winsor, coef, contacts, window, q))
    anchors = np.concatenate((contacts, np.ones_like(q)), 1)
    piece = np.where(anchors < 1.0, (-math.inf, np.nextafter(1.0, 0.0)), (1.0, math.inf))
    span = 10.0 * np.fmax(np.abs(contacts).max(1, keepdims=True), 1.0)  # as _grid_pieces'
    ends = np.clip(piece, -span, span)
    kept = _around(anchors, _radius(winsor, coef, anchors, ends, np.maximum(q, EQUALITY_RTOL)))
    kept = np.clip(kept, piece[..., :1], piece[..., 1:])
    kept[coef[:, 1] >= 1.0, 2] = (math.inf, -math.inf)  # the cut is no anchor
    bounded = bounded & (coef[:, 0] <= coef[:, 1]) & (coef[:, 0] < 1.0)
    reach[~bounded], kept[~bounded] = (-math.inf, math.inf), (-math.inf, math.inf)
    before = np.maximum.accumulate(kept[:, :-1, 1], 1)  # the intervals' ends so far
    kept[:, 1:, 0] = np.maximum(kept[:, 1:, 0], np.nextafter(before, math.inf))
    return reach, kept


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
    return np.where(bound < math.inf, i, num).astype(np.intp)  # where: a span that is not finite


def _runs(pieces, kept):
    """The run table of checks with grid ``pieces`` (_grid_pieces' rows,
    each check's last its span) and ``kept`` intervals: for each run, the
    points of a piece in its [lo, hi] and in one kept interval, its check,
    its piece and its index range [first, end); by check, then piece, then
    x."""
    start, stop, num, lo, hi = pieces.T
    span = num == GRID_BASE_POINTS  # each check's last piece
    owner = np.cumsum(span) - span
    left = np.maximum(kept[owner, :, 0], lo[:, None])
    right = np.nextafter(np.minimum(kept[owner, :, 1], hi[:, None]), math.inf)
    piece, slot = np.nonzero(~((left > stop[:, None]) | (right <= start[:, None])))  # NaN: meets
    left, right = left[piece, slot], right[piece, slot]
    owner, start, stop, num = (column[piece] for column in (owner, start, stop, num))
    first, end = _first_at(start, stop, num, left), _first_at(start, stop, num, right)
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


def _evaluate(minorants, winsor, coef, pieces, bounds, kept, f, g) -> list[CertificateReport]:
    """One pass over each check (check j's pieces from row bounds[j] on), as
    its report, its contact gaps from F and G at its contacts (rows of ``f``
    and ``g``, (n, 2)).  Run tables are formed for slabs of checks with at
    most _CHUNK (piece, kept slot) pairs, at seven pieces a check, and go to
    _fold in chunks of whole checks of at most _CHUNK points; a larger
    check, such as a whole grid, goes alone."""
    folds, slab = [], _CHUNK // 21
    slabs = [*range(0, len(minorants), slab), len(minorants)]
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
            folds.append(_fold(minorants[mine], winsor[mine], coef[mine], chunk, counts[a:b]))
            a = b
    worst, worst_x, localized = (np.concatenate(column) for column in zip(*folds))
    contacts, (slope, gamma, c) = coef[:, :2], coef.T[3:, :, None]
    g_slope = slope + 2.0 * gamma * (contacts - contacts[:, :1])
    slope_gap = np.where(contacts < 1.0, c * f, 0.0) - g_slope
    slope_gap = np.where(contacts == 1.0, np.where(0.0 > g_slope, 0.0, g_slope), np.abs(slope_gap))
    scale = np.where(f > 1.0, f, 1.0)  # max(1, F), 1 where F is NaN
    n_points = np.add.reduceat(pieces[:, 2], bounds[:-1]).astype(int).tolist()
    return [CertificateReport(  # passed, worst_gap, worst_x, equality_localized, ...
        worst_gap >= -GAP_RTOL and localized, worst_gap if worst_gap == worst_gap else math.nan,
        worst_x, localized, n, dict(zip(minorant.contact_points, zip(*gaps))),
    ) for minorant, n, worst_gap, worst_x, localized, *gaps in zip(
        minorants, n_points, worst.tolist(), worst_x.tolist(), localized.tolist(),
        (np.abs(f - g) / scale).tolist(), (slope_gap / scale).tolist(),
    )]


def _fold(minorants, winsor, coef, runs, counts):
    """One chunk of checks: F, G (_f_and_g, each check's kind and
    coefficients repeated over its points) and the gap at all their points
    as one array.  Returns each check's worst gap and its x by argmin's rule
    (a NaN first, then the least gap, then the least x), and whether each of
    its equalities (|gap| <= EQUALITY_RTOL) lies within CONTACT_WINDOW (1 +
    |x0|) of a contact x0.  A lone check calls its own minorant, whose
    __call__ may be overridden: its whole grid is more than _CHUNK points."""
    x = _points(runs)
    starts = np.cumsum(counts) - counts
    g = minorants[0](x) if len(minorants) == 1 else None
    f, g = _f_and_g(winsor, coef, x, lambda column: np.repeat(column, counts), g)
    gap = np.subtract(f, g, out=g)
    gap /= np.maximum(f, 1.0, out=f)
    del f
    worst = np.minimum.reduceat(gap, starts)
    ties = gap == np.repeat(worst, counts)
    if np.isnan(worst).any():  # a NaN is its check's worst
        ties |= np.isnan(gap)
    worst_x = np.minimum.reduceat(np.where(ties, x, math.inf), starts)
    # every point outside the kept intervals is above EQUALITY_RTOL: all equalities are here
    equal = np.flatnonzero(np.abs(gap) <= EQUALITY_RTOL)
    owner = np.searchsorted(starts, equal, "right") - 1
    contacts = coef[owner, :2].T
    near = np.abs(x[equal] - contacts) <= CONTACT_WINDOW * (1.0 + np.abs(contacts))
    localized = np.ones(len(minorants), dtype=bool)
    localized[owner[~near.any(0)]] = False
    return worst, worst_x, localized


def check_certificate(
    minorant: QuadraticMinorant, kind: MomentKind, c: float
) -> CertificateReport:
    """Verify G <= F on certificate_grid with equality only near the contacts.

    contact_gaps holds, for each contact x0, the value and slope gaps
    relative to max(1, F(x0)), from F and G formed once at x0 itself, G by
    the minorant's own __call__ where it is overridden.  Inside a piece of F
    they are |F - G| and |F' - G'|, with G'(x) = lower_slope + 2 gamma (x -
    x_lo).  On the cut (x0 = 1) the slope gap is max(G'(1), 0): with gamma <
    0, F - G is convex on x < 1 and on x >= 1, so a zero value there plus
    G'(1) <= 0 is what proves G <= F on the right of the cut.

    The report is argmin's on the sorted grid: a NaN gap first, then the least
    gap, then the least x.  One np.errstate ignores every floating-point
    error: a G of -inf, or an F - G past the doubles, is a gap of +inf, and an
    F of +inf a NaN gap (inf/inf), which fails it.  Only the points that
    _reach keeps are evaluated, in one pass.  Let q = max(0, the least contact
    gap), at least the worst gap as each contact's own point is evaluated.
    On each side of each contact, and right of the cut when x_hi < 1, a
    Taylor bound on F - G, less margins for the rounding of F, G, the slope
    and the curvature, gives a radius past which every point of the side's
    piece of F has a gap above max(q, EQUALITY_RTOL), so is neither the worst
    gap, a tie of it nor an equality; in a contact's window, where an equality
    is allowed, the radius at level q alone skips the points past it.  Every
    point is evaluated where a side's bound is not finite, and for a minorant
    whose __call__ is overridden (106,007 points at three distinct centres).
    This is check_certificates on one case."""
    return check_certificates([(minorant, kind, c)])[0]


def _case(case):
    """A case of check_certificates, with its kind a MomentKind and its c a
    float, or a ParameterError."""
    try:
        minorant, kind, c = case
    except (TypeError, ValueError):
        raise ParameterError(f"cases must hold (minorant, kind, c) triples, got {case!r}") from None
    if not isinstance(minorant, QuadraticMinorant):
        raise ParameterError(f"minorant must be a QuadraticMinorant, got {minorant!r}")
    return minorant, _choice(MomentKind, "kind", kind), require_real("c", c)


def check_certificates(cases) -> list[CertificateReport]:
    """check_certificate's report for each (minorant, kind, c) of ``cases``,
    bit for bit.  The checks' grid pieces, coefficients, F and G at their
    contacts and the points they skip (_reach) are formed once, as arrays,
    and one pass evaluates the rest in chunks (_evaluate).  A case that is
    no (minorant, kind, c) triple, a minorant that is no QuadraticMinorant
    and a c that is no real are refused; a c of 0, below 0, NaN or inf is
    checked."""
    cases = [_case(case) for case in cases]
    if not cases:
        return []
    minorants = [case[0] for case in cases]
    coef = np.array([(*minorant.contact_points, *minorant[1:], c) for minorant, _, c in cases])
    winsor = np.array([kind is MomentKind.WINSOR for _, kind, _ in cases], bool)
    plain = np.array([type(case[0]).__call__ is QuadraticMinorant.__call__ for case in cases])
    with np.errstate(all="ignore"):
        f, g = _f_and_g(winsor, coef, coef[:, :2, None])  # at the contacts
        for j in np.flatnonzero(~plain):  # a minorant that overrides __call__ gives its own G
            g[j, :, 0] = minorants[j](coef[j, :2])
        reach, kept = _reach(winsor, plain, coef, f, g)
        pieces = _grid_pieces(coef[:, :2], reach)
        spans = np.flatnonzero(pieces[:, 2] == GRID_BASE_POINTS)  # each check's last piece
        bounds = [0, *(spans + 1).tolist()]
        return _evaluate(minorants, winsor, coef, pieces, bounds, kept, f[..., 0], g[..., 0])
