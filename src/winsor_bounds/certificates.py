"""Quadratic tangent-minorant certificates.

Each bound in this package is proved by a parabola G lying below the capped
exponential F and touching it exactly at the extremal support points.
beta = G'(0) > 0 > gamma makes E G(X) monotone in the constraint moments, so
E F(X) >= E G(X) >= E G(X_{a,b}) = E F(X_{a,b}) for every admissible X.
Each G is stored anchored at its lower contact -a, where its value e^{-ac}
and slope c e^{-ac} are closed forms.  This module builds one from each
Bound (minorant) and checks the geometry on dense grids (G <= F, equality
only near the contacts), reading the value and slope gaps at each contact
(one-sided on the cut) from the grid's own F and G there.

_capped_exp and _horner (G's body) are the only code that computes F and G
on arrays.  F - G is convex on each piece of F, so its gap nears equality
only near a contact: the grid check evaluates only the points that a
convexity witness (_kept, from _psi) does not prove clear of the equality
tolerance, and reports what the whole grid would.  check_certificates
evaluates those points of many checks together, in arrays of at most
_CHUNK points.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from itertools import chain

import numpy as np

from .errors import ParameterError, _choice, require_positive
from .trunc import Branch
from .winsor import Bound, _support_point

GAP_RTOL = 1e-12       # allowed negative gap, relative to max(1, F)
EQUALITY_RTOL = 1e-10  # |F - G| below this counts as contact
CONTACT_WINDOW = 1e-2  # equality must sit within this relative distance
GRID_BASE_POINTS = 100_001  # uniform points across the span of the grid
GRID_WINDOW_POINTS = 2_001  # points in the window around each contact and the kink
_CHUNK = 1 << 14  # the most points check_certificates evaluates at once; a whole grid is more
_Q = 1.0001 * EQUALITY_RTOL  # psi's margin over the equality tolerance


class MomentKind(str, Enum):
    WINSOR = "winsor"
    TRUNC = "trunc"


class QuadraticMinorant(
    namedtuple("QuadraticMinorant", "contact_points lower_value lower_slope gamma")
):
    """G(x) = lower_value + lower_slope*u + gamma*u^2 with u = x - x_lo,
    touching F at ``contact_points`` = (x_lo, x_hi); beta = G'(0) > 0 > gamma,
    checked when the minorant is made, by ``_replace`` too.

    About the origin the coefficients reach e^c and cancel catastrophically
    near x_lo for large c; anchored at x_lo, roundoff stays proportional to F.
    """

    __slots__ = ()

    def __new__(cls, contact_points, lower_value, lower_slope, gamma):
        self = tuple.__new__(cls, (contact_points, lower_value, lower_slope, gamma))
        if not (self.beta > 0.0 > self.gamma):
            raise ParameterError(
                f"minorant requires beta > 0 > gamma, got beta={self.beta!r}, "
                f"gamma={self.gamma!r}"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def beta(self) -> float:
        """G'(0) = lower_slope - 2 gamma x_lo."""
        return self.lower_slope - 2.0 * self.gamma * self.contact_points[0]

    def __call__(self, x):
        """G(x)."""
        x_lo = self.contact_points[0]
        return _horner(x, x_lo, self.lower_value, self.lower_slope, self.gamma)[()]


def _horner(x, x_lo, value, slope, gamma) -> np.ndarray:
    """value + slope*u + gamma*u^2 with u = x - x_lo, formed in u's array
    with one temporary; the coefficients broadcast against x."""
    # in Horner form: (x - x_lo)^2 alone overflows once x_hi passes ~1.3e154
    u = np.subtract(x, x_lo, dtype=float)
    u_slope = u * gamma
    u_slope += slope
    u *= u_slope
    u += value
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


def minorant(result: Bound) -> QuadraticMinorant:
    """The parabola that proves ``result``: tangent to e^{cx} at -a, with
    c = result.tilt, and touching F at b.  On the truncated small-sigma
    branch b is the cut 1 and G(1) = 1 fixes gamma; otherwise G'(b) = 0,
    which gamma = -c e^{-ac} / (2(a+b)) gives: F is flat at b, and the
    support maps b_star and B_star, recomputed here from a, put G(b) on F.
    Roundoff at the truncated branch boundary may put B_star an ulp below
    the cut, where the truncation indicator flips; the branch pins b >= 1."""
    if not isinstance(result, Bound):
        raise ParameterError(f"result must be a Bound, got {result!r}")
    a, c = require_positive("a", result.a), require_positive("tilt", result.tilt)
    w = math.exp(-a * c)
    if result.branch is Branch.SMALL_SIGMA:
        b, gamma = 1.0, w * (math.exp(a * c) - a * c - c - 1.0) / (a + 1.0) ** 2
    else:
        b = max(_support_point(a, c, 0.0 if result.branch else c), 1.0)
        gamma = -c * w / (2.0 * (a + b))
    return QuadraticMinorant(contact_points=(-a, b), lower_value=w, lower_slope=c * w, gamma=gamma)


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


def _grid_pieces(minorant: QuadraticMinorant) -> list[tuple[float, float, int]]:
    """The grid's pieces as np.linspace's (start, stop, num): a window and
    the point at each contact and x = 1, then a wide span."""
    lo_c, hi_c = minorant.contact_points
    pieces = []
    for x0 in dict.fromkeys((lo_c, hi_c, 1.0)):
        window = 1e-3 * (1.0 + abs(x0))
        pieces += [(x0 - window, x0 + window, GRID_WINDOW_POINTS), (x0, x0, 1)]
    span = 10.0 * max(abs(lo_c), abs(hi_c), 1.0)
    return [*pieces, (-span, span, GRID_BASE_POINTS)]


def certificate_grid(minorant: QuadraticMinorant) -> np.ndarray:
    """Evaluation grid: the points check_certificate covers, sorted and unique."""
    return np.unique(np.concatenate([np.linspace(*piece) for piece in _grid_pieces(minorant)]))


def _psi(k, x: float, below: bool) -> tuple[float, float, float]:
    """psi(x) = (1 - 1e-12 - q) F - G - 1e-13 (|v| + |s||u| + |gamma| u^2) - q
    - 1e-299 (q = _Q, u = x - x_lo), a bound on its float error, and F(x):
    e^{cx} where ``below`` (inf from cx = 709 on), else f_flat, for k = (x_lo,
    v, s, gamma, c, f_flat).  psi(x) > 0 puts check_certificate's gap at x
    above EQUALITY_RTOL: 1e-12 F covers the rounding of c*x and exp's error,
    the 1e-13 term is about 100 times the Horner error gamma_3 (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3), 1e-299 covers
    subnormals and q (F + 1) clears EQUALITY_RTOL max(1, F)."""
    x_lo, value, slope, gamma, c, f = k
    if below:
        f = math.exp(c * x) if c * x < 709.0 else math.inf
    u = x - x_lo
    g = value + u * (slope + gamma * u)
    spread = abs(value) + abs(slope * u) - gamma * u * u
    psi = (1.0 - 1e-12 - _Q) * f - g - 1e-13 * spread - _Q - 1e-299
    return psi, 1e-12 * (f + abs(g) + _Q) + 1e-15 * spread + 1e-300, f


def _witness(k, p: float, end: float, below: bool) -> float:
    """A point w from p toward end with psi(w) > max(0, psi(p)) beyond both
    errors, or end if none: steps outward from p, the first 2 sqrt(-psi(p) /
    psi''(p)), doubling.  On a region where F keeps one formula and u one
    sign, psi is convex, so psi > 0 from w to end; F and |u| are monotone
    there, so finite at w and at end, they are finite between."""
    value, margin, f = _psi(k, p, below)
    if not math.isfinite(value):
        return end
    target, curvature = max(0.0, value + margin), (k[4] * k[4] * f if below else 0.0) - 2.0 * k[3]
    h = max(2.0 * math.sqrt(max(-value, margin) / curvature), 1e-6 * (1.0 + abs(p)))
    sign = 1.0 if end > p else -1.0
    while (p + sign * h - end) * sign < 0.0:
        value, margin, _ = _psi(k, p + sign * h, below)
        if value - margin > target:
            return p + sign * h if math.isfinite(_psi(k, end, below)[0]) else end
        h *= 2.0
    return end


def _kept(minorant: QuadraticMinorant, kind: MomentKind, c: float, start: float, stop: float):
    """Sorted intervals [left, right) of x outside which psi > 0 at every
    point from start to stop.  x is split at x_lo and at the cut 1 into regions;
    in each, the contacts it holds (else its end nearest x_lo) are kept,
    and every point up to the witness from the outermost toward each end."""
    contacts = minorant.contact_points
    x_lo = contacts[0]
    f_flat = (math.exp(c) if c < 709.0 else math.inf) if kind is MomentKind.WINSOR else 1.0
    k = (x_lo, minorant.lower_value, minorant.lower_slope, minorant.gamma, c, f_flat)
    cuts = (x_lo, 1.0) if x_lo < 1.0 else (1.0, x_lo)
    kept = []
    for lo, hi in zip((start, *cuts), (*cuts, stop)):
        below = lo < 1.0  # the region's points are below 1, where F = e^{cx}
        inside = [x0 for x0 in contacts if lo <= x0 <= hi and not (below and x0 >= 1.0)]
        p, q = (min(inside), max(inside)) if inside else (min(max(x_lo, lo), hi),) * 2
        left = _witness(k, p, lo, below) if p > lo else lo
        right = _witness(k, q, hi, below) if q < hi else hi
        if kept and left <= kept[-1][1]:
            kept[-1][1] = max(kept[-1][1], right)
        else:
            kept.append([left, right])
    return [(left, math.nextafter(right, math.inf)) for left, right in kept]


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


def _runs(checks):
    """The run table of one pass over ``checks``: for each run of grid
    points to evaluate, its check (an index into checks), its piece as
    np.linspace's (start, stop, num) and its index range [first, end); by
    check, then piece, then x.  A check's runs hold the points of each piece
    in each of its kept intervals (_kept returns at most three), or every
    point where kept is None."""
    start, stop, num = np.fromiter(chain.from_iterable(chain.from_iterable(
        _grid_pieces(check.minorant) for check in checks
    )), float).reshape(-1, 3).T
    span = num == GRID_BASE_POINTS  # each check's last piece
    owner = np.cumsum(span) - span
    pad = ((math.inf, -math.inf),) * 3  # meets no piece
    kept = np.fromiter(chain.from_iterable(chain.from_iterable(
        (*(check.kept or [(-math.inf, math.inf)]), *pad)[:3] for check in checks
    )), float, 6 * len(checks)).reshape(-1, 3, 2)
    left, right = kept[owner, :, 0], kept[owner, :, 1]  # each piece's check's, by slot
    meets = (left <= stop[:, None]) & (start[:, None] < right)
    whole = np.array([check.kept is None for check in checks], dtype=bool)[owner]
    meets[:, 0] |= whole
    piece, slot = np.nonzero(meets)
    owner, start, stop, num, whole = (
        owner[piece], start[piece], stop[piece], num[piece], whole[piece]
    )
    left, right = left[piece, slot], right[piece, slot]
    first = _first_at(start, stop, num, left)
    end = _first_at(start, stop, num, right)
    first[whole], end[whole] = 0, num[whole]
    keep = first < end
    return owner[keep], start[keep], stop[keep], num[keep], first[keep], end[keep]


def _points(runs) -> np.ndarray:
    """The points of a run table's runs as one array, each formed as
    np.linspace forms its piece: index*step + start, the last point stop."""
    start, stop, num, first, end = runs[1:]
    size = end - first
    ends = np.cumsum(size)
    x = np.subtract(np.arange(ends[-1]), np.repeat(ends - size - first, size), dtype=float)
    x *= np.repeat((stop - start) / np.maximum(num - 1.0, 1.0), size)
    x += np.repeat(start, size)
    last = end == num
    x[ends[last] - 1] = stop[last]
    return x


def _evaluate(checks) -> list[CertificateReport]:
    """One pass over each of ``checks``, as its report.  The checks go by
    kind, and in chunks of whole checks of at most _CHUNK points to _fold;
    a larger check, such as one whose whole grid is evaluated, goes alone."""
    order = sorted(range(len(checks)), key=lambda j: checks[j].kind is MomentKind.TRUNC)
    checks = [checks[j] for j in order]
    runs = _runs(checks)
    bounds = [0, *np.cumsum(np.bincount(runs[0], minlength=len(checks))).tolist()]
    counts = np.add.reduceat(runs[5] - runs[4], bounds[:-1]).tolist()
    reports, a = [], 0
    while a < len(checks):
        b, n = a + 1, counts[a]
        while b < len(checks) and n + counts[b] <= _CHUNK:
            n, b = n + counts[b], b + 1
        chunk = [column[bounds[a]:bounds[b]] for column in runs]
        chunk[0] = chunk[0] - a
        reports += _fold(checks[a:b], chunk, counts[a:b])
        a = b
    found = [None] * len(checks)
    for j, report in zip(order, reports):
        found[j] = report
    return found


def _fold(checks, runs, counts) -> list[CertificateReport]:
    """The reports of one chunk of checks, Winsorized first: F, G and the
    gap at all their points as one array, each check's coefficients repeated
    over its points; each check's worst point by argmin's rule (a NaN first,
    then the least gap, then the least x) and its equalities by segmented
    reductions; each contact's F and G read at its one-point piece.  A lone
    check calls its own minorant, whose __call__ may be overridden: its
    whole grid is more than _CHUNK points."""
    x = _points(runs)
    size = runs[5] - runs[4]
    ends = np.cumsum(size)
    starts = np.cumsum(counts) - counts
    each = lambda values: np.repeat(np.array(values, dtype=float), counts)
    minorants = [check.minorant for check in checks]
    contacts = np.array([m.contact_points for m in minorants], dtype=float).T
    point = runs[3] == 1.0  # the one-point pieces: each contact and the cut
    owner, x0, offset = runs[0][point], runs[2][point], (ends - 1)[point]
    at = np.zeros(contacts.shape, dtype=np.intp)  # each contact's offset in x
    for slot, contact in zip(at, contacts):
        mine = x0 == contact[owner]
        slot[owner[mine]] = offset[mine]
    if len(checks) == 1:
        g = minorants[0](x)
    else:
        _, *coefficients = zip(*minorants)  # lower_value, lower_slope, gamma
        g = _horner(x, each(contacts[0]), *map(each, coefficients))
    f, c = np.empty_like(x), each([check.c for check in checks])
    split = [*starts.tolist(), x.size][sum(check.kind is MomentKind.WINSOR for check in checks)]
    for kind, part in ((MomentKind.WINSOR, slice(split)), (MomentKind.TRUNC, slice(split, None))):
        _capped_exp(kind, c[part], x[part], f[part])
    del c
    at_contacts = zip(f[at].T.tolist(), g[at].T.tolist())
    gap = f - g
    del g
    gap /= np.maximum(f, 1.0, out=f)
    del f
    worst = np.minimum.reduceat(gap, starts)
    ties = gap == np.repeat(worst, counts)
    ties |= np.isnan(gap)
    worst_x = np.minimum.reduceat(np.where(ties, x, math.inf), starts)
    stray = np.abs(gap, out=gap) <= EQUALITY_RTOL  # equalities, then those near no contact
    del gap
    for contact in contacts:
        window = CONTACT_WINDOW * (1.0 + np.abs(contact))
        stray &= ~(np.abs(np.subtract(x, each(contact))) <= each(window))
    localized = (~np.logical_or.reduceat(stray, starts)).tolist()
    return [_report(*args) for args in zip(
        checks, worst.tolist(), worst_x.tolist(), localized, at_contacts
    )]


_Check = namedtuple("_Check", "minorant kind c n_points kept")  # kept: _kept's, or None


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

    The report is argmin's on the sorted grid: a NaN gap first, then the
    least gap, then the least x.  One np.errstate ignores every
    floating-point error: a G of -inf, or an F - G past the doubles, is a
    gap of +inf, and an F of +inf a NaN gap (inf/inf), which fails it.
    - Only the points in _kept's intervals are evaluated: every other one
      has psi > 0, so a gap above EQUALITY_RTOL, which is no equality and,
      while the evaluated worst is NaN or at most EQUALITY_RTOL, no worst
      gap or tie of it.  Otherwise, and for a minorant whose __call__ is
      overridden or a grid whose points are not ordered, a second pass
      evaluates the whole grid (106,007 points at three distinct centres).
    This is check_certificates on one case."""
    return check_certificates([(minorant, kind, c)])[0]


def check_certificates(cases) -> list[CertificateReport]:
    """check_certificate's report for each (minorant, kind, c) of ``cases``:
    bit for bit the one a call of its own gives.  _kept walks each check's
    witnesses in Python; then the first passes of all checks form one run
    table and are evaluated in chunks (_evaluate).  A second, whole-grid
    pass runs per check."""
    checks = []
    for minorant, kind, c in cases:
        kind = _choice(MomentKind, "kind", kind)
        pieces = _grid_pieces(minorant)
        start, stop, num = pieces[-1]
        bounded = math.isfinite(start) and math.isfinite((stop - start) / (num - 1))
        bounded &= type(minorant).__call__ is QuadraticMinorant.__call__
        kept = _kept(minorant, kind, c, start, stop) if bounded else None
        checks.append(_Check(minorant, kind, c, sum(piece[2] for piece in pieces), kept))
    with np.errstate(all="ignore"):
        reports = _evaluate(checks)
        for j, check in enumerate(checks):
            if check.kept is not None and reports[j].worst_gap > EQUALITY_RTOL:  # not NaN
                reports[j] = _evaluate([check._replace(kept=None)])[0]
    return reports


def _report(check, worst_gap, worst_x, localized, at_contacts) -> CertificateReport:
    """A check's report from its pass's worst point and localization and
    from F and G at each contact."""
    minorant, c = check.minorant, check.c
    contacts = minorant.contact_points
    contact_gaps = {}
    for x0, f0, g0 in zip(contacts, *at_contacts):
        g_slope = minorant.lower_slope + 2.0 * minorant.gamma * (x0 - contacts[0])
        f_slope = c * f0 if x0 < 1.0 else 0.0
        slope_gap = max(g_slope, 0.0) if x0 == 1.0 else abs(f_slope - g_slope)
        scale = max(1.0, f0)
        contact_gaps[x0] = (abs(f0 - g0) / scale, slope_gap / scale)
    return CertificateReport(
        passed=worst_gap >= -GAP_RTOL and localized,
        worst_gap=worst_gap if worst_gap == worst_gap else math.nan,
        worst_x=worst_x,
        equality_localized=localized,
        n_points=check.n_points,
        contact_gaps=contact_gaps,
    )
