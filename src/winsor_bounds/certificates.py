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

capped_exp (with its body _capped_exp) and QuadraticMinorant.__call__ are
the only code that computes F and G on arrays; both take ``out=`` and give
the same bits with or without it.  F - G is convex on each piece of F, so
its gap nears equality only near a contact: the grid check evaluates only
the points that a convexity witness (_kept, from _psi) does not prove clear
of the equality tolerance, all on one path, and reports what the whole
grid would.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import ParameterError, require_positive
from .trunc import Branch
from .winsor import Bound, _support_point

GAP_RTOL = 1e-12       # allowed negative gap, relative to max(1, F)
EQUALITY_RTOL = 1e-10  # |F - G| below this counts as contact
CONTACT_WINDOW = 1e-2  # equality must sit within this relative distance
GRID_BASE_POINTS = 100_001  # uniform points across the span of the grid
GRID_WINDOW_POINTS = 2_001  # points in the window around each contact and the kink
_BLOCK = 8_192  # points per evaluation block: a 64 KB temporary stays in L2
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

    def __call__(self, x, out=None):
        """G(x), written into ``out`` when given (one temporary either way)."""
        # in Horner form: (x - x_lo)^2 alone overflows once x_hi passes ~1.3e154
        if out is None:
            out = np.empty(np.shape(x))
        u = np.subtract(x, self.contact_points[0], out=out)
        slope = u * self.gamma
        slope += self.lower_slope
        np.multiply(u, slope, out=out)
        return np.add(out, self.lower_value, out=out)[()]


def capped_exp(kind: MomentKind, c, x, out=None):
    """F(x): exp(c*min(1,x)) for winsor, exp(c*x*1{x<1}) for trunc; c is a
    scalar or an array that broadcasts against x.  Written into ``out`` when
    given, which must have the broadcast shape and share no memory with x."""
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
    """Sorted pieces as np.linspace's (start, stop, num): a wide span, then a
    window and the point at each contact and x = 1."""
    lo_c, hi_c = minorant.contact_points
    span = 10.0 * max(abs(lo_c), abs(hi_c), 1.0)
    pieces = [(-span, span, GRID_BASE_POINTS)]
    for x0 in dict.fromkeys((lo_c, hi_c, 1.0)):
        window = 1e-3 * (1.0 + abs(x0))
        pieces += [(x0 - window, x0 + window, GRID_WINDOW_POINTS), (x0, x0, 1)]
    return pieces


def certificate_grid(minorant: QuadraticMinorant) -> np.ndarray:
    """Evaluation grid: the points check_certificate covers, sorted and unique."""
    return np.unique(np.concatenate([np.linspace(*piece) for piece in _grid_pieces(minorant)]))


@functools.cache
def _index() -> np.ndarray:
    """0.0, 1.0, ..., GRID_BASE_POINTS - 1: the factors of np.linspace's step,
    built on the first check (800 KB) and shared, read-only, by later ones."""
    index = np.arange(GRID_BASE_POINTS, dtype=float)
    index.flags.writeable = False
    return index


def _linspace_into(out: np.ndarray, start: float, stop: float, num: int, first: int = 0) -> None:
    """Points first, ..., first + out.size - 1 of np.linspace(start, stop,
    num), formed as np.linspace forms them unless its step is 0.0 (no window
    is that narrow): index*step + start, the last point stop."""
    step = (stop - start) / (num - 1) if num > 1 else 0.0
    np.multiply(_index()[first : first + out.size], step, out=out)
    np.add(out, start, out=out)
    if first + out.size == num:
        out[-1] = stop


def _fold(worst, localized, x, gap, i, contacts, windows):
    """worst and localized updated with a block whose worst point is at i:
    worst is (gap is a number, gap, x) and the least such tuple wins; an
    equality is localized within windows[k] of contacts[k], k = 0 or 1."""
    gap_i = float(gap[i])
    worst = min(worst, (gap_i == gap_i, gap_i if gap_i == gap_i else 0.0, float(x[i])))
    if localized and not gap_i > EQUALITY_RTOL:  # otherwise no point is an equality
        # no gap is below gap_i: where that is >= -EQUALITY_RTOL, so is every gap
        equal = gap <= EQUALITY_RTOL if gap_i >= -EQUALITY_RTOL else np.abs(gap) <= EQUALITY_RTOL
        xs = x[equal]
        near = np.abs(xs - contacts[0]) <= windows[0]
        localized = bool(np.all(near | (np.abs(xs - contacts[1]) <= windows[1])))
    return worst, localized


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
    """Sorted closed intervals of x outside which psi > 0 at every point
    from start to stop.  x is split at x_lo and at the cut 1 into regions;
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
    return kept


def _first_at(start: float, stop: float, num: int, bound: float) -> int:
    """The index of the first of np.linspace(start, stop, num)'s points, as
    _linspace_into forms them, at or above bound; num if none."""
    if num == 1:
        return int(stop < bound)
    step = (stop - start) / (num - 1)
    i = math.ceil(min(max((bound - start) / step, 0.0), num))
    while i > 0 and (stop if i == num else (i - 1) * step + start) >= bound:
        i -= 1
    while i < num and (stop if i == num - 1 else i * step + start) < bound:
        i += 1
    return i


def _packed(pieces, kept, x: np.ndarray):
    """Fills x, in order, with the pieces' points in kept's intervals (all
    where kept is None), yielding (n, ones) when it is full and at the end:
    x[:n] holds points, ones the (offset, point) of its one-point pieces."""
    n, ones = 0, []
    for start, stop, num in pieces:
        runs = [(0, num)] if kept is None else [
            tuple(_first_at(start, stop, num, b) for b in (lo, math.nextafter(hi, math.inf)))
            for lo, hi in kept if lo <= stop and start <= hi
        ]
        for first, end in runs:
            while first < end:
                take = min(end - first, x.size - n)
                if num == 1:
                    ones.append((n, stop))
                _linspace_into(x[n : n + take], start, stop, num, first)
                n, first = n + take, first + take
                if n == x.size:
                    yield n, ones
                    n, ones = 0, []
    if n:
        yield n, ones


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
    least gap, then the least x.  One np.errstate ignores underflow,
    overflow and invalid values: a G of -inf, or an F - G past the doubles,
    is a gap of +inf, and an F of +inf a NaN gap (inf/inf), which fails it.
    - Only the points in _kept's intervals are evaluated: every other one
      has psi > 0, so a gap above EQUALITY_RTOL, which is no equality and,
      while the evaluated worst is NaN or at most EQUALITY_RTOL, no worst
      gap or tie of it.  Otherwise, and for a minorant whose __call__ is
      overridden or a grid whose points are not ordered, the whole grid is.
    - The runs of the windows and points at the contacts and the cut, in
      _grid_pieces order, then of the span are packed into buffers of
      _BLOCK points allocated once per check, formed by _linspace_into.
      Each buffer takes F, G and the division by max(1, F), and is folded
      at its least x among its worst gaps."""
    pieces = _grid_pieces(minorant)
    start, stop, num = pieces[0]
    contacts = minorant.contact_points
    windows = [CONTACT_WINDOW * (1.0 + abs(x0)) for x0 in contacts]
    x, f, g, gap = (np.empty(_BLOCK) for _ in range(4))
    bounded = math.isfinite(start) and math.isfinite((stop - start) / (num - 1))
    bounded &= type(minorant).__call__ is QuadraticMinorant.__call__
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for kept in (_kept(minorant, kind, c, start, stop) if bounded else None, None):
            worst, localized, at = (True, math.inf, math.inf), True, {}
            for n, ones in _packed((*pieces[1:], pieces[0]), kept, x):
                xb, fb, gb, gapb = x[:n], f[:n], g[:n], gap[:n]
                minorant(xb, out=gb)
                _capped_exp(kind, c, xb, fb)
                for k, x0 in ones:
                    at[x0] = float(fb[k]), float(gb[k])
                np.subtract(fb, gb, out=gapb)
                np.divide(gapb, np.maximum(1.0, fb, out=fb), out=gapb)
                i = int(gapb.argmin())
                ties = np.flatnonzero(gapb == gapb[i] if gapb[i] == gapb[i] else np.isnan(gapb))
                i = int(ties[xb[ties].argmin()])  # the least x among the worst gaps
                worst, localized = _fold(worst, localized, xb, gapb, i, contacts, windows)
            if kept is None or not (worst[0] and worst[1] > EQUALITY_RTOL):
                break
    contact_gaps = {}
    for x0 in contacts:
        f0, g0 = at[x0]
        g_slope = minorant.lower_slope + 2.0 * minorant.gamma * (x0 - contacts[0])
        f_slope = c * f0 if x0 < 1.0 else 0.0
        slope_gap = max(g_slope, 0.0) if x0 == 1.0 else abs(f_slope - g_slope)
        scale = max(1.0, f0)
        contact_gaps[x0] = (abs(f0 - g0) / scale, slope_gap / scale)
    is_number, worst_gap, worst_x = worst
    return CertificateReport(
        passed=is_number and worst_gap >= -GAP_RTOL and localized,
        worst_gap=worst_gap if is_number else math.nan,
        worst_x=worst_x,
        equality_localized=localized,
        n_points=sum(piece[2] for piece in pieces),
        contact_gaps=contact_gaps,
    )
