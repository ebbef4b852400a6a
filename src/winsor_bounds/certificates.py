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
the only code that computes F and G; both take ``out=`` and give the same
bits with or without it.  check_certificate says how the grid check walks
its points: each block of its wide span is split at x = 0 and x = 1, so
that F = F(1) from 1 on, read once from the fine block, and the division
by max(1, F) is formed on [0, 1) alone (with c >= 0).  Blocks on x < 0
(c >= 0) are bounded from their ends (the parabola's top plus a rounding
slack, _sup_bound), and so is the span's whole tail on x >= 1, at once;
what such a bound proves clear of the tolerance and of the worst gap
already found is skipped.
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
# exp is exactly 0.0 below about -745.13 (half the least subnormal); c*x
# below this cutoff needs no exp call
_EXP_ZERO_BELOW = -746.0


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
    equalities; n_points counts the points checked; contact_gaps maps each
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
    """0.0, 1.0, ..., GRID_BASE_POINTS - 1: the factors of np.linspace's
    step, built on the first check (800 KB) and shared, read-only, by
    every later one."""
    index = np.arange(GRID_BASE_POINTS, dtype=float)
    index.flags.writeable = False
    return index


def _linspace_into(out: np.ndarray, start: float, stop: float, num: int, first: int = 0) -> None:
    """Points first, ..., first + out.size - 1 of np.linspace(start, stop,
    num), formed as np.linspace forms them unless its step is 0.0, which a
    window at least 2e-3 wide rules out: index*step + start, the last point
    stop (a one-point piece is its stop)."""
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


def _sup_bound(minorant: QuadraticMinorant, x0: float, x1: float) -> float:
    """An upper bound on every G that QuadraticMinorant.__call__ computes at
    a point whose u = x - x_lo lies between x0's and x1's: the parabola's
    supremum there, at its vertex clamped to [u0, u1], plus a slack of
    1e-13 (|lower_value| + |lower_slope| U + |gamma| U^2) + 1e-300 with
    U = max |u|.  The Horner evaluation errs by at most gamma_3 = 3.3e-16
    times that sum, plus a few subnormals where it underflows (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3 and 5); the slack
    is about 100 times gamma_4, and inf where |gamma| U^2 passes the doubles."""
    x_lo, value, slope, gamma = map(float, (minorant.contact_points[0], *minorant[1:]))
    u0, u1 = x0 - x_lo, x1 - x_lo
    u = min(max(-slope / (2.0 * gamma), u0), u1)
    extent = max(abs(u0), abs(u1))
    top = value + u * (slope + gamma * u)
    return top + (1e-13 * (abs(value) + abs(slope) * extent - gamma * extent * extent) + 1e-300)


def _gap_floor(minorant: QuadraticMinorant, c: float, f_at_cut: float, x0: float, x1: float) -> float:
    """A lower bound on every gap check_certificate forms over the sorted
    span points from x0 to x1 (a block, or the whole tail up to stop),
    formed with the blocks' own operations from _sup_bound: F(1) - G, over
    F(1) where that passes 1, on x >= 1 and 0.0 - G on x < 0 (c >= 0),
    where 0.0 <= F <= 1.  NaN on any other range."""
    if x0 >= 1.0:
        floor = f_at_cut - _sup_bound(minorant, x0, x1)
        return floor / f_at_cut if f_at_cut > 1.0 else floor
    if x1 < 0.0 and c >= 0.0:
        return 0.0 - _sup_bound(minorant, x0, x1)
    return math.nan


def check_certificate(
    minorant: QuadraticMinorant, kind: MomentKind, c: float
) -> CertificateReport:
    """Verify G <= F on certificate_grid with equality only near the contacts.

    contact_gaps holds, for each contact x0, the value and slope gaps
    relative to max(1, F(x0)), from the fine block's F and G at x0.  Inside
    a piece of F they are |F - G| and |F' - G'|, with G'(x) = lower_slope +
    2 gamma (x - x_lo).  On the cut (x0 = 1) the slope gap is max(G'(1), 0):
    with gamma < 0, F - G is convex on x < 1 and on x >= 1, so a zero value
    there plus G'(1) <= 0 is what proves G <= F on the right of the cut.

    Walks the grid without sorting it, in buffers of _BLOCK points allocated
    once per check, under one np.errstate that ignores underflow and
    overflow; the worst point is argmin's on the sorted grid: a NaN gap
    first, then the least gap, then the least x.  A G of -inf, or an F - G
    past the doubles, is a gap of +inf; an F of +inf still makes a NaN gap
    (inf/inf), which fails the report and warns as an invalid value.
    - The windows and points at the contacts and the cut, in _grid_pieces
      order, make one block of at most 6,006 points, walked first, all
      through F and the division; that gives the shortcuts' bits (exp(c) is
      F(1), F <= 1 is divided by 1.0, exp is 0.0 below the cutoff), its
      point x = 1.0 gives F(1) and its contact points the contact gaps.  It
      is not sorted, so the least x among its worst gaps is picked
      explicitly.
    - The wide span goes in blocks rebuilt in place as np.linspace's points.
      A block is sorted, so argmin's first index is its least x among ties,
      and searchsorted splits it at x = 0 and x = 1 into parts whose work
      has a known result: on x >= 1, F = F(1), and the gap is divided by
      F(1) only where that passes 1; on x < 0 (c >= 0), F <= 1, so no
      division, and F = 0.0 without exp where c*x < _EXP_ZERO_BELOW.  Only
      [0, 1) (all of x < 1 where c < 0) goes through F and the division.
    - Before it is built, a span block gets _gap_floor from its two ends,
      first*step + start and its last point (stop at the end): rounding is
      monotone, so every x and u = x - x_lo of the block lies between
      theirs.  The first block on x >= 1 is bounded together with the rest
      of the span, up to stop.  Where the floor is finite, above
      EQUALITY_RTOL and above the worst gap so far, which is a number, the
      points it covers hold no NaN, no equality and no gap that ties the
      worst, so argmin's tie rule never has to choose them and skipping
      them leaves the report's bits as they are.  The floor speaks of
      QuadraticMinorant.__call__ alone: a subclass that overrides it is
      walked in full, as is a grid whose points are not ordered, which also
      goes whole through F and the division."""
    (start, stop, num), *fine = _grid_pieces(minorant)
    contacts = minorant.contact_points
    windows = [CONTACT_WINDOW * (1.0 + abs(x0)) for x0 in contacts]
    x, f, g, gap = (np.empty(_BLOCK) for _ in range(4))
    # a span block's parts: F = 0.0 below the first split, no division below
    # the second and F = F(1) from the third on
    splits = np.array((
        _EXP_ZERO_BELOW / c if c > 0.0 else -math.inf, 0.0 if c >= 0.0 else -math.inf, 1.0
    ))
    # reading a block's x range from its ends needs sorted points, which
    # finite ones are
    step = (stop - start) / (num - 1)
    ordered = math.isfinite(start) and math.isfinite(step)
    bounded = ordered and type(minorant).__call__ is QuadraticMinorant.__call__
    with np.errstate(under="ignore", over="ignore"):
        fine_points, at = 0, {}  # the fine block, in x[:fine_points]; at[x0]: x0's index
        for piece in fine:
            if piece[2] == 1:
                at[piece[0]] = fine_points
            _linspace_into(x[fine_points : fine_points + piece[2]], *piece)
            fine_points += piece[2]
        xb, fb, gb, gapb = x[:fine_points], f[:fine_points], g[:fine_points], gap[:fine_points]
        minorant(xb, out=gb)
        _capped_exp(kind, c, xb, fb)
        f_at_cut = float(fb[at[1.0]])
        contact_gaps = {}
        for x0 in contacts:
            f0, g0 = float(fb[at[x0]]), float(gb[at[x0]])
            g_slope = minorant.lower_slope + 2.0 * minorant.gamma * (x0 - contacts[0])
            if x0 == 1.0:
                slope_gap = max(g_slope, 0.0)
            else:
                slope_gap = abs((c * f0 if x0 < 1.0 else 0.0) - g_slope)
            scale = max(1.0, f0)
            contact_gaps[x0] = (abs(f0 - g0) / scale, slope_gap / scale)
        np.subtract(fb, gb, out=gapb)
        np.divide(gapb, np.maximum(1.0, fb, out=fb), out=gapb)
        i = int(gapb.argmin())
        ties = np.flatnonzero(gapb == gapb[i] if gapb[i] == gapb[i] else np.isnan(gapb))
        worst, localized = _fold(
            (True, math.inf, math.inf), True, xb, gapb, int(ties[xb[ties].argmin()]),
            contacts, windows,
        )

        in_tail = False
        for first in range(0, num, _BLOCK):
            n = min(_BLOCK, num - first)
            if bounded and worst[0]:
                x0 = first * step + start
                # the first block on x >= 1 is bounded with the whole tail
                last = num if x0 >= 1.0 and not in_tail else first + n
                in_tail = x0 >= 1.0
                floor = _gap_floor(
                    minorant, c, f_at_cut, x0, stop if last == num else (last - 1) * step + start
                )
                if math.isfinite(floor) and floor > max(EQUALITY_RTOL, worst[1]):
                    if last == num:
                        break
                    continue
            xb, fb, gb, gapb = x[:n], f[:n], g[:n], gap[:n]
            _linspace_into(xb, start, stop, num, first)
            minorant(xb, out=gb)
            zeros, neg, tail = xb.searchsorted(splits).tolist() if ordered else (0, 0, n)
            fb[:zeros] = 0.0
            if zeros < tail:
                _capped_exp(kind, c, xb[zeros:tail], fb[zeros:tail])
            np.subtract(fb[:tail], gb[:tail], out=gapb[:tail])
            if neg < tail:
                part = slice(neg, tail)
                np.divide(gapb[part], np.maximum(1.0, fb[part], out=fb[part]), out=gapb[part])
            if tail < n:
                np.subtract(f_at_cut, gb[tail:], out=gapb[tail:])
                if f_at_cut > 1.0:
                    np.divide(gapb[tail:], f_at_cut, out=gapb[tail:])
            worst, localized = _fold(
                worst, localized, xb, gapb, int(gapb.argmin()), contacts, windows
            )
    is_number, worst_gap, worst_x = worst
    return CertificateReport(
        passed=is_number and worst_gap >= -GAP_RTOL and localized,
        worst_gap=worst_gap if is_number else math.nan,
        worst_x=worst_x,
        equality_localized=localized,
        n_points=num + fine_points,
        contact_gaps=contact_gaps,
    )

