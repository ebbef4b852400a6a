"""Quadratic tangent-minorant certificates.

Each bound in this package is proved by a parabola G lying below the capped
exponential F and touching it exactly at the extremal support points.
beta = G'(0) > 0 > gamma makes E G(X) monotone in the constraint moments, so
E F(X) >= E G(X) >= E G(X_{a,b}) = E F(X_{a,b}) for every admissible X.
Each G is stored anchored at its lower contact -a, where its value e^{-ac}
and slope c e^{-ac} are closed forms.  This module builds them and checks
the geometry on dense grids (G <= F, equality only near the contacts) and
in closed form at each contact (value and slope, one-sided on the cut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CaseViolationError, ParameterError, require_positive
from .trunc import _below_threshold
from .winsor import _support_point

GAP_RTOL = 1e-12       # allowed negative gap, relative to max(1, F)
EQUALITY_RTOL = 1e-10  # |F - G| below this counts as contact
CONTACT_WINDOW = 1e-2  # equality must sit within this relative distance
GRID_BASE_POINTS = 100_001  # uniform points across the span of the grid
GRID_WINDOW_POINTS = 2_001  # points in the window around each contact and the kink
_BLOCK = 8_192  # points per evaluation block: a 64 KB temporary stays in L2


class MomentKind(str, Enum):
    WINSOR = "winsor"
    TRUNC = "trunc"


@dataclass(frozen=True)
class QuadraticMinorant:
    """G(x) = lower_value + lower_slope*u + gamma*u^2 with u = x - x_lo,
    touching F at ``contact_points`` = (x_lo, x_hi); beta = G'(0) > 0 > gamma.

    About the origin the coefficients reach e^c and cancel catastrophically
    near x_lo for large c; anchored at x_lo, roundoff stays proportional to F.
    """

    contact_points: tuple[float, float]
    lower_value: float
    lower_slope: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 > self.gamma):
            raise ParameterError(
                f"minorant requires beta > 0 > gamma, got beta={self.beta!r}, "
                f"gamma={self.gamma!r}"
            )

    @property
    def beta(self) -> float:
        """G'(0) = lower_slope - 2 gamma x_lo."""
        return self.lower_slope - 2.0 * self.gamma * self.contact_points[0]

    def __call__(self, x):
        # in Horner form: (x - x_lo)^2 alone overflows once x_hi passes ~1.3e154
        u = np.subtract(x, self.contact_points[0])
        return self.lower_value + u * (self.lower_slope + self.gamma * u)


def capped_exp(kind: MomentKind, c, x):
    """F(x): exp(c*min(1,x)) for winsor, exp(c*x*1{x<1}) for trunc; c is a
    scalar or an array that broadcasts against x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        if kind is MomentKind.WINSOR:
            return np.exp(c * np.minimum(x, 1.0))
        return np.exp(np.where(x < 1.0, c * x, 0.0))


def _tangent_minorant(a: float, c: float, b: float) -> QuadraticMinorant:
    """The parabola tangent to e^{cx} at -a with G'(b) = 0, which
    gamma = -c e^{-ac} / (2(a+b)) gives: F is flat at b, and the support
    maps b_star and B_star are what put G(b) on F."""
    w = math.exp(-a * c)
    return QuadraticMinorant(
        contact_points=(-a, b), lower_value=w, lower_slope=c * w, gamma=-c * w / (2.0 * (a + b))
    )


def winsor_minorant(a: float, c: float) -> QuadraticMinorant:
    """Certificate for the Winsorized moment: contacts at -a and b_star(a, c)."""
    require_positive("a", a)
    require_positive("c", c)
    return _tangent_minorant(a, c, _support_point(a, c, c))


def trunc_minorant_small(a: float, c: float) -> QuadraticMinorant:
    """Certificate for the truncated moment when sigma^2 = a <= A_c:
    contacts at -a and the cut point 1."""
    require_positive("a", a)
    require_positive("c", c)
    if not _below_threshold(a / (1.0 + 1e-9), c):
        raise CaseViolationError(
            f"trunc_minorant_small requires a <= A_c(c), got a={a!r}, c={c!r}"
        )
    w = math.exp(-a * c)
    return QuadraticMinorant(
        contact_points=(-a, 1.0),
        lower_value=w,
        lower_slope=c * w,
        gamma=w * (math.exp(a * c) - a * c - c - 1.0) / (a + 1.0) ** 2,
    )


def trunc_minorant_large(a: float, c: float) -> QuadraticMinorant:
    """Certificate for the truncated moment when B_star(a, c) >= 1:
    contacts at -a and b = B_star(a, c)."""
    require_positive("a", a)
    require_positive("c", c)
    b = _support_point(a, c, 0.0)
    if b < 1.0 - 1e-12:
        raise CaseViolationError(
            f"trunc_minorant_large requires B_star(a, c) >= 1, got {b!r}"
        )
    # Roundoff at the case boundary may put b an ulp below the cut, where
    # the truncation indicator flips; the case condition pins b >= 1.
    return _tangent_minorant(a, c, max(b, 1.0))


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a grid check; violations are reported as data, not raised."""

    passed: bool
    worst_gap: float          # min of (F - G)/max(1, F); >= -GAP_RTOL to pass
    worst_x: float
    equality_localized: bool  # near-contact points are the only equalities
    n_points: int


def _grid_pieces(minorant: QuadraticMinorant) -> list[np.ndarray]:
    """Sorted pieces: a wide span, then a window and the point at each contact and x = 1."""
    lo_c, hi_c = minorant.contact_points
    span = 10.0 * max(abs(lo_c), abs(hi_c), 1.0)
    pieces = [np.linspace(-span, span, GRID_BASE_POINTS)]
    for x0 in dict.fromkeys((lo_c, hi_c, 1.0)):
        window = 1e-3 * (1.0 + abs(x0))
        pieces.append(np.linspace(x0 - window, x0 + window, GRID_WINDOW_POINTS))
        pieces.append(np.array([x0]))
    return pieces


def certificate_grid(minorant: QuadraticMinorant) -> np.ndarray:
    """Evaluation grid: the points check_certificate covers, sorted and unique."""
    return np.unique(np.concatenate(_grid_pieces(minorant)))


def check_certificate(
    minorant: QuadraticMinorant, kind: MomentKind, c: float
) -> CertificateReport:
    """Verify G <= F on certificate_grid with equality only near the contacts.

    Walks the grid piece by piece in blocks of _BLOCK points, without sorting;
    the worst point is argmin's on the sorted grid (NaN, least gap, least x)."""
    pieces = _grid_pieces(minorant)
    worst, localized = (True, math.inf, math.inf), True  # worst: (gap is a number, gap, x)
    for piece in pieces:
        for start in range(0, piece.size, _BLOCK):
            x = piece[start : start + _BLOCK]
            f_values = capped_exp(kind, c, x)
            normalized = (f_values - minorant(x)) / np.maximum(1.0, f_values)
            i = int(np.argmin(normalized))
            gap = float(normalized[i])
            worst = min(worst, (gap == gap, gap if gap == gap else 0.0, float(x[i])))
            if not gap > EQUALITY_RTOL:  # otherwise no point of the block is an equality
                xs = x[np.abs(normalized) <= EQUALITY_RTOL]
                near_contact = np.zeros_like(xs, dtype=bool)
                for x0 in minorant.contact_points:
                    near_contact |= np.abs(xs - x0) <= CONTACT_WINDOW * (1.0 + abs(x0))
                localized = localized and bool(np.all(near_contact))
    is_number, worst_gap, worst_x = worst
    return CertificateReport(
        passed=is_number and worst_gap >= -GAP_RTOL and localized,
        worst_gap=worst_gap if is_number else math.nan,
        worst_x=worst_x,
        equality_localized=localized,
        n_points=sum(piece.size for piece in pieces),
    )


def contact_gaps(
    minorant: QuadraticMinorant, kind: MomentKind, c: float
) -> dict[float, tuple[float, float]]:
    """Value and slope gaps at each contact point, in closed form.

    Both are relative to max(1, F(x0)).  Inside a piece of F the gaps are
    |F - G| and |F' - G'|, with G'(x) = lower_slope + 2 gamma (x - x_lo).
    At a contact on the cut (x0 = 1) the slope gap is max(G'(1), 0): with
    gamma < 0, F - G is convex on x < 1 and on x >= 1, so a zero value there
    plus G'(1) <= 0 is what proves G <= F on the right of the cut.
    """
    out: dict[float, tuple[float, float]] = {}
    x_lo = minorant.contact_points[0]
    for x0 in minorant.contact_points:
        f_value = float(capped_exp(kind, c, x0))
        g_slope = minorant.lower_slope + 2.0 * minorant.gamma * (x0 - x_lo)
        if x0 == 1.0:
            slope_gap = max(g_slope, 0.0)
        else:
            slope_gap = abs((c * f_value if x0 < 1.0 else 0.0) - g_slope)
        scale = max(1.0, f_value)
        out[x0] = (abs(f_value - float(minorant(x0))) / scale, slope_gap / scale)
    return out
