"""Exact lower bounds for exponential moments of truncated variables.

Truncation at level 1 sends values at or above the cut to zero,
T(x) = x * 1{x < 1} (strict inequality: the cut itself maps to 0).  Under
E X >= 0, E X^2 <= sigma^2 the infimum of E exp(c T(X)) is piecewise in
sigma^2 relative to the threshold A_c:

* sigma^2 <= A_c: attained by the two-point law with support {-sigma^2, 1}.
* sigma^2 >= A_c: attained by X_{A_cs, B_cs} where A_cs solves
  a * B_star(a, c) = sigma^2 and B_cs = sigma^2 / A_cs >= 1.

B_star(a, c) = (2(e^{ac} - 1) - ac)/c is ``law``'s support-point map at
z = ac, and the law's moment is ``law``'s too; A_c is B_star's preimage of 1.
B_star increases in a, so sigma^2 <= A_c exactly when B_star(sigma^2, c) <= 1:
the branch is decided in closed form, without solving for A_c.
Unlike the Winsorized case there is no positive tilt-universal floor: along
(a, sigma^2/a) with tilt 1/a^2 the truncated moment collapses to 0.
"""

from __future__ import annotations

import math

from .asymptotics import Regime as Branch
from .errors import LN_DBL_MAX, in_range, require_positive
from .law import Bound, _log_support, _support_point, _trunc_moment
from .roots import _solve
from .winsor import LN_2, BoundQuery, _effective_c, _moment_match, _row, _w_exp


def B_star(a: float, c: float) -> float:
    """(2(e^{ac} - 1) - ac) / c; strictly increasing in a from 0 to infinity.
    Raises ExponentOverflowError where it overflows; use log_B_star there."""
    a, c = require_positive("a", a, allow_zero=True), require_positive("c", c)
    return _support_point(a, c, 0.0)


def log_B_star(a: float, c: float) -> float:
    """ln B_star(a, c), stable for arbitrarily large a*c."""
    a, c = require_positive("a", a), require_positive("c", c)
    return _log_support(a, c, 0.0)[1]


def solve_A_c(c: float) -> float:
    """Unique a > 0 with B_star(a, c) = 1; the branch threshold for sigma^2.

    Solved as ln B_star(a, c) = 0 from ln(1 + c)/c, clamped to 1, within
    a factor 1.25 of the root for every c: B_star tends to a as c -> 0
    (threshold near 1) and to (2/c)e^{ac} for large c (threshold near
    ln(c/2)/c).  ln(1 + c) is c itself at a subnormal c, so the seed is 1
    there, not an underflow to 0.  B_star(a, c) >= a puts the root at or
    below 1.
    """
    c = require_positive("c", c)

    def f(a: float):
        _, log_support, slope, _ = _log_support(a, c, 0.0)
        return log_support, slope, None

    return _solve(f, math.log1p(c) / c, 1.0)


def _A_c_sigma(c: float, row, start: float | None) -> float:
    """The unique a > 0 with a * B_star(a, c) = sigma^2, solved in log form
    on trusted c and row = (sigma, sigma^2, ln sigma), from start or, when
    None, from W(e^t)/c where ca e^{ca} = c^2 sigma^2/2 = e^t, the law of
    large ac, has t > 2, and else from a seed that follows a*B_star ~ a^2
    for small a and ~ (2a/c) e^{ac} for large a, capped at sigma, which
    a*B_star >= a^2 puts above the root.  sigma^2 may have left the
    doubles: the seeds read it only through ln sigma and ln(1 + sigma^2)/c,
    and the cap keeps the second a positive double wherever the quotient
    overflows."""
    sigma, sigma2, log_sigma = row
    if start is None:
        t = 2.0 * (math.log(c) + log_sigma) - LN_2
        start = _w_exp(t) / c if t > 2.0 else min(max(math.log1p(sigma2) / c, 1.0), sigma)
    return _moment_match(c, row, 0.0, start)


def _below_threshold(a: float, c: float) -> bool:
    """a <= A_c, decided as B_star(a, c) <= 1 (B_star increases in a)
    multiplied through by c > 0; past LN_DBL_MAX, 2(e^z - 1) alone exceeds
    every double c."""
    z = a * c
    return z <= LN_DBL_MAX and 2.0 * math.expm1(z) - z <= c


def lower_bound_trunc(query: BoundQuery) -> Bound:
    """Exact attained lower bound on E exp(c * X * 1{X < cut}) given
    E X >= 0 and E X^2 <= sigma^2.

    The small-sigma branch, which solves no root, is taken when
    B_star(sigma^2, c) <= 1: ties at sigma^2 = A_c go small (both branches
    agree there numerically; a fixed rule keeps sweeps deterministic).  A
    bound below the smallest positive double raises NoSignChangeError.
    """
    c, sigma, cut = query.c, query.sigma, query.cut
    fields = _trunc_lane(_effective_c(c, cut), _row(sigma, cut), None)
    return tuple.__new__(Bound, ("trunc", c, sigma, cut, *fields))


def _trunc_lane(c: float, row, start):
    """Bound's fields from a on, (a, b, tilt, bound, branch), of
    lower_bound_trunc at cut level 1, the extremal law on {-a, b}, from
    c*cut, _row(sigma, cut) and the start of the root A_c_sigma (its seed
    when None): the scalar call's body and a sweep's lane.  The small-sigma
    branch solves no root and takes (a, b) = (sigma^2, 1)."""
    sigma, sigma2, _ = row
    if _below_threshold(sigma2, c):
        branch, a, b = Branch.SMALL_SIGMA, sigma2, 1.0
    else:
        branch, a = Branch.LARGE_SIGMA, _A_c_sigma(c, row, start)
        # On this branch b >= 1 holds exactly; root-solver roundoff at the
        # branch boundary can land an ulp below the cut, where the truncation
        # indicator would flip, so snap such b back onto the cut.
        b = max(in_range("b = sigma^2/a", sigma2 / a, sigma2, a), 1.0)
    bound = in_range("the truncated bound", _trunc_moment(a, b, c), c, sigma)
    return a, b, c, bound, branch
