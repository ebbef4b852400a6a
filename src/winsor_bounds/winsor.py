"""Exact lower bounds for exponential moments of Winsorized variables.

Setting: X ranges over all laws with E X >= 0 and E X^2 <= sigma^2, and the
Winsorization at level 1 caps the right tail, W(x) = min(1, x).  The infimum
of E exp(c W(X)) is attained by a zero-mean two-point law X_{a,b}, whose
support map and moments are ``law``'s, and every quantity here is a closed
form or a scalar root:

* ``b_star(a, c)`` is the positive support point making the quadratic
  tangent certificate touch exp(c W) at both -a and b; it always exceeds 2.
  It is ``law``'s support-point map at z = c(1+a).
* the moment match a * b_star(a, c) = sigma^2 (``_a_c_sigma``) fixes the
  extremal law for a given tilt c.
* ``_ell1`` is (1+a)^2 times the log-derivative of the optimal-tilt moment
  curve; its unique - to + sign change on (0, sigma^2) locates the lower
  support magnitude of the tilt-universal extremal law (``_a_sigma``),
  from which the optimal tilt is ln(sigma^2/a) / (1 + a).

Arguments are checked once, where a public call receives them; the bodies
behind ``lower_bound_fixed_c`` and ``lower_bound_universal`` trust them.

Cut levels other than 1 reduce to level 1 through
(c, sigma, cut) -> (c*cut, sigma/cut, 1); a ``Bound`` carries the caller's
c, sigma and cut beside the solved quantities at level 1, which map back
as the support scales by cut and the tilt by 1/cut.

Large sigma is handled by solving the moment-matching equations in log form,
so budgets up to sigma ~ 1e10 and beyond never overflow.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import asymptotics
from .errors import LN_DBL_MAX, ParameterError, in_range, require_positive
from .law import (
    DBL_MIN, Bound, _log_support, _optimal_c, _optimal_winsor_moment, _support_point,
    _winsor_moment,
)
from .roots import TOL, _solve

LN_2 = math.log(2.0)


class BoundQuery(namedtuple("BoundQuery", "c sigma cut", defaults=(1.0,))):
    """A fixed-tilt bound request: tilt c, second-moment budget sigma and
    cut level, each checked when the query is made, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, c: float, sigma: float, cut: float = 1.0):
        return tuple.__new__(cls, (require_positive("c", c), require_positive("sigma", sigma),
                                   require_positive("cut", cut)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _effective_c(c: float, cut: float) -> float:
    return in_range("c*cut", c * cut, c, cut)


def _moment_match(c: float, row, shift: float, start: float) -> float:
    """Unique a > 0 with a * _support_point(a, c, shift) = sigma^2, row being
    (sigma, sigma^2, ln sigma), solved from start as ln a + ln S(a) =
    2 ln sigma, which stays O(1)-scaled for any sigma.  Both maps have
    S(a) >= a, so the root lies at or below sigma.  With s the slope of
    ln S in u = ln a, f' = 1 + s and f'' = s(1 - s) + ca(s + a/S), formed
    only where f^2 <= TOL; f''/f' lies in (0, 1), as the certified step
    needs."""
    target = 2.0 * row[2]

    def f(a: float):
        log_a, log_support, slope, ratio = _log_support(a, c, shift)
        value = log_a + log_support - target
        if value * value > TOL:
            return value, 1.0 + slope, None
        return value, 1.0 + slope, slope * (1.0 - slope) + c * a * (slope + ratio)

    return _solve(f, start, row[0])


def _row(sigma: float, cut: float) -> tuple[float, float, float]:
    """What a bound reads of sigma at cut level 1: (s, s^2, ln s) for
    s = sigma/cut, with s and s^2 range-checked."""
    s = in_range("sigma/cut", sigma / cut, sigma, cut)
    return s, in_range("sigma^2", s * s, s), math.log(s)


def b_star(a: float, c: float) -> float:
    """Saturated positive support point (2(e^{c+ac} - 1) - ac) / c.

    Strictly increasing in a, always > 2.  Raises ExponentOverflowError where
    it overflows (c + a*c past ~709.09, or a tiny c); use log_b_star there.
    """
    a, c = require_positive("a", a, allow_zero=True), require_positive("c", c)
    return _support_point(a, c, c)


def log_b_star(a: float, c: float) -> float:
    """ln b_star(a, c), stable for arbitrarily large c + a*c."""
    a, c = require_positive("a", a, allow_zero=True), require_positive("c", c)
    return _log_support(a, c, c)[1]


def _w_exp(t: float) -> float:
    """W(e^t), the w with w + ln w = t, for t > 1, within 1.3e-3 relative
    (7.1e-4 for t > 2; exact at t = 1, where W(e) = 1): one Newton step
    from t - ln t + ln t / t (Corless et al., Adv. Comput. Math. 5 (1996),
    series 4.19).  Each moment match tends to w e^w = e^t at large sigma, so
    W(e^t) seeds its cold solve there."""
    log_t = math.log(t)
    w = t - log_t + log_t / t
    return w * (1.0 + t - math.log(w)) / (1.0 + w)


def _a_c_sigma(c: float, row, start: float | None) -> float:
    """The unique a > 0 with a * b_star(a, c) = sigma^2, solved in log form
    on trusted c and row = _row(sigma, 1), from start or, when None, from
    W(e^t)/c where ca e^{ca} = c^2 sigma^2/(2e^c) = e^t, the large-sigma law,
    has t > 2, and else from the smaller of both asymptotic laws:
    a ~ c sigma^2 / (2(e^c - 1)) as sigma -> 0 and a ~ ln(1 + sigma^2)/c as
    sigma -> infinity.  The first is formed as (c / (e^c - 1)) * 0.5 * sigma^2,
    since c * sigma^2 alone underflows at tiny tilt (the factor tends to 1/2
    as c -> 0) and 2(e^c - 1) overflows past c ~ 709.09; past LN_DBL_MAX it
    is formed at e^LN_DBL_MAX, an overestimate.  The smaller one is checked
    whatever the start, so a warm start fails where a cold one does."""
    sigma, sigma2, log_sigma = row
    factor = c / math.expm1(min(c, LN_DBL_MAX)) * 0.5
    seed = in_range("the root's seed", min(factor * sigma2, math.log1p(sigma2) / c), c, sigma)
    if start is None:
        t = 2.0 * (math.log(c) + log_sigma) - LN_2 - c
        start = _w_exp(t) / c if t > 2.0 else seed
    return _moment_match(c, row, c, start)


def _ell1(a: float, sigma2: float) -> float:
    """ln(a/sigma^2) - 2(a+1)(a-sigma^2)/(a^2+sigma^2) for sigma2 = sigma^2.

    Vanishes at a = sigma^2 and switches sign exactly once, - to +, on
    (0, sigma^2); that interior root is the universal extremal a.
    """
    # divided through by sigma^2, in r = a/sigma^2: no sigma^2-sized product
    # is formed, so it stays finite wherever sigma^2 is; below DBL_MIN, r
    # keeps few bits or none (a start far below the root at huge sigma), and
    # ln r is formed from its operands
    r = a / sigma2
    log_r = math.log(r) if r >= DBL_MIN else math.log(a) - math.log(sigma2)
    return log_r - 2.0 * (a + 1.0) * (r - 1.0) / (a * r + 1.0)


def _a_sigma(sigma2: float, start: float | None) -> float:
    """The sign-change root of _ell1 on (0, sigma^2) for sigma2 = sigma^2,
    from start or, when None, from W(e^t)/2 where 2a e^{2a} = 2 sigma^2/e^2
    = e^t, _ell1's law as a/sigma^2 -> 0, has t > 1, and else from
    0.5*ln(1 + 2 t_star sigma^2), which tracks both asymptotic regimes of
    the root; that seed is checked whatever the start.  The upper end is
    sigma^2/2, not the boundary zero of _ell1 at sigma^2:
    _ell1(sigma^2/2) = (a + 1)/(a/2 + 1) - ln 2 > 0.3, so the root lies
    below it and no step can settle on the boundary zero.  sigma^2/2 is
    positive whenever the seed (at most 0.21 sigma^2) is.  A root below the
    smallest positive double raises NoSignChangeError."""
    seed = 0.5 * math.log1p(2.0 * asymptotics.t_star() * sigma2)
    seed = in_range("the root's seed", seed, sigma2)

    def f(a: float):
        r = a / sigma2
        d = a * r + 1.0
        w, s = a / d, (a + 1.0) / d  # the slope's terms, each divided by d so none overflows
        slope = 1.0 - 2.0 * (w * (r - 1.0) + s * r - 2.0 * w * r * s * (r - 1.0))
        value = _ell1(a, sigma2)
        if value * value > TOL:
            return value, slope, None
        # f'' in u, |f''| < f' within 5% of the root in a, the only place
        # where _ell1^2 <= TOL: the slope is 1 - 2N/d^2 with
        # N = 4ar - a + r + a^2 r - ar^2, whose slope in u is
        # N' = 8ar - a + r + 3a^2 r - 3ar^2, and d's slope in u is 2ar
        q = w * r  # ar/d
        n = (8.0 * q - w + r / d - 3.0 * q * r) / d + 3.0 * w * q  # N'/d^2
        return value, slope, 4.0 * q * (1.0 - slope) - 2.0 * n

    if start is None:
        t = math.log(sigma2) + LN_2 - 2.0
        start = 0.5 * _w_exp(t) if t > 1.0 else seed
    return _solve(f, start, 0.5 * sigma2)


def optimal_c_for_two_point(a: float, sigma: float) -> float:
    """Tilt minimizing the Winsorized moment of X_{a, sigma^2/a}:
    ln(sigma^2/a) / (1 + a)."""
    sigma, a = require_positive("sigma", sigma), require_positive("a", a)
    if not a < sigma * sigma:
        raise ParameterError(f"a must lie in (0, sigma^2), got {a!r}")
    return _optimal_c(a, sigma)


def lower_bound_fixed_c(query: BoundQuery) -> Bound:
    """Exact attained lower bound on E exp(c * min(cut, X)) given
    E X >= 0 and E X^2 <= sigma^2."""
    c, sigma, cut = query.c, query.sigma, query.cut
    fields = _fixed_lane(_effective_c(c, cut), _row(sigma, cut), None)
    return tuple.__new__(Bound, ("fixed-winsor", c, sigma, cut, *fields))


def _fixed_lane(c: float, row, start):
    """Bound's fields from a on, (a, b, tilt, bound, None), of
    lower_bound_fixed_c at cut level 1, the extremal law on {-a, b}, from
    c*cut, _row(sigma, cut) and the root's start (its seed when None): the
    scalar call's body and a sweep's lane."""
    a, sigma2 = _a_c_sigma(c, row, start), row[1]
    b = in_range("b = sigma^2/a", sigma2 / a, sigma2, a)
    return a, b, c, _winsor_moment(a, b, c), None


def lower_bound_universal(sigma: float, cut: float = 1.0) -> Bound:
    """Exact attained lower bound on E exp(c * min(cut, X)) over all tilts
    c > 0 and all X with E X >= 0, E X^2 <= sigma^2."""
    sigma, cut = require_positive("sigma", sigma), require_positive("cut", cut)
    fields = _universal_lane(None, _row(sigma, cut), None)
    return tuple.__new__(Bound, ("universal-winsor", None, sigma, cut, *fields))


def _universal_lane(c: None, row, start):
    """Bound's fields from a on, (a, b, optimal tilt, bound, None), of
    lower_bound_universal at cut level 1, from no tilt (None),
    _row(sigma, cut) and the root's start (its seed when None): the scalar
    call's body and a sweep's lane."""
    sigma, sigma2, _ = row
    a = _a_sigma(sigma2, start)
    b = in_range("b = sigma^2/a", sigma2 / a, sigma2, a)
    c_opt = _optimal_c(a, sigma)
    return a, b, c_opt, _optimal_winsor_moment(a, sigma, c_opt), None
