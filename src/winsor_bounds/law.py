"""The extremal two-point law and the parabola that proves each bound, in
scalar arithmetic: this module loads no NumPy.

Every bound is attained by a zero-mean law on {-a, b} at cut level 1 (the
``Bound`` record) and proved by a quadratic tangent minorant G of the capped
exponential F (``QuadraticMinorant``, built by ``minorant``).  Here live the
support-point map S = (2(e^z - 1) - ac)/c, z = c(1 + a) for the Winsorized
bound and z = ac for the truncated one, in value and log form, and the law's
moments in closed form.  beta = G'(0) > 0 > gamma makes E G(X) monotone in
the constraint moments, so E F(X) >= E G(X) >= E G(X_{a,b}) = E F(X_{a,b})
for every admissible X; ``certificates`` checks G <= F on grids."""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .asymptotics import Regime as Branch
from .errors import LN_DBL_MAX, ParameterError, _choice, exp_or_inf, in_range, require_positive

LOG_FORM_CUTOVER = 30.0
DBL_MIN = sys.float_info.min  # the smallest normal double


class Bound(namedtuple("Bound", "kind c sigma cut a b tilt bound branch")):
    """One attained bound, immutable.  ``kind`` is "universal-winsor",
    "fixed-winsor" or "trunc"; c (None for the universal kind), sigma and cut
    are the caller's.  The extremal law is the zero-mean law on {-a, b} at
    cut level 1 (a*b = (sigma/cut)^2), attained at ``tilt``: c*cut, or the
    optimal tilt for the universal kind.  ``branch`` is the truncated kind's
    ``trunc.Branch`` and None for the others."""

    __slots__ = ()


def _support_point(a: float, c: float, shift: float) -> float:
    """(2(e^z - 1) - ac) / c with z = shift + ac: the upper atom of the
    extremal law, shift = c for the Winsorized map and 0 for the truncated
    one.  Arguments are trusted; the public wrappers validate them.  z is
    clamped at LN_DBL_MAX, where 2(e^z - 1) already overflows; only an
    overflow is refused, as B_star(0, c) = 0 is an answer.  With z below
    DBL_MIN the map is 2(1 + a)(e^z - 1)/z - a for shift c and
    a(2(e^z - 1)/z - 1) for shift 0, which are a + 2 and a: the quotient by
    c would keep only the bits of a subnormal z, or none."""
    z = shift + a * c
    if z < DBL_MIN:
        return a + 2.0 if shift else a
    support = (2.0 * math.expm1(min(z, LN_DBL_MAX)) - a * c) / c
    return in_range("the support point", support, a, c) if support else support


def _log_support(a: float, c: float, shift: float) -> tuple[float, float, float, float]:
    """(ln a, ln S, d ln S / d ln a, a/S) for S = _support_point(a, c, shift),
    stable for arbitrarily large z = shift + ac; ln a is -inf at a = 0, where
    the slope is 0 for shift c and NaN for shift 0 (log_B_star refuses a = 0).
    The slope a(2e^z - 1)/S is (a/S)(2(e^z - 1) + 1) up to the cutover,
    from the e^z - 1 that forms S, with a/S <= 1 as S >= a, so nothing
    overflows; where a tiny c overflows S, a/S is ac / (cS).  Past the
    cutover it is (2 - e^-z) e^(ln a + z - ln S), where z cancels from the
    exponent exactly, which leaves ln(ac/2) less the correction, not an ulp
    of z of roundoff, so it is below LN_DBL_MAX.  Where z overflows, ln S
    and the slope, about ac/2, are inf.  a/S, which a moment match's second
    derivative reads, is a by-product: the quotient that forms the slope up
    to the cutover, s e^-z / (2 - e^-z) past it from the e^-z already
    formed, the slope itself where z is subnormal (e^-z is 1) and 0 where z
    overflows."""
    log_a = math.log(a) if a else -math.inf
    z = shift + a * c
    if z == math.inf:
        return log_a, math.inf, math.inf, 0.0
    if z < DBL_MIN:  # the map is a + 2 or a, as in _support_point; e^-z is 1
        log_support = math.log(a + 2.0) if shift else log_a
        slope = math.exp(log_a + z - log_support)
        return log_a, log_support, slope, slope
    if z <= LOG_FORM_CUTOVER:
        growth = math.expm1(z)
        scaled = 2.0 * growth - a * c  # cS
        support = scaled / c
        if support != math.inf:
            ratio = a / support
            return log_a, math.log(support), ratio * (2.0 * growth + 1.0), ratio
        # a tiny c overflows the quotient, not its log
        ratio = a * c / scaled
        return log_a, math.log(scaled) - math.log(c), ratio * (2.0 * growth + 1.0), ratio
    # the map is (2 e^z / c) * (1 - (2 + ac) e^{-z} / 2); the correction
    # term is below 1e-11 past the cutover and underflows harmlessly to 0.
    decay = math.exp(-z)
    correction = math.log1p(-0.5 * (2.0 + a * c) * decay)
    log_2_over_c = math.log(2.0 / c)
    log_support = z + log_2_over_c + correction
    exponent = log_a - log_2_over_c - correction  # ln a + z - ln S, z cancelled
    slope = (2.0 - decay) * math.exp(exponent)
    return log_a, log_support, slope, slope * decay / (2.0 - decay)


def _winsor_moment(a: float, b: float, c: float) -> float:
    """E exp(c * min(1, X)) for the law on {-a, b}, in closed form."""
    p_pos, p_neg = a / (a + b), b / (a + b)
    x_pos, x_neg = c * min(1.0, b), -c * a
    e_pos = in_range("e^(c*min(1, b))", exp_or_inf(x_pos), c, b)
    moment = p_pos * e_pos + p_neg * math.exp(x_neg)
    if abs(moment - 1.0) > 2.0**-26:
        return moment
    # This close to 1 the sum keeps fewer than 26 bits of moment - 1 and can
    # round above 1; the deviation from 1, summed directly, keeps them.
    return 1.0 + (p_pos * math.expm1(x_pos) + p_neg * math.expm1(x_neg))


def _optimal_c(a: float, sigma: float) -> float:
    """optimal_c_for_two_point on trusted a in (0, sigma^2)."""
    return (2.0 * math.log(sigma) - math.log(a)) / (1.0 + a)


def _optimal_winsor_moment(a: float, sigma: float, c_opt: float) -> float:
    """Winsorized moment of X_{a, sigma^2/a} at its optimal tilt
    c_opt = _optimal_c(a, sigma):
    a(1+a)(a/sigma^2)^{-1/(1+a)} / (a^2 + sigma^2)."""
    if a >= 1.0:
        return a * (1.0 + a) * math.exp(c_opt) / (a * a + sigma * sigma)
    # Below a = 1 the logs in c_opt cancel as sigma -> 0, pushing the moment
    # above 1; in r = a/sigma^2 it is (1+a) r^{a/(1+a)} / (1 + ar), cancel-free.
    r = (a / sigma) / sigma
    return math.exp(math.log1p(a) + a / (1.0 + a) * math.log(r) - math.log1p(a * r))


def _trunc_moment(a: float, b: float, c: float) -> float:
    """E exp(c * X * 1{X < 1}) for the law on {-a, b}, in closed form.

    The positive support point contributes e^{cb} only when b < 1; at or
    above the cut it contributes 1 exactly.  Underflow of e^{-ca} to 0 is
    legitimate and kept.
    """
    pos = in_range("e^(cb)", exp_or_inf(c * b), c, b) if b < 1.0 else 1.0
    return a / (a + b) * pos + b / (a + b) * math.exp(-c * a)


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
        """G(x), in Horner form: u^2 alone overflows once x_hi passes ~1.3e154."""
        u = x - self.contact_points[0]
        return self.lower_value + u * (self.lower_slope + self.gamma * u)


def minorant(result: Bound) -> QuadraticMinorant:
    """The parabola that proves ``result``: tangent to e^{cx} at -a, with
    c = result.tilt, and touching F at b; only a truncated result has a
    branch.  On the truncated small-sigma branch b is the cut 1 and G(1) = 1
    fixes gamma; otherwise G'(b) = 0, which gamma = -c e^{-ac} / (2(a+b))
    gives: F is flat at b, and the support maps b_star and B_star,
    recomputed here from a, put G(b) on F.  Roundoff at the truncated branch
    boundary may put B_star an ulp below the cut, where the truncation
    indicator flips; the branch pins b >= 1."""
    if not isinstance(result, Bound):
        raise ParameterError(f"result must be a Bound, got {result!r}")
    a, c = require_positive("a", result.a), require_positive("tilt", result.tilt)
    branch = None if result.branch is None else _choice(Branch, "branch", result.branch)
    if (branch is None) == (result.kind == "trunc"):
        raise ParameterError(f"branch {result.branch!r} does not fit kind {result.kind!r}")
    w = math.exp(-a * c)
    if branch is Branch.SMALL_SIGMA:
        b, gamma = 1.0, w * (math.exp(a * c) - a * c - c - 1.0) / (a + 1.0) ** 2
    else:
        b = max(_support_point(a, c, 0.0 if branch else c), 1.0)
        gamma = -c * w / (2.0 * (a + b))
    return QuadraticMinorant(contact_points=(-a, b), lower_value=w, lower_slope=c * w, gamma=gamma)
