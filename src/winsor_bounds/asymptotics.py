"""Leading-order behaviour of the bounds as sigma -> 0 and sigma -> infinity.

The single constant t_star (root of ln t + 2(1-t) on (0,1)) generates every
universal small-sigma and large-sigma coefficient; it is solved once and
cached.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .errors import LN_DBL_MAX, _choice, exp_or_inf, in_range, require_positive
from .roots import _solve


class Regime(str, Enum):
    """The two sides of sigma: an asymptotic law's regime, and the truncated
    bound's branch, which ``trunc`` binds to the name ``Branch``."""

    SMALL_SIGMA = "small-sigma"
    LARGE_SIGMA = "large-sigma"


AsymptoticConstants = namedtuple(
    "AsymptoticConstants",
    "t_star minus_ln_t_star small_sigma_universal_slope large_sigma_universal_coeff",
)


def f_of_t(t: float) -> float:
    """ln t + 2(1 - t); switches sign once, - to +, on (0, 1)."""
    t = require_positive("t", t)
    return math.log(t) + 2.0 * (1.0 - t)


@lru_cache(maxsize=1)
def solve_t_star() -> AsymptoticConstants:
    """Root t_star of f_of_t on (0, 1) plus every constant derived from it.

    f_of_t increases on (0, 1/2), with slope 1 - 2t in ln t, and is positive
    at 1/2, so the root lies below it.
    """
    t = _solve(lambda t: (f_of_t(t), 1.0 - 2.0 * t, None), 0.25, 0.5)
    return AsymptoticConstants(
        t_star=t,
        minus_ln_t_star=-math.log(t),
        small_sigma_universal_slope=-(1.0 - t) * t,
        large_sigma_universal_coeff=math.exp(2.0),
    )


def t_star() -> float:
    return solve_t_star().t_star


def winsor_small_sigma_slope(c: float) -> float:
    """Coefficient of sigma^2 in the fixed-tilt Winsorized bound near sigma=0:
    -c^2 / (4(e^c - 1))."""
    c = require_positive("c", c)
    denominator = 4.0 * math.expm1(min(c, LN_DBL_MAX))
    if denominator == math.inf:  # there e^c - 1 is e^c to double precision
        return -0.25 * math.exp(2.0 * math.log(c) - c)
    return -c * c / denominator


def winsor_large_sigma_coeff(c: float) -> float:
    """Coefficient of ln^2(sigma)/sigma^2 in the fixed-tilt Winsorized bound
    for large sigma: 4 e^c / c^2.  Divided by c twice: c^2 underflows to 0
    below c ~ 1.5e-162, where the quotient has overflowed.  Past c ~ 708.4,
    4 e^c overflows before the divisions, so there it is formed as w * w
    with w = 2 e^{c/2} / c, a double up to c ~ 721.5 (w ** 2 would raise)."""
    c = require_positive("c", c)
    coeff = 4.0 * exp_or_inf(c) / c / c
    if coeff == math.inf:
        w = 2.0 * exp_or_inf(0.5 * c) / c
        coeff = w * w
    return in_range("4e^c/c^2", coeff, c)


def trunc_asymptote(c: float, sigma: float, regime: Regime) -> float:
    """Leading truncated-bound approximation: 1 - c*sigma^2 near zero, 4q^2
    at infinity with q = ln(sigma)/sigma/c, which forms no c^2 or sigma^2."""
    c, sigma = require_positive("c", c), require_positive("sigma", sigma)
    if _choice(Regime, "regime", regime) is Regime.SMALL_SIGMA:
        return 1.0 - c * sigma * sigma
    q = math.log(sigma) / sigma / c
    value = 4.0 * q * q  # only an overflow is refused: it is 0.0 at sigma = 1
    return in_range("(4/c^2) ln^2(sigma)/sigma^2", value, c, sigma) if value else value


def universal_asymptote(sigma: float, regime: Regime) -> float:
    """Leading universal Winsorized approximation: 1 - (1-t*)t* sigma^2 near
    zero, e^2 q^2 at infinity with q = ln(sigma)/sigma, which forms no sigma^2."""
    sigma = require_positive("sigma", sigma)
    if _choice(Regime, "regime", regime) is Regime.SMALL_SIGMA:
        return 1.0 + solve_t_star().small_sigma_universal_slope * sigma * sigma
    q = math.log(sigma) / sigma
    value = solve_t_star().large_sigma_universal_coeff * q * q
    return in_range("e^2 ln^2(sigma)/sigma^2", value, sigma) if value else value
