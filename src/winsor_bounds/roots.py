"""Bracketed scalar root finding.

A geometric bracket search on (0, inf) plus a hybrid Brent-style iteration
(bisection safeguarded by secant / inverse quadratic steps).  Convergence
demands both a tight bracket and a small function residual, so downstream
solvers can rely on |f(root)| directly instead of re-deriving it from slope
estimates.  Sweeps solve whole columns of neighbouring equations instead,
with a warm-started, bracket-safeguarded Newton iteration in u = ln a
(``_newton_columns``).  Everything here is pure and deterministic: identical
inputs produce bitwise-identical results.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .config import default_tolerance
from .errors import (
    MaxIterationsError,
    NonFiniteValueError,
    NoSignChangeError,
    ParameterError,
    require_positive,
)

_EPS = 2.220446049250313e-16
MAX_BRACKET_STEPS = 200
MAX_SOLVE_ITERATIONS = 200
_LOG_MIN_NORMAL = math.log(sys.float_info.min)  # ln of the smallest normal double


def _opposite_signs(u: float, v: float) -> bool:
    return (u < 0.0 < v) or (v < 0.0 < u)


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] across which f changes sign strictly."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ParameterError(
                f"bracket requires lo < hi, got [{self.lo!r}, {self.hi!r}]"
            )
        if not _opposite_signs(self.f_lo, self.f_hi):
            raise ParameterError(
                "bracket requires strictly opposite signs: "
                f"f(lo)={self.f_lo!r}, f(hi)={self.f_hi!r}"
            )


@dataclass(frozen=True)
class RootResult:
    """Solved root with its residual and iteration count.

    When ``converged`` is true the residual is no larger than the tolerance
    tol and the final bracket was narrower than max(tol, tol * |root|).
    """

    root: float
    residual: float
    iterations: int
    converged: bool


def _checked(f: Callable[[float], float], x: float) -> float:
    value = f(x)
    if not math.isfinite(value):
        raise NonFiniteValueError(f"f({x!r}) returned non-finite value {value!r}")
    return value


def _bracket_about(f: Callable[[float], float], x0: float) -> Bracket:
    # f(x0) landed exactly on zero: widen symmetrically until signs straddle.
    delta = 1e-13 * x0
    for _ in range(MAX_BRACKET_STEPS):
        lo, hi = x0 - delta, x0 + delta
        if lo <= 0.0:
            break
        f_lo, f_hi = _checked(f, lo), _checked(f, hi)
        if _opposite_signs(f_lo, f_hi):
            return Bracket(lo, hi, f_lo, f_hi)
        delta *= 2.0
    raise NoSignChangeError(f"no strict sign change around exact zero at {x0!r}")


def find_bracket(f: Callable[[float], float], seed: float) -> Bracket:
    """Bracket a sign change of f on (0, inf) by geometric probing from seed.

    f must increase through its root: where f(seed) < 0 the search expands
    outward (factor 2), otherwise it contracts inward (factor 1/2).
    """
    require_positive("seed", seed)

    f_seed = _checked(f, seed)
    if f_seed == 0.0:
        return _bracket_about(f, seed)

    # f increases through the root, so the root lies above the seed while f
    # is still negative there, and below it otherwise.
    factor = 2.0 if f_seed < 0.0 else 0.5

    prev, f_prev = seed, f_seed
    while True:  # no step budget: ends at a sign change or past the positive doubles
        cur = prev * factor
        if cur == 0.0:  # halving underflowed: no positive float is left to probe
            raise NoSignChangeError(
                f"no sign change above 0 from seed {seed!r}: the contraction underflowed to 0"
            )
        if cur == math.inf:  # doubling overflowed: no finite float is left to probe
            raise NoSignChangeError(f"no sign change below inf from seed {seed!r}")
        f_cur = _checked(f, cur)
        if f_cur == 0.0:
            return _bracket_about(f, cur)
        if _opposite_signs(f_prev, f_cur):
            if prev < cur:
                return Bracket(prev, cur, f_prev, f_cur)
            return Bracket(cur, prev, f_cur, f_prev)
        prev, f_prev = cur, f_cur


def solve_root(f: Callable[[float], float], bracket: Bracket) -> RootResult:
    """Drive the bracket down around a root of f.

    Brent-style: each step is an inverse quadratic or secant candidate,
    accepted only when it beats bisection, otherwise bisect.  Succeeds once
    the bracket is narrower than max(tol, tol*|root|) AND |f(root)| <= tol,
    with tol = config.default_tolerance(); the returned root never leaves
    the initial bracket.

    Raises MaxIterationsError after MAX_SOLVE_ITERATIONS steps, which for a
    continuous f only happens when the residual target is unreachable in
    double precision (a pathologically steep or noisy function).
    """
    tol = default_tolerance()
    lo0, hi0 = bracket.lo, bracket.hi

    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    d = e = b - a

    for iteration in range(MAX_SOLVE_ITERATIONS):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb

        width = abs(c - b)
        if fb == 0.0 or (width <= max(tol, tol * abs(b)) and abs(fb) <= tol):
            root = min(max(b, lo0), hi0)
            return RootResult(root=root, residual=fb, iterations=iteration, converged=True)

        # Adjacent floats still straddling a sign change: no representable
        # point is left to try, so the residual target is unreachable in
        # double precision (f is too steep at this scale for tol).
        inner, outer = (b, c) if b < c else (c, b)
        if math.nextafter(inner, outer) >= outer:
            raise MaxIterationsError(
                f"bracket collapsed to adjacent floats [{inner!r}, {outer!r}] "
                f"with residual {fb!r} still above tol={tol!r}; "
                "the function is too steep at this scale for the tolerance"
            )

        step_floor = 2.0 * _EPS * abs(b)
        m = 0.5 * (c - b)

        if abs(e) < step_floor or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s_prev = e
            e = d
            if 2.0 * p < min(3.0 * m * q - abs(step_floor * q), abs(s_prev * q)):
                d = p / q
            else:
                d = e = m

        a, fa = b, fb
        if abs(d) > step_floor:
            b += d
        elif abs(m) <= step_floor:
            b += m  # resolve the last ulps exactly instead of overshooting
        elif m > 0.0:
            b += step_floor
        else:
            b -= step_floor
        fb = _checked(f, b)

        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a

    raise MaxIterationsError(
        f"no convergence in {MAX_SOLVE_ITERATIONS} iterations; last estimate {b!r} "
        f"with residual {fb!r} (tol={tol!r})"
    )


def _newton_columns(columns):
    """Roots in u = ln a of columns of lanes, solved one column at a time.

    A column is a list of lanes; a lane is a pair whose first item is None
    (nothing to solve) or (g, lo, hi): g(u) returns the value and slope of
    a function that increases through its only root in [lo, hi].  Each lane
    starts from the root of the last settled lane before it in its column
    (the midpoint of its bracket if none), takes Newton steps, and bisects
    whenever a step leaves the bracket, which every evaluation narrows.  It
    stops once |g| <= tol (tol = config.default_tolerance(), read once, at
    the first column) and takes one more Newton step to polish the root.
    The bracket never reaches below the smallest normal double.

    Yields each column with the list of its lanes' roots, None for a lane
    with nothing to solve or one that did not settle: no convergence in
    MAX_SOLVE_ITERATIONS evaluations, a bracket collapsed to adjacent
    floats, a non-finite value, an arithmetic error in g, or a root below
    the smallest normal double.  Callers answer such lanes another way.
    """
    tol = default_tolerance()
    for column in columns:
        roots, warm = [], None
        for equation, _ in column:
            root = None if equation is None else _newton_lane(*equation, warm, tol)
            roots.append(root)
            warm = warm if root is None else root
        yield column, roots


def _newton_lane(g, lo: float, hi: float, start: float | None, tol: float) -> float | None:
    lo = max(lo, _LOG_MIN_NORMAL)
    u = 0.5 * (lo + hi) if start is None else min(max(start, lo), hi)
    for _ in range(MAX_SOLVE_ITERATIONS):
        try:
            value, slope = g(u)
        except (ArithmeticError, ValueError):  # exp overflow or log(0) inside g
            return None
        if not math.isfinite(value):
            return None
        if abs(value) <= tol:
            if slope > 0.0:  # False for a NaN slope as well
                u -= value / slope
            return u if u >= _LOG_MIN_NORMAL else None
        if value < 0.0:
            lo = u
        else:
            hi = u
        step = u - value / slope if slope > 0.0 else lo
        if not lo < step < hi:  # also catches a NaN step
            step = 0.5 * (lo + hi)
            if not lo < step < hi:  # no float is left between the bracket ends
                return None
        u = step
    return None
