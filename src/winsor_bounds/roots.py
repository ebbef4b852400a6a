"""The package's one root solver: a safeguarded Newton iteration in ln a.

Every bound reduces to one scalar equation f(a) = 0 that increases through
its only root in (0, hi], for a closed-form upper end hi.  ``_solve`` takes
Newton steps in u = ln a but keeps its iterate on the doubles of a: a step
is a * exp(-f/f'), f' the slope in ln a.  (Iterating on the doubles of u
would lose the root at large |u|: near |u| = 684 one ulp of u moves f by
~8e-11, above the 1e-12 target.)  The stopping rule is fixed: a root is
accepted once |f| <= TOL.  Everything here is pure and deterministic:
identical inputs produce bitwise-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import MaxIterationsError, NonFiniteValueError, NoSignChangeError, require_positive

TOL = 1e-12  # a root is accepted once |f| <= TOL
MAX_SOLVE_ITERATIONS = 200  # evaluations of f per solve
_TINY = math.ulp(0.0)  # the smallest positive double


def _solve(f: Callable[[float], tuple[float, float]], start: float, hi: float) -> float:
    """Root of f in (0, hi], solved from start clamped to hi.

    f(a) returns f's value and its slope in ln a, a f'(a).  f must increase
    through its only root in (0, hi] and must not be negative at hi.  Each
    evaluation narrows the bracket, which starts as (0, hi]; a Newton step
    too small to move a moves it one ulp toward the root.  A geometric
    bisection replaces a step that leaves the bracket, and, by rtsafe's
    progress rule (Numerical Recipes, 3rd ed., 9.4), a move in ln a above
    half the move before last, a bisection's move counting as infinite.  It
    probes the smallest positive double while no point below the root is
    known, and the upper end for a step past it while that end is unprobed.
    The root is accepted once |f| <= TOL and polished by one Newton step.

    Raises NonFiniteValueError where f is NaN or -inf, NoSignChangeError where
    f > TOL at the smallest positive double (the root lies below it), and
    MaxIterationsError when the bracket collapses to adjacent doubles with
    |f| > TOL at both (f is too steep at this scale for TOL) or after
    MAX_SOLVE_ITERATIONS evaluations.
    """
    start = require_positive("start", start)
    # an open bracket (lo, hi) whose hi starts one ulp above the given end:
    # a step may land on that end once, but never on a point already probed
    lo, a, end, hi = 0.0, min(start, hi), hi, math.nextafter(hi, math.inf)
    last = older = math.inf  # half the sizes of the last two moves in ln a
    for _ in range(MAX_SOLVE_ITERATIONS):
        value, slope = f(a)
        try:
            move = value / slope  # the Newton move in ln a
            step = a * math.exp(-move)
        except ArithmeticError:  # a zero slope, or a step past the doubles
            move = step = math.nan
        if value < -TOL:
            lo = a
        elif value > TOL:
            hi = a
        elif value == value:  # |f| <= TOL
            return step if lo < step < hi else a  # polished by the Newton step
        else:
            raise NonFiniteValueError(f"f({a!r}) returned non-finite value {value!r}")
        if step == a:  # a correction below half an ulp: move one ulp toward the root
            step = math.nextafter(a, hi if value < 0.0 else 0.0)
        # NaN, outside (as any step against a negative slope is), or short
        # of halving the move before last
        size = abs(move)
        if not lo < step < hi or size > older:
            # f = -inf leaves a NaN or zero step, and f > 0 at the smallest
            # positive double an empty bracket: both are refused here, on
            # the path every such evaluation takes, not tested on every step
            if value == -math.inf:
                raise NonFiniteValueError(f"f({a!r}) returned non-finite value {value!r}")
            if a == _TINY and value > 0.0:
                raise NoSignChangeError(
                    f"f > 0 at the smallest positive double {_TINY!r}: the root lies below it"
                )
            bisection = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else _TINY
            step, size = end if step >= hi > end else bisection, math.inf
            if not lo < step < hi:
                raise MaxIterationsError(
                    f"bracket collapsed to adjacent floats [{lo!r}, {hi!r}] with |f| "
                    f"still above tol={TOL!r}; f is too steep at this scale for the tolerance"
                )
        a = step
        older, last = last, 0.5 * size
    raise MaxIterationsError(
        f"no convergence in {MAX_SOLVE_ITERATIONS} evaluations; bracket [{lo!r}, {hi!r}] "
        f"(tol={TOL!r})"
    )
