"""The package's one root solver: a safeguarded Newton iteration in ln a.

Every bound reduces to one scalar equation f(a) = 0 that increases through
its only root in (0, hi], for a closed-form upper end hi.  ``_solve`` takes
Newton steps in u = ln a but keeps its iterate on the doubles of a: a step
is a * exp(-f/f'), f' the slope in ln a.  (Iterating on the doubles of u
would lose the root at large |u|: near |u| = 684 one ulp of u moves f by
~8e-11, above the 1e-12 target.)  The acceptance rule is fixed: a point
with |f| <= TOL is accepted, polished by one Newton step; from a point with
TOL < |f| <= sqrt(TOL) whose equation supplies f'', Chebyshev's
second-order step is returned without evaluating f there when a certified
bound on |f| at the double it rounds to is <= TOL.  The bound is the sum
of the Newton remainder, the second-order shift and the step's rounding,
each scaled by the largest f' over the step (``_second_order_step``).
Everything here is pure and deterministic: identical inputs produce
bitwise-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import MaxIterationsError, NonFiniteValueError, NoSignChangeError, require_positive

TOL = 1e-12  # a root is accepted once |f| <= TOL, or certified to be
MAX_SOLVE_ITERATIONS = 200  # evaluations of f per solve
_TINY = math.ulp(0.0)  # the smallest positive double


def _second_order_step(a: float, move: float, slope: float, curvature: float):
    """Chebyshev's step from a and a certified bound on |f| at the double it
    rounds to, (step, bound) (Traub, Iterative Methods for the Solution of
    Equations, 1964).  move is the Newton move f/f' in u = ln a, slope f'
    and curvature f'' at a, and the step is u - move - f'' move^2/(2f').
    With |f''| <= f' over the step, f' changes by a factor of at most
    e^|v - u| from u to v, so M = f' e^|total move| bounds both f' and
    |f''| there.  The bound is M times the sum of the Newton remainder
    move^2/2, the second-order shift and the step's rounding in ln a,
    2 ulp(step)/step for the roundings of exp and of the product.  Like the
    |f| <= TOL test, it trusts f, f' and f'' as evaluated."""
    remainder = 0.5 * move * move
    shift = curvature * remainder / slope
    factor = math.exp(-move - shift)
    step = a * factor
    reach = slope / factor if factor < 1.0 else slope * factor  # f' e^|total move|
    return step, reach * (remainder + abs(shift) + 2.0 * math.ulp(step) / step)


def _solve(
    f: Callable[[float], tuple[float, float, float | None]], start: float, hi: float
) -> float:
    """Root of f in (0, hi], solved from start clamped to hi.

    f(a) returns f's value, its slope in ln a, a f'(a), and its second
    derivative in ln a or None.  f must increase through its only root in
    (0, hi] and must not be negative at hi.  An equation may supply f'' only
    where f^2 <= TOL and must have |f''| <= f' over any step from there;
    the moment matches and _ell1 do, the others pass None.  (With
    |f''| <= f' and f' >= 1, as for a moment match, the step's remainder
    and shift sum to about f^2/f' <= f^2, so the certificate can pass only
    about that close to a root.)  Each
    evaluation narrows the bracket, which starts as (0, hi]; a Newton step
    too small to move a moves it one ulp toward the root.  A geometric
    bisection replaces a step that leaves the bracket, and, by rtsafe's
    progress rule (Numerical Recipes, 3rd ed., 9.4), a move in ln a above
    half the move before last, a bisection's move counting as infinite.  It
    probes the smallest positive double while no point below the root is
    known, and the upper end for a step past it while that end is unprobed.
    A point with |f| <= TOL is accepted and polished by one Newton step.
    From a point with TOL < |f| whose f'' is supplied, the second-order step
    is returned unevaluated when _second_order_step certifies |f| <= TOL
    there; otherwise the Newton step is taken as before.

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
        value, slope, curvature = f(a)
        if curvature is not None and abs(value) > TOL:  # TOL < |f| <= sqrt(TOL)
            step, bound = _second_order_step(a, value / slope, slope, curvature)
            if bound <= TOL and lo < step < hi:
                return step
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
