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
from typing import Callable

from .errors import MaxIterationsError, NonFiniteValueError, NoSignChangeError, require_positive

TOL = 1e-12  # a root is accepted once |f| <= TOL
MAX_SOLVE_ITERATIONS = 200  # evaluations of f per solve
_TINY = math.ulp(0.0)  # the smallest positive double


def _solve(f: Callable[[float], tuple[float, float]], start: float, hi: float) -> float:
    """Root of f in (0, hi], solved from start clamped to hi.

    f(a) returns f's value and its slope in ln a, a f'(a).  f must increase
    through its only root in (0, hi] and must not be negative at hi.  Each
    evaluation narrows the bracket, which starts as (0, hi]; a Newton step
    too small to move a moves it one ulp toward the root, and a step that
    leaves the bracket is replaced by a geometric bisection, which probes
    the smallest positive double once while no point below the root is
    known.  The root is accepted once |f| <= TOL and is polished by one
    more Newton step.

    Raises NonFiniteValueError where f is not finite, NoSignChangeError where
    f > TOL at the smallest positive double (the root lies below it), and
    MaxIterationsError when the bracket collapses to adjacent doubles with
    |f| > TOL at both (f is too steep at this scale for TOL) or after
    MAX_SOLVE_ITERATIONS evaluations.
    """
    require_positive("start", start)
    # an open bracket (lo, hi) whose hi starts one ulp above the given end:
    # a step may land on that end once, but never on a point already probed
    lo, a, hi = 0.0, min(start, hi), math.nextafter(hi, math.inf)
    for _ in range(MAX_SOLVE_ITERATIONS):
        value, slope = f(a)
        if not math.isfinite(value):
            raise NonFiniteValueError(f"f({a!r}) returned non-finite value {value!r}")
        try:
            step = a * math.exp(-value / slope)  # the Newton step in ln a
        except ArithmeticError:  # a zero slope, or a step past the doubles
            step = math.nan
        if abs(value) <= TOL:
            return step if lo < step < hi else a  # polished by the Newton step
        if value < 0.0:
            lo = a
        elif a == _TINY:
            raise NoSignChangeError(
                f"f > 0 at the smallest positive double {_TINY!r}: the root lies below it"
            )
        else:
            hi = a
        if step == a:  # a correction below half an ulp: move one ulp toward the root
            step = math.nextafter(a, hi if value < 0.0 else 0.0)
        if not lo < step < hi:  # NaN, or outside (as any step against a negative slope is)
            step = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else _TINY
            if not lo < step < hi:
                raise MaxIterationsError(
                    f"bracket collapsed to adjacent floats [{lo!r}, {hi!r}] with |f| "
                    f"still above tol={TOL!r}; f is too steep at this scale for the tolerance"
                )
        a = step
    raise MaxIterationsError(
        f"no convergence in {MAX_SOLVE_ITERATIONS} evaluations; bracket [{lo!r}, {hi!r}] "
        f"(tol={TOL!r})"
    )
