"""Plain reference routines for the tests, independent of the package's
root solver: a bisection oracle for roots and a golden-section search for
minima."""

import math


def bisect(f, lo, hi, iters=200):
    """Root of f between lo and hi, where f changes sign, by plain bisection."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_section_min(f, lo, hi, xtol):
    """(x, f(x)) at the minimum of a unimodal f on [lo, hi], the bracket
    narrowed by the golden ratio per evaluation until it is below xtol."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 <= f2:  # the minimum lies in [lo, x2]
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = f(x1)
        else:  # in [x1, hi]
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)
