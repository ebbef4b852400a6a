"""Brute-force extremal search, independent of the analytic solvers.

Three verification routes:

* grid minimization of the closed-form two-point moments over the lower
  support magnitude (and jointly over the tilt for the universal bound),
  with staged window refinement around the coarse argmin;
* randomized three-point laws satisfying the same moment constraints, which
  must never undercut any bound;
* the collapse construction (a, sigma^2/a) with tilt 1/a^2 showing that the
  truncated moment has no positive tilt-universal floor while the
  Winsorized one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import _BLOCK, MomentKind, capped_exp
from .errors import ParameterError, in_range, require_positive

REFINE_POINTS = (10_000, 1_000)    # a points of the coarse and the fine sweep
UNIVERSAL_COARSE = (2_000, 200)    # (a, c) points of the joint scan
UNIVERSAL_TILTS = (0.05, 20.0)     # the tilt span of the joint scan
UNIVERSAL_FINE = (300, 300)        # (a, c) points of each refinement round
UNIVERSAL_ROUNDS = 2
UNIVERSAL_WINDOW_CELLS = 12        # previous-grid cells kept on each side of the argmin


@dataclass(frozen=True)
class GridMinResult:
    """Minimum of a two-point moment over a search grid.

    ``cell_ratio`` is the ratio between adjacent points of the (finest) a
    grid; ``cell_ratio_c`` likewise for joint searches over the tilt.
    """

    argmin_a: float
    argmin_c: float  # the fixed tilt, or the grid argmin for joint searches
    min_value: float
    cell_ratio: float
    cell_ratio_c: float | None = None


def two_point_moment_grid(
    kind: MomentKind, c, sigma: float, a: np.ndarray, out=None, scratch=None
) -> np.ndarray:
    """Closed-form moment of X_{a, sigma^2/a} for each a (and tilt c,
    broadcastable).  Written into ``out`` when given, with ``scratch`` as
    the one temporary; both must have the broadcast shape."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    b = sigma * sigma / a
    shape = np.broadcast_shapes(c.shape, a.shape)
    out = np.empty(shape) if out is None else out
    scratch = np.empty(shape) if scratch is None else scratch
    # (a * F(b) + b * exp(-c * a)) / (a + b), one operation at a time
    capped_exp(kind, c, b, out=out)
    np.multiply(a, out, out=out)
    np.multiply(-c, a, out=scratch)
    np.exp(scratch, out=scratch)
    np.multiply(b, scratch, out=scratch)
    np.add(out, scratch, out=out)
    return np.divide(out, a + b, out=out)[()]


def refine_grid_min(c: float, sigma: float, kind: MomentKind) -> GridMinResult:
    """Two-stage minimization: coarse sweep over a in [min(sigma^2 * 1e-8,
    1/c, c e^(-c-1) sigma^2 / 2), sigma^2 * 1e2], then a fine sweep across
    a +/- 2-cell window around the coarse argmin.  Ties resolve to the
    smaller a, so the result is deterministic.  in_range refuses a sigma for
    which an end of the coarse grid is no positive double."""
    require_positive("c", c)
    require_positive("sigma", sigma)
    sigma2 = in_range("sigma^2", sigma * sigma, sigma)
    n_coarse, n_fine = REFINE_POINTS
    # below the extremal a of both kinds: at a <= 1/c, a b_star(a, c) < 2a e^(c+1) / c,
    # at most sigma^2 at the last term, and the truncated root lies above it
    a_lo = min(sigma2 * 1e-8, 1.0 / c, 0.5 * c * math.exp(-c - 1.0) * sigma2)
    coarse_grid = np.geomspace(
        in_range("the grid's lower end", a_lo, c, sigma),
        in_range("the grid's upper end sigma^2 * 1e2", sigma2 * 1e2, sigma),
        n_coarse,
    )
    idx = int(np.argmin(two_point_moment_grid(kind, c, sigma, coarse_grid)))
    lo, hi = coarse_grid[max(idx - 2, 0)], coarse_grid[min(idx + 2, n_coarse - 1)]
    grid = np.geomspace(lo, hi, n_fine)
    values = two_point_moment_grid(kind, c, sigma, grid)
    idx = int(np.argmin(values))
    return GridMinResult(
        argmin_a=float(grid[idx]),
        argmin_c=c,
        min_value=float(values[idx]),
        cell_ratio=(hi / lo) ** (1.0 / (n_fine - 1)),
    )


def universal_grid_min(sigma: float) -> GridMinResult:
    """Joint minimization of the Winsorized moment over (a, c).

    A broad log-log scan followed by repeated window refinements.  The
    objective has a curved shallow valley in the (a, c) plane, so the
    refinement window must span many coarse cells to keep the true minimum
    inside.  The coarse a grid spans min(sigma^2 * 1e-5, ln(1 + sigma)/2)
    to sigma^2, which holds the extremal a at every sigma.  Each scan runs
    in blocks of whole rows, about _BLOCK cells, in two buffers allocated
    once per call, and its argmin is np.argmin's over the whole grid: the
    first NaN, else the first least value in row-major order, i.e. the
    smaller a first, then the smaller c.  in_range refuses a sigma for
    which sigma^2 * 1e-5 underflows, or the largest moment term, a * e^c at
    the grid's upper corner, overflows.
    """
    require_positive("sigma", sigma)
    sigma2 = in_range("sigma^2", sigma * sigma, sigma)
    c_lo, c_hi = UNIVERSAL_TILTS
    # the extremal a grows like ln sigma, not sigma^2 (0.74 ln sigma at 1e3,
    # 0.98 ln sigma at 1e100): from sigma ~ 550 on, ln(1 + sigma)/2 starts
    # the grid below it
    a_lo = min(
        in_range("the grid's lower end sigma^2 * 1e-5", sigma2 * 1e-5, sigma),
        0.5 * math.log1p(sigma),
    )
    a_hi = sigma2 * (1.0 - 1e-9)
    in_range("the grid's largest term a * e^c", a_hi * math.exp(c_hi), sigma)

    out, scratch = np.empty(_BLOCK), np.empty(_BLOCK)

    def scan(a_lo, a_hi, c_lo, c_hi, shape):
        na, nc = shape
        a = np.geomspace(a_lo, a_hi, na)
        c = np.geomspace(c_lo, c_hi, nc)
        rows = _BLOCK // nc
        best, at = math.inf, 0
        for first in range(0, na, rows):
            cells = min(rows, na - first) * nc
            block = two_point_moment_grid(
                MomentKind.WINSOR, c, sigma, a[first : first + rows, None],
                out=out[:cells].reshape(-1, nc), scratch=scratch[:cells].reshape(-1, nc),
            ).ravel()
            k = int(block.argmin())
            if not block[k] >= best:  # a NaN, or less than every earlier value
                best, at = float(block[k]), first * nc + k
                if best != best:
                    break
        i, j = divmod(at, nc)
        return a, c, i, j, best

    a_grid, c_grid, i, j, value = scan(a_lo, a_hi, c_lo, c_hi, UNIVERSAL_COARSE)
    w = UNIVERSAL_WINDOW_CELLS
    for _ in range(UNIVERSAL_ROUNDS):
        a_grid, c_grid, i, j, value = scan(
            a_grid[max(i - w, 0)], a_grid[min(i + w, a_grid.size - 1)],
            c_grid[max(j - w, 0)], c_grid[min(j + w, c_grid.size - 1)],
            UNIVERSAL_FINE,
        )
    return GridMinResult(
        argmin_a=float(a_grid[i]),
        argmin_c=float(c_grid[j]),
        min_value=value,
        cell_ratio=float(a_grid[1] / a_grid[0]),
        cell_ratio_c=float(c_grid[1] / c_grid[0]),
    )


@dataclass(frozen=True)
class ThreePointProbe:
    """Randomized zero-mean three-point laws with second moment <= sigma^2."""

    support: np.ndarray  # (n, 3)
    masses: np.ndarray   # (n, 3)
    tilts: np.ndarray    # (n,)


def sample_three_point(sigma: float, n_samples: int, seed: int) -> ThreePointProbe:
    """Deterministic (seeded) sample of admissible three-point laws.

    Support points are centered to zero mean, then scaled so the second
    moment is a uniform fraction of sigma^2; tilts are sampled uniformly for
    probing bounds that optimize over the tilt.
    """
    require_positive("sigma", sigma)
    rng = np.random.default_rng(seed)
    support = rng.normal(0.0, 2.0 * sigma, size=(n_samples, 3))
    masses = rng.dirichlet((1.0, 1.0, 1.0), size=n_samples)
    fraction = rng.uniform(0.05, 1.0, size=(n_samples, 1))
    tilts = rng.uniform(0.05, 10.0, size=n_samples)
    # then in place, in blocks of rows: x - E x, times
    # sqrt((sigma * fraction)^2 / max(E (x - E x)^2, 1e-300))
    buffer = np.empty(_BLOCK)
    rows = _BLOCK // 3
    for first in range(0, n_samples, rows):
        block = slice(first, first + rows)
        x, p, u = support[block], masses[block], fraction[block]
        work = buffer[: x.size].reshape(x.shape)
        np.multiply(x, p, out=work)
        np.subtract(x, np.sum(work, axis=1, keepdims=True), out=x)
        np.multiply(x, x, out=work)
        np.multiply(work, p, out=work)
        second = np.maximum(np.sum(work, axis=1, keepdims=True), 1e-300)
        np.multiply(sigma, u, out=u)
        np.multiply(u, u, out=u)
        np.divide(u, second, out=u)
        np.multiply(x, np.sqrt(u, out=u), out=x)
    return ThreePointProbe(support=support, masses=masses, tilts=tilts)


def probe_moments(probe: ThreePointProbe, kind: MomentKind, c) -> np.ndarray:
    """E exp(c * capped(X)) for each sampled law; c may be scalar or (n,).
    Formed in blocks of rows, about _BLOCK cells, in one buffer."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    n, width = probe.support.shape
    moments = np.empty(n)
    buffer = np.empty(_BLOCK)
    rows = _BLOCK // width
    for first in range(0, n, rows):
        block = slice(first, first + rows)
        values = buffer[: probe.support[block].size].reshape(-1, width)
        capped_exp(kind, c[block] if c.ndim else c, probe.support[block], out=values)
        np.multiply(probe.masses[block], values, out=values)
        np.sum(values, axis=1, out=moments[block])
    return moments


@dataclass(frozen=True)
class CollapsePoint:
    a: float
    c: float
    moment: float


def trunc_collapse_sequence(sigma: float, a_values) -> list[CollapsePoint]:
    """Truncated moments along the collapse path b = sigma^2/a, c = 1/a^2.

    The moments fall to 0 once a decreases below min(1, sigma^2), which is
    where the positive support point clears the cut (b >= 1); exact
    underflow of e^{-c a} to 0 is reported as 0.  Points with a > sigma^2
    sit outside the collapse regime and may evaluate to huge values or
    infinity, reported as data.  in_range refuses an a whose c or b is no double.
    """
    require_positive("sigma", sigma)
    a_values = list(a_values)
    if not a_values or any(a <= 0.0 or not math.isfinite(a) for a in a_values):
        raise ParameterError("a_values must be a non-empty list of positive reals")
    if any(later >= earlier for earlier, later in zip(a_values, a_values[1:])):
        raise ParameterError("a_values must be strictly decreasing")

    a = np.array(a_values, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        c = 1.0 / (a * a)
    last = float(a[-1])  # a decreases: the last a has the largest c and b
    in_range("the tilt 1/a^2", float(c[-1]), last)
    in_range("b = sigma^2/a", sigma * sigma / last, sigma, last)
    with np.errstate(over="ignore"):
        moments = two_point_moment_grid(MomentKind.TRUNC, c, sigma, a)
    return [
        CollapsePoint(a=float(x), c=float(t), moment=float(m))
        for x, t, m in zip(a, c, moments)
    ]
