"""Executable invariant suites.

Each suite re-derives a family of mathematical guarantees numerically over
fixed test grids and reports the worst observed violation.  The suites back
both the CLI ``verify`` command and the acceptance tests.

Every suite is called as ``suite(grid)``.  ``run_suite`` builds one
``Grid`` per call and hands it to each suite it runs: every bound, branch
threshold and refined oracle search a suite reads goes through it, so each
is solved once per run, when first read, and is not kept past the run.

The roots, ordering and asymptotics suites are scalar and run on the
standard library; only the certificates and oracle suites evaluate arrays,
and they import NumPy, ``certificates`` and ``oracle`` when they run.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from . import asymptotics, errors, law, trunc, winsor
from .asymptotics import Regime
from .roots import _solve
from .trunc import Branch
from .winsor import BoundQuery

C_GRID = (0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
# np.geomspace(1e-3, 1e6, 40), written out: the grid needs no NumPy and is
# the same on every platform.  NumPy's own formula in pure Python,
# 10.0 ** (-3 + i * (9 / 39)), is one ulp off at i = 22 and i = 32, where
# NumPy's vectorized power rounds differently.
SIGMA_GRID = (
    0.001, 0.0017012542798525892, 0.0028942661247167516, 0.004923882631706742,
    0.008376776400682925, 0.014251026703029985, 0.024244620170823284, 0.04124626382901352,
    0.07017038286703829, 0.1193776641714437, 0.2030917620904737, 0.3455107294592222,
    0.5878016072274912, 1.0, 1.7012542798525891, 2.8942661247167516, 4.923882631706742,
    8.376776400682925, 14.251026703029993, 24.244620170823307, 41.246263829013564,
    70.17038286703837, 119.37766417144381, 203.09176209047388, 345.5107294592218,
    587.8016072274912, 1000.0, 1701.2542798525892, 2894.2661247167516, 4923.882631706741,
    8376.776400682924, 14251.026703029993, 24244.620170823306, 41246.263829013566,
    70170.38286703837, 119377.66417144357, 203091.7620904739, 345510.7294592218,
    587801.6072274924, 1000000.0,
)
_PAIRS = tuple(itertools.product(C_GRID, SIGMA_GRID))  # c-major, as the suites walk them

# Representative (c, sigma) pairs for the oracle-equivalence checks; they
# cover both truncated branches and three orders of magnitude in sigma.
ORACLE_PAIRS = (
    (0.5, 0.3),
    (1.0, 1.0),
    (2.0, 1.0),
    (1.0, 10.0),
    (5.0, 2.0),
    (0.5, 100.0),
    (3.0, 0.1),
    (2.0, 1000.0),
    (1.5, 5.0),
)


class CheckResult(namedtuple("CheckResult", "name passed worst tolerance detail", defaults=("",))):
    """One check's outcome: its name, whether it passed, the worst value
    seen, the tolerance that value is held to and an optional detail."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: worst={self.worst:.3e} tol={self.tolerance:.1e}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def _bounded_check(name, worst, tol, detail=""):
    return CheckResult(name=name, passed=worst <= tol, worst=worst, tolerance=tol, detail=detail)


def _extreme(pick, values, start=0.0) -> float:
    """pick(start, *values) for min or max, or NaN if a value is NaN: every
    check folds its values here, as both keep start over a NaN that does not
    come first."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else pick(start, *values)


def _relative_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y))


def _match_residual(a: float, log_support: float, sigma: float) -> float:
    """|a S / sigma^2 - 1| for the support point S = e^log_support."""
    return abs(math.expm1(math.log(a) + log_support - 2.0 * math.log(sigma)))


def _refine_grid_min(c, sigma, kind):
    """oracle.refine_grid_min, looked up when called: the oracle loads NumPy."""
    from . import oracle

    return oracle.refine_grid_min(c, sigma, kind)


class Grid:
    """One run's memo: fixed(c, sigma, cut=1.0), truncated(c, sigma),
    universal(sigma), threshold(c) (A_c) and refined(c, sigma, kind) each
    solve on their first call and keep the result, keyed by their arguments."""

    def __init__(self):
        fixed = functools.cache(
            lambda c, sigma, cut: winsor.lower_bound_fixed_c(BoundQuery(c, sigma, cut))
        )
        self.fixed = lambda c, sigma, cut=1.0: fixed(c, sigma, cut)  # an omitted cut keys as 1.0
        self.truncated = functools.cache(
            lambda c, sigma: trunc.lower_bound_trunc(BoundQuery(c, sigma))
        )
        self.universal = functools.cache(winsor.lower_bound_universal)
        self.threshold = functools.cache(trunc.solve_A_c)
        self.refined = functools.cache(_refine_grid_min)


def suite_roots(grid: Grid) -> list[CheckResult]:
    """Residuals of every solved root plus the analytic identities tying the
    universal quantities together."""
    results = []

    values = []
    for c, sigma in _PAIRS:
        a = grid.fixed(c, sigma).a
        values.append(_match_residual(a, winsor.log_b_star(a, c), sigma))
    results.append(_bounded_check("roots.winsor_fixed_c_residual", _extreme(max, values), 1e-10))

    worst = _extreme(max, (abs(winsor._ell1(grid.universal(s).a, s * s)) for s in SIGMA_GRID))
    results.append(_bounded_check("roots.winsor_universal_residual", worst, 1e-10))

    values = []
    for c, sigma in _PAIRS:
        # the truncated bound solves its moment match on the large-sigma branch only
        solution = grid.truncated(c, sigma)
        a = solution.a
        if solution.branch is Branch.SMALL_SIGMA:
            a = trunc._A_c_sigma(c, winsor._row(sigma, 1.0), None)
        values.append(_match_residual(a, trunc.log_B_star(a, c), sigma))
    results.append(_bounded_check("roots.trunc_moment_match_residual", _extreme(max, values),
                                  1e-10))

    worst = _extreme(max, (abs(trunc.B_star(grid.threshold(c), c) - 1.0) for c in C_GRID))
    results.append(_bounded_check("roots.trunc_threshold_identity", worst, 1e-10))

    values = []
    for sigma in SIGMA_GRID:
        u = grid.universal(sigma)
        values += (_relative_gap(u.a, grid.fixed(u.tilt, sigma).a),
                   _relative_gap(sigma * sigma / u.a, winsor.b_star(u.a, u.tilt)))
    results.append(_bounded_check("roots.universal_consistency", _extreme(max, values), 1e-8))

    # d/da ln(optimal moment) must equal ell1(a) / (1+a)^2.
    values = []
    step = 1e-6
    for sigma in (0.7, 1.0, 2.0, 5.0):
        for fraction in (0.05, 0.4, 0.6, 0.9):
            a = fraction * sigma * sigma
            up, down = a + step, a - step
            numeric = (
                math.log(law._optimal_winsor_moment(up, sigma, law._optimal_c(up, sigma)))
                - math.log(law._optimal_winsor_moment(down, sigma, law._optimal_c(down, sigma)))
            ) / (2.0 * step)
            analytic = winsor._ell1(a, sigma * sigma) / (1.0 + a) ** 2
            if not abs(analytic) <= 0.05:  # a NaN is kept
                values.append(abs(numeric - analytic) / abs(analytic))
    results.append(_bounded_check("roots.log_moment_derivative_identity", _extreme(max, values),
                                  1e-4))

    return results


def suite_ordering(grid: Grid) -> list[CheckResult]:
    """Bound comparisons and monotonicity across the (c, sigma) grid."""
    results = []

    values = []
    for c, sigma in _PAIRS:
        bound, bound_t = grid.fixed(c, sigma).bound, grid.truncated(c, sigma).bound
        values += (bound - 1.0, bound_t - bound, grid.universal(sigma).bound - bound)
        if bound <= 0.0 or bound_t <= 0.0:
            values.append(math.inf)
    results.append(_bounded_check("ordering.bound_chain", _extreme(max, values), 1e-12,
                                  "L_T <= L_W <= 1 and L_universal <= L_W"))

    worst = _extreme(max, (_relative_gap(grid.fixed(u.tilt, s).bound, u.bound)
                           for s in SIGMA_GRID for u in (grid.universal(s),)))
    results.append(_bounded_check("ordering.equality_at_optimal_tilt", worst, 1e-10))

    values = []
    for c in C_GRID:
        for s1, s2 in zip(SIGMA_GRID, SIGMA_GRID[1:]):
            values += (grid.fixed(c, s2).bound - grid.fixed(c, s1).bound,
                       grid.truncated(c, s2).bound - grid.truncated(c, s1).bound)
    for s1, s2 in zip(SIGMA_GRID, SIGMA_GRID[1:]):
        values.append(grid.universal(s2).bound - grid.universal(s1).bound)
    results.append(_bounded_check("ordering.monotone_in_sigma", _extreme(max, values), 1e-12))

    values = []
    for c, sigma in _PAIRS:
        solution = grid.truncated(c, sigma)
        if solution.branch is Branch.LARGE_SIGMA:
            threshold = grid.threshold(c)
            values += ((threshold - solution.a) / threshold, 1.0 - solution.b)
    results.append(_bounded_check("ordering.trunc_branch_inequalities", _extreme(max, values),
                                  1e-12, "A_c_sigma >= A_c and B_c_sigma >= 1"))

    values = []
    for c in (0.5, 1.0, 2.0, 5.0):
        threshold = grid.threshold(c)
        small = law._trunc_moment(threshold, 1.0, c)
        a_large = trunc._A_c_sigma(c, winsor._row(math.sqrt(threshold), 1.0), None)
        large = law._trunc_moment(a_large, max(threshold / a_large, 1.0), c)
        values.append(_relative_gap(small, large))
    results.append(_bounded_check("ordering.trunc_branch_continuity", _extreme(max, values),
                                  1e-10))

    values = []
    for sigma in SIGMA_GRID:
        solution = grid.universal(sigma)
        a, b = solution.a, solution.b
        center = law._winsor_moment(a, b, solution.tilt)
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            perturbed = law._winsor_moment(a, b, solution.tilt * factor)
            values.append((center - perturbed) / center)
    results.append(_bounded_check("ordering.interior_tilt_optimality",
                                  _extreme(max, values, -math.inf), -1e-14,
                                  "perturbing the tilt strictly increases the moment"))

    worst = 0.0
    for c, sigma, cut in ((1.0, 2.0, 2.0), (2.0, 1.0, 0.5), (0.7, 30.0, 3.0)):
        direct, rescaled = grid.fixed(c, sigma, cut), grid.fixed(c * cut, sigma / cut)
        if direct.bound != rescaled.bound or direct.a != rescaled.a:
            worst = math.inf
    results.append(_bounded_check("ordering.cut_rescaling_identity", worst, 0.0,
                                  "bitwise equality through the shared code path"))

    return results


def suite_certificates(grid: Grid) -> list[CheckResult]:
    """Tangent-minorant geometry over the full grid: G <= F, localized
    equality, tangency at contacts, and the claimed coefficient signs."""
    from . import certificates
    from .certificates import MomentKind

    cases, margins = [], []
    solve = {MomentKind.WINSOR: grid.fixed, MomentKind.TRUNC: grid.truncated}
    for (c, sigma), kind in itertools.product(_PAIRS, MomentKind):
        result = solve[kind](c, sigma)
        minorant = law.minorant(result)
        if result.branch is Branch.SMALL_SIGMA:
            sigma2 = sigma * sigma
            beta_floor = math.exp(-sigma2 * c) * c * (1.0 + sigma**4) / (1.0 + sigma2) ** 2
            margins.append((beta_floor - minorant.beta) / beta_floor)
        cases.append((minorant, kind, c))

    # Negative control: shrinking beta = G'(0) by 10%, i.e. subtracting
    # 0.1 beta x from G, must break the certificate.
    fixed = grid.fixed(1.0, 1.0)
    a, good = fixed.a, law.minorant(fixed)
    broken = law.QuadraticMinorant(
        contact_points=good.contact_points,
        lower_value=good.lower_value + 0.1 * good.beta * a,
        lower_slope=good.lower_slope - 0.1 * good.beta,
        gamma=good.gamma,
    )
    *reports, control = certificates.check_certificates([*cases, (broken, MomentKind.WINSOR, 1.0)])

    worst_gap = _extreme(min, (report.worst_gap for report in reports))
    worst_tangency = _extreme(max, (gap for report in reports
                                    for gaps in report.contact_gaps.values() for gap in gaps))
    failed = [(kind.value, c, sigma, report.worst_x)
              for ((c, sigma), kind), report in zip(itertools.product(_PAIRS, MomentKind), reports)
              if not report.passed]
    return [
        CheckResult(
            name="certificates.minorant_below_moment",
            passed=not failed,
            worst=-worst_gap,
            tolerance=certificates.GAP_RTOL,
            detail="{} c={} sigma={:.3g} x={:.3g}".format(*failed[0]) if failed
            else "all families, full grid",
        ),
        _bounded_check("certificates.contact_tangency", worst_tangency, 1e-12),
        _bounded_check(
            "certificates.trunc_small_beta_floor", _extreme(max, margins), 1e-12,
            "beta > e^{-ac} c (1+a^2)/(1+a)^2 up to roundoff"
        ),
        CheckResult(
            name="certificates.negative_control",
            passed=not control.passed,
            worst=control.worst_gap,
            tolerance=certificates.GAP_RTOL,
            detail="perturbed minorant must fail",
        ),
    ]


def suite_oracle(grid: Grid) -> list[CheckResult]:
    """Grid minimization agrees with the analytic roots; no law on a support
    grid undercuts any bound; the truncated collapse reaches zero."""
    import numpy as np

    from . import oracle
    from .certificates import MomentKind

    results = []

    values, cells = [], []
    for c, sigma in ORACLE_PAIRS:
        for kind, analytic in (
            (MomentKind.WINSOR, grid.fixed(c, sigma)),
            (MomentKind.TRUNC, grid.truncated(c, sigma)),
        ):
            found = grid.refined(c, sigma, kind)
            values.append(_relative_gap(found.min_value, analytic.bound))
            cells.append(abs(math.log(found.argmin_a / analytic.a)) / math.log(found.cell_ratio))
    results.append(_bounded_check("oracle.two_point_grid_min_value", _extreme(max, values), 1e-6))
    results.append(_bounded_check("oracle.two_point_grid_min_argmin", _extreme(max, cells), 1.0,
                                  "within one refined grid cell"))

    values, cells = [], []
    for sigma in (0.5, 1.0, 10.0):
        analytic = grid.universal(sigma)
        found = oracle.universal_grid_min(sigma)
        values.append(_relative_gap(found.min_value, analytic.bound))
        cells += (abs(math.log(found.argmin_a / analytic.a)) / math.log(found.cell_ratio),
                  abs(math.log(found.argmin_c / analytic.tilt)) / math.log(found.cell_ratio_c))
    results.append(_bounded_check("oracle.universal_grid_min_value", _extreme(max, values), 1e-6))
    results.append(_bounded_check("oracle.universal_grid_min_argmin", _extreme(max, cells), 1.0))

    # Strictness: one refined cell away from the argmin the moment exceeds
    # the minimum by a strictly positive margin.
    values = []
    for c, sigma in ((1.0, 1.0), (2.0, 10.0)):
        found = grid.refined(c, sigma, MomentKind.WINSOR)
        for factor in (found.cell_ratio**3, found.cell_ratio**-3):
            nearby = float(oracle.two_point_moment_grid(
                MomentKind.WINSOR, c, sigma, np.array([found.argmin_a * factor])
            )[0])
            values.append((found.min_value - nearby) / found.min_value)
    results.append(_bounded_check("oracle.argmin_uniqueness_margin",
                                  _extreme(max, values, -math.inf), -1e-12,
                                  "values one refined cell away strictly exceed the minimum"))

    # The least E F(X) over every law on a support grid, an exact LP, each
    # started from the grid points at or outside the bound's support
    values, cells, cell = [], [], math.log(oracle.LP_GRID[1] / oracle.LP_GRID[0])
    universal = ((MomentKind.WINSOR, u.tilt, u) for u in map(grid.universal, (0.5, 1.0, 10.0)))
    for kind, c, bound in ((MomentKind.WINSOR, 1.0, grid.fixed(1.0, 1.0)),
                           (MomentKind.TRUNC, 1.0, grid.truncated(1.0, 1.0)), *universal):
        found = oracle.lp_min(kind, c, bound.sigma, start=(-bound.a, bound.b))
        values.append((bound.bound - found.value) / bound.bound)
        cells += ([abs(math.log(x / (bound.b if x > 0.0 else -bound.a))) / cell if x else math.inf
                   for x, p in zip(found.support, found.weights) if p > 1e-12]
                  if found.beta > 0.0 > found.gamma else [math.inf])
    results.append(_bounded_check("oracle.lp_value_above_bound", _extreme(max, values, -math.inf),
                                  1e-12, "(bound - LP)/bound over every law on the grid"))
    results.append(_bounded_check("oracle.lp_support_at_extremal_law", _extreme(max, cells), 1.0,
                                  "grid cells from {-a, b}; inf unless beta > 0 > gamma"))

    points = oracle.trunc_collapse_sequence(1.0, (0.5, 0.2, 0.1, 0.05))
    moments = [p.moment for p in points]
    collapse_ok = all(m2 < m1 for m1, m2 in zip(moments, moments[1:])) and moments[-1] < 1e-2
    floor_ok = all(
        law._optimal_winsor_moment(p.a, 1.0, law._optimal_c(p.a, 1.0))
        >= grid.universal(1.0).bound * (1.0 - 1e-12) for p in points
    )
    results.append(CheckResult(
        name="oracle.trunc_collapse",
        passed=collapse_ok and floor_ok,
        worst=moments[-1],
        tolerance=1e-2,
        detail="decreasing to ~0 while the Winsorized floor holds",
    ))
    return results


def suite_asymptotics(grid: Grid) -> list[CheckResult]:
    """Convergence to the leading-order laws and the constants they pin."""
    results = []
    constants = asymptotics.solve_t_star()

    results.append(_bounded_check(
        "asymptotics.t_star_identity",
        abs(2.0 * (1.0 - constants.t_star) - constants.minus_ln_t_star),
        1e-10,
    ))

    sigma = 1e-3
    sigma2 = sigma * sigma
    values = []
    for c in (0.5, 1.0, 2.0, 5.0):
        slope = asymptotics.winsor_small_sigma_slope(c)
        values += (abs((grid.fixed(c, sigma).bound - 1.0) / sigma2 / slope - 1.0),
                   abs((grid.truncated(c, sigma).bound - 1.0) / sigma2 / (-c) - 1.0))
    results.append(_bounded_check("asymptotics.small_sigma_slopes", _extreme(max, values), 1e-2))

    # sigma -> infinity: exact/asymptote within 30% by sigma = 1e6 and
    # |ratio - 1| shrinking monotonically along the big-sigma ladder.
    ladder, large = (1e4, 1e6, 1e8, 1e10), Regime.LARGE_SIGMA
    # (|exact/asymptote - 1| along the ladder, whether it must shrink)
    gaps = [([abs(grid.universal(s).bound / asymptotics.universal_asymptote(s, large) - 1.0)
              for s in ladder], True)]
    for c in (1.0, 1.5, 2.0, 3.0):
        coeff = asymptotics.winsor_large_sigma_coeff(c)
        gaps.append(([abs(grid.fixed(c, s).bound / (coeff * (math.log(s) ** 2 / (s * s))) - 1.0)
                      for s in ladder], True))
        # the truncated ratio crosses 1 inside the ladder for larger c,
        # so its distance to 1 is only monotone up to c = 2 here
        gaps.append(([abs(grid.truncated(c, s).bound / asymptotics.trunc_asymptote(c, s, large)
                          - 1.0) for s in ladder], c <= 2.0))
    worst_at_1e6 = _extreme(max, (along[ladder.index(1e6)] for along, _ in gaps))
    worst_monotone = _extreme(max, (g2 - g1 for along, shrink in gaps if shrink
                                    for g1, g2 in zip(along, along[1:])))
    results.append(_bounded_check("asymptotics.large_sigma_within_30pct", worst_at_1e6, 0.30))
    results.append(_bounded_check("asymptotics.large_sigma_monotone_approach",
                                  worst_monotone, 0.0))

    ratio_1e10 = asymptotics.universal_asymptote(1e10, large) / grid.universal(1e10).bound
    results.append(_bounded_check(
        "asymptotics.slow_convergence_regression",
        abs(ratio_1e10 - 1.2011783441755197),
        1e-3,
        f"asymptote/exact at sigma=1e10 = {ratio_1e10:.6f}",
    ))

    # Winsorized-over-truncated separation climbs toward e^c; pinned within
    # 5% at sigma=1e10 for c=1 (the approach is only logarithmic in sigma).
    values = []
    for c in (1.0, 1.5, 2.0):
        ratios = [grid.fixed(c, s).bound / grid.truncated(c, s).bound / math.exp(c)
                  for s in ladder]
        values += (r1 - r2 for r1, r2 in zip(ratios, ratios[1:]))
        if c == 1.0:
            separation_gap = abs(ratios[-1] - 1.0)
    results.append(_bounded_check("asymptotics.exp_c_separation_monotone",
                                  _extreme(max, values), 0.0))
    results.append(_bounded_check("asymptotics.exp_c_separation_at_1e10",
                                  separation_gap, 0.05, "c=1"))

    # Both infima over the tilt sit where the closed-form derivative
    # vanishes: the slope's where 2(1 - e^{-c}) = c, whose root is -ln t_star,
    # and the coefficient's where 4 e^c (c - 2) / c^3 = 0, i.e. at c = 2.
    # Both are solved as equations rising through their root, with slopes in ln c.
    slope_c = _solve(
        lambda c: (c + 2.0 * math.expm1(-c), c * (1.0 - 2.0 * math.exp(-c)), None),
        1.0,
        10.0,
    )
    coeff_c = _solve(
        lambda c: (4.0 * math.exp(c) * (c - 2.0) / c**3,
                   4.0 * math.exp(c) * (c * c - 4.0 * c + 6.0) / c**3, None),
        1.0,
        10.0,
    )
    worst = _extreme(max, (
        abs(slope_c - constants.minus_ln_t_star),
        abs(asymptotics.winsor_small_sigma_slope(slope_c)
            - constants.small_sigma_universal_slope),
        abs(coeff_c - 2.0),
        abs(asymptotics.winsor_large_sigma_coeff(coeff_c)
            - constants.large_sigma_universal_coeff),
    ))
    results.append(_bounded_check("asymptotics.infimum_identities", worst, 1e-6))

    return results


SUITES = {
    "roots": suite_roots,
    "ordering": suite_ordering,
    "certificates": suite_certificates,
    "oracle": suite_oracle,
    "asymptotics": suite_asymptotics,
}


def run_suite(name: str, seed: int = 1) -> list[CheckResult]:
    """Run one named suite, or all of them in SUITES order, over one Grid; seed selects nothing."""
    if name not in (*SUITES, "all"):  # a tuple: an unhashable name is refused too
        raise errors.ParameterError(f"suite must be one of {', '.join(SUITES)}, all; got {name!r}")
    errors.require_integer("seed", seed, 0)
    grid = Grid()
    return [check for each in (SUITES if name == "all" else (name,))
            for check in SUITES[each](grid)]
