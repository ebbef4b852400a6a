"""Run each mutant of MUTANTS against the tier-1 tests and report whether
the tests kill it.

    python scripts/mutants.py

A mutant replaces one exact text, found exactly once, in one file under
src/.  Tier-1 runs first in an unmutated copy of the tree (without .git and
caches) and must pass, so a copy that cannot pass on its own is not taken
for killed mutants.  Then for each mutant the tree is copied to a temporary
directory, the mutant is applied there, and tier-1 runs in the copy
(``python -m pytest -x -q``, stopping at the first failure, with no bytecode
written, so no stale .pyc can hide the change).  A mutant is killed when
pytest exits 1, some test failed; any other exit code (collection, usage or
internal errors, no tests) is an error.  The exit code is 1 when the
unmutated copy fails, a mutant survives or errs, or its text is not found
exactly once, which means the table has gone stale.

EQUIVALENT lists mutants that no test can kill, each with the reason; they
are listed but not run.  A later change that runs a mutation check adds its
mutants here rather than describing them.  Needs only the standard library
and pytest; a mutant takes 1-12 s on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new why")

CERT = "src/winsor_bounds/certificates.py"
LAW = "src/winsor_bounds/law.py"
ORACLE = "src/winsor_bounds/oracle.py"
ROOTS = "src/winsor_bounds/roots.py"
VERIFY = "src/winsor_bounds/verify.py"

MUTANTS = [
    # the three that once survived tier-1, each pinned by a test since
    Mutant("contact-window-doubled", CERT,
           "CONTACT_WINDOW = 1e-2 ", "CONTACT_WINDOW = 2e-2 ",
           "equality may reach twice as far from a contact"),
    Mutant("negative-control-weakened", VERIFY,
           "lower_value=good.lower_value + 0.1 * good.beta * a,\n"
           "        lower_slope=good.lower_slope - 0.1 * good.beta,",
           "lower_value=good.lower_value + 0.01 * good.beta * a,\n"
           "        lower_slope=good.lower_slope - 0.01 * good.beta,",
           "verify's own negative control shrinks beta by 1%, not 10%"),
    # one array per pass
    Mutant("greatest-x-among-ties", CERT,
           "    worst_x = np.minimum.reduceat(np.where(ties, x, math.inf), starts)",
           "    worst_x = np.maximum.reduceat(np.where(ties, x, -math.inf), starts)",
           "a tie of the worst gap reports the greatest x, not the least"),
    # a whole certificate suite in one batched pass
    Mutant("no-nan-tie-rule", CERT,
           "    if np.isnan(worst).any():  # a NaN is its check's worst",
           "    if False:  # a NaN is its check's worst",
           "a NaN worst gap reports no x"),
    Mutant("least-x-over-the-wrong-segment", CERT,
           "    worst_x = np.minimum.reduceat(np.where(ties, x, math.inf), starts)",
           "    worst_x = np.minimum.reduceat(np.where(ties, x, math.inf), np.maximum(starts - 1, 0))",
           "each check's least tied x is taken from a segment one point early"),
    Mutant("equality-localized-pooled", CERT,
           "    localized[owner[~near.any(0)]] = False",
           "    localized &= bool(near.any(0).all())",
           "one stray equality fails every check of its chunk"),
    Mutant("overridden-call-ignored", CERT,
           "    g = minorants[0](x) if len(minorants) == 1 else None",
           "    g = None",
           "a minorant that overrides __call__ is checked by its coefficients"),
    Mutant("fake-contact-from-coefficients", CERT,
           "            g[j, :, 0] = minorants[j](coef[j, :2])",
           "            pass",
           "a minorant that overrides __call__ has its contact gaps from its coefficients"),
    Mutant("chunk-of-one-kind", CERT,
           "    f, g = _f_and_g(winsor, coef, x, lambda column: np.repeat(column, counts), g)",
           "    f, g = _f_and_g(winsor[:1].repeat(len(winsor)), coef, x,\n"
           "                    lambda column: np.repeat(column, counts), g)",
           "every point of a chunk is formed with its first check's kind of F"),
    # the radii: from each anchor, the points a Taylor bound proves above the worst gap
    Mutant("span-level-without-equality", CERT,
           "np.maximum(q, EQUALITY_RTOL)", "q",
           "the kept intervals prove points above the least contact gap, not above EQUALITY_RTOL"),
    Mutant("radius-without-margins", CERT,
           "    deficit = _slack(np.abs(k) * f0 + level, spread[..., :1] + spread_hi) + 1e-299",
           "    deficit = 0.0 * f0",
           "the radius takes F and G at the anchor and at each point as exact"),
    Mutant("radius-least-contact-gap", CERT,
           "    q = np.maximum(((f - g) / np.maximum(f, 1.0)).min(1, keepdims=True), 0.0)",
           "    q = ((f - g) / np.maximum(f, 1.0)).min(1, keepdims=True)",
           "a negative least contact gap, not 0, is the level the radii prove points above"),
    Mutant("radius-across-the-cut", CERT,
           "    one_piece = (np.maximum(x0, far) < 1.0) | (np.minimum(x0, far) >= 1.0)",
           "    one_piece = (x0 < 1.0) | (np.minimum(x0, far) >= 1.0)",
           "a side below the cut that reaches past it is bounded as if F were e^{cx} there"),
    Mutant("no-cut-anchor", CERT,
           "    kept[coef[:, 1] >= 1.0, 2] = (math.inf, -math.inf)",
           "    kept[:, 2] = (math.inf, -math.inf)",
           "where x_hi < 1 no anchor keeps the points of x >= 1 that no radius proves"),
    Mutant("radius-far-end-unchecked", CERT,
           "    finite = np.isfinite(r) & (f[..., 1:] < math.inf)",
           "    finite = np.isfinite(r)",
           "a side on which F overflows, so that its gaps are NaN, is skipped past its radius"),
    Mutant("kept-intervals-not-disjoint", CERT,
           "    kept[:, 1:, 0] = np.maximum(kept[:, 1:, 0], np.nextafter(before, math.inf))",
           "    pass",
           "a point in two anchors' kept intervals is evaluated twice"),
    Mutant("reach-on-the-next-window", CERT,
           "        lo[:, :2, 0], hi[:, :2, 0] = reach[..., 0], reach[..., 1]",
           "        lo[:, 1:, 0], hi[:, 1:, 0] = reach[..., 0], reach[..., 1]",
           "each contact's reach narrows the next centre's window, x_hi's the kink's"),
    # the joint scan's row floor
    Mutant("floor-raised", ORACLE,
           "(1.0 + a) * b ** (1.0 / (1.0 + a)) / (a + b), -np.inf)",
           "(1.0 + a) * b ** (1.0 / (1.0 + a)) / (a + b) * (1.0 + 1e-6), -np.inf)",
           "each row floor 1e-6 above the least moment over the tilts"),
    Mutant("floor-margin-zero", ORACLE,
           "_FLOOR_MARGIN = 1e-9", "_FLOOR_MARGIN = 0.0",
           "a row whose least cell rounds below its floor is skipped"),
    Mutant("scan-nan-rule", ORACLE,
           "        at = int(values.argmin())", "        at = int(np.nanargmin(values))",
           "a NaN cell is not the scan's argmin"),
    Mutant("refine-nan-rule", ORACLE,
           "            i = int(values.argmin())", "            i = int(np.nanargmin(values))",
           "a NaN cell is not the refined search's argmin"),
    # the result type
    Mutant("cell-ratio-numpy-float", ORACLE,
           "cell_ratio=float((a[-1] / a[0]) ** (1.0 / (a.size - 1))),",
           "cell_ratio=(a[-1] / a[0]) ** (1.0 / (a.size - 1)),",
           "refine_grid_min's cell_ratio is an np.float64"),
    # the grid LP and its two checks
    Mutant("lp-pricing-tolerance-loosened", ORACLE,
           "_PRICE_TOL = 1e-12", "_PRICE_TOL = 1e-6",
           "the simplex stops while a scaled reduced cost is still below -1e-12"),
    Mutant("lp-value-check-flipped", VERIFY,
           "(bound.bound - found.value) / bound.bound", "(found.value - bound.bound) / bound.bound",
           "verify's value check holds the LP below the bound, not above it"),
    Mutant("lp-support-cells-dropped", VERIFY,
           "cells += ([abs(math.log(", "cells += ([0.0 * abs(math.log(",
           "verify's support check reads only the dual's signs, not the support's cells"),
    Mutant("lp-costs-unscaled", ORACLE,
           "reduced = (f - (alpha + y * (beta + gamma * y))) / scale",
           "reduced = (f - (alpha + y * (beta + gamma * y)))",
           "reduced costs are priced unscaled, against an absolute 1e-12"),
    Mutant("lp-no-law-accepted", ORACLE,
           "        if any(n < -_EPS * r for n, r in zip(numerators, rounding)):",
           "        if False:",
           "a basis whose weights are negative beyond rounding is clamped, not refused"),
    Mutant("lp-start-inside-lower", ORACLE,
           'max(int(np.searchsorted(x, lower, "right")) - 1, 0)',
           'max(int(np.searchsorted(x, lower, "right")), 0)',
           "the first basis takes the grid point one cell inside -a"),
    Mutant("lp-start-inside-upper", ORACLE,
           "min(int(np.searchsorted(x, upper)), x.size - 1)",
           "min(int(np.searchsorted(x, upper)) - 1, x.size - 1)",
           "the first basis takes the grid point one cell inside b"),
    Mutant("lp-lagrange-sign-flipped", ORACLE,
           "(u - y1) * (y3 - u) / dens[1]", "(u - y1) * (u - y3) / dens[1]",
           "the middle node's ratio-test direction has the wrong sign"),
    Mutant("lp-leaving-tie-last", ORACLE,
           "basis[ratios.index(least)] = j", "basis[2 - ratios[::-1].index(least)] = j",
           "of the tied ratios the greatest grid index leaves, not the least (Bland's rule)"),
    Mutant("lp-no-bland", ORACLE,
           "if degenerate >= 3 else", "if False else",
           "Dantzig's rule throughout, never Bland's"),
    # every verify check folds through one NaN-aware fold
    Mutant("fold-drops-nan", VERIFY,
           "return math.nan if any(map(math.isnan, values)) else pick(start, *values)",
           "return pick(start, *values)",
           "a NaN value is dropped by the fold unless it comes first"),
    # a NaN in each suite fails its check
    Mutant("roots-residual-nan", VERIFY,
           "    return abs(math.expm1(math.log(a) + log_support - 2.0 * math.log(sigma)))",
           "    return math.nan",
           "every moment-match residual of the roots suite is NaN"),
    Mutant("ordering-chain-nan", VERIFY,
           "values += (bound - 1.0, bound_t - bound, grid.universal(sigma).bound - bound)",
           "values += (bound - 1.0, math.nan, grid.universal(sigma).bound - bound)",
           "the truncated link of each ordering.bound_chain value is NaN"),
    Mutant("certificates-beta-margin-nan", VERIFY,
           "            margins.append((beta_floor - minorant.beta) / beta_floor)",
           "            margins.append(math.nan)",
           "each small-branch beta margin of the certificate suite is NaN"),
    Mutant("oracle-lp-value-nan", VERIFY,
           "        values.append((bound.bound - found.value) / bound.bound)",
           "        values.append(math.nan)",
           "each LP value gap of the oracle suite is NaN"),
    Mutant("asymptotics-slope-nan", VERIFY,
           "        slope = asymptotics.winsor_small_sigma_slope(c)",
           "        slope = math.nan",
           "each small-sigma slope of the asymptotics suite is NaN"),
    # the two-point law's scalar algebra
    Mutant("trunc-moment-cut-included", LAW,
           "exp_or_inf(c * b), c, b) if b < 1.0 else 1.0",
           "exp_or_inf(c * b), c, b) if b <= 1.0 else 1.0",
           "a truncated law's atom on the cut contributes e^c, not 1"),
    Mutant("minorant-contact-unpinned", LAW,
           "        b = max(_support_point(a, c, 0.0 if branch else c), 1.0)",
           "        b = _support_point(a, c, 0.0 if branch else c)",
           "a support point an ulp below the cut is not pinned back onto it"),
    Mutant("small-branch-gamma-shifted", LAW,
           "w * (math.exp(a * c) - a * c - c - 1.0) / (a + 1.0) ** 2",
           "w * (math.exp(a * c) - a * c - c) / (a + 1.0) ** 2",
           "the small-sigma parabola misses F(1) = 1 at the cut"),
    Mutant("optimal-moment-cutover-halved", LAW,
           "    if a >= 1.0:\n        return a * (1.0 + a) * math.exp(c_opt)",
           "    if a >= 0.5:\n        return a * (1.0 + a) * math.exp(c_opt)",
           "the optimal-tilt moment takes its direct form from a = 0.5, not 1"),
]

EQUIVALENT = [
    Mutant("lp-basic-columns-priced", ORACLE,
           "        reduced[basis] = 0.0\n", "",
           "a basic column's reduced cost would have to round below -1e-12 to enter again; "
           "with the closed-form dual the least one is -3.7e-16 over 1,924 LPs (both kinds, "
           "cold and from the bound's support, c in [1, 700] x sigma in [1e-3, 1e3] and c in "
           "[1e-3, 300] x sigma in [1e-6, 1e6]), and no result moves without the line"),
    Mutant("solve-cap-halved", ROOTS,
           "MAX_SOLVE_ITERATIONS = 200 ", "MAX_SOLVE_ITERATIONS = 100 ",
           "the cap ends only a solve that has not ended otherwise; counting each _solve's "
           "evaluations over all of tier-1, the most any solve takes, converging or raising, "
           "is 53, so every tier-1 solve ends the same way under a cap of 100 as of 200"),
    Mutant("radius-without-ulp-margin", CERT,
           "(r + 2.0**-48 * (np.abs(x0) + r))", "r",
           "the margin covers the rounding of r and of x0 -+ r, 32 ulps of |x0| + r; over the "
           "710 checks of one certificate suite and the test file's seeded, edge and overflow "
           "cases it keeps 4 of 918,309 evaluated points, and each has a gap above its level, "
           "as that close to the radius the bound falls far less than its 1e-12 F of slack"),
    Mutant("floor-where-b-below-1", ORACLE,
           "np.where(b >= 1.0, ", "np.where(b > 0.0, ",
           "where b < 1 the formula is still a floor, at most 1 by weighted AM-GM while "
           "every moment is at least 1 by Jensen, and no joint grid row has b < 1"),
]


def run(mutant: Mutant | None) -> str:
    """'killed', 'survived' or 'error', after tier-1 in a copy of the tree
    with the mutant applied (none for the unmutated copy)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main() -> int:
    stale = [m.name for m in MUTANTS + EQUIVALENT if (ROOT / m.path).read_text().count(m.old) != 1]
    for name in stale:
        print(f"stale    {name}: its text is not found exactly once")
    if stale:
        return 1
    start = time.perf_counter()
    if run(None) != "survived":
        print("the unmutated tree fails tier-1 in a copy: no mutant can be judged")
        return 1
    print(f"passed   {'unmutated tree':34} {time.perf_counter() - start:5.1f} s", flush=True)
    failed = False
    for m in MUTANTS:
        start = time.perf_counter()
        fate = run(m)
        failed |= fate != "killed"
        print(f"{fate:8} {m.name:34} {time.perf_counter() - start:5.1f} s  {m.why}", flush=True)
    for m in EQUIVALENT:
        print(f"equivalent {m.name}: {m.why}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
