"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one machine-greppable pass line; run with ``pytest -s``
(or through ``winsor-bounds verify``) to see them.
"""

import collections
import hashlib
import importlib
import itertools
import math
import pkgutil
import random
import time
import types

import numpy as np
import pytest

import winsor_bounds
from winsor_bounds import asymptotics, errors, law, oracle, trunc, verify, winsor
from winsor_bounds.asymptotics import Regime
from winsor_bounds.errors import WinsorBoundsError
from winsor_bounds.sweeps import SweepKind, compute_sweep, sigma_grid
from winsor_bounds.winsor import BoundQuery


def _timed(fn, repeats=5):
    best = math.inf
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def _report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_universal_bound_at_unit_variance():
    solution, seconds = _timed(lambda: winsor.lower_bound_universal(1.0))
    assert 0.878 <= solution.bound < 0.879
    assert seconds < 0.010
    _report(1, f"L_universal(sigma^2=1) = {solution.bound:.6f} in [0.878, 0.879), "
               f"{seconds * 1e3:.2f} ms")


def test_criterion_02_universal_bound_at_variance_hundred():
    solution, seconds = _timed(lambda: winsor.lower_bound_universal(10.0))
    assert 0.194 <= solution.bound < 0.195
    assert seconds < 0.010
    _report(2, f"L_universal(sigma^2=100) = {solution.bound:.6f} in [0.194, 0.195), "
               f"{seconds * 1e3:.2f} ms")


def test_criterion_03_t_star_constants():
    constants = asymptotics.solve_t_star()
    assert 0.203 <= constants.t_star < 0.204
    assert 1.593 <= constants.minus_ln_t_star < 1.594
    identity_gap = abs(2.0 * (1.0 - constants.t_star) - constants.minus_ln_t_star)
    assert identity_gap <= 1e-10
    _report(3, f"t_star = {constants.t_star:.6f}, -ln t_star = "
               f"{constants.minus_ln_t_star:.6f}, identity gap {identity_gap:.1e}")


def test_criterion_04_slow_large_sigma_ratio():
    def compute():
        exact = winsor.lower_bound_universal(1e10).bound
        return asymptotics.universal_asymptote(1e10, Regime.LARGE_SIGMA) / exact

    ratio, seconds = _timed(compute)
    assert 1.201 <= ratio < 1.202
    assert seconds < 0.100
    _report(4, f"asymptote/exact at sigma=1e10 = {ratio:.6f} in [1.201, 1.202), "
               f"{seconds * 1e3:.2f} ms")


def test_criterion_05_small_sigma_slopes(verify_all):
    # verify's check: both bounds at sigma = 1e-3 against their sigma^2
    # slopes, -c^2 / (4(e^c - 1)) and -c, for c in {0.5, 1, 2, 5}
    by_name = {r.name: r for r in verify_all.by_suite["asymptotics"]}
    check = by_name["asymptotics.small_sigma_slopes"]
    assert check.passed and check.tolerance == 0.01
    _report(5, f"small-sigma slopes match within {check.worst:.2e} (tol 1%) "
               f"for c in {{0.5, 1, 2, 5}}")


def test_criterion_06_universal_consistency_identities():
    worst = 0.0
    for sigma in np.geomspace(1e-3, 1e6, 40):
        a_univ = winsor.lower_bound_universal(sigma).a
        c_opt = winsor.optimal_c_for_two_point(a_univ, sigma)
        a_fixed = winsor.lower_bound_fixed_c(BoundQuery(c_opt, sigma)).a
        worst = max(worst, abs(a_univ - a_fixed) / a_univ)
        b_univ = sigma * sigma / a_univ
        worst = max(worst, abs(b_univ - winsor.b_star(a_univ, c_opt)) / b_univ)
    assert worst <= 1e-8
    _report(6, f"tilt-universal consistency identities hold to {worst:.2e} "
               f"(tol 1e-8) over 40 sigma")


def test_criterion_07_certificate_suite(verify_all):
    results = verify_all.by_suite["certificates"]
    elapsed = verify_all.seconds["certificates"]
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert elapsed < 30.0
    _report(7, f"all minorant families certified on >=1e5-point grids in "
               f"{elapsed:.1f} s (limit 30 s)")


def test_criterion_08_oracle_equivalence(verify_all):
    results = verify_all.by_suite["oracle"]
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    by_name = {r.name: r for r in results}
    _report(8, "grid minima within 1e-6 "
               f"(worst {by_name['oracle.two_point_grid_min_value'].worst:.1e}), "
               "argmins within one cell, the exact LP over every law on a support grid "
               f"above every bound (worst {by_name['oracle.lp_value_above_bound'].worst:.1e}) "
               "and on the extremal law")


def test_criterion_09_trunc_branch_continuity(trunc_root):
    worst = 0.0
    for c in (0.5, 1.0, 2.0, 5.0):
        threshold = trunc.solve_A_c(c)
        small = law._trunc_moment(threshold, 1.0, c)
        a = trunc_root(c, math.sqrt(threshold))
        large = law._trunc_moment(a, max(threshold / a, 1.0), c)
        worst = max(worst, abs(small - large) / small)
    assert worst <= 1e-10
    _report(9, f"branch values at sigma^2 = A_c agree to {worst:.2e} (tol 1e-10)")


def test_criterion_10_ordering_and_monotonicity(verify_all):
    results = verify_all.by_suite["ordering"]
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    _report(10, "L_T <= L_W <= 1, L_universal <= L_W with equality only at "
                "the optimal tilt, all bounds nonincreasing in sigma")


def test_criterion_11_collapse_demo():
    points = oracle.trunc_collapse_sequence(1.0, (0.5, 0.25, 0.1, 0.05))
    assert points[-1].a == 0.05
    assert points[-1].moment < 1e-2
    floor = winsor.lower_bound_universal(1.0).bound
    assert 0.878 <= floor < 0.879
    assert all(
        law._optimal_winsor_moment(p.a, 1.0, winsor.optimal_c_for_two_point(p.a, 1.0))
        >= floor * (1.0 - 1e-12)
        for p in points
    )
    _report(11, f"truncated collapse reaches {points[-1].moment:.2e} < 1e-2 by "
                f"a=0.05 while the Winsorized floor stays at {floor:.4f}")


def test_criterion_12_figure_shapes():
    c_values = (1.0, 1.5, 2.0, 3.0, 5.0)
    grid = sigma_grid(0.1, 100.0, 60)

    figure1 = compute_sweep(SweepKind.UNIVERSAL_WINSOR, grid)
    col = [row[1] for row in figure1.rows]
    assert all(0.0 < v <= 1.0 for v in col)
    assert all(v2 < v1 for v1, v2 in zip(col, col[1:]))

    top = compute_sweep(SweepKind.RATIO_UNIVERSAL_OVER_FIXED, grid, c_values)
    ratios = np.array([row[1:] for row in top.rows])
    assert np.all(ratios <= 1.0 + 1e-12)
    # at the large-sigma end the c=2 column dominates the others...
    last = ratios[-1]
    assert int(np.argmax(last)) == c_values.index(2.0)
    # ...stays near level 1 but is not identically 1
    c2 = ratios[:, c_values.index(2.0)]
    assert np.min(c2) > 0.99
    assert np.max(np.abs(c2 - 1.0)) > 1e-7

    bottom = compute_sweep(SweepKind.RATIO_TRUNC_OVER_WINSOR, grid, c_values)
    ratios = np.array([row[1:] for row in bottom.rows])
    assert np.all(ratios <= 1.0 + 1e-12)
    for k, c in enumerate(c_values):
        column = ratios[:, k]
        assert np.all(np.diff(column) < 0.0)
        target = math.exp(-c)
        assert np.all(column > target)
        assert abs(column[-1] - target) < abs(column[0] - target)
    _report(12, "figure sweeps reproduce the documented shapes "
                "(monotone universal curve, ratio panels with the c=2 column "
                "on top approaching 1, truncated ratios falling toward e^-c)")


# Every verify check, in run order, with its tolerance: a refactor that
# drops, renames, reorders or loosens a check fails here.
VERIFY_INVENTORY = [
    ("roots.winsor_fixed_c_residual", 1e-10),
    ("roots.winsor_universal_residual", 1e-10),
    ("roots.trunc_moment_match_residual", 1e-10),
    ("roots.trunc_threshold_identity", 1e-10),
    ("roots.universal_consistency", 1e-8),
    ("roots.log_moment_derivative_identity", 1e-4),
    ("ordering.bound_chain", 1e-12),
    ("ordering.equality_at_optimal_tilt", 1e-10),
    ("ordering.monotone_in_sigma", 1e-12),
    ("ordering.trunc_branch_inequalities", 1e-12),
    ("ordering.trunc_branch_continuity", 1e-10),
    ("ordering.interior_tilt_optimality", -1e-14),
    ("ordering.cut_rescaling_identity", 0.0),
    ("certificates.minorant_below_moment", 1e-12),
    ("certificates.contact_tangency", 1e-12),
    ("certificates.trunc_small_beta_floor", 1e-12),
    ("certificates.negative_control", 1e-12),
    ("oracle.two_point_grid_min_value", 1e-6),
    ("oracle.two_point_grid_min_argmin", 1.0),
    ("oracle.universal_grid_min_value", 1e-6),
    ("oracle.universal_grid_min_argmin", 1.0),
    ("oracle.argmin_uniqueness_margin", -1e-12),
    ("oracle.lp_value_above_bound", 1e-12),
    ("oracle.lp_support_at_extremal_law", 1.0),
    ("oracle.trunc_collapse", 1e-2),
    ("asymptotics.t_star_identity", 1e-10),
    ("asymptotics.small_sigma_slopes", 1e-2),
    ("asymptotics.large_sigma_within_30pct", 0.30),
    ("asymptotics.large_sigma_monotone_approach", 0.0),
    ("asymptotics.slow_convergence_regression", 1e-3),
    ("asymptotics.exp_c_separation_monotone", 0.0),
    ("asymptotics.exp_c_separation_at_1e10", 0.05),
    ("asymptotics.infimum_identities", 1e-6),
]


def test_verify_check_inventory(verify_all):
    assert [(r.name, r.tolerance) for r in verify_all.results] == VERIFY_INVENTORY


def test_verify_reports_hold_python_scalars(verify_all):
    # a bound solved at a NumPy sigma would carry np.float64 fields into the
    # checks, which then report np.True_ and np.float64(...)
    assert [(r.name, type(r.passed), type(r.worst)) for r in verify_all.results] == [
        (r.name, bool, float) for r in verify_all.results
    ]


# sha256 of the 33 reports of verify_all (seed 1) as (name, passed,
# worst.hex(), tolerance, detail): verify's own negative control and the
# oracle's LP pivots reach these bits, which the checks above do not pin
VERIFY_REPORTS_SHA256 = "9455b1586c661c8ed1e94cd5a96d3fad901c2d2ccf4e282de85b5cca290967ef"


def test_verify_report_fingerprint(verify_all):
    digest = hashlib.sha256()
    for r in verify_all.results:
        digest.update(f"{(r.name, r.passed, r.worst.hex(), r.tolerance, r.detail)!r}\n".encode())
    assert len(verify_all.results) == 33
    assert digest.hexdigest() == VERIFY_REPORTS_SHA256


def nan_lp_values(monkeypatch):
    lp_min = oracle.lp_min
    monkeypatch.setattr(
        oracle, "lp_min", lambda *args, **kwargs: lp_min(*args, **kwargs)._replace(value=math.nan)
    )


# per suite: what is made to return NaN, and the checks that read it
NAN_INJECTIONS = {
    "roots": (lambda mp: mp.setattr(verify, "_match_residual", lambda *args: math.nan),
              {"roots.winsor_fixed_c_residual", "roots.trunc_moment_match_residual"}),
    "ordering": (lambda mp: mp.setattr(verify, "_relative_gap", lambda *args: math.nan),
                 {"ordering.equality_at_optimal_tilt", "ordering.trunc_branch_continuity"}),
    # in the certificate suite verify's math.exp forms only the beta floors
    "certificates": (
        lambda mp: mp.setattr(verify, "math", types.SimpleNamespace(
            **{**vars(math), "exp": lambda x: math.nan})),
        {"certificates.trunc_small_beta_floor"},
    ),
    "oracle": (nan_lp_values, {"oracle.lp_value_above_bound"}),
    "asymptotics": (
        lambda mp: mp.setattr(asymptotics, "winsor_small_sigma_slope", lambda c: math.nan),
        {"asymptotics.small_sigma_slopes", "asymptotics.infimum_identities"},
    ),
}


@pytest.mark.parametrize("suite", NAN_INJECTIONS)
def test_a_nan_fails_its_verify_check(monkeypatch, suite):
    # Python's max(worst, nan) keeps worst: each check that reads a NaN
    # must fail, with NaN as its worst, and no other check may
    inject, names = NAN_INJECTIONS[suite]
    inject(monkeypatch)
    failed = {r.name: r.worst for r in verify.run_suite(suite) if not r.passed}
    assert failed.keys() == names and all(map(math.isnan, failed.values())), failed


def test_sigma_grid_is_numpys_geomspace():
    # written out as literals, so the scalar suites need no NumPy; NumPy's
    # own power may round an interior point differently on other hardware
    grid = verify.SIGMA_GRID
    assert len(grid) == 40 and all(type(sigma) is float for sigma in grid)
    assert (grid[0], grid[-1]) == (1e-3, 1e6)
    assert all(s1 < s2 for s1, s2 in zip(grid, grid[1:]))
    for sigma, expected in zip(grid, np.geomspace(1e-3, 1e6, 40).tolist()):
        assert abs(sigma - expected) <= math.ulp(sigma), (sigma, expected)


QUERY_KINDS = ("universal", "fixed", "trunc")
PUBLIC_ARGUMENTS = {"universal": 2, "fixed": 3, "trunc": 3}  # sigma, cut and c
FINGERPRINT_QUERIES = 2_000
# sha256 of the 2,000 answers of _queries(1) (see test_bit_fingerprint); a
# change that moves a bit updates it and says in CHANGES.md which moved
FINGERPRINT_SHA256 = "e51b15637bfa1812338f72a2f4f3618d19c6763312ade9112988a519f049a948"


def _queries(seed):
    """The benchmark's point-query stream, drawn as it draws it: the kind
    uniform over QUERY_KINDS, then c in [0.1, 10], sigma in [1e-3, 1e6] and
    cut in [0.5, 2], each log-uniform."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    while True:
        kind = QUERY_KINDS[rng.randrange(len(QUERY_KINDS))]
        yield kind, log_uniform(0.1, 10.0), log_uniform(1e-3, 1e6), log_uniform(0.5, 2.0)


def _solution(kind, c, sigma, cut):
    """One query answered through the public call of its kind."""
    if kind == "universal":
        return winsor.lower_bound_universal(sigma, cut)
    query = BoundQuery(c, sigma, cut)
    return (winsor.lower_bound_fixed_c if kind == "fixed" else trunc.lower_bound_trunc)(query)


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_each_argument_is_checked_once(kind, monkeypatch, solves):
    # require_positive runs once per public argument and once per root solve,
    # for its start: no body re-checks what the public call checked
    asymptotics.t_star()  # solved, and cached, at the first universal query
    check, checked = errors.require_positive, []

    def counted(name, value, allow_zero=False):
        checked.append(name)
        return check(name, value, allow_zero)

    for info in pkgutil.iter_modules(winsor_bounds.__path__):
        module = importlib.import_module(f"{winsor_bounds.__name__}.{info.name}")
        if getattr(module, "require_positive", None) is check:
            monkeypatch.setattr(module, "require_positive", counted)
    for query in itertools.islice(_queries(2), 600):
        if query[0] != kind:
            continue
        del checked[:], solves.equations[:]
        _solution(*query)
        assert len(checked) == PUBLIC_ARGUMENTS[kind] + len(solves.equations), (query, checked)
        assert len(checked) <= 4, (query, checked)


def test_all_suites_solve_the_grid_once(solves, verify_all):
    # one run of every suite solves each bound it reads once (run one by
    # one, the suites solve 1,960 equations) and changes no check; a suite
    # that reads no grid solves none of it
    del solves.equations[:]
    results = verify.run_suite("all", 1)
    assert len(solves.equations) == 776
    assert [repr(check) for check in results] == [repr(check) for check in verify_all.results]
    for name, count in (("asymptotics", 40), ("oracle", 19)):
        del solves.equations[:]
        verify.run_suite(name, 1)
        assert len(solves.equations) == count, name


VERIFY_SOLVES = (
    (winsor, "lower_bound_fixed_c"),
    (trunc, "lower_bound_trunc"),
    (winsor, "lower_bound_universal"),
    (trunc, "solve_A_c"),
    (oracle, "refine_grid_min"),
)


def test_all_suites_solve_each_argument_tuple_once(monkeypatch):
    # every suite reads its bounds, thresholds A_c and refined oracle
    # searches through the run's Grid, which solves each argument tuple once
    calls = collections.Counter()

    def counting(name, solve):
        def counted(*args):
            calls[(name, *args)] += 1
            return solve(*args)

        return counted

    for module, name in VERIFY_SOLVES:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    verify.run_suite("all", 1)
    assert {call[0] for call in calls} == {name for _, name in VERIFY_SOLVES}
    assert [call for call, count in calls.items() if count > 1] == []


def test_bit_fingerprint():
    # every bit of 2,000 point-query answers, or the class and message of
    # each refusal, hashed in stream order
    digest = hashlib.sha256()
    for kind, c, sigma, cut in itertools.islice(_queries(1), FINGERPRINT_QUERIES):
        try:
            outcome = repr(_solution(kind, c, sigma, cut).bound)
        except WinsorBoundsError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(f"{kind} {c!r} {sigma!r} {cut!r} {outcome}\n".encode())
    assert digest.hexdigest() == FINGERPRINT_SHA256


# evaluations of the equations handed to roots._solve by the answers of
# test_bit_fingerprint, per kind: 1,480 universal, 1,488 fixed and 1,017
# truncated (3,985) when a certified second-order step came to replace the
# evaluation that only confirmed |f| <= TOL (2,065, 1,981 and 1,417, 5,463,
# before; 8,257 from the leading-order seeds, before the W(e^t) seeds).
# Each ceiling is that count plus 5%; a change that needs more evaluations
# is a regression, not a new ceiling.
COLD_EVALUATION_CEILINGS = {"universal": 1_554, "fixed": 1_562, "trunc": 1_067}


def test_cold_solve_evaluation_budget(solves):
    evaluations = collections.Counter()
    for kind, c, sigma, cut in itertools.islice(_queries(1), FINGERPRINT_QUERIES):
        before = len(solves.points)
        try:
            _solution(kind, c, sigma, cut)
        except WinsorBoundsError:
            pass
        evaluations[kind] += len(solves.points) - before
    for kind, ceiling in COLD_EVALUATION_CEILINGS.items():
        assert evaluations[kind] <= ceiling, (kind, evaluations)
    assert len(solves.points) <= 4_184, (evaluations, len(solves.equations))


# each query kind's single-bound sweep kind, whose lane is its scalar call's body
LANE_KINDS = {
    "universal": SweepKind.UNIVERSAL_WINSOR,
    "fixed": SweepKind.FIXED_C_WINSOR,
    "trunc": SweepKind.TRUNC,
}


@pytest.mark.parametrize(
    "kind, c, sigma, cut, branch",
    [("universal", None, 3.0, 2.0, None), ("fixed", 1.5, 3.0, 2.0, None),
     ("trunc", 1.5, 3.0, 2.0, trunc.Branch.LARGE_SIGMA),
     ("trunc", 1.5, 0.3, 2.0, trunc.Branch.SMALL_SIGMA)],
    ids=["universal", "fixed", "trunc-large-sigma", "trunc-small-sigma"],
)
def test_bound_holds_the_lanes_support(kind, c, sigma, cut, branch, lanes):
    # a Bound's fields from a on are its lane's tuple, bit for bit, on both
    # truncated branches and off cut level 1: the scalar call only puts the
    # caller's (kind, c, sigma, cut) before them
    solution = _solution(kind, c, sigma, cut)
    assert solution._fields[4:] == ("a", "b", "tilt", "bound", "branch")
    fields = lanes[LANE_KINDS[kind]](c, sigma, None, cut)
    assert solution.branch is branch
    assert tuple(map(float.hex, solution[4:8])) == tuple(map(float.hex, fields[:4]))
    assert tuple(solution[4:]) == fields
