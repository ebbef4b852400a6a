"""Bracketing and hybrid root-solver behaviour."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winsor_bounds.config import TOL_ENV_VAR
from winsor_bounds.errors import (
    MaxIterationsError,
    NonFiniteValueError,
    NoSignChangeError,
    ParameterError,
)
from winsor_bounds import roots as roots_module
from winsor_bounds.roots import Bracket, RootResult, _newton_columns, find_bracket, solve_root


def bisect(f, lo, hi, iters=200):
    """Independent plain-bisection oracle."""
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


def moment_match_c1(a):
    # a * b_star(a, 1) - 1, written out so this file stays independent of
    # the library's own b_star
    return a * (2.0 * math.expm1(1.0 + a) - a) - 1.0


def log_plus_linear(t):
    return math.log(t) + 2.0 * (1.0 - t)


class TestBracket:
    def test_requires_ordered_endpoints(self):
        with pytest.raises(ParameterError):
            Bracket(2.0, 1.0, -1.0, 1.0)

    def test_requires_strict_sign_change(self):
        with pytest.raises(ParameterError):
            Bracket(1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            Bracket(1.0, 2.0, 0.0, 1.0)


class TestFindBracket:
    def test_contracts_to_moment_match_root(self):
        # root at 0.219662930... (bisection oracle below); seed above it
        bracket = find_bracket(moment_match_c1, seed=0.5)
        root = bisect(moment_match_c1, bracket.lo, bracket.hi)
        assert bracket.lo < 0.2196629301855436 < bracket.hi
        assert abs(root - 0.2196629301855436) < 1e-12

    def test_brackets_log_plus_linear_root(self):
        bracket = find_bracket(log_plus_linear, seed=0.5)
        assert bracket.lo < 0.203 < bracket.hi

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChangeError):
            find_bracket(lambda x: x, seed=1.0)

    def test_expansion_has_no_step_budget(self):
        # the root sits beyond 2^200 times the seed: about 266 doublings
        bracket = find_bracket(lambda x: x - 1e80, seed=1.0)
        assert bracket.lo < 1e80 < bracket.hi

    def test_expansion_stops_before_inf(self):
        # negative on every float, so doubling from 1.0 overflows to inf;
        # f must never be called at inf
        probes = []

        def f(x):
            probes.append(x)
            return -1.0

        with pytest.raises(NoSignChangeError):
            find_bracket(f, seed=1.0)
        assert max(probes) < math.inf

    def test_contraction_stops_before_zero(self):
        # positive on every float, so halving from 1e-300 underflows to 0.0
        # within the step budget; f must never be called at 0
        probes = []

        def f(x):
            probes.append(x)
            return math.log(x) + 1000.0

        with pytest.raises(NoSignChangeError):
            find_bracket(f, seed=1e-300)
        assert min(probes) > 0.0

    def test_non_finite_probe_raises(self):
        with pytest.raises(NonFiniteValueError):
            find_bracket(lambda x: math.nan, seed=1.0)

    def test_exact_zero_at_seed_is_widened(self):
        bracket = find_bracket(lambda x: x - 1.0, seed=1.0)
        assert bracket.lo < 1.0 < bracket.hi

    def test_seed_must_be_positive(self):
        with pytest.raises(ParameterError):
            find_bracket(moment_match_c1, seed=-1.0)


class TestSolveRoot:
    def test_log_plus_linear_root(self):
        bracket = Bracket(0.1, 0.5, log_plus_linear(0.1), log_plus_linear(0.5))
        result = solve_root(log_plus_linear, bracket)
        assert result.converged
        assert abs(result.root - 0.20318786997997995) < 1e-12
        assert abs(result.residual) <= 1e-12
        assert 0.1 <= result.root <= 0.5

    def test_linear_function_is_exact(self):
        f = lambda x: x - 1.0
        result = solve_root(f, Bracket(0.5, 2.0, f(0.5), f(2.0)))
        assert result.converged
        assert abs(result.root - 1.0) < 1e-12

    def test_exp_growth_threshold_matches_bisection(self):
        # root of 2(e^a - 1) - a - 1; oracle value frozen from 50-digit
        # bisection: 0.58307387603669100
        f = lambda a: 2.0 * math.expm1(a) - a - 1.0
        result = solve_root(f, Bracket(0.1, 1.0, f(0.1), f(1.0)))
        oracle = bisect(f, 0.1, 1.0)
        assert abs(result.root - oracle) < 1e-12
        assert abs(result.root - 0.583073876036691) < 1e-12

    def test_deterministic_bitwise(self):
        bracket = Bracket(0.1, 0.5, log_plus_linear(0.1), log_plus_linear(0.5))
        first = solve_root(log_plus_linear, bracket)
        second = solve_root(log_plus_linear, bracket)
        assert first == second

    def test_max_iterations_on_discontinuous_sign_flip(self):
        f = lambda x: 1.0 if x >= 0.7 else -1.0
        with pytest.raises(MaxIterationsError):
            solve_root(f, Bracket(0.0, 1.0, -1.0, 1.0))

    @given(
        root=st.floats(min_value=0.01, max_value=1.0),
        stretch=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_stays_in_bracket_with_small_residual(self, root, stretch):
        # slope * float-spacing stays far below the tolerance here, so
        # the residual target is always reachable
        f = lambda x: (x - root) * (1.0 + stretch * x * x)
        lo, hi = root / 3.0, root * 3.0
        result = solve_root(f, Bracket(lo, hi, f(lo), f(hi)))
        assert result.converged
        assert lo <= result.root <= hi
        assert abs(result.residual) <= 1e-12
        assert abs(result.root - root) <= 1e-9 * root

    def test_representable_root_at_scale_is_hit_exactly(self):
        # steep linear function whose root is a float: the solver must land
        # on it exactly rather than oscillating around it
        r = 12345.678901234567
        f = lambda x: 1e4 * (x - r)
        result = solve_root(f, Bracket(1e4, 2e4, f(1e4), f(2e4)))
        assert result.converged and result.root == r and result.residual == 0.0

    def test_unreachable_residual_fails_fast(self):
        # sqrt(2) is not a float, and the slope at this scale keeps |f| at
        # the two adjacent floats above the tolerance: the solver must diagnose
        # the collapsed bracket instead of looping to the iteration cap
        f = lambda x: 1e5 * (x * x - 2.0)
        with pytest.raises(MaxIterationsError, match="adjacent floats"):
            solve_root(f, Bracket(1.0, 2.0, f(1.0), f(2.0)))


class TestToleranceEnvOverride:
    def test_invalid_override_rejected(self, monkeypatch):
        monkeypatch.setenv(TOL_ENV_VAR, "not-a-number")
        bracket = Bracket(0.1, 0.5, log_plus_linear(0.1), log_plus_linear(0.5))
        with pytest.raises(ParameterError):
            solve_root(log_plus_linear, bracket)
        monkeypatch.setenv(TOL_ENV_VAR, "-1e-9")
        with pytest.raises(ParameterError):
            solve_root(log_plus_linear, bracket)

    def test_valid_override_applies(self, monkeypatch):
        monkeypatch.setenv(TOL_ENV_VAR, "1e-6")
        bracket = Bracket(0.1, 0.5, log_plus_linear(0.1), log_plus_linear(0.5))
        result = solve_root(log_plus_linear, bracket)
        assert result.converged
        assert abs(result.residual) <= 1e-6

    def test_result_is_a_value_object(self):
        result = RootResult(root=1.0, residual=0.0, iterations=3, converged=True)
        assert result == RootResult(root=1.0, residual=0.0, iterations=3, converged=True)


def exp_plus_linear(t, counter=None):
    """u + e^u - t with its slope: increasing, one root, in [t - e^t - 1, t]."""

    def g(u):
        if counter is not None:
            counter.append(u)
        return u + math.exp(u) - t, 1.0 + math.exp(u)

    return g


def column_roots(*columns):
    return [roots for _, roots in _newton_columns(columns)]


class TestNewtonColumns:
    def test_column_matches_bisection(self):
        targets = [0.1 * k for k in range(-20, 60)]
        lanes = [((exp_plus_linear(t), t - math.exp(t) - 1.0, t), None) for t in targets]
        (roots,) = column_roots(lanes)
        for t, root in zip(targets, roots):
            oracle = bisect(lambda u: u + math.exp(u) - t, t - math.exp(t) - 1.0, t)
            assert root == pytest.approx(oracle, rel=4e-16, abs=4e-16)

    def test_warm_start_spends_few_evaluations(self):
        calls = []
        lanes = [((exp_plus_linear(0.05 * k, calls), -10.0, 10.0), None) for k in range(100)]
        column_roots(lanes)
        # the first lane starts cold at the bracket midpoint; the others
        # start at their neighbour's root, 0.05 away in t
        assert len(calls) <= 15 + 4 * 99

    def test_yields_each_column_with_its_roots(self):
        first = [((exp_plus_linear(1.0), -5.0, 1.0), "a"), (None, "b")]
        second = [((exp_plus_linear(2.0), -5.0, 2.0), "c")]
        solved = list(_newton_columns([first, second]))
        assert [column for column, _ in solved] == [first, second]
        assert solved[0][1][1] is None
        assert solved[0][1][0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "g",
        [
            lambda u: (1.0 - math.exp(1e3 - u), 1.0),  # OverflowError inside g
            lambda u: (math.log(u - 100.0), 1.0),  # ValueError inside g
            lambda u: (math.nan, 1.0),
            lambda u: (u + 800.0, 1.0),  # root below the smallest normal double
            lambda u: (1.0 if u > 0.5 else -1.0, 0.0),  # a jump, never within tol
        ],
        ids=["overflow", "domain", "nan", "subnormal-root", "jump"],
    )
    def test_unsettled_lane_is_none_and_the_next_lane_solves(self, g):
        lanes = [((g, -900.0, 10.0), None), ((exp_plus_linear(1.0), -5.0, 5.0), None)]
        (roots,) = column_roots(lanes)
        assert roots[0] is None
        assert roots[1] == pytest.approx(0.0, abs=1e-15)

    def test_bisects_where_newton_cannot_step(self):
        # a zero slope everywhere: every step is a bisection
        g = lambda u: (math.atan(u - 1.0), 0.0)
        (roots,) = column_roots([((g, -20.0, 20.0), None)])
        assert abs(roots[0] - 1.0) <= 1e-12

    def test_tolerance_is_read_once_per_call(self, monkeypatch):
        reads = []
        monkeypatch.setattr(roots_module, "default_tolerance", lambda: reads.append(1) or 1e-12)
        lanes = [((exp_plus_linear(0.1 * k), -5.0, 5.0), None) for k in range(10)]
        column_roots(lanes, lanes)
        assert reads == [1]

    def test_invalid_tolerance_override_rejected(self, monkeypatch):
        monkeypatch.setenv(TOL_ENV_VAR, "not-a-number")
        with pytest.raises(ParameterError):
            column_roots([((exp_plus_linear(1.0), -5.0, 5.0), None)])
