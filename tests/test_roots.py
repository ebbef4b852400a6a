"""The one root solver: safeguarded Newton steps in ln a on (0, hi]."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winsor_bounds.errors import (
    MaxIterationsError,
    NonFiniteValueError,
    NoSignChangeError,
    ParameterError,
)
from winsor_bounds import roots as roots_module
from winsor_bounds.roots import _solve

from reference import bisect


def with_slope(f, df):
    """The solver's form of f: its value and its slope in ln a, a f'(a)."""
    return lambda a: (f(a), a * df(a), None)


def moment_match_c1(a):
    # a * b_star(a, 1) - 1, written out so this file stays independent of
    # the library's own b_star
    return a * (2.0 * math.expm1(1.0 + a) - a) - 1.0


MOMENT_MATCH_C1 = with_slope(
    moment_match_c1, lambda a: 2.0 * math.expm1(1.0 + a) - 2.0 * a + 2.0 * a * math.exp(1.0 + a)
)


def log_plus_linear(t):
    return math.log(t) + 2.0 * (1.0 - t)


# increasing on (0, 1/2), so solved with hi = 1/2
LOG_PLUS_LINEAR = lambda t: (log_plus_linear(t), 1.0 - 2.0 * t, None)


def recording(f, points):
    def recorded(a):
        points.append(a)
        return f(a)

    return recorded


class TestBracket:
    def test_requires_strict_sign_change(self):
        # positive on all of (0, hi]: the root lies below the doubles
        with pytest.raises(NoSignChangeError):
            _solve(lambda x: (1.0, 0.0, None), 1.0, 2.0)
        # negative on all of (0, hi]: the bracket closes on hi without a root
        with pytest.raises(MaxIterationsError):
            _solve(lambda x: (-1.0, 0.0, None), 1.0, 2.0)


class TestFindBracket:
    def test_contracts_to_moment_match_root(self):
        # root at 0.219662930... (bisection oracle below); start above it
        root = _solve(MOMENT_MATCH_C1, 0.5, 1.0)
        assert abs(root - bisect(moment_match_c1, 0.1, 0.5)) < 1e-12
        assert abs(root - 0.2196629301855436) < 1e-12

    def test_brackets_log_plus_linear_root(self):
        assert abs(_solve(LOG_PLUS_LINEAR, 0.45, 0.5) - 0.203) < 1e-3

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChangeError):
            _solve(lambda x: (1.0 + x, x, None), 1.0, 2.0)

    def test_expansion_has_no_step_budget(self):
        # the root sits about 266 doublings above the start
        root = _solve(lambda x: (x / 1e80 - 1.0, x / 1e80, None), 1.0, 1e81)
        assert root == pytest.approx(1e80, rel=1e-15)

    def test_evaluation_cap(self, monkeypatch):
        # the root sits ~266 doublings above the start: more than 3 evaluations
        monkeypatch.setattr(roots_module, "MAX_SOLVE_ITERATIONS", 3)
        with pytest.raises(MaxIterationsError, match="no convergence in 3 evaluations"):
            _solve(lambda x: (x / 1e80 - 1.0, x / 1e80, None), 1.0, 1e81)

    def test_expansion_stops_before_inf(self):
        # negative on every float, so steps run past hi; f must never be
        # called above hi
        probes = []
        with pytest.raises(MaxIterationsError):
            _solve(recording(lambda x: (-1.0, 1.0, None), probes), 1.0, 1e300)
        assert max(probes) <= 1e300

    def test_contraction_stops_before_zero(self):
        # positive on every float: the first step underflows to 0.0, and one
        # probe at the smallest positive double settles it; f is never
        # called at 0
        probes = []
        with pytest.raises(NoSignChangeError):
            _solve(recording(lambda x: (math.log(x) + 1000.0, 1.0, None), probes), 1e-300, 1.0)
        assert probes == [1e-300, math.ulp(0.0)]

    def test_non_finite_probe_raises(self):
        # at the first evaluation, whatever the slope: the refusal of -inf
        # is tested on the bisection path, which the NaN or zero step that
        # -inf leaves always takes
        for value in (math.nan, -math.inf):
            for slope in (1.0, -1.0, 0.0, math.inf, math.nan):
                probes = []
                with pytest.raises(NonFiniteValueError, match=r"^f\(1\.0\) returned"):
                    _solve(recording(lambda x: (value, slope, None), probes), 1.0, 2.0)
                assert probes == [1.0]

    def test_positive_infinity_lies_above_the_root(self):
        # an overflowed log form reads +inf, which narrows the bracket from
        # above; -inf raises, as NaN does
        def f(x):
            return (math.inf, math.inf, None) if x > 1e10 else (math.log(x), 1.0, None)

        assert _solve(f, 1e20, 1e30) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(NonFiniteValueError):
            _solve(lambda x: (-math.inf, 1.0, None), 1.0, 2.0)

    def test_exact_zero_at_the_start_is_the_root(self):
        probes = []
        assert _solve(recording(lambda x: (x - 1.0, x, None), probes), 1.0, 2.0) == 1.0
        assert probes == [1.0]

    def test_seed_must_be_positive(self):
        with pytest.raises(ParameterError, match="^start must"):
            _solve(MOMENT_MATCH_C1, -1.0, 1.0)


class TestSolveRoot:
    def test_log_plus_linear_root(self):
        root = _solve(LOG_PLUS_LINEAR, 0.1, 0.5)
        assert abs(root - 0.20318786997997995) < 1e-12
        assert abs(log_plus_linear(root)) <= 1e-12
        assert 0.0 < root <= 0.5

    def test_linear_function_is_exact(self):
        assert abs(_solve(lambda x: (x - 1.0, x, None), 0.5, 2.0) - 1.0) < 1e-12

    def test_exp_growth_threshold_matches_bisection(self):
        # root of 2(e^a - 1) - a - 1; oracle value frozen from 50-digit
        # bisection: 0.58307387603669100
        f = lambda a: 2.0 * math.expm1(a) - a - 1.0
        root = _solve(with_slope(f, lambda a: 2.0 * math.exp(a) - 1.0), 0.1, 1.0)
        assert abs(root - bisect(f, 0.1, 1.0)) < 1e-12
        assert abs(root - 0.583073876036691) < 1e-12

    def test_deterministic_bitwise(self):
        first = _solve(LOG_PLUS_LINEAR, 0.1, 0.5)
        second = _solve(LOG_PLUS_LINEAR, 0.1, 0.5)
        assert first == second

    def test_max_iterations_on_discontinuous_sign_flip(self):
        f = lambda x: (1.0 if x >= 0.7 else -1.0, 0.0, None)
        with pytest.raises(MaxIterationsError):
            _solve(f, 0.5, 1.0)

    @given(
        root=st.floats(min_value=0.01, max_value=1.0),
        stretch=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_stays_in_bracket_with_small_residual(self, root, stretch):
        # slope * float-spacing stays far below the tolerance here, so
        # the residual target is always reachable
        f = lambda x: (x - root) * (1.0 + stretch * x * x)
        df = lambda x: 1.0 + stretch * x * x + 2.0 * stretch * x * (x - root)
        hi = root * 3.0
        solved = _solve(with_slope(f, df), root / 3.0, hi)
        assert 0.0 < solved <= hi
        assert abs(f(solved)) <= 1e-12
        assert abs(solved - root) <= 1e-9 * root

    def test_representable_root_at_scale_is_hit_exactly(self):
        # steep linear function whose root is a float: the solver must land
        # on it exactly rather than oscillating around it
        r = 12345.678901234567
        root = _solve(with_slope(lambda x: 1e4 * (x - r), lambda x: 1e4), 1e4, 2e4)
        assert root == r

    def test_unreachable_residual_fails_fast(self):
        # sqrt(2) is not a float, and the slope at this scale keeps |f| at
        # the two adjacent floats above the tolerance: the solver must diagnose
        # the collapsed bracket instead of looping to the evaluation cap
        f = with_slope(lambda x: 1e5 * (x * x - 2.0), lambda x: 2e5 * x)
        with pytest.raises(MaxIterationsError, match="adjacent floats"):
            _solve(f, 1.0, 2.0)


class TestTolerance:
    def test_patched_tolerance_applies(self, monkeypatch):
        monkeypatch.setattr(roots_module, "TOL", 1e-6)
        probes = []
        root = _solve(recording(LOG_PLUS_LINEAR, probes), 0.1, 0.5)
        # accepted at the first point within 1e-6, which the default 1e-12
        # would not accept, then polished once
        assert 1e-12 < abs(LOG_PLUS_LINEAR(probes[-1])[0]) <= 1e-6
        assert abs(root - 0.20318786997997995) < 1e-9


def exp_plus_linear(t, counter=None):
    """ln a + a - t with its slope in ln a: increasing, one root, at or
    below e^t."""

    def f(a):
        if counter is not None:
            counter.append(a)
        return math.log(a) + a - t, 1.0 + a, None

    return f


def column_roots(equations, hi):
    """Roots of a column of equations, each solved from the root before it
    (from hi for the first), as a sweep solves each of its columns."""
    roots, start = [], hi
    for f in equations:
        start = _solve(f, start, hi)
        roots.append(start)
    return roots


class TestNewtonColumns:
    def test_column_matches_bisection(self):
        targets = [0.1 * k for k in range(-20, 60)]
        roots = column_roots([exp_plus_linear(t) for t in targets], math.exp(6.0))
        for t, root in zip(targets, roots):
            oracle = bisect(lambda u: u + math.exp(u) - t, t - math.exp(t) - 1.0, t)
            assert math.log(root) == pytest.approx(oracle, rel=4e-16, abs=4e-16)

    def test_warm_start_spends_few_evaluations(self):
        calls = []
        column_roots([exp_plus_linear(0.05 * k, calls) for k in range(100)], math.exp(10.0))
        # the first root is solved from hi; the others start at their
        # neighbour's root, 0.05 away in t
        assert len(calls) <= 15 + 4 * 99

    def test_bisects_where_newton_cannot_step(self):
        # a zero slope everywhere: every step is a geometric bisection
        f = lambda a: (math.atan(math.log(a) - 1.0), 0.0, None)
        assert abs(math.log(_solve(f, 1.0, math.exp(20.0))) - 1.0) <= 1e-12
