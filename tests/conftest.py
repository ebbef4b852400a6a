"""Shared fixtures."""

import time
from dataclasses import dataclass

import pytest

from winsor_bounds import roots, sweeps, trunc, verify, winsor


@dataclass(frozen=True)
class VerifyRun:
    results: list  # every check, in the order of verify.run_suite("all", 1)
    by_suite: dict  # suite name -> its checks
    seconds: dict  # suite name -> wall time of the suite


@pytest.fixture(scope="session")
def verify_all() -> VerifyRun:
    """verify.run_suite("all", seed=1), run once per test session.

    Like run_suite itself, it runs the suites one by one in SUITES order,
    so that each suite's wall time is kept beside its checks.
    """
    by_suite, seconds = {}, {}
    for name in verify.SUITES:
        start = time.perf_counter()
        by_suite[name] = verify.run_suite(name, seed=1)
        seconds[name] = time.perf_counter() - start
    results = [check for checks in by_suite.values() for check in checks]
    return VerifyRun(results=results, by_suite=by_suite, seconds=seconds)


@dataclass
class Solves:
    equations: list  # (f, start, hi) as each solve received them
    points: list  # every a at which an equation was evaluated


@pytest.fixture
def solves(monkeypatch) -> Solves:
    """Records each root solve of the bounds: the equation handed to
    roots._solve from winsor and trunc, and every point it was evaluated at."""
    record = Solves(equations=[], points=[])

    def recorded(f, start, hi):
        def counted(a):
            record.points.append(a)
            return f(a)

        record.equations.append((f, start, hi))
        return roots._solve(counted, start, hi)

    for module in (winsor, trunc):
        monkeypatch.setattr(module, "_solve", recorded)
    return record


@pytest.fixture(scope="session")
def lanes() -> dict:
    """Each bound's lane as a call on floats, keyed by its single-bound sweep
    kind: (c, sigma, start=None, cut=1.0) -> Bound's fields from a on,
    (a, b, tilt, bound, branch), the root solved from start (from its seed
    when None); the universal lane reads no c.  Built from the lanes of
    sweeps._KINDS, so a test reaches the body that the sweeps and the scalar
    lower_bound_* calls run, with its inputs formed as they form them:
    c*cut, None for the universal lane, and _row(sigma, cut)."""

    def call(lane):
        universal = lane is winsor._universal_lane
        return lambda c, sigma, start=None, cut=1.0: lane(
            None if universal else winsor._effective_c(c, cut), winsor._row(sigma, cut), start
        )

    return {kind: call(lane) for kind, (lane, over) in sweeps._KINDS.items() if over is None}


@pytest.fixture(scope="session")
def trunc_root():
    """The truncated moment match a * B_star(a, c) = sigma^2 at cut level 1,
    solved from its seed on either branch, (c, sigma) -> a: the truncated
    lane solves it on the large-sigma branch only."""
    return lambda c, sigma: trunc._A_c_sigma(c, winsor._row(sigma, 1.0), None)
