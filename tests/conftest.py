"""Shared fixtures."""

import time
from dataclasses import dataclass

import pytest

from winsor_bounds import verify


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
