"""Fixed probes of how fast the machine runs at the moment.

The benchmark shares its machine with other tenants, and their load slows
every process here by up to half for tens of seconds at a time, so raw
wall-clock medians of identical runs spread by more than any useful bound.
A probe does the same work every time, in the same process and without
extra threads, right before and after each group of operations.  Each
operation's wall time is then scaled by the probe's reference time over
the probe time around it: the result is the time the operation would take
on a machine where the probe takes its reference time.  The probes do not
use the library, so no change to the library can move them.

Two kinds of work are probed, matching what the workloads spend their time
on: interpreted Python (the scalar solvers) and numpy array passes (the
certificate and oracle grids of verify_all).
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

MIN_REPEATS = 5
# A probe lasts at least this share of the operation time it scales.
PROBE_SHARE = 0.02
# About the fastest probe times seen on the machine the benchmark was
# written on (2 vCPUs, Python 3.11, numpy 2.4); they only fix the unit.
REFERENCE_S = {"python": 0.48e-3, "numpy": 0.33e-3}


def _python_work() -> float:
    total = 0.0
    for i in range(3000):
        x = i * 1e-3
        total += math.log1p(x) + math.exp(-x) * (x - 1.0)
    return total


def _numpy_work():
    import numpy as np

    grid = np.linspace(-2.0, 2.0, 200_000)
    buffer = np.empty_like(grid)  # no allocation, so no allocator state is probed

    def work() -> float:
        np.minimum(grid, 1.0, out=buffer)
        np.exp(buffer, out=buffer)
        return float(buffer.sum())

    return work


class Probe:
    def __init__(self, kind: str) -> None:
        self.work = _python_work if kind == "python" else _numpy_work()
        self.reference_s = REFERENCE_S[kind]

    def measure(self, covers_s: float = 0.0) -> float:
        """Median seconds of one run of the work, over at least MIN_REPEATS
        runs and PROBE_SHARE of ``covers_s``, after one untimed run that
        brings the work back into the caches."""
        self.work()
        times = []
        end = perf_counter() + PROBE_SHARE * covers_s
        while len(times) < MIN_REPEATS or perf_counter() < end:
            start = perf_counter()
            self.work()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        """Factor turning wall seconds measured between two probes into
        seconds at the reference speed."""
        return self.reference_s / (0.5 * (before + after))
