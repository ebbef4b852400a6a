"""The benchmark's workloads: inputs made from the seed, one operation each,
and the check that decides whether an operation's output is correct.

All three are closed loop with one client: the next operation starts only
after the previous one returned.  This module imports the library lazily,
in each workload's constructor, so a worker pays only for the modules its workload uses.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The paper's figure grid: 200 log-spaced sigma in [0.05, 100] and five tilts.
FIGURE_SIGMA_MIN = 0.05
FIGURE_SIGMA_MAX = 100.0
FIGURE_POINTS = 200
FIGURE_TILTS = (1.0, 1.5, 2.0, 3.0, 5.0)
FIGURES = (
    ("fig1_universal_bound.csv", "universal-winsor", ()),
    ("fig2_top_universal_over_fixed.csv", "ratio-universal-over-fixed", FIGURE_TILTS),
    ("fig2_bottom_trunc_over_winsor.csv", "ratio-trunc-over-winsor", FIGURE_TILTS),
)

# Values may differ from the reference by this much before a check fails.
REFERENCE_RTOL = 1e-12

QUERY_KINDS = ("universal", "fixed", "trunc")
QUERY_C = (0.1, 10.0)
QUERY_SIGMA = (1e-3, 1e6)
QUERY_CUT = (0.5, 2.0)
# The fixed subsample compared with stored reference values on every run.
REFERENCE_QUERY_SEED = 0
REFERENCE_QUERY_COUNT = 300
# Queries per traced batch; the traced run reports the counts of one batch.
QUERY_TRACE_BATCH = 2000

# The cheapest first request of each workload, run through cli.main to
# measure set-up time; "{out}" is replaced with a scratch directory.
SETUP_REQUESTS = {
    "figures": [
        "sweep", "--kind", "ratio-trunc-over-winsor", "--c", "1.5",
        "--sigma-min", "0.05", "--sigma-max", "100", "--points", "2",
        "--out", "{out}/setup_sweep.csv",
    ],
    "point_queries": ["bound", "--kind", "trunc", "--c", "1.5", "--sigma", "2"],
    "verify_all": ["verify", "--suite", "asymptotics"],
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def query_stream(seed: int):
    """Endless seeded stream of (kind, c, sigma, cut) single-bound queries.

    The kind is uniform over the three public bounds; c, sigma and cut are
    log-uniform.  A universal query draws a c as well and ignores it, so the
    stream's shape does not depend on the kinds drawn.
    """
    rng = random.Random(seed)
    while True:
        kind = QUERY_KINDS[rng.randrange(len(QUERY_KINDS))]
        c = _log_uniform(rng, *QUERY_C)
        sigma = _log_uniform(rng, *QUERY_SIGMA)
        cut = _log_uniform(rng, *QUERY_CUT)
        yield kind, c, sigma, cut


def relative_gap(x: float, y: float) -> float:
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


class Workload:
    """Defaults shared by the workloads: no per-operation input to draw, and
    interpreted Python as the work the calibration probe resembles."""

    trace_batch = 1
    probe_kind = "python"

    def next_input(self) -> None:
        pass


class Figures(Workload):
    """One operation writes the paper's three figure CSVs with write_csv.

    The grid is fixed by the paper, so the seed does not change the inputs
    and every operation is compared with the stored reference CSVs.
    ``tiny`` keeps every 20th sigma only, for the self-test.
    """

    name = "figures"

    def __init__(self, seed: int, scratch: str, tiny: bool = False) -> None:
        from winsor_bounds import sweeps

        self.sweeps = sweeps
        self.scratch = scratch
        grid = sweeps.sigma_grid(FIGURE_SIGMA_MIN, FIGURE_SIGMA_MAX, FIGURE_POINTS, "log")
        stride = 20 if tiny else 1
        self.grid = grid[::stride]
        self.reference = {}
        for filename, _, _ in FIGURES:
            lines = (REFERENCE_DIR / filename).read_text(encoding="utf-8").splitlines()
            self.reference[filename] = [lines[0]] + lines[1:][::stride]
        n, t = len(self.grid), len(FIGURE_TILTS)
        # universal; universal and fixed per tilt; trunc and fixed per tilt
        self.bounds_per_op = n + n * (1 + t) + n * 2 * t
        self.bitwise_identical = True
        self.max_rel_diff = 0.0

    def op(self) -> None:
        for filename, kind, tilts in FIGURES:
            table = self.sweeps.compute_sweep(kind, self.grid, tilts)
            self.sweeps.write_csv(table, os.path.join(self.scratch, filename))

    def check(self, result) -> str | None:
        for filename, _, _ in FIGURES:
            path = os.path.join(self.scratch, filename)
            with open(path, encoding="utf-8", newline="") as handle:
                lines = handle.read().split("\n")
            if lines and lines[-1] == "":
                lines.pop()
            os.unlink(path)
            expected = self.reference[filename]
            if lines == expected:
                continue
            self.bitwise_identical = False
            if len(lines) != len(expected) or lines[0] != expected[0]:
                return f"{filename}: header or row count differs from the reference"
            for got, want in zip(lines[1:], expected[1:]):
                got_cells, want_cells = got.split(","), want.split(",")
                if len(got_cells) != len(want_cells):
                    return f"{filename}: column count differs from the reference"
                for g, w in zip(got_cells, want_cells):
                    gap = relative_gap(float(g), float(w))
                    if not gap <= REFERENCE_RTOL:
                        return f"{filename}: {g} differs from reference {w} (rel {gap:.3e})"
                    self.max_rel_diff = max(self.max_rel_diff, gap)
        return None

    def warmup(self) -> tuple[int, list[str]]:
        self.op()
        problem = self.check(None)
        return 1, [problem] if problem else []

    def summary(self) -> dict:
        return {
            "bitwise_identical": self.bitwise_identical,
            "max_rel_diff": self.max_rel_diff,
            "bounds_per_op": self.bounds_per_op,
        }


class PointQueries(Workload):
    """One operation is one single-bound call through the public API."""

    name = "point_queries"
    bounds_per_op = 1

    def __init__(self, seed: int, scratch: str, tiny: bool = False) -> None:
        from winsor_bounds import (
            BoundQuery,
            lower_bound_fixed_c,
            lower_bound_trunc,
            lower_bound_universal,
        )

        def bound(kind: str, c: float, sigma: float, cut: float) -> float:
            if kind == "universal":
                return lower_bound_universal(sigma, cut).bound
            if kind == "fixed":
                return lower_bound_fixed_c(BoundQuery(c, sigma, cut)).bound
            return lower_bound_trunc(BoundQuery(c, sigma, cut)).bound

        self.bound = bound
        self.stream = query_stream(seed)
        self.query = None
        self.trace_batch = 100 if tiny else QUERY_TRACE_BATCH
        self.reference_checked = 0
        self.reference_mismatches = 0
        self.reference_bitwise = True

    def op(self) -> float:
        return self.bound(*self.query)

    def next_input(self) -> None:
        self.query = next(self.stream)

    def check(self, bound: float) -> str | None:
        if math.isfinite(bound) and 0.0 < bound <= 1.0:
            return None
        return f"query {self.query!r} gave bound {bound!r} outside (0, 1]"

    def warmup(self) -> tuple[int, list[str]]:
        """Recompute the stored reference subsample; each mismatch is a failure."""
        stored = json.loads((REFERENCE_DIR / "queries.json").read_text(encoding="utf-8"))
        problems = []
        for kind, c, sigma, cut, expected in stored["queries"]:
            try:
                got = self.bound(kind, c, sigma, cut)
            except Exception as exc:  # reported as a failure, never skipped
                problems.append(f"reference {kind} {c!r} {sigma!r} {cut!r}: {exc!r}")
                continue
            if got != expected:
                self.reference_bitwise = False
            if not relative_gap(got, expected) <= REFERENCE_RTOL:
                problems.append(
                    f"reference {kind} {c!r} {sigma!r} {cut!r}: {got!r} != {expected!r}"
                )
        self.reference_checked = len(stored["queries"])
        self.reference_mismatches = len(problems)
        return self.reference_checked, problems

    def summary(self) -> dict:
        return {
            "reference_queries": self.reference_checked,
            "reference_mismatches": self.reference_mismatches,
            "reference_bitwise_identical": self.reference_bitwise,
        }


class VerifyAll(Workload):
    """One operation is verify.run_suite("all", seed); every check must pass."""

    name = "verify_all"
    bounds_per_op = None
    probe_kind = "numpy"  # about 95% of an operation is numpy grids

    def __init__(self, seed: int, scratch: str, tiny: bool = False) -> None:
        from winsor_bounds import verify

        self.verify = verify
        self.seed = seed
        self.checks = 0

    def op(self):
        return self.verify.run_suite("all", self.seed)

    def check(self, results) -> str | None:
        self.checks = len(results)
        failed = [r.line() for r in results if not r.passed]
        return "; ".join(failed) if failed else None

    def warmup(self) -> tuple[int, list[str]]:
        # The cheapest suite fills the cached constants (t_star).
        results = self.verify.run_suite("asymptotics", self.seed)
        return 1, [r.line() for r in results if not r.passed]

    def summary(self) -> dict:
        return {"checks_per_op": self.checks}


WORKLOADS = {cls.name: cls for cls in (Figures, PointQueries, VerifyAll)}
