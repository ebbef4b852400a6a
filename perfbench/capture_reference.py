"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/capture_reference.py

Writes perfbench/reference/: the three figure CSVs on the paper's grid and
the bounds of the fixed query subsample.  The stored files were captured
from the commit that added the benchmark; re-capture only when a change to
the numerics has been measured and accepted, and say so in its description.
"""

from __future__ import annotations

import itertools
import json
import sys

from worker import import_package


def main() -> int:
    import_package()
    from workloads import (
        FIGURE_POINTS,
        FIGURE_SIGMA_MAX,
        FIGURE_SIGMA_MIN,
        FIGURES,
        REFERENCE_DIR,
        REFERENCE_QUERY_COUNT,
        REFERENCE_QUERY_SEED,
        PointQueries,
        query_stream,
    )
    from winsor_bounds import sweeps

    REFERENCE_DIR.mkdir(exist_ok=True)
    grid = sweeps.sigma_grid(FIGURE_SIGMA_MIN, FIGURE_SIGMA_MAX, FIGURE_POINTS, "log")
    for filename, kind, tilts in FIGURES:
        sweeps.write_csv(sweeps.compute_sweep(kind, grid, tilts), str(REFERENCE_DIR / filename))

    bound = PointQueries(REFERENCE_QUERY_SEED, str(REFERENCE_DIR)).bound
    queries = [
        [kind, c, sigma, cut, bound(kind, c, sigma, cut)]
        for kind, c, sigma, cut in itertools.islice(
            query_stream(REFERENCE_QUERY_SEED), REFERENCE_QUERY_COUNT
        )
    ]
    rows = ",\n".join(json.dumps(q) for q in queries)
    (REFERENCE_DIR / "queries.json").write_text(
        f'{{"seed": {REFERENCE_QUERY_SEED}, "fields": ["kind", "c", "sigma", "cut", "bound"],\n'
        f'"queries": [\n{rows}\n]}}\n',
        encoding="utf-8",
    )
    print(f"wrote {len(FIGURES)} figure CSVs and {len(queries)} queries to {REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
