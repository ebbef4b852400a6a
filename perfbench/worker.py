"""Run one workload in a fresh interpreter and print its measurements.

``run.py`` starts this file as a child process with a pinned environment:

    python3 perfbench/worker.py --workload figures --seed 1 --seconds 10 \
        --trace 0 --scratch DIR

It imports the package from ``src/`` next to this directory, warms up,
then runs the workload's operations back to back until ``--seconds`` have
passed and prints one JSON object as its last line.  Operation times are
reported at the reference speed of ``calibrate.py``; the wall-clock
figures are reported beside them.  With ``--trace 1`` it
first installs the tracing wrappers and runs the operations in batches,
reporting per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Operation timings go into a buffer of fixed size, allocated before the
# warm-up, so the worker's peak memory does not grow with the number of
# operations a faster commit completes.  A run also ends when it is full.
SAMPLE_CAPACITY = 1 << 21
# Percentiles tried for the tail, highest first; one is reported only when
# at least TAIL_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10
MAX_FAILURES_KEPT = 5
# Seconds of operations between two calibration probes.
PROBE_EVERY_S = 0.1


def import_package():
    sys.path.insert(0, str(SRC))
    import winsor_bounds

    found = Path(winsor_bounds.__file__).resolve().parent
    if found != (SRC / "winsor_bounds").resolve():
        raise SystemExit(f"imported winsor_bounds from {found}, expected {SRC}")


def latency_summary(samples: list[float]) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"n": n, "op_ms_p50": statistics.median(ordered) * 1e3}
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            rank = math.ceil(pct / 100.0 * n) - 1
            summary.update(tail_pct=pct, op_ms_tail=ordered[rank] * 1e3)
            break
    return summary


def run(workload, seconds: float, tracer) -> dict:
    samples = array("d", bytes(8 * SAMPLE_CAPACITY))
    warm_attempted, failures = workload.warmup()
    failed = len(failures)
    if tracer is not None:
        tracer.discard()
    batch = workload.trace_batch if tracer is not None else 1
    batches = []
    # probes[g] and probes[g + 1] enclose the operations starts[g]:starts[g + 1].
    probe = calibrate.Probe(workload.probe_kind)
    probes, starts = [probe.measure()], [0]
    group_s = 0.0
    n = 0
    deadline = perf_counter() + seconds
    while n + batch <= SAMPLE_CAPACITY:
        for _ in range(batch):
            workload.next_input()
            if tracer is not None:
                tracer.op = n
            start = perf_counter()
            try:
                result = workload.op()
            except Exception:  # counted as a failed operation, never skipped
                samples[n] = perf_counter() - start
                problem = traceback.format_exc(limit=4)
            else:
                samples[n] = perf_counter() - start
                problem = workload.check(result)
            group_s += samples[n]
            n += 1
            if problem is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(problem)
            if group_s >= PROBE_EVERY_S:
                probes.append(probe.measure(group_s))
                starts.append(n)
                group_s = 0.0
        if tracer is not None:
            batches.append(tracer.batch_metrics())
        if perf_counter() >= deadline:
            break
    if starts[-1] < n:
        probes.append(probe.measure(group_s))
        starts.append(n)
    # Read before the summaries below allocate in proportion to n.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = samples[:n].tolist()
    scaled = []
    for g in range(len(starts) - 1):
        factor = probe.scale(probes[g], probes[g + 1])
        scaled.extend(t * factor for t in wall[starts[g]:starts[g + 1]])
    out = {
        "attempted": warm_attempted + n,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_KEPT],
        "ops": n,
        "ops_per_s": n / math.fsum(scaled),
        "wall_op_ms_p50": statistics.median(wall) * 1e3,
        "wall_ops_per_s": n / math.fsum(wall),
        "probe_ms_p50": statistics.median(probes) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "checks": workload.summary(),
        **latency_summary(scaled),
    }
    if workload.bounds_per_op is not None:
        out["bounds_per_s"] = out["ops_per_s"] * workload.bounds_per_op
    if tracer is not None:
        out["batches"] = len(batches)
        out["layers"] = layer_metrics(batches)
    return out


def layer_metrics(batches: list[dict]) -> dict:
    """Counts come from the first batch, so they repeat exactly for a seed;
    times are the median over all batches."""
    from tracing import METRICS

    out = {}
    for name, (unit, _) in METRICS.items():
        if unit in ("ms", "s"):
            value = statistics.median(b[name] for b in batches)
        else:
            value = batches[0][name]
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = parser.parse_args()

    import_package()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scratch, tiny=args.tiny)
    result = run(workload, args.seconds, tracer)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
