"""The repository's benchmark: one command for every workload and metric.

    python3 perfbench/run.py                       # every workload, report + results file
    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --self-test

Each workload runs in fresh child processes (worker.py) with a pinned
environment, one process at a time and with one thread per library.  With
``--workload NAME`` the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload is run, the numbers are
printed under the names the issue tracker uses, and all runs are written to
a results file that ``--compare`` reads.  The exit code is non-zero when any
output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402
from workloads import SETUP_REQUESTS, WORKLOADS  # noqa: E402

# End-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics measured outside the tracer: the CLI in a fresh process,
# and the tracing overhead against an untraced run.
EXTRA_LAYER_METRICS = {
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_frac": "fraction",
}
# Fresh-interpreter set-up runs per measurement, after one untimed run that
# writes the bytecode caches; set-up time is their median.
SETUP_REPEATS = 7
CLI_PROBE_REPEATS = 3
# Every run of this script ends within this many seconds.
RUN_BUDGET_S = 170.0
# These change what is measured, so no child inherits them.
DROPPED_ENV = (
    "WINSOR_BOUNDS_TOL",
    "PYTHONPATH",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONOPTIMIZE",
    "PYTHONDEVMODE",
    "PYTHONPROFILEIMPORTTIME",
)

SETUP_CODE = "import sys; from winsor_bounds import cli; sys.exit(cli.main(sys.argv[1:]))"
PROBE_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from winsor_bounds import cli\n"
    "t1 = time.perf_counter()\n"
    "code = cli.main(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "print('perfbench-cli', (t2 - t1) * 1e3, file=sys.stderr)\n"
    "sys.exit(code)\n"
)

# How the report names each workload's numbers: (name, metric, scale, unit).
REPORT_NAMES = {
    "figures": (
        ("figures_set_ms_p50", "op_ms_p50", 1.0, "ms"),
        ("figures_set_ms_p{tail}", "op_ms_tail", 1.0, "ms"),
        ("figures_bounds_per_s", "bounds_per_s", 1.0, "1/s"),
    ),
    "point_queries": (
        ("query_us_p50", "op_ms_p50", 1e3, "us"),
        ("query_us_p{tail}", "op_ms_tail", 1e3, "us"),
        ("queries_per_s", "ops_per_s", 1.0, "1/s"),
    ),
    "verify_all": (("verify_all_s_p50", "op_ms_p50", 1e-3, "s"),),
}


class Budget:
    """Seconds left before the whole run must have ended."""

    def __init__(self, seconds: float) -> None:
        self.deadline = perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - perf_counter())


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def environment() -> dict:
    """Machine and versions, recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "winsor_bounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_child(argv: list[str], env: dict, budget: Budget) -> subprocess.CompletedProcess:
    """Run a child to completion; one still running when the budget ends is
    killed and waited for, and reported as failed."""
    try:
        return subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget.left()
        )
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(argv, -9, "", f"timed out after {exc.timeout:.0f} s")


def setup_argv(workload: str, scratch: str) -> list[str]:
    return [arg.replace("{out}", scratch) for arg in SETUP_REQUESTS[workload]]


def measure_setup(workload: str, scratch: str, env: dict, budget: Budget, repeats: int) -> dict:
    """Median time of a fresh interpreter answering the workload's cheapest
    first request through cli.main, at the reference speed of calibrate.py,
    and its median wall time."""
    argv = [sys.executable, "-c", SETUP_CODE, *setup_argv(workload, scratch)]
    scaled, wall, failures = [], [], []
    probe = calibrate.Probe("python")
    before = probe.measure()
    for attempt in range(repeats + 1):
        start = perf_counter()
        done = run_child(argv, env, budget)
        elapsed = perf_counter() - start
        after = probe.measure(elapsed)
        if done.returncode != 0:
            failures.append(f"set-up request exited {done.returncode}: {done.stderr[-500:]}")
        elif attempt > 0:  # the first run writes the bytecode caches
            wall.append(elapsed)
            scaled.append(elapsed * probe.scale(before, after))
        before = after
    return {
        "setup_s": statistics.median(scaled) if scaled else None,
        "wall_setup_s": statistics.median(wall) if wall else None,
        "attempted": repeats + 1,
        "failed": len(failures),
        "failures": failures,
    }


def _importtime(stderr: str) -> tuple[float, float]:
    """(ms importing the package and its CLI, ms in SciPy's own modules)
    from ``-X importtime`` output."""
    package_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        name = module.strip()
        top_level = module.startswith(" ") and not module.startswith("  ")
        if top_level and (name == "winsor_bounds" or name.startswith("winsor_bounds.")):
            package_us += int(cumulative_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return package_us / 1e3, scipy_us / 1e3


def probe_cli(workload: str, scratch: str, env: dict, budget: Budget) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", PROBE_CODE, *setup_argv(workload, scratch)]
    samples = []
    for _ in range(CLI_PROBE_REPEATS):
        done = run_child(argv, env, budget)
        if done.returncode != 0:
            raise RuntimeError(f"CLI probe exited {done.returncode}: {done.stderr[-500:]}")
        import_ms, scipy_ms = _importtime(done.stderr)
        marker = [l for l in done.stderr.splitlines() if l.startswith("perfbench-cli ")]
        samples.append((import_ms, scipy_ms, float(marker[-1].split()[1])))
    return {
        name: statistics.median(s[i] for s in samples)
        for i, name in enumerate(("cli.import_ms", "cli.import_scipy_ms", "cli.main_ms"))
    }


def run_worker(workload: str, seed: int, seconds: float, trace: bool, scratch: str,
               env: dict, budget: Budget, tiny: bool = False) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)), "--scratch", scratch,
    ]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        argv += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.json")]
    if tiny:
        argv.append("--tiny")
    done = run_child(argv, env, budget)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "failures": [f"worker exited {done.returncode}: {done.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            budget: Budget, tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run of one workload: its end-to-end metrics, or with ``trace``
    its per-layer metrics.  Every child has ended when this returns."""
    env = pinned_env()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        if trace:
            untraced = run_worker(workload, seed, seconds / 2, False, scratch, env, budget, tiny)
            traced = run_worker(workload, seed, seconds, True, scratch, env, budget, tiny)
            parts = [untraced, traced]
            metrics = dict(traced.get("layers", {}))
            if "op_ms_p50" in untraced and "op_ms_p50" in traced:
                overhead = traced["op_ms_p50"] / untraced["op_ms_p50"] - 1.0
                metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
            try:
                probe = probe_cli(workload, scratch, env, budget)
            except RuntimeError as exc:
                parts.append({"attempted": 1, "failed": 1, "failures": [str(exc)]})
            else:
                for name, value in probe.items():
                    metrics[name] = {"value": value, "unit": EXTRA_LAYER_METRICS[name]}
            main = traced
        else:
            setup = measure_setup(workload, scratch, env, budget, setup_repeats)
            main = run_worker(workload, seed, seconds, False, scratch, env, budget, tiny)
            parts = [setup, main]
            main = {**main, "setup_s": setup["setup_s"], "wall_setup_s": setup["wall_setup_s"]}
            metrics = {
                name: {"value": main[name], "unit": unit}
                for name, unit in END_TO_END.items()
                if main.get(name) is not None
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wanted = EXTRA_LAYER_METRICS.keys() | LAYER_METRICS.keys() if trace else END_TO_END.keys()
    failures = [f for part in parts for f in part.get("failures", [])]
    missing = sorted(set(wanted) - metrics.keys())
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": not failures,
        "attempted": sum(part.get("attempted", 0) for part in parts),
        "failed": sum(part.get("failed", 0) for part in parts) + bool(missing),
        "metrics": metrics,
        "failures": failures,
        "details": {k: v for k, v in main.items() if k not in ("layers", "failures")},
    }


def print_result(result: dict) -> None:
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"details": result["details"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def report_rows(workload: str, run: dict) -> list[tuple[str, float, str]]:
    """The numbers of one untraced run, under the issue tracker's names."""
    details, metrics = run["details"], run["metrics"]
    rows = []
    for name, key, scale, unit in REPORT_NAMES[workload]:
        value = details.get(key)
        if value is None:
            continue
        rows.append((name.format(tail=f"{details.get('tail_pct', 0):g}"), value * scale, unit))
    for name in ("setup_s", "peak_rss_mb"):
        if name in metrics:
            rows.append((name, metrics[name]["value"], metrics[name]["unit"]))
    rows.append(("failed_frac", run["failed"] / max(run["attempted"], 1), "fraction"))
    rows.append(("samples", details.get("n", 0), "count"))
    for name, unit in (("wall_op_ms_p50", "ms"), ("wall_ops_per_s", "1/s"),
                       ("wall_setup_s", "s"), ("probe_ms_p50", "ms")):
        if details.get(name) is not None:
            rows.append((name, details[name], unit))
    return rows


def run_all(args) -> int:
    seed = args.seed
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    results = {"env": environment(), "seed": seed, "seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        runs = [
            measure(workload, seed, seconds, False, budget=Budget(RUN_BUDGET_S))
            for _ in range(args.repeat)
        ]
        traced = measure(workload, seed, seconds, True, budget=Budget(RUN_BUDGET_S))
        results["workloads"][workload] = {"runs": runs, "trace": traced}
        print(f"== {workload}")
        table: dict[tuple[str, str], list[float]] = {}
        for run in runs:
            for name, value, unit in report_rows(workload, run):
                table.setdefault((name, unit), []).append(value)
        for (name, unit), values in table.items():
            line = f"  {name:<32} {statistics.median(values):>16.6g} {unit}"
            if len(values) > 1:
                gap = spread(values)
                line += f"  (median of {len(values)} runs, spread {gap if gap is not None else 0:.3f})"
            print(line)
        for name, metric in sorted(traced["metrics"].items()):
            print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
        for run in (*runs, traced):
            all_correct &= run["correct"]
            for failure in run["failures"]:
                print(f"  FAILED: {failure}")
    results["correct"] = all_correct
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / f"BENCH_seed{seed}.json"
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"{'all outputs correct' if all_correct else 'OUTPUT CHECKS FAILED'}; wrote {out}")
    return 0 if all_correct else 1


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def compare(old_path: str, new_path: str) -> int:
    """Print new/old for every metric of every workload both files hold."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    print(f"{'workload':<14} {'metric':<34} {'old':>12} {'new':>12} {'new/old':>8}  verdict")
    for workload, entry in new["workloads"].items():
        if workload not in old["workloads"]:
            continue
        before = old["workloads"][workload]
        for name, spec in specs.items():
            a = [r["metrics"][name]["value"] for r in before["runs"] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in entry["runs"] if name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            lower_is_better = spec["better"] == "lower"
            worse = mb / ma - 1.0 if lower_is_better else 1.0 - mb / ma
            separated = max(b) < min(a) if lower_is_better else min(b) > max(a)
            spreads = [spread(a), spread(b)]
            if not separated and any(s is None or s > spec["bound"] for s in spreads):
                shown = ", ".join("n/a" if s is None else f"{s:.3f}" for s in spreads)
                verdict = f"unresolved (spreads {shown}, bound {spec['bound']})"
            elif worse > spec["bound"]:
                verdict = f"REGRESSED: worse by {worse:.3f} > bound {spec['bound']}"
            else:
                verdict = "ok"
            print(f"{workload:<14} {name:<34} {ma:>12.6g} {mb:>12.6g} {mb / ma:>8.4f}  {verdict}")
        old_layers, new_layers = before["trace"]["metrics"], entry["trace"]["metrics"]
        for name in sorted(old_layers.keys() & new_layers.keys()):
            va, vb = old_layers[name]["value"], new_layers[name]["value"]
            ratio = f"{vb / va:>8.4f}" if va else f"{'-':>8}"
            print(f"{workload:<14} {name:<34} {va:>12.6g} {vb:>12.6g} {ratio}  per-layer, no bound")
    return 0


def self_test() -> int:
    """Tiny runs of every workload, traced and untraced: each named metric
    must appear with the unit BENCHMARK.json gives it, and every output
    check must pass."""
    spec = load_benchmark()
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != run.py {END_TO_END}")
    measured = {name: unit for name, (unit, _) in LAYER_METRICS.items()} | EXTRA_LAYER_METRICS
    if per_layer != measured:
        problems.append("BENCHMARK.json per_layer differs from the measured per-layer metrics: "
                        f"{sorted(set(per_layer.items()) ^ set(measured.items()))}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    mapped = [m for layer in layers["layers"] for m in layer["metrics"]]
    if sorted(mapped) != sorted(per_layer):
        problems.append("layers.json does not list each per-layer metric exactly once")
    for layer in layers["layers"]:
        for metric, workload in layer["moves"] + layer["holds"]:
            if metric not in e2e or workload not in WORKLOADS:
                problems.append(f"layers.json: {layer['layer']} names {metric!r} on {workload!r}")
    for workload in WORKLOADS:
        for trace, names in ((False, e2e), (True, per_layer)):
            result = measure(workload, layers["development_seed"], 0.2, trace,
                             budget=Budget(RUN_BUDGET_S), tiny=True, setup_repeats=1)
            for failure in result["failures"]:
                problems.append(f"{workload} trace={int(trace)}: {failure}")
            for name, unit in names.items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit or not isinstance(got.get("value"),
                                                                             (int, float)):
                    problems.append(f"{workload} trace={int(trace)}: {name} missing or not in {unit}")
            print(f"{workload} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"correct={result['correct']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload when running all of them")
    parser.add_argument("--out", help="results file written when running all workloads")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print each metric's ratio between two results files")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # Exiting through SystemExit lets subprocess.run kill and reap its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "winsor_bounds" / "__init__.py").is_file():
        print(f"no library sources at {SRC / 'winsor_bounds'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    print(json.dumps({"env": environment()}))
    result = measure(args.workload, args.seed, seconds, bool(args.trace),
                     budget=Budget(RUN_BUDGET_S))
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
