"""Spans and counts around the library's public functions, for the traced run.

``Tracer.install`` imports every module of the package and replaces each
public function with a wrapper at every name it is bound to: module globals
(so ``winsor.solve_root`` and ``trunc.solve_root`` are wrapped, not only
``roots.solve_root``), the package namespace, and module-level dicts such as
``verify.SUITES``.  Nothing under ``src/`` changes; the untraced run never
imports this module, so no wrapper can leak into it.

Each call records a span [function, start_ns, end_ns, parent span, operation
id].  Spans stay in memory; ``batch_metrics`` turns one batch of them into
the per-layer metrics, and ``write`` saves them when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
from collections import Counter
from time import perf_counter_ns

PACKAGE = "winsor_bounds"

# Field order of a span record.  OUTER_FN and OUTER_LAYER say that no span
# of the same function, or of the same layer, was open when it started.
NAME, START, END, PARENT, OP, OUTER_FN, OUTER_LAYER = range(7)
# Layers whose self time is reported; cli is measured in a fresh process.
LAYERS = (
    "roots", "config", "distributions", "winsor", "trunc", "asymptotics",
    "certificates", "oracle", "sweeps", "verify",
)


def _counting(f, counts: Counter, key: str):
    def counted(x):
        counts[key] += 1
        return f(x)

    return counted


def _with_counted_f(key: str):
    """Pre-hook wrapping the callable handed to solve_root / find_bracket."""

    def pre(tracer, args, kwargs):
        if args:
            args = (_counting(args[0], tracer.counts, key), *args[1:])
        else:
            kwargs = {**kwargs, "f": _counting(kwargs["f"], tracer.counts, key)}
        return args, kwargs

    return pre


def _note_tilt(tracer, args, kwargs):
    tracer.tilts.add(args[0] if args else kwargs["c"])
    return args, kwargs


def _count(key: str, measure):
    def post(tracer, args, kwargs, result):
        tracer.counts[key] += measure(args, kwargs, result)

    return post


def _csv_size(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


PRE_HOOKS = {
    "roots.solve_root": _with_counted_f("roots.f_evals"),
    "roots.find_bracket": _with_counted_f("roots.bracket_f_evals"),
    "trunc.solve_A_c": _note_tilt,
}
POST_HOOKS = {
    "roots.solve_root": _count("roots.iterations", lambda a, k, r: r.iterations),
    "trunc.lower_bound_trunc": _count(
        "trunc.large_branch", lambda a, k, r: r.branch.value == "large-sigma"
    ),
    "certificates.certificate_grid": _count("certificates.grid_points", lambda a, k, r: r.size),
    "oracle.two_point_moment_grid": _count("oracle.points_evaluated", lambda a, k, r: r.size),
    "oracle.probe_moments": _count("oracle.points_evaluated", lambda a, k, r: r.size),
    "sweeps.write_csv": _count("sweeps.csv_bytes", _csv_size),
}

# A certificate grid point is one float64.
BYTES_PER_GRID_POINT = 8


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            yield name, value


class Aggregate:
    """Totals over one batch of spans."""

    def __init__(self, tracer: "Tracer") -> None:
        names, spans = tracer.names, tracer.spans
        self.counts = Counter(tracer.counts)
        self.tilts = len(tracer.tilts)
        self.calls: Counter = Counter()
        self.errors = Counter(tracer.errors)
        self.fn_ns: Counter = Counter()
        self.layer_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        for span, covered in zip(spans, child_ns):
            name = names[span[NAME]]
            layer = name.split(".", 1)[0]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.self_ns[layer] += duration - covered
            if span[OUTER_FN]:
                self.fn_ns[name] += duration
            if span[OUTER_LAYER]:
                self.layer_ns[layer] += duration
        self.child_ns = child_ns

    def ms(self, name: str) -> float:
        return self.fn_ns[name] / 1e6

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


def _metric_table():
    """Per-layer metric name -> (unit, value from an Aggregate)."""
    table = {
        "roots.solve_calls": ("count", lambda a: a.calls["roots.solve_root"]),
        "roots.solve_ms": ("ms", lambda a: a.ms("roots.solve_root")),
        "roots.f_evals": ("count", lambda a: a.counts["roots.f_evals"]),
        "roots.f_evals_per_solve": (
            "evals/solve",
            lambda a: a.ratio(a.counts["roots.f_evals"], a.calls["roots.solve_root"]),
        ),
        "roots.iterations_per_solve": (
            "iter/solve",
            lambda a: a.ratio(
                a.counts["roots.iterations"],
                a.calls["roots.solve_root"] - a.errors["roots.solve_root"],
            ),
        ),
        "roots.bracket_calls": ("count", lambda a: a.calls["roots.find_bracket"]),
        "roots.bracket_f_evals": ("count", lambda a: a.counts["roots.bracket_f_evals"]),
        "roots.bracket_ms": ("ms", lambda a: a.ms("roots.find_bracket")),
        "roots.errors": (
            "count",
            lambda a: a.errors["roots.solve_root"] + a.errors["roots.find_bracket"],
        ),
        "config.tolerance_lookups": ("count", lambda a: a.calls["config.default_tolerance"]),
        "config.tolerance_ms": ("ms", lambda a: a.ms("config.default_tolerance")),
        "distributions.two_point_calls": ("count", lambda a: a.calls["distributions.two_point"]),
        "distributions.two_point_ms": ("ms", lambda a: a.ms("distributions.two_point")),
        "winsor.fixed_calls": ("count", lambda a: a.calls["winsor.lower_bound_fixed_c"]),
        "winsor.fixed_ms": ("ms", lambda a: a.ms("winsor.lower_bound_fixed_c")),
        "winsor.universal_calls": ("count", lambda a: a.calls["winsor.lower_bound_universal"]),
        "winsor.universal_ms": ("ms", lambda a: a.ms("winsor.lower_bound_universal")),
        "winsor.solve_a_c_sigma_ms": ("ms", lambda a: a.ms("winsor.solve_a_c_sigma")),
        "winsor.solve_a_sigma_ms": ("ms", lambda a: a.ms("winsor.solve_a_sigma")),
        "trunc.bound_calls": ("count", lambda a: a.calls["trunc.lower_bound_trunc"]),
        "trunc.bound_ms": ("ms", lambda a: a.ms("trunc.lower_bound_trunc")),
        "trunc.A_c_solves": ("count", lambda a: a.calls["trunc.solve_A_c"]),
        "trunc.A_c_ms": ("ms", lambda a: a.ms("trunc.solve_A_c")),
        "trunc.A_c_useful_ratio": (
            "tilts/solve", lambda a: a.ratio(a.tilts, a.calls["trunc.solve_A_c"])
        ),
        "trunc.large_branch_frac": (
            "fraction",
            lambda a: a.ratio(a.counts["trunc.large_branch"], a.calls["trunc.lower_bound_trunc"]),
        ),
        "asymptotics.t_star_calls": ("count", lambda a: a.calls["asymptotics.solve_t_star"]),
        "asymptotics.ms": ("ms", lambda a: a.layer_ns["asymptotics"] / 1e6),
        "certificates.grid_calls": ("count", lambda a: a.calls["certificates.certificate_grid"]),
        "certificates.grid_ms": ("ms", lambda a: a.ms("certificates.certificate_grid")),
        "certificates.grid_points": ("count", lambda a: a.counts["certificates.grid_points"]),
        "certificates.bytes_computed": (
            "B-computed",
            lambda a: a.counts["certificates.grid_points"] * BYTES_PER_GRID_POINT,
        ),
        "certificates.check_calls": ("count", lambda a: a.calls["certificates.check_certificate"]),
        "certificates.check_ms": ("ms", lambda a: a.ms("certificates.check_certificate")),
        "oracle.refine_ms": ("ms", lambda a: a.ms("oracle.refine_grid_min")),
        "oracle.universal_grid_ms": ("ms", lambda a: a.ms("oracle.universal_grid_min")),
        "oracle.probe_ms": (
            "ms", lambda a: a.ms("oracle.sample_three_point") + a.ms("oracle.probe_moments")
        ),
        "oracle.points_evaluated": ("count", lambda a: a.counts["oracle.points_evaluated"]),
        "sweeps.compute_ms": ("ms", lambda a: a.ms("sweeps.compute_sweep")),
        "sweeps.write_csv_ms": ("ms", lambda a: a.ms("sweeps.write_csv")),
        "sweeps.csv_bytes": ("B", lambda a: a.counts["sweeps.csv_bytes"]),
    }
    for suite in ("roots", "ordering", "certificates", "oracle", "asymptotics"):
        table[f"verify.suite_{suite}_s"] = (
            "s", lambda a, fn=f"verify.suite_{suite}": a.fn_ns[fn] / 1e9
        )
    for layer in LAYERS:
        table[f"{layer}.self_ms"] = ("ms", lambda a, layer=layer: a.self_ns[layer] / 1e6)
    return table


METRICS = _metric_table()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.tilts: set = set()
        self.active_layer: Counter = Counter()  # open spans per layer
        self.first_batch: tuple[list, list] | None = None

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        # Keyed by id: the originals stay referenced by their wrappers, so
        # no other live object can share an id with one of them.
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        layer = qualname.split(".", 1)[0]
        pre, post = PRE_HOOKS.get(qualname), POST_HOOKS.get(qualname)
        spans, stack, errors = self.spans, self.stack, self.errors
        active_layer = self.active_layer
        active_fn = [0]  # open spans of this function
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            span = [
                name_id, 0, 0, stack[-1] if stack else -1, tracer.op,
                active_fn[0] == 0, active_layer[layer] == 0,
            ]
            stack.append(len(spans))
            spans.append(span)
            active_fn[0] += 1
            active_layer[layer] += 1
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[qualname] += 1
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
                active_fn[0] -= 1
                active_layer[layer] -= 1
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def batch_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans since the last call; the first
        batch's spans are kept for ``write``, later ones are dropped."""
        aggregate = Aggregate(self)
        if self.first_batch is None:
            self.first_batch = (list(self.spans), aggregate.child_ns)
        metrics = {name: float(value(aggregate)) for name, (_, value) in METRICS.items()}
        self.discard()
        return metrics

    def discard(self) -> None:
        """Drop the spans and counts recorded so far (the warm-up's)."""
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        self.tilts.clear()

    def write(self, path: str) -> None:
        """Save the first batch's spans, each with its derived self time."""
        spans, child_ns = self.first_batch or ([], [])
        rows = [
            [self.names[s[NAME]], s[START], s[END], s[PARENT], s[OP],
             s[END] - s[START] - covered]
            for s, covered in zip(spans, child_ns)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
                 "spans": rows},
                handle,
            )
