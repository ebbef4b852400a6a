"""Command-line surface.

Subcommands: ``bound`` (single bound, machine-readable key=value line),
``sweep`` (CSV grid over sigma), ``verify`` (invariant suites),
``collapse-demo`` (truncated collapse vs the Winsorized floor) and
``constants`` (the universal asymptotic constants).

Exit codes: 0 success, 1 failed verification, 2 invalid parameters,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import asymptotics
from .errors import ParameterError, WinsorBoundsError, in_range, require_positive
from .sweeps import SweepKind, compute_sweep, sigma_grid, write_csv
from .trunc import lower_bound_trunc, solve_A_c
from .winsor import BoundQuery, lower_bound_fixed_c, lower_bound_universal

_BOUND_KINDS = ("universal-winsor", "fixed-winsor", "trunc")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _parse_c_list(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ParameterError(f"--c expects a comma-separated list of reals, got {raw!r}")
    if not values:
        raise ParameterError("--c expects at least one value")
    return values


def _emit(pairs) -> None:
    """Print (key, value) pairs as one key=value line: a str as it is, a
    number by its repr, and no pair whose value is None."""
    print(" ".join(f"{key}={value if isinstance(value, str) else repr(value)}"
                   for key, value in pairs if value is not None))


def cmd_bound(args) -> int:
    universal = args.kind == "universal-winsor"
    if universal and args.c is not None:
        raise ParameterError("universal-winsor takes no --c")
    if not universal and args.c is None:
        raise ParameterError(f"{args.kind} requires --c")
    if universal:
        r = lower_bound_universal(args.sigma, args.cut)
    elif args.kind == "fixed-winsor":
        r = lower_bound_fixed_c(BoundQuery(args.c, args.sigma, args.cut))
    else:
        r = lower_bound_trunc(BoundQuery(args.c, args.sigma, args.cut))
    truncated = r.branch is not None
    _emit((
        ("kind", r.kind), ("c", r.c), ("sigma", r.sigma), ("cut", r.cut),
        ("branch", r.branch.value if truncated else None), ("bound", r.bound),
        ("A_c", solve_A_c(r.tilt) if truncated else None), ("a", r.a), ("b", r.b),
        ("c_sigma", r.tilt if universal else None),
    ))
    return EXIT_OK


def cmd_sweep(args) -> int:
    kind = SweepKind(args.kind)
    c_values = _parse_c_list(args.c) if args.c is not None else ()
    grid = sigma_grid(args.sigma_min, args.sigma_max, args.points, args.scale)
    table = compute_sweep(kind, grid, c_values, cut=args.cut)
    try:
        write_csv(table, args.out)
    except OSError as exc:  # a missing directory, a directory or no permission
        raise ParameterError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # its certificates and oracle suites load NumPy when they run

    results = verify.run_suite(args.suite, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_collapse_demo(args) -> int:
    from . import oracle  # loads NumPy, as in cmd_verify

    if args.steps < 1:
        raise ParameterError(f"--steps must be >= 1, got {args.steps}")
    sigma = require_positive("sigma", args.sigma)
    sigma2 = in_range("sigma^2", sigma * sigma, sigma)
    # start inside the collapse regime a < min(1, sigma^2), where the
    # positive support point sigma^2/a clears the cut; halve a while the tilt
    # 1/a^2 and sigma^2/a stay doubles (the oracle refuses a start past them)
    start = 0.5 * min(1.0, sigma2)
    a_values = [start]
    while len(a_values) < args.steps:
        a = start * 0.5 ** len(a_values)
        if not (a * a and 1.0 / (a * a) < math.inf and sigma2 / a < math.inf):
            break
        a_values.append(a)
    points = oracle.trunc_collapse_sequence(sigma, a_values)
    if len(points) < args.steps:
        raise ParameterError(
            f"--steps must be <= {len(points)} at sigma={sigma!r}, where the tilt "
            f"1/a^2 and b = sigma^2/a of a = {start!r} * 0.5^k stay doubles, got {args.steps}"
        )
    floor = lower_bound_universal(sigma).bound
    print(f"{'a':>12} {'c':>12} {'trunc_moment':>22} {'winsor_floor':>22}")
    for point in points:
        print(f"{point.a:>12.6g} {point.c:>12.6g} {point.moment:>22.15e} {floor:>22.15e}")
    return EXIT_OK


def cmd_constants(args) -> int:
    _emit(asymptotics.solve_t_star()._asdict().items())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winsor-bounds",
        description=(
            "Exact attained lower bounds on exponential moments of Winsorized "
            "and truncated random variables with E X >= 0 and E X^2 <= sigma^2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute a single bound")
    p_bound.add_argument("--kind", choices=_BOUND_KINDS, required=True)
    p_bound.add_argument("--c", type=float, default=None, help="tilt parameter")
    p_bound.add_argument("--sigma", type=float, required=True)
    p_bound.add_argument("--cut", type=float, default=1.0)
    p_bound.set_defaults(run=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="write a sigma sweep to CSV")
    p_sweep.add_argument("--kind", choices=[k.value for k in SweepKind], required=True)
    p_sweep.add_argument("--c", type=str, default=None, help="comma-separated tilt list")
    p_sweep.add_argument("--sigma-min", type=float, required=True)
    p_sweep.add_argument("--sigma-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--scale", choices=("log", "linear"), default="log")
    p_sweep.add_argument("--cut", type=float, default=1.0)
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.set_defaults(run=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    # run_suite names the valid suites when refusing one (exit 2)
    p_verify.add_argument("--suite", default="all", help="a suite name, or all")
    p_verify.add_argument("--seed", type=int, default=1, help="accepted, selects nothing")
    p_verify.set_defaults(run=cmd_verify)

    p_collapse = sub.add_parser("collapse-demo", help="truncated collapse vs the Winsorized floor")
    p_collapse.add_argument("--sigma", type=float, required=True)
    p_collapse.add_argument("--steps", type=int, default=6)
    p_collapse.set_defaults(run=cmd_collapse_demo)

    p_constants = sub.add_parser("constants", help="print the asymptotic constants")
    p_constants.set_defaults(run=cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except WinsorBoundsError as exc:  # every other error is a solver failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
