#!/usr/bin/env python3
"""Print how slowly the exact bounds approach their large-sigma laws.

For each bound the table shows exact/asymptote across decades of sigma; the
approach is logarithmic, so even sigma = 1e10 sits noticeably below 1.
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from winsor_bounds import asymptotics, trunc, winsor
from winsor_bounds.asymptotics import Regime
from winsor_bounds.winsor import BoundQuery


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", type=float, default=2.0)
    parser.add_argument(
        "--sigmas", type=str, default="1e2,1e4,1e6,1e8,1e10",
        help="comma-separated sigma decades",
    )
    args = parser.parse_args()
    sigmas = [float(s) for s in args.sigmas.split(",")]
    c = args.c

    print(f"{'sigma':>10} {'universal':>12} {'fixed c=' + repr(c):>14} {'trunc':>12}")
    for sigma in sigmas:
        log_term = math.log(sigma) ** 2 / (sigma * sigma)
        universal = winsor.lower_bound_universal(sigma).bound / (
            asymptotics.universal_asymptote(sigma, Regime.LARGE_SIGMA)
        )
        fixed = winsor.lower_bound_fixed_c(BoundQuery(c, sigma)).bound / (
            asymptotics.winsor_large_sigma_coeff(c) * log_term
        )
        truncated = trunc.lower_bound_trunc(BoundQuery(c, sigma)).bound / (
            asymptotics.trunc_asymptote(c, sigma, Regime.LARGE_SIGMA)
        )
        print(f"{sigma:>10.3g} {universal:>12.6f} {fixed:>14.6f} {truncated:>12.6f}")

    ratio = asymptotics.universal_asymptote(1e10, Regime.LARGE_SIGMA) / (
        winsor.lower_bound_universal(1e10).bound
    )
    print(f"\nasymptote/exact for the universal bound at sigma=1e10: {ratio:.6f}")


if __name__ == "__main__":
    main()
