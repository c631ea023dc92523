#!/usr/bin/env python3
"""Sweep the number of synthesized views per class on the toy benchmark.

Shows how the joint method's pAUC20 grows as the gallery gains synthetic
pose coverage (q = 0 disables synthesis and the variational dictionary).
"""

import argparse
import sys

from spv.benchmark import BenchmarkSpec, generate_benchmark
from spv.experiment import run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default=None)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--views", default="0,1,2,4", help="comma list of view counts")
    args = parser.parse_args(argv)

    spec = BenchmarkSpec.from_json(args.spec) if args.spec else BenchmarkSpec()
    bundle = generate_benchmark(spec)
    print(f"{'views':>5s} {'pAUC20':>14s} {'AUPR':>14s}")
    for q in [int(v) for v in args.views.split(",") if v]:
        result = run_experiment(bundle, methods=("spv",), n_runs=args.runs, n_views=q)
        report = result.reports["spv"]
        print(
            f"{q:5d} {report.pauc20:7.3f}+-{report.pauc20_std:5.3f} "
            f"{report.aupr:7.3f}+-{report.aupr_std:5.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
