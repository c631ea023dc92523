#!/usr/bin/env python3
"""Run the seed-fixed toy benchmark and print the method comparison.

Reproduces the headline qualitative result: joint pose-paired coding beats
the plain auxiliary-dictionary method, which beats stills-only coding, on
partial AUC at 20% FPR. Writes the full report JSON next to the summary.
"""

import argparse
import sys

from spv.benchmark import BenchmarkSpec, generate_benchmark
from spv.experiment import emit_report, pose_robustness_summary, rank1_accuracy, run_experiment
from spv.matrixio import ModelConfig


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default=None, help="benchmark spec JSON (defaults if omitted)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--methods", default="src,esrc,spv,nn")
    parser.add_argument("--out", default="toy_benchmark_report.json")
    args = parser.parse_args(argv)

    spec = BenchmarkSpec.from_json(args.spec) if args.spec else BenchmarkSpec()
    bundle = generate_benchmark(spec)
    result = run_experiment(
        bundle,
        methods=[m for m in args.methods.split(",") if m],
        config=ModelConfig(),
        n_runs=args.runs,
    )

    print(f"{'method':12s} {'pAUC20':>14s} {'AUPR':>14s} {'rank-1':>8s} {'ms/probe':>9s}")
    for name in sorted(result.reports):
        report = result.reports[name]
        acc = rank1_accuracy(result.details, name)
        print(
            f"{name:12s} {report.pauc20:7.3f}+-{report.pauc20_std:5.3f} "
            f"{report.aupr:7.3f}+-{report.aupr_std:5.3f} {acc:8.3f} "
            f"{1000 * report.runtime_per_probe:9.1f}"
        )
    methods = set(result.reports)
    if {"src", "spv"} <= methods:
        bins = pose_robustness_summary(result.details, sorted({"src", "spv"} & methods))
        for name, accs in bins.items():
            drop = accs[0] - accs[-1]
            print(f"pose bins {name:5s}: " + " ".join(f"{a:.3f}" for a in accs) + f"  (drop {drop:+.3f})")
    emit_report(result.reports, args.out)
    print(f"report -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
