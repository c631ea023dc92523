#!/usr/bin/env python3
"""Trace the exemplar count along the row-sparsity regularization path.

Generates a random pose cloud, sweeps eta from near zero up to the
verified single-medoid value, and prints the selected exemplar count at
each grid point. The count tends to rise as eta falls, but not
monotonically: on the benchmark's ``large_watchlist`` site the eta
search's grid, swept downward from eta_max, reads 4, 4, 10, 5, 6, 30, ....
"""

import argparse
import sys

import numpy as np

from spv.exemplars import (
    eta_max,
    extract_clustering,
    pose_dissimilarities,
    select_exemplars,
)
from spv.matrixio import SampleMeta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=24)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--q-norm", choices=["2", "inf"], default="2")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    meta = SampleMeta(
        labels=np.zeros(args.samples, dtype=int),
        poses=rng.uniform(-60, 60, size=(args.samples, 3)),
    )
    d = pose_dissimilarities(meta)
    q_norm = 2 if args.q_norm == "2" else float("inf")
    top = eta_max(d, q_norm)
    print(f"N = {args.samples}, eta_max = {top:.4g}")
    print(f"{'eta':>12s} {'exemplars':>10s}")
    for eta in np.geomspace(1e-9, top, args.points):
        z = select_exemplars(d, float(eta), q_norm)
        clustering = extract_clustering(z, d, meta)
        print(f"{eta:12.4g} {clustering.q:10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
