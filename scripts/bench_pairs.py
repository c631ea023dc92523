#!/usr/bin/env python3
"""Interleaved parent/child runs of screenbench, with a per-metric summary.

Runs each checkout's own ``screenbench/run.py --trace 0`` on one workload
and seed, ``--pairs`` times each, one pair at a time. The order flips
every pair (parent first in pair 0, child first in pair 1, ...), so a
drift in machine speed falls on both sides alike. Each run's result is
the JSON object on the last line of its standard output.

    python3 scripts/bench_pairs.py PARENT_DIR CHILD_DIR --workload large_generic \\
        --seed 401 --pairs 10 [--seconds 20]

For every end-to-end metric that this checkout's ``BENCHMARK.json``
declares, prints its verdict against the metric's ``bound`` (``verdict``),
the parent's and the child's median with their quartiles, the relative
change of the medians, and the number of pairs the child won (a tie
counts for neither side), in the direction the metric is better. Exits 1
if any run is not ``correct``, 0 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "child")


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair number ``pair`` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced screenbench run of ``checkout``; its result object."""
    command = [sys.executable, "screenbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def verdict(metric: dict, parent: np.ndarray, child: np.ndarray) -> str:
    """One metric's runs against its ``bound``, a fraction of the parent's
    median, in the direction the metric is better:

    * "worse beyond bound" when the child's median is worse than the
      parent's by more than the bound;
    * "unresolved" when the parent's own quartile spread is wider than the
      bound and not every child run beats every parent run;
    * "within bound" otherwise.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    allowed = metric["bound"] * abs(median)
    if sign * (np.median(child) - median) < -allowed:
        return "worse beyond bound"
    if q3 - q1 > allowed and not np.min(sign * child) > np.max(sign * parent):
        return "unresolved"
    return "within bound"


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    """A header, then one line per metric from the pairs' results: ``runs`` maps each side
    to its results in pair order, ``metrics`` is BENCHMARK.json's
    ``end_to_end`` list (name, unit, which direction is better and, when
    every metric has one, the bound that ``verdict`` reads)."""
    bounded = all("bound" in metric for metric in metrics)
    table = [["metric"] + ["verdict"] * bounded
             + ["parent median [q1, q3]", "child median [q1, q3]", "change", "child wins"]]
    for metric in metrics:
        name = metric["name"]
        values = {side: np.array([r["metrics"][name]["value"] for r in runs[side]], dtype=float)
                  for side in SIDES}
        quartiles = {side: np.percentile(values[side], [25, 50, 75]) for side in SIDES}
        parent, child = quartiles["parent"][1], quartiles["child"][1]
        change = (child - parent) / parent if parent else float("nan")
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = int(np.sum(sign * (values["child"] - values["parent"]) > 0))
        table.append([name] + ([verdict(metric, values["parent"], values["child"])] if bounded else [])
                     + [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {metric['unit']}"
                        for q in (quartiles["parent"], quartiles["child"])]
                     + [f"{change:+.1%}", f"{wins}/{values['parent'].size}"])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return ["  ".join(cell.ljust(w) if i <= bounded else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(row, widths))) for row in table]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("child", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="screenbench workload name")
    parser.add_argument("--seed", type=int, required=True, help="probe traffic seed")
    parser.add_argument("--pairs", type=int, required=True, help="number of parent/child pairs")
    parser.add_argument("--seconds", type=float, default=20.0, help="stream length of each run")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in order(pair):
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            print(f"pair {pair} {side}: correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    if not all(r["correct"] for side in SIDES for r in runs[side]):
        print("a run was not correct; no summary")
        return 1
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(summarize(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
