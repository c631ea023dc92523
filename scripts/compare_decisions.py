#!/usr/bin/env python3
"""Check that two checkouts of spv enroll and decide bit for bit alike.

For each screenbench workload, every checkout's own ``src/`` enrolls the
fixed site (the same enrollment sequence as ``screenbench/run.py``) and
classifies the seeded probe pool with ``classify`` at the default
configuration, four times (``ENTRIES``): with ``"spv"`` over the
gallery paired with the variational dictionary (the entry named after
the workload), with ``"spv"`` over the gallery alone
(``variational=None``, the entry "<workload> (no variational)", whose
variational matrix is empty), with ``"esrc"`` over the gallery's stills
and the variational dictionary (the entry "<workload> (esrc)"), and with
``"src"`` over the stills alone (the entry "<workload> (src)", whose
variational matrix is empty). The benchmark runs neither baseline's
solve. The inputs come from this
checkout's ``screenbench/``, so both programs see the same arrays.
Compared bit for bit:

* enrollment: eta, the exemplar indices, the gallery matrix and the
  variational matrix;
* per probe: predicted class, class residuals, SCI, ``accepted``,
  ``converged``, iterations, evaluations, objective, optimality, alpha,
  beta and the active sets (each by its gallery atom, which fixes its
  class, pose slot and block).

Iterations and evaluations are work, not a decision: a change that
reaches the same decisions in fewer solver steps or fewer scored
candidate supports reads "decisions identical", and each count appears
as the parent -> child mean per probe. So do the Newton finish's share of
the iterations (``finish_solves``) and its tries that ran out of solves
(``finish_capped``), which are reported, not compared, with "-" for a
checkout whose codes lack them.

    python3 scripts/compare_decisions.py PARENT_DIR CHILD_DIR --seed 401

Each checkout runs in its own process, both at once. Prints per entry
one line on the enrollment and the probes, one on whether the decision
fields (predicted, accepted, converged, active sets) all match, one with
the largest relative gap of each value field (residuals, SCI, objective,
optimality, alpha, beta; optimality's relative to at least this
checkout's default ``tol``), one with the largest rise of the child's
objective over the parent's, one each with the mean iterations, finish
solves, capped finish tries and evaluations per probe, one with each
checkout's paired-dictionary counters after the pool (``built``,
``projections``, ``spectra`` and ``nbytes`` in MiB, "-" for a counter
that checkout lacks and for every counter of an ESRC or SRC entry,
which codes over no pair), then one per
differing field with its largest absolute difference. The counters are
reported, not compared. Exits 0 when everything is identical, work
counts included, and 1 on any difference, rounding included.
"""

import os

# One BLAS thread, as in screenbench/run.py; set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import math
import multiprocessing
import sys
import warnings
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "screenbench"
WORKLOADS = ("small_watchlist", "large_watchlist", "large_generic")
ENROLLMENT = ("eta", "exemplars", "gallery", "variational")
DECISION = ("predicted", "accepted", "converged", "active_sets")
VALUE = ("residuals", "sci", "objective", "optimality", "alpha", "beta")
WORK = ("iterations", "evaluations")
# Work counts reported beside the iterations but not compared.
FINISH = ("finish_solves", "finish_capped")
PROBE = DECISION + VALUE + WORK
COUNTERS = ("built", "projections", "spectra", "nbytes")
# Per workload: the entry's suffix, the classify method, and whether it
# codes with the variational dictionary.
ENTRIES = (("", "spv", True), (" (no variational)", "spv", False), (" (esrc)", "esrc", True),
           (" (src)", "src", False))


def load_spv(checkout: Path):
    src = checkout.resolve() / "src"
    sys.path.insert(0, str(src))
    spv = importlib.import_module("spv")
    if Path(spv.__file__).resolve().parent != src / "spv":
        raise SystemExit(f"imported spv from {spv.__file__}, not from {src}")
    return spv


def outputs(checkout: Path, seed: int) -> dict:
    """Enroll and classify every workload with one checkout's program."""
    spv = load_spv(checkout)
    sys.path.insert(1, str(BENCH))
    import inputs
    import run

    warnings.simplefilter("ignore")
    config = spv.ModelConfig()
    result = {}
    for name in WORKLOADS:
        data = inputs.generate(inputs.WORKLOADS[name], seed, spv.ToySynthesizer)
        enrolled = run.enroll(spv, data, config)
        gallery = enrolled["gallery"]
        for suffix, method, coded in ENTRIES:
            variational = enrolled["variational"] if coded else None
            entry = result[name + suffix] = {
                "eta": enrolled["eta"],
                "exemplars": np.array(enrolled["clustering"].exemplar_indices),
                "gallery": gallery.matrix,
                "variational": (np.zeros((gallery.matrix.shape[0], 0)) if variational is None
                                else variational.matrix),
                "probes": [decide(spv, method, gallery, variational, data.probes[:, j], config)
                           for j in range(data.probes.shape[1])],
            }
            if method == "spv":
                entry["counters"] = counters(gallery, variational)
    return result


def counters(gallery, variational) -> dict:
    """The counters of the paired dictionary the gallery keeps for
    ``variational``, None for each one this checkout's program lacks."""
    paired = getattr(gallery, "paired", None)
    pair = paired(variational) if paired is not None else None
    return {name: getattr(pair, name, None) for name in COUNTERS}


def describe(counts: dict) -> str:
    """One checkout's counters as ``compare`` prints them."""
    cells = []
    for name in COUNTERS:
        value = counts.get(name)
        if value is not None and name == "nbytes":
            value = f"{value / 2**20:.2f} MiB"
        cells.append(f"{name} {'-' if value is None else value}")
    return ", ".join(cells)


def decide(spv, method, gallery, variational, y, config) -> dict:
    """One probe's decision fields under ``method``, as ``compare`` reads them."""
    decision = spv.classifier.classify(method, gallery, variational, np.ascontiguousarray(y), config)
    code = decision.code
    return {
        "predicted": decision.predicted, "residuals": decision.residuals,
        "sci": decision.sci, "accepted": decision.accepted,
        "converged": code.converged, "iterations": code.iterations,
        "evaluations": code.evaluations, "objective": code.objective,
        "optimality": code.optimality, "alpha": code.alpha, "beta": code.beta,
        "active_sets": np.array([s.gallery_indices for s in code.active_sets], dtype=np.int64),
        **{f: getattr(code, f, None) for f in FINISH},
    }


def mean_count(probes, field) -> str:
    """The mean of a reported count per probe, "-" where a probe lacks it."""
    values = [q.get(field) for q in probes]
    return "-" if None in values else f"{np.mean(values):.2f}"


def identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gap(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b), initial=0.0)) if a.shape == b.shape else math.inf


def relative_gap(a, b, floor=0.0) -> float:
    """Largest absolute difference over the larger of the two largest
    magnitudes and ``floor``."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), floor)
    return gap(a, b) / scale if scale else 0.0


def compare(parent: dict, child: dict) -> int:
    """Print the differences of two dumps; returns the number of differing fields."""
    # Optimality is a stop-test residual: its gap is relative to the larger
    # of its magnitude and the default tol it is tested against, so that
    # rounding near zero does not read as a large gap.
    floor = dict.fromkeys(VALUE, 0.0)
    floor["optimality"] = load_spv(BENCH.parent).ModelConfig().tol
    differing = 0
    for name in parent:
        p, c = parent[name], child[name]
        fields = [f for f in ENROLLMENT if not identical(p[f], c[f])]
        n = len(p["probes"])
        if len(c["probes"]) != n:
            print(f"{name}: probe pools differ in size ({n} and {len(c['probes'])})")
            differing += 1
            continue
        bad = {f: [j for j in range(n) if not identical(p["probes"][j][f], c["probes"][j][f])]
               for f in PROBE}
        same = sum(all(j not in probes for probes in bad.values()) for j in range(n))
        enrollment = "identical" if not fields else "differs in " + ", ".join(fields)
        print(f"{name}: enrollment {enrollment}; {same} of {n} probes identical")
        decided = [f for f in DECISION if bad[f]]
        print("  decisions " + ("identical on every probe" if not decided
                                else "differ in " + ", ".join(decided)))
        worst = {f: max((relative_gap(p["probes"][j][f], c["probes"][j][f], floor[f])
                         for j in bad[f]), default=0.0) for f in VALUE}
        print("  largest relative gap: " + ", ".join(f"{f} {worst[f]:.2g}" for f in VALUE))
        rise = max(c["probes"][j]["objective"] - p["probes"][j]["objective"] for j in range(n))
        print(f"  child objective minus parent's: at most {rise:.3g}")
        for f in ("iterations", *FINISH, "evaluations"):
            means = [mean_count(probes, f) for probes in (p["probes"], c["probes"])]
            print(f"  {f} per probe: mean {means[0]} -> {means[1]}")
        print(f"  pair tables: parent {describe(p.get('counters', {}))}; "
              f"child {describe(c.get('counters', {}))}")
        for f in fields:
            print(f"  enrollment {f}: max |diff| {gap(p[f], c[f]):.3g}")
        for f, probes in bad.items():
            if probes:
                worst = max(gap(p["probes"][j][f], c["probes"][j][f]) for j in probes)
                print(f"  {f}: {len(probes)} probes, max |diff| {worst:.3g}")
        differing += len(fields) + sum(1 for probes in bad.values() if probes)
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("child", type=Path, help="checkout to compare against it")
    parser.add_argument("--seed", type=int, default=401, help="probe traffic seed")
    args = parser.parse_args(argv)

    # A fresh interpreter per checkout, so each imports its own spv.
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
        parent, child = pool.starmap(
            outputs, [(checkout, args.seed) for checkout in (args.parent, args.child)],
            chunksize=1,
        )
    differing = compare(parent, child)
    print("identical" if not differing else f"{differing} differing fields")
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
