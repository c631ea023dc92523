"""Screening-session benchmark of the spv watch-list pipeline.

One run replays one session through the program's public API: enrollment
(pose-exemplar selection over a generic set, then the variational
dictionary and the pose-augmented gallery), then a closed-loop stream of
probes from one client, each classified by ``spv_classify``. The stream
runs whole passes over a seeded probe pool until ``--seconds`` have passed
and at least MIN_PROBES decisions are in. Every output is checked (see
checks.py), and the last line of standard output is the JSON result.

    python3 screenbench/run.py --workload small_watchlist --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layer boundaries (tracing.py) and reports the per-layer metrics instead.
"""

import os

# BLAS is held to one thread: one client, one core. Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_PROBES = 100


def process_age() -> float:
    """Seconds since this process started, from /proc on the boot-time clock."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def load_program():
    """Import spv from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "spv" / "__init__.py").is_file():
        raise SystemExit(f"screenbench: no program source at {src / 'spv'}")
    sys.path.insert(0, str(src))
    spv = importlib.import_module("spv")
    if Path(spv.__file__).resolve().parent != (src / "spv").resolve():
        raise SystemExit(f"screenbench: imported spv from {spv.__file__}, not from {src}")
    return spv


def enroll(spv, data, config):
    """Exemplar selection, then both dictionaries, the way the program's
    experiment harness enrolls a watch-list."""
    meta = spv.SampleMeta(data.generic_labels, data.generic_poses)
    d = spv.exemplars.pose_dissimilarities(meta)
    eta = spv.exemplars.eta_for_cluster_count(d, inputs.Q, config.row_norm_q)
    z = spv.exemplars.select_exemplars(d, eta, config.row_norm_q)
    clustering = spv.exemplars.extract_clustering(z, d, meta)
    variational = spv.dictionaries.build_variational_dictionary(
        spv.SampleMatrix(data.generic), meta, clustering
    )
    stills_meta = spv.SampleMeta(data.still_labels, np.zeros((data.still_labels.size, 3)))
    gallery = spv.dictionaries.build_augmented_gallery(
        spv.SampleMatrix(data.stills), stills_meta, clustering, data.synthesizer
    )
    return {"eta": eta, "z": z, "clustering": clustering,
            "variational": variational, "gallery": gallery}


def check_enrollment(enrolled, data) -> None:
    clustering, v = enrolled["clustering"], enrolled["variational"]
    checks.check_assignment_objective(enrolled["z"].z, data.generic_poses, enrolled["eta"])
    checks.check_nearest_assignment(clustering.exemplar_indices, clustering.assignment, data.generic_poses)
    checks.check_variational_atoms(
        v.matrix, v.blocks, v.source_labels, v.atom_poses, clustering.exemplar_indices,
        clustering.assignment, data.generic, data.generic_labels, data.generic_poses,
    )


def run_stream(spv, enrolled, pool, config, seconds, tracer):
    """Closed loop, one client: the next probe goes out when the previous
    decision is back (and the reference kernel has timed the machine).
    Whole passes over the pool only."""
    gallery, variational = enrolled["gallery"], enrolled["variational"]
    kernel = reference.Reference()
    latencies, references, decisions = [], [], []
    cpu = time.process_time()
    start = time.perf_counter()
    while True:
        for y in pool:
            if tracer is not None:
                tracer.probe = len(decisions)
            sent = time.perf_counter()
            try:
                decision = spv.classifier.spv_classify(gallery, variational, y, config)
            except Exception as exc:  # a failed operation is counted, not fatal
                decision = exc
            latencies.append(time.perf_counter() - sent)
            decisions.append(decision)
            sent = time.perf_counter()
            kernel.run()
            references.append(time.perf_counter() - sent)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(decisions) >= MIN_PROBES:
            return latencies, references, decisions, elapsed, time.process_time() - cpu


def check_decision(decision, y, enrolled, pairing, config):
    """Per-probe checks; returns the number of blocks used without a
    nonzero paired gallery atom."""
    if isinstance(decision, Exception):
        raise decision
    gallery, variational = enrolled["gallery"], enrolled["variational"]
    code = decision.code
    blocks = checks.check_active_sets(code, gallery, variational, pairing, config.xi)
    checks.check_group_count(code.alpha, gallery, config.xi)
    recomputed = checks.class_residuals(y, code.alpha, code.beta, gallery, variational, blocks)
    checks.check_residuals(decision, recomputed)
    checks.check_sci(decision, code.alpha, gallery.classes)
    checks.check_objective(code, y, gallery, variational, config)
    if code.converged:
        checks.check_optimality(code, y, gallery, variational, config)
    return len(checks.unpaired_blocks(code.alpha, code.beta, gallery, variational, pairing))


def summarize(metrics, scores, labels):
    roc = metrics.roc_curve(scores, labels)
    pr = metrics.pr_curve(scores, labels)
    pauc, ap = metrics.pauc20(roc), metrics.aupr(pr)
    checks.check_session_scores(scores, labels, pauc, ap, roc)
    return pauc, ap


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spv = load_program()
    workload = inputs.WORKLOADS[args.workload]
    data = inputs.generate(workload, args.seed, spv.ToySynthesizer)
    pool = [np.ascontiguousarray(data.probes[:, j]) for j in range(data.probes.shape[1])]
    config = spv.ModelConfig()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(spv, data.synthesizer)
    warnings.simplefilter("ignore")  # solver non-convergence is counted, not printed

    failed = 0
    try:
        enrolled = enroll(spv, data, config)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setup_s, setup_cpu_s = process_age(), time.process_time()
    try:
        check_enrollment(enrolled, data)
    except Exception as exc:
        print(f"screenbench: enrollment check failed: {exc!r}", file=sys.stderr)
        failed += 1

    latencies, references, decisions, elapsed, stream_cpu_s = run_stream(
        spv, enrolled, pool, config, args.seconds, tracer
    )

    pairing = checks.block_of_slot(enrolled["clustering"].exemplar_poses)
    scores, labels, unpaired = [], [], 0
    for i, decision in enumerate(decisions):
        j = i % len(pool)
        try:
            unpaired += check_decision(decision, pool[j], enrolled, pairing, config) > 0
        except Exception as exc:
            if failed < 5:
                print(f"screenbench: probe {i} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        scores.append(-decision.min_residual)
        labels.append(bool(data.genuine[j]))
    correct = failed == 0
    try:
        pauc, ap = summarize(spv.metrics, scores, labels)
    except Exception as exc:
        print(f"screenbench: session scores failed: {exc!r}", file=sys.stderr)
        correct, pauc, ap = False, 0.0, 0.0
    if tracer is not None:
        tracer.uninstall()

    n = len(decisions)
    scaled_ms = reference.scaled(latencies, references) * 1e3
    raw_ms = np.array(latencies) * 1e3
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "probes_per_s": {"value": n / scaled_ms.sum() * 1e3, "unit": "1/s"},
            "probe_p50_ms": {"value": float(np.percentile(scaled_ms, 50)), "unit": "ms"},
            "probe_p90_ms": {"value": float(np.percentile(scaled_ms, 90)), "unit": "ms"},
            "pauc20": {"value": pauc, "unit": "1"},
            "aupr": {"value": ap, "unit": "1"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    else:
        metrics = tracing.per_layer_metrics(tracer, n)
        metrics["classifier.unpaired_probes"] = {"value": unpaired / n, "unit": "1"}

    result = {"correct": correct, "attempted": 1 + n, "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    details = {**result, "workload": args.workload, "seed": args.seed, "pool": len(pool),
               "passes": n // len(pool), "stream_s": elapsed, "stream_cpu_s": stream_cpu_s,
               "setup_cpu_s": setup_cpu_s, "reference_ms": float(np.median(references)) * 1e3,
               "raw_probes_per_s": n / raw_ms.sum() * 1e3,
               "raw_probe_p50_ms": float(np.percentile(raw_ms, 50)),
               "raw_probe_p90_ms": float(np.percentile(raw_ms, 90))}
    kind = "result" if tracer is None else "traced"
    (OUT / f"{kind}-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.json.gz", {k: details[k] for k in ("workload", "seed", "pool", "passes")})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
