"""Repeated-split evaluation protocol and report emission.

A run selects a random watch-list, keeps the generic set disjoint from it
(hard assertion), clusters the generic poses, builds both dictionaries,
and classifies genuine and impostor probe sets with each requested method
through ``classifier.classify``. The reports are derived from the
per-probe records: scores are pooled across watch-list identities
(negative minimum residual by default) or macro-averaged per identity
(negative residual of that identity), optionally SCI-gated (a rejected
probe scores -inf), and the partial AUC at 20% FPR plus the area under the
precision-recall curve are aggregated as mean and standard deviation over
runs.

Everything is a pure function of the master seed: per-run seeds come from
``SeedSequence(master, spawn_key=(run_index,))``, probes are scored in
column order, and the default report JSON excludes wall-clock timing so
identical seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .benchmark import BenchmarkBundle
from .classifier import METHODS, classify
from .dictionaries import build_augmented_gallery, build_variational_dictionary
from .exemplars import (
    eta_for_cluster_count,
    extract_clustering,
    pose_dissimilarities,
    select_exemplars,
)
from .matrixio import DataError, ModelConfig, SampleMatrix, SampleMeta, read_json
from .metrics import aupr, pauc20, pr_curve, roc_curve

_ALIASES = {"nn": "nn_template"}


def normalize_method(name: str) -> str:
    canonical = _ALIASES.get(name.strip().lower(), name.strip().lower())
    if canonical not in METHODS:
        raise DataError(f"unknown method {name!r}; choose from {', '.join(METHODS)}")
    return canonical


@dataclass(frozen=True)
class ProbeRecord:
    """Per-probe outcome of one run, for every method evaluated."""

    run: int
    probe_column: int
    true_id: int
    genuine: bool
    pose: tuple[float, float, float]
    pose_gap: float
    decisions: dict


@dataclass(frozen=True)
class EvalReport:
    """Aggregated metrics of one method over the repeated runs.

    ``roc`` and ``pr`` are the first run's pooled curves, under either
    pooling. ``non_converged`` counts the method's probe solves that
    stopped short of the solver tolerance, over all runs.
    """

    method: str
    per_run_pauc20: tuple[float, ...]
    per_run_aupr: tuple[float, ...]
    roc: tuple[tuple[float, float], ...]
    pr: tuple[tuple[float, float], ...]
    runtime_per_probe: float
    non_converged: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.per_run_pauc20)

    @property
    def pauc20(self) -> float:
        return float(np.mean(self.per_run_pauc20))

    @property
    def aupr(self) -> float:
        return float(np.mean(self.per_run_aupr))

    @property
    def pauc20_std(self) -> float:
        return float(np.std(self.per_run_pauc20))

    @property
    def aupr_std(self) -> float:
        return float(np.std(self.per_run_aupr))

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "method": self.method,
            "n_runs": self.n_runs,
            "pauc20": self.pauc20,
            "pauc20_std": self.pauc20_std,
            "aupr": self.aupr,
            "aupr_std": self.aupr_std,
            "per_run_pauc20": list(self.per_run_pauc20),
            "per_run_aupr": list(self.per_run_aupr),
            "roc": [[f, t] for f, t in self.roc],
            "pr": [[r, p] for r, p in self.pr],
            "non_converged": self.non_converged,
        }
        if include_timing:
            out["runtime_per_probe"] = self.runtime_per_probe
        return out


@dataclass(frozen=True)
class ExperimentResult:
    reports: dict
    details: tuple[ProbeRecord, ...]

    @property
    def non_converged(self) -> int:
        """Probe solves of every method that did not converge."""
        return sum(report.non_converged for report in self.reports.values())


def _report(method, runs, score_mode, pooling, runtime_per_probe) -> EvalReport:
    """One method's report, derived from its per-probe records.

    ``runs`` holds each run's watch-list and records. A probe scores the
    negative of a residual, or -inf when ``score_mode`` is "sci_gated" and
    the probe was rejected. Pooling picks the residual: the minimum residual
    for the pooled curve, identity k's own residual for k's one-vs-rest
    curve under "macro". ``roc`` and ``pr`` are the first run's pooled
    curves under either pooling.
    """

    def score(decision, k=None):
        if score_mode == "sci_gated" and not decision.accepted:
            return float("-inf")
        return -(decision.min_residual if k is None else decision.residual_of(k))

    paucs, auprs, curves, non_converged = [], [], [], 0
    for watch, records in runs:
        decisions = [r.decisions[method] for r in records]
        non_converged += sum(d.code is not None and not d.code.converged for d in decisions)
        genuine = np.array([r.genuine for r in records], dtype=bool)
        scores = np.array([score(d) for d in decisions])
        roc, pr = roc_curve(scores, genuine), pr_curve(scores, genuine)
        curves.append((roc, pr))
        if pooling == "macro":
            k_paucs, k_auprs = [], []
            for k in (int(k) for k in watch):
                k_scores = np.array([score(d, k) for d in decisions])
                k_labels = np.array([r.true_id == k for r in records])
                k_paucs.append(pauc20(roc_curve(k_scores, k_labels)))
                k_auprs.append(aupr(pr_curve(k_scores, k_labels)))
            paucs.append(float(np.mean(k_paucs)))
            auprs.append(float(np.mean(k_auprs)))
        else:
            paucs.append(pauc20(roc))
            auprs.append(aupr(pr))
    roc, pr = curves[0]
    return EvalReport(
        method=method,
        per_run_pauc20=tuple(paucs),
        per_run_aupr=tuple(auprs),
        roc=tuple((float(f), float(t)) for f, t in roc),
        pr=tuple((float(r), float(p)) for r, p in pr),
        runtime_per_probe=runtime_per_probe,
        non_converged=non_converged,
    )


def run_experiment(
    bundle: BenchmarkBundle,
    methods=METHODS,
    config: ModelConfig | None = None,
    n_runs: int = 5,
    n_views: int | None = None,
    score_mode: str = "residual",
    pooling: str = "pooled",
) -> ExperimentResult:
    """Evaluate the requested methods over repeated random watch-list splits.

    ``n_views`` forces the pipeline's cluster count (default: the
    generator's pose mode count); 0 disables synthesis and the variational
    dictionary entirely. ``score_mode`` is "residual" or "sci_gated";
    ``pooling`` is "pooled" or "macro" (per-identity one-vs-rest average).
    Template matching has no code and so no SCI: every probe would score
    -inf under "sci_gated", so that pairing is refused.
    """
    config = config or ModelConfig()
    methods = tuple(dict.fromkeys(normalize_method(m) for m in methods))
    if n_runs < 1:
        raise DataError("n_runs must be >= 1")
    if score_mode not in ("residual", "sci_gated"):
        raise DataError(f"unknown score mode {score_mode!r}")
    if score_mode == "sci_gated" and "nn_template" in methods:
        raise DataError(
            "nn_template has no code to gate on SCI, so every probe would score -inf; "
            "leave nn out of --methods with --sci-gated"
        )
    if pooling not in ("pooled", "macro"):
        raise DataError(f"unknown pooling {pooling!r}")
    spec = bundle.spec
    target_views = spec.q_true if n_views is None else int(n_views)
    if target_views < 0:
        raise DataError("n_views must be >= 0")

    # The generic set is fixed across runs, so the exemplar selection and
    # the variational dictionary are run-invariant; build them once. Plain
    # template matching and stills-only coding skip the build entirely.
    needs_clustering = target_views >= 1 and any(
        m in ("esrc", "spv") for m in methods
    )
    if needs_clustering:
        d = pose_dissimilarities(bundle.generic_meta)
        eta = eta_for_cluster_count(d, target_views, config.row_norm_q)
        z = select_exemplars(d, eta, config.row_norm_q)
        clustering = extract_clustering(z, d, bundle.generic_meta)
        try:
            variational = build_variational_dictionary(
                bundle.generic, bundle.generic_meta, clustering
            )
        except DataError:
            # Degenerate generic set without usable variation; proceed with
            # an empty auxiliary dictionary.
            warnings.warn(
                "generic set produced no variation atoms; using an empty "
                "variational dictionary",
                RuntimeWarning,
            )
            variational = None
    else:
        clustering = None
        variational = None

    seconds = dict.fromkeys(methods, 0.0)
    runs = []
    for run in range(n_runs):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed + config.seed, spawn_key=(run,)))
        ids = np.arange(spec.n_classes)
        watch = np.sort(rng.choice(ids, size=spec.n_watchlist, replace=False))
        rest = np.setdiff1d(ids, watch)
        n_imp = spec.n_impostor_ids
        impostors = (
            np.sort(rng.choice(rest, size=n_imp, replace=False))
            if n_imp
            else np.zeros(0, dtype=np.int64)
        )
        overlap = set(int(v) for v in bundle.generic_meta.labels) & set(int(v) for v in watch)
        if overlap:
            raise DataError(
                f"generic set shares identities with the watch-list: {sorted(overlap)}"
            )

        stills = SampleMatrix(bundle.stills.data[:, watch])
        stills_meta = SampleMeta(labels=watch, poses=bundle.stills_meta.poses[watch])
        gallery = build_augmented_gallery(
            stills, stills_meta, clustering, bundle.synthesizer
        )

        probe_ids = np.concatenate([watch, impostors])
        labels = bundle.probes_meta.labels
        columns = np.flatnonzero(np.isin(labels, probe_ids))
        if columns.size == 0:
            raise DataError("bundle provides no probes for the selected identities")
        watch_set = set(int(v) for v in watch)
        records = []
        for col in columns:
            y_raw = bundle.probes.column(col)
            norm = np.linalg.norm(y_raw)
            y = y_raw / norm if norm > 0 else y_raw
            pose = bundle.probes_meta.poses[col]
            decisions = {}
            for m in methods:
                start = time.perf_counter()
                decisions[m] = classify(m, gallery, variational, y, config)
                seconds[m] += time.perf_counter() - start
            true_id = int(labels[col])
            records.append(ProbeRecord(
                run=run,
                probe_column=int(col),
                true_id=true_id,
                genuine=true_id in watch_set,
                pose=tuple(float(a) for a in pose),
                pose_gap=float(np.min(np.linalg.norm(gallery.atom_poses - pose, axis=1))),
                decisions=decisions,
            ))
        runs.append((watch, records))

    details = tuple(r for _, records in runs for r in records)
    reports = {
        m: _report(m, runs, score_mode, pooling, seconds[m] / len(details))
        for m in methods
    }
    return ExperimentResult(reports, details)


def rank1_accuracy(details, method: str) -> float:
    """Fraction of genuine probes whose predicted class is the true identity."""
    rows = [r for r in details if r.genuine]
    if not rows:
        raise DataError("no genuine probes to score")
    hits = sum(1 for r in rows if r.decisions[method].predicted == r.true_id)
    return hits / len(rows)


def pose_robustness_summary(details, methods, n_bins: int = 3) -> dict:
    """Rank-1 accuracy of genuine probes binned by pose gap to the gallery.

    Bins are equal-count over the pooled pose gaps (nearest first). Returns
    {method: [accuracy per bin]}.
    """
    genuine = [r for r in details if r.genuine]
    if len(genuine) < n_bins:
        raise DataError("not enough genuine probes to bin")
    gaps = np.array([r.pose_gap for r in genuine])
    order = np.argsort(gaps, kind="stable")
    bins = np.array_split(order, n_bins)
    out = {}
    for m in methods:
        accs = []
        for idx in bins:
            rows = [genuine[i] for i in idx]
            hits = sum(1 for r in rows if r.decisions[m].predicted == r.true_id)
            accs.append(hits / len(rows))
        out[m] = accs
    return out


def _validate_reports(reports: dict) -> None:
    if not reports:
        raise DataError("no reports to emit")
    for report in reports.values():
        if not report.per_run_pauc20:
            raise DataError(f"report for {report.method!r} has an empty per-run list")
        for value in (*report.per_run_pauc20, *report.per_run_aupr):
            if not 0.0 <= value <= 1.0:
                raise DataError("metric values must lie in [0, 1]")
        fprs = [f for f, _ in report.roc]
        if any(b < a - 1e-12 for a, b in zip(fprs, fprs[1:])):
            raise DataError("ROC points must be monotone in fpr")


def emit_report(reports, path, format: str = "json", include_timing: bool = False) -> None:
    """Write a method-keyed mapping of reports as JSON or plot-ready CSV.

    Timing is wall-clock metadata and varies between identical runs, so it
    is excluded unless ``include_timing`` is set; default output is a
    byte-deterministic function of the experiment seed.
    """
    _validate_reports(reports)
    if format not in ("json", "csv"):
        raise DataError(f"unknown report format {format!r}")
    path = Path(path)
    if format == "json":
        payload = {
            "n_runs": next(iter(reports.values())).n_runs,
            "methods": {
                m: reports[m].to_dict(include_timing) for m in sorted(reports)
            },
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return
    lines = ["method,series,x,y"]
    for m in sorted(reports):
        report = reports[m]
        for f, t in report.roc:
            lines.append(f"{m},roc,{f!r},{t!r}")
        for r, p in report.pr:
            lines.append(f"{m},pr,{r!r},{p!r}")
        lines.append(f"{m},pauc20_mean,{report.pauc20!r},")
        lines.append(f"{m},pauc20_std,{report.pauc20_std!r},")
        lines.append(f"{m},aupr_mean,{report.aupr!r},")
        lines.append(f"{m},aupr_std,{report.aupr_std!r},")
        if include_timing:
            lines.append(f"{m},runtime_per_probe,{report.runtime_per_probe!r},")
    path.write_text("\n".join(lines) + "\n")


def load_report(path) -> dict:
    return read_json(path, "report")
