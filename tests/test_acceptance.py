"""Acceptance gate: every criterion prints one PASS/FAIL line.

The solver criteria compare against brute-force enumeration oracles; the
benchmark criteria reproduce the qualitative method ordering and the
pose-robustness and synthetic-view-count trends on the seed-fixed toy
benchmark. Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import numpy as np
import pytest

from spv.benchmark import BenchmarkSpec, generate_benchmark
from spv.classifier import sci
from spv.exemplars import (
    eta_max,
    extract_clustering,
    medoid_index,
    pose_dissimilarities,
    select_exemplars,
)
from spv.experiment import (
    emit_report,
    pose_robustness_summary,
    run_experiment,
)
from spv.matrixio import ModelConfig, SampleMeta
from spv.metrics import aupr, pauc20, pr_curve, roc_curve
from spv.solvers import (
    PairedDictionary,
    admissible_active_sets,
    extended_solve,
    lasso_solve,
    paired_solve,
)

from oracles import (
    aupr_reference,
    extended_objective,
    extended_support_oracle,
    lasso_objective,
    lasso_support_oracle,
    pauc_dense_oracle,
    roc_brute_force,
)


def _report(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name} {detail}".rstrip())
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def toy_results():
    """Shared seed-fixed benchmark runs for the three trend criteria."""
    bundle = generate_benchmark(BenchmarkSpec())
    start = time.perf_counter()
    default = run_experiment(bundle, n_runs=5)
    default_elapsed = time.perf_counter() - start
    sweep = {
        q: run_experiment(bundle, methods=("spv",), n_runs=5, n_views=q).reports["spv"].pauc20
        for q in (0, 1, 2)
    }
    sweep[4] = default.reports["spv"].pauc20
    return default, sweep, default_elapsed


def test_solver_oracle_agreement():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    worst = 0.0

    for _ in range(100):
        d = int(rng.integers(4, 9))
        n = int(rng.integers(4, 11))
        a = rng.normal(size=(d, n))
        a /= np.linalg.norm(a, axis=0)
        y = a @ (rng.normal(size=n) * (rng.uniform(size=n) < 0.3)) + 0.05 * rng.normal(size=d)
        lam = float(rng.uniform(0.01, 0.2))
        x = lasso_solve(a, y, lam, tol=1e-7, max_iter=2000)
        gap = lasso_objective(a, y, x, lam) - lasso_support_oracle(a, y, lam)
        worst = max(worst, gap)

    for _ in range(70):
        d = int(rng.integers(4, 9))
        na, nv = int(rng.integers(3, 7)), int(rng.integers(2, 7))
        dp = rng.normal(size=(d, na))
        dp /= np.linalg.norm(dp, axis=0)
        v = rng.normal(size=(d, nv))
        v /= np.linalg.norm(v, axis=0)
        y = 0.6 * dp[:, 0] + 0.4 * v[:, -1] + 0.05 * rng.normal(size=d)
        lam, mu = float(rng.uniform(0.01, 0.15)), float(rng.uniform(0.01, 0.15))
        tau = float(rng.uniform(0.2, 1.0))
        code = extended_solve(dp, v, y, lam, mu, tau, tol=1e-7, max_iter=3000)
        ours = extended_objective(dp, v, y, code.alpha, code.beta, lam, mu, tau)
        gap = ours - extended_support_oracle(dp, v, y, lam, mu, tau)
        worst = max(worst, gap)

    config = ModelConfig(lam=0.03, mu=0.03, tau=0.5, xi=2, tol=1e-7, max_iter=2000)
    for trial in range(30):
        d = int(rng.integers(6, 9))
        n_classes, q = 3, (2 if trial % 3 == 0 else 1)
        gal = rng.normal(size=(d, n_classes * (q + 1)))
        gal /= np.linalg.norm(gal, axis=0)
        classes = np.repeat(np.arange(n_classes), q + 1)
        slots = np.tile(np.arange(q + 1), n_classes)
        slot_poses = np.vstack([np.zeros(3)] + [rng.uniform(5, 40, size=3) for _ in range(q)])
        poses = np.vstack([slot_poses[s] for s in slots])
        v = rng.normal(size=(d, 2 * q))
        v /= np.linalg.norm(v, axis=0)
        v_blocks = np.repeat(np.arange(1, q + 1), 2)
        y = rng.normal(size=d)
        y /= np.linalg.norm(y)
        code = paired_solve(PairedDictionary(gal, classes, slots, poses, v, v_blocks), y, config)
        sets = admissible_active_sets(classes, slots, poses, v_blocks)
        best = np.inf
        for combo in itertools.combinations(range(len(sets)), config.xi):
            g_idx = sorted({i for k in combo for i in sets[k].gallery_indices})
            b_idx = sorted({i for k in combo for i in sets[k].block_indices})
            ref = extended_solve(
                gal[:, g_idx],
                v[:, b_idx] if b_idx else np.zeros((d, 0)),
                y, config.lam, config.mu, config.tau, tol=1e-7, max_iter=2000,
            )
            best = min(best, ref.objective)
        worst = max(worst, code.objective - best)

    elapsed = time.perf_counter() - start
    _report(
        "solver-oracle agreement (200 instances)",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_exemplar_selection_structure():
    rng = np.random.default_rng(77)
    medoid_ok = identity_ok = monotone_ok = 0
    trials = 50
    for _ in range(trials):
        n = int(rng.integers(4, 41))
        meta = SampleMeta(labels=np.zeros(n, dtype=int), poses=rng.uniform(-60, 60, size=(n, 3)))
        d = pose_dissimilarities(meta)
        top = eta_max(d)
        at_top = extract_clustering(select_exemplars(d, top), d, meta)
        medoid_ok += at_top.exemplar_indices == (medoid_index(d),)
        tiny = extract_clustering(select_exemplars(d, 1e-9), d, meta)
        identity_ok += tiny.q == n
        qs = [
            extract_clustering(select_exemplars(d, float(e)), d, meta).q
            for e in np.geomspace(1e-9, top, 10)
        ]
        monotone_ok += all(a >= b for a, b in zip(qs, qs[1:]))
    _report(
        "exemplar selection structure (50 instances)",
        medoid_ok == identity_ok == monotone_ok == trials,
        f"medoid {medoid_ok}/50, identity {identity_ok}/50, monotone {monotone_ok}/50",
    )


def test_sci_correctness():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        classes = rng.integers(0, k, size=int(rng.integers(k, 4 * k)))
        alpha = rng.normal(size=classes.size) * (rng.uniform(size=classes.size) < 0.7)
        value = sci(alpha, classes, k)
        ok &= 0.0 <= value <= 1.0
        total = np.sum(np.abs(alpha))
        if total == 0:
            ok &= value == 0.0
        else:
            masses = [np.sum(np.abs(alpha[classes == c])) for c in np.unique(classes)]
            direct = (k * max(masses) / total - 1.0) / (k - 1.0)
            ok &= abs(value - min(max(direct, 0.0), 1.0)) <= 1e-12
        ok &= abs(sci(alpha * 7.5, classes, k) - value) <= 1e-12
    one_hot = np.zeros(10)
    one_hot[3] = 2.0
    ok &= sci(one_hot, np.repeat(np.arange(5), 2), 5) == pytest.approx(1.0)
    ok &= sci(np.ones(10), np.repeat(np.arange(5), 2), 5) == pytest.approx(0.0, abs=1e-12)
    _report("SCI correctness (1000 random codes)", bool(ok))


def test_metric_correctness():
    rng = np.random.default_rng(123)
    worst_roc = worst_pauc = worst_aupr = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 80))
        scores = rng.normal(size=n)
        if rng.uniform() < 0.3:
            scores = np.round(scores, 1)
        labels = rng.uniform(size=n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        points = roc_curve(scores, labels)
        brute = roc_brute_force(scores, labels)
        gap = max(
            min(abs(p[0] - b[0]) + abs(p[1] - b[1]) for b in brute) for p in points
        )
        worst_roc = max(worst_roc, gap, float(len(set(points)) != len(brute)))
        worst_pauc = max(worst_pauc, abs(pauc20(points) - pauc_dense_oracle(points)))
        pr = pr_curve(scores, labels)
        worst_aupr = max(worst_aupr, abs(aupr(pr) - aupr_reference(pr)))
    diagonal = abs(pauc20([(0.0, 0.0), (1.0, 1.0)]) - 0.1)
    _report(
        "metric correctness (100 score sets)",
        worst_roc <= 1e-9 and worst_pauc <= 1e-9 and worst_aupr <= 1e-9 and diagonal <= 1e-15,
        f"roc {worst_roc:.1e} pauc {worst_pauc:.1e} aupr {worst_aupr:.1e} diag {diagonal:.1e}",
    )


def test_ordering_reproduction(toy_results):
    default, _, elapsed = toy_results
    pauc = {m: default.reports[m].pauc20 for m in default.reports}
    d1 = pauc["esrc"] - pauc["src"]
    d2 = pauc["spv"] - pauc["esrc"]
    _report(
        "ordering reproduction (spv > esrc > src)",
        d2 >= 0.03 and d1 >= 0.10 and elapsed < 300.0,
        f"src {pauc['src']:.3f} esrc {pauc['esrc']:.3f} spv {pauc['spv']:.3f} "
        f"(margins {d1:.3f}/{d2:.3f}, {elapsed:.0f}s)",
    )


def test_pose_robustness_trend(toy_results):
    default, _, _ = toy_results
    bins = pose_robustness_summary(default.details, ["src", "spv"], n_bins=3)
    src_drop = bins["src"][0] - bins["src"][-1]
    spv_drop = bins["spv"][0] - bins["spv"][-1]
    _report(
        "pose robustness trend (spv drop < src drop)",
        spv_drop < src_drop,
        f"src drop {src_drop:.3f}, spv drop {spv_drop:.3f}",
    )


def test_synthetic_count_trend(toy_results):
    _, sweep, _ = toy_results
    values = [sweep[q] for q in (0, 1, 2, 4)]
    non_decreasing = all(b >= a - 0.01 for a, b in zip(values, values[1:]))
    _report(
        "synthetic view count trend (pAUC20 non-decreasing in q)",
        non_decreasing,
        " ".join(f"q={q}:{sweep[q]:.3f}" for q in (0, 1, 2, 4)),
    )


def test_report_determinism(tmp_path):
    spec = BenchmarkSpec(
        n_classes=10,
        n_watchlist=3,
        n_generic_ids=5,
        samples_per_generic_id=4,
        q_true=2,
        feature_dim=32,
        n_probe_per_id=5,
        seed=21,
    )
    bundle = generate_benchmark(spec)
    first = run_experiment(bundle, methods=("src", "spv"), n_runs=2)
    second = run_experiment(bundle, methods=("src", "spv"), n_runs=2)
    emit_report(first.reports, tmp_path / "a.json")
    emit_report(second.reports, tmp_path / "b.json")
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    _report("deterministic report bytes across two runs", identical)
