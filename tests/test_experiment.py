import numpy as np
import pytest
from dataclasses import replace

from spv.benchmark import BenchmarkSpec, generate_benchmark
from spv.experiment import (
    EvalReport,
    emit_report,
    load_report,
    normalize_method,
    pose_robustness_summary,
    rank1_accuracy,
    run_experiment,
)
from spv.matrixio import DataError, ModelConfig, SampleMeta
from spv.metrics import aupr, pauc20, pr_curve, roc_curve

SMALL = BenchmarkSpec(
    n_classes=8,
    n_watchlist=3,
    n_generic_ids=5,
    samples_per_generic_id=4,
    q_true=2,
    feature_dim=32,
    n_probe_per_id=6,
    impostor_ratio=0.5,
    seed=11,
)


@pytest.fixture(scope="module")
def small_bundle():
    return generate_benchmark(SMALL)


def test_method_name_normalization():
    assert normalize_method("nn") == "nn_template"
    assert normalize_method("SPV") == "spv"
    with pytest.raises(DataError):
        normalize_method("what")


def test_degenerate_noiseless_run_is_perfect():
    spec = replace(
        SMALL,
        noise_sigma=0.0,
        warp_strength=0.0,
        illum_strength=0.0,
        pose_jitter=0.0,
        probe_offset=0.0,
        shared_weight=0.0,
    )
    bundle = generate_benchmark(spec)
    result = run_experiment(bundle, methods=("src", "nn"), n_runs=1)
    for report in result.reports.values():
        assert report.pauc20 == pytest.approx(1.0)
        assert report.aupr == pytest.approx(1.0)


def test_reports_structure(small_bundle):
    result = run_experiment(small_bundle, methods=("src", "esrc"), n_runs=2)
    assert set(result.reports) == {"src", "esrc"}
    for report in result.reports.values():
        assert report.n_runs == 2
        assert len(report.per_run_pauc20) == 2
        assert len(report.per_run_aupr) == 2
        assert all(0.0 <= v <= 1.0 for v in report.per_run_pauc20)
        fprs = [f for f, _ in report.roc]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
    genuine = [r for r in result.details if r.genuine]
    impostor = [r for r in result.details if not r.genuine]
    # 3 watch ids and 3 impostor ids at ratio 0.5, 6 probes each, 2 runs
    assert len(genuine) == 3 * 6 * 2
    assert len(impostor) == 3 * 6 * 2


def test_generic_watchlist_overlap_asserted(small_bundle):
    n = small_bundle.generic_meta.n_samples
    doctored_meta = SampleMeta(
        labels=np.arange(n) % SMALL.n_classes,
        poses=small_bundle.generic_meta.poses,
        blocks=small_bundle.generic_meta.blocks,
    )
    doctored = replace(small_bundle, generic_meta=doctored_meta)
    with pytest.raises(DataError, match="shares identities"):
        run_experiment(doctored, methods=("src",), n_runs=1)


def test_determinism_across_calls(small_bundle, tmp_path):
    a = run_experiment(small_bundle, methods=("src", "spv"), n_runs=2)
    b = run_experiment(small_bundle, methods=("src", "spv"), n_runs=2)
    emit_report(a.reports, tmp_path / "a.json")
    emit_report(b.reports, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_master_seed_changes_split(small_bundle):
    a = run_experiment(small_bundle, methods=("src",), n_runs=1, config=ModelConfig(seed=0))
    b = run_experiment(small_bundle, methods=("src",), n_runs=1, config=ModelConfig(seed=5))
    ids_a = {r.true_id for r in a.details if r.genuine}
    ids_b = {r.true_id for r in b.details if r.genuine}
    assert ids_a != ids_b


def test_sci_gated_and_macro_modes(small_bundle):
    gated = run_experiment(
        small_bundle, methods=("esrc",), n_runs=1, score_mode="sci_gated"
    )
    assert 0.0 <= gated.reports["esrc"].pauc20 <= 1.0
    macro = run_experiment(small_bundle, methods=("esrc",), n_runs=1, pooling="macro")
    assert 0.0 <= macro.reports["esrc"].pauc20 <= 1.0
    with pytest.raises(DataError):
        run_experiment(small_bundle, methods=("esrc",), n_runs=1, score_mode="nope")


def test_sci_gated_template_matching_is_a_data_error(small_bundle):
    with pytest.raises(DataError, match="leave nn out of --methods"):
        run_experiment(small_bundle, methods=("src", "nn"), n_runs=1, score_mode="sci_gated")


def test_rank1_and_pose_summary(small_bundle):
    result = run_experiment(small_bundle, methods=("src", "spv"), n_runs=1)
    acc = rank1_accuracy(result.details, "src")
    assert 0.0 <= acc <= 1.0
    summary = pose_robustness_summary(result.details, ["src", "spv"], n_bins=3)
    assert set(summary) == {"src", "spv"}
    assert all(len(v) == 3 for v in summary.values())


def test_emit_report_json_roundtrip(small_bundle, tmp_path):
    result = run_experiment(small_bundle, methods=("src",), n_runs=2)
    path = tmp_path / "report.json"
    emit_report(result.reports, path)
    raw = load_report(path)
    entry = raw["methods"]["src"]
    assert entry["pauc20"] == pytest.approx(result.reports["src"].pauc20, abs=1e-15)
    assert entry["per_run_pauc20"] == list(result.reports["src"].per_run_pauc20)
    assert "runtime_per_probe" not in entry
    emit_report(result.reports, path, include_timing=True)
    assert "runtime_per_probe" in load_report(path)["methods"]["src"]


def test_emit_report_csv_row_counts(small_bundle, tmp_path):
    result = run_experiment(small_bundle, methods=("src",), n_runs=1)
    path = tmp_path / "report.csv"
    emit_report(result.reports, path, format="csv")
    lines = path.read_text().strip().splitlines()
    report = result.reports["src"]
    assert len(lines) == 1 + len(report.roc) + len(report.pr) + 4


def test_emit_report_validates_before_write(tmp_path):
    bogus = EvalReport(
        method="src",
        per_run_pauc20=(),
        per_run_aupr=(),
        roc=((0.0, 0.0), (1.0, 1.0)),
        pr=((0.0, 1.0), (1.0, 0.5)),
        runtime_per_probe=0.0,
    )
    with pytest.raises(DataError, match="empty per-run"):
        emit_report({"src": bogus}, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_run_experiment_validates_inputs(small_bundle):
    with pytest.raises(DataError):
        run_experiment(small_bundle, methods=("src",), n_runs=0)
    with pytest.raises(DataError):
        run_experiment(small_bundle, methods=("src",), n_runs=1, n_views=-1)


def test_sci_gated_macro_scores_rejected_probes_as_minus_infinity(small_bundle):
    gated = run_experiment(
        small_bundle, methods=("esrc",), n_runs=1, score_mode="sci_gated", pooling="macro"
    )
    decisions = [r.decisions["esrc"] for r in gated.details]
    assert not all(d.accepted for d in decisions)
    watch = sorted({r.true_id for r in gated.details if r.genuine})
    paucs, auprs = [], []
    for k in watch:
        scores = [-d.residual_of(k) if d.accepted else -np.inf for d in decisions]
        labels = [r.true_id == k for r in gated.details]
        paucs.append(pauc20(roc_curve(scores, labels)))
        auprs.append(aupr(pr_curve(scores, labels)))
    report = gated.reports["esrc"]
    assert report.per_run_pauc20[0] == pytest.approx(np.mean(paucs), abs=1e-12)
    assert report.per_run_aupr[0] == pytest.approx(np.mean(auprs), abs=1e-12)
    # The report's curves are the run's pooled, gated curves.
    pooled = [-d.min_residual if d.accepted else -np.inf for d in decisions]
    genuine = [r.genuine for r in gated.details]
    assert report.roc == tuple(tuple(map(float, p)) for p in roc_curve(pooled, genuine))
    assert report.pr == tuple(tuple(map(float, p)) for p in pr_curve(pooled, genuine))
