import json
import re
import warnings

import numpy as np
import pytest

from spv.classifier import classify
from spv.cli import main
from spv.dictionaries import (
    AugmentedGallery,
    VariationalDictionary,
    load_gallery,
    load_variational,
    save_gallery,
    save_variational,
)
from spv.exemplars import load_clustering
from spv.matrixio import (
    ModelConfig,
    SampleMatrix,
    SampleMeta,
    save_matrix,
    save_metadata,
)


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    d, k = 12, 3
    stills = rng.normal(size=(d, k))
    stills /= np.linalg.norm(stills, axis=0)
    save_matrix(SampleMatrix(stills), tmp_path / "stills.csv")
    save_metadata(
        SampleMeta(labels=np.arange(k), poses=np.zeros((k, 3))),
        tmp_path / "stills.csv.meta.json",
    )
    cols, labels, poses = [], [], []
    for i in range(4):
        base = rng.normal(size=d)
        for s in range(3):
            pose = [0.0, 0.0, 0.0] if s == 0 else list(rng.uniform(10, 35, size=3))
            cols.append(base + (0.4 * rng.normal(size=d) if s else 0.0))
            labels.append(50 + i)
            poses.append(pose)
    save_matrix(SampleMatrix(np.column_stack(cols)), tmp_path / "generic.csv")
    save_metadata(
        SampleMeta(labels=labels, poses=poses), tmp_path / "generic.csv.meta.json"
    )
    save_matrix(SampleMatrix(stills[:, [1]]), tmp_path / "probes.csv")
    return tmp_path


def test_exemplars_subcommand(workspace):
    out = workspace / "clustering.json"
    rc = main([
        "exemplars", "--meta", str(workspace / "generic.csv.meta.json"),
        "--eta", "40.0", "--q-norm", "2", "--out", str(out),
    ])
    assert rc == 0
    clustering = load_clustering(out)
    assert clustering.q >= 1
    payload = json.loads(out.read_text())
    assert set(payload) == {"exemplar_indices", "exemplar_poses", "assignment", "q"}


def test_build_and_classify_pipeline(workspace):
    clustering = workspace / "clustering.json"
    assert main([
        "exemplars", "--meta", str(workspace / "generic.csv.meta.json"),
        "--eta", "40.0", "--out", str(clustering),
    ]) == 0
    rc = main([
        "build",
        "--stills", str(workspace / "stills.csv"),
        "--generic", str(workspace / "generic.csv"),
        "--clustering", str(clustering),
        "--synth", "toy",
        "--out-gallery", str(workspace / "gallery.csv"),
        "--out-variational", str(workspace / "variational.csv"),
    ])
    assert rc == 0
    gallery = load_gallery(workspace / "gallery.csv")
    variational = load_variational(workspace / "variational.csv")
    assert gallery.k == 3 and gallery.q == variational.q

    out = workspace / "decisions.csv"
    rc = main([
        "classify",
        "--gallery", str(workspace / "gallery.csv"),
        "--variational", str(workspace / "variational.csv"),
        "--probes", str(workspace / "probes.csv"),
        "--method", "spv",
        "--lambda", "1e-6",
        "--mu", "1e-6",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "probe_id,predicted,sci,accepted,converged,iterations,optimality,r_0,r_1,r_2"
    )
    cells = lines[1].split(",")
    assert cells[1] == "1"
    assert cells[4] == "1" and int(cells[5]) >= 0 and float(cells[6]) <= 1e-6


def test_classify_src_without_variational(workspace):
    clustering = workspace / "clustering.json"
    main([
        "exemplars", "--meta", str(workspace / "generic.csv.meta.json"),
        "--eta", "40.0", "--out", str(clustering),
    ])
    main([
        "build",
        "--stills", str(workspace / "stills.csv"),
        "--generic", str(workspace / "generic.csv"),
        "--clustering", str(clustering),
        "--out-gallery", str(workspace / "gallery.csv"),
        "--out-variational", str(workspace / "variational.csv"),
    ])
    rc = main([
        "classify",
        "--gallery", str(workspace / "gallery.csv"),
        "--probes", str(workspace / "probes.csv"),
        "--method", "src",
        "--out", str(workspace / "src.csv"),
    ])
    assert rc == 0


def test_build_with_labeled_naturals(workspace):
    meta_path = workspace / "generic.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["natural"] = [0, 3, 6, 9]
    meta_path.write_text(json.dumps(meta))
    clustering = workspace / "clustering.json"
    main([
        "exemplars", "--meta", str(meta_path), "--eta", "40.0",
        "--out", str(clustering),
    ])
    rc = main([
        "build",
        "--stills", str(workspace / "stills.csv"),
        "--generic", str(workspace / "generic.csv"),
        "--clustering", str(clustering),
        "--natural", "labeled",
        "--out-gallery", str(workspace / "g2.csv"),
        "--out-variational", str(workspace / "v2.csv"),
    ])
    assert rc == 0
    assert load_variational(workspace / "v2.csv").n_atoms == 8


def test_bench_subcommand(tmp_path):
    spec = {
        "n_classes": 8, "n_watchlist": 3, "n_generic_ids": 4,
        "samples_per_generic_id": 3, "q_true": 2, "feature_dim": 24,
        "n_probe_per_id": 4, "impostor_ratio": 0.5, "seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    rc = main([
        "bench", "--spec", str(spec_path), "--runs", "1",
        "--methods", "src,nn", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report["methods"]) == {"nn_template", "src"}
    # Template matching has no SCI to gate on.
    gated = tmp_path / "gated.json"
    rc = main([
        "bench", "--spec", str(spec_path), "--runs", "1",
        "--methods", "src,nn", "--sci-gated", "--out", str(gated),
    ])
    assert rc == 2
    assert not gated.exists()


def test_metrics_subcommand(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "score,label\n0.9,genuine\n0.8,genuine\n0.3,impostor\n0.1,impostor\n"
    )
    rc = main(["metrics", "--scores", str(scores)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pauc20"] == pytest.approx(1.0)
    assert payload["aupr"] == pytest.approx(1.0)


def test_usage_error_exit_code():
    assert main(["exemplars"]) == 1
    assert main(["nonsense"]) == 1


def test_data_error_exit_code(tmp_path):
    rc = main([
        "exemplars", "--meta", str(tmp_path / "missing.json"),
        "--out", str(tmp_path / "out.json"),
    ])
    assert rc == 2


def test_classify_with_a_variational_dictionary_of_another_row_count_exits_2(tmp_path, capsys):
    # A 12-class, 20-row gallery (36 sets: the greedy search) and an 18-row
    # variational dictionary.
    rng = np.random.default_rng(5)
    k, q = 12, 2
    poses = np.vstack([np.zeros(3), rng.uniform(10, 35, size=(q, 3))])
    gallery = AugmentedGallery(
        rng.normal(size=(20, k * (q + 1))), np.repeat(np.arange(k), q + 1),
        np.tile(np.arange(q + 1), k), np.tile(poses, (k, 1)), q,
    )
    v = VariationalDictionary(
        rng.normal(size=(18, 4)), np.repeat([1, 2], 2), np.arange(4) + 50, np.zeros((4, 3)), q
    )
    save_gallery(gallery, tmp_path / "gallery.csv")
    save_variational(v, tmp_path / "variational.csv")
    save_matrix(SampleMatrix(gallery.matrix[:, :2]), tmp_path / "probes.csv")
    rc = main([
        "classify",
        "--gallery", str(tmp_path / "gallery.csv"),
        "--variational", str(tmp_path / "variational.csv"),
        "--probes", str(tmp_path / "probes.csv"),
        "--method", "spv",
        "--out", str(tmp_path / "decisions.csv"),
    ])
    assert rc == 2
    assert "error: dictionary rows (20, 18) differ" in capsys.readouterr().err


def test_bad_scores_file_exit_code(tmp_path):
    bad = tmp_path / "scores.csv"
    bad.write_text("score,label\nfoo,genuine\n")
    assert main(["metrics", "--scores", str(bad)]) == 2


def test_bench_reports_nonconverged_count(tmp_path, capsys):
    spec = {
        "n_classes": 8, "n_watchlist": 3, "n_generic_ids": 4,
        "samples_per_generic_id": 3, "q_true": 2, "feature_dim": 24,
        "n_probe_per_id": 4, "impostor_ratio": 0.5, "seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main([
            "bench", "--spec", str(spec_path), "--runs", "1",
            "--methods", "src", "--max-iter", "1", "--out", str(out),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        count = int(err.split("warning: ", 1)[1].split()[0])
        assert count > 0
        assert f"warning: {count} probe solves did not converge" in err
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_bench_report_counts_nonconverged_solves_per_method(tmp_path, capsys):
    spec = {
        "n_classes": 8, "n_watchlist": 3, "n_generic_ids": 4,
        "samples_per_generic_id": 3, "q_true": 2, "feature_dim": 24,
        "n_probe_per_id": 4, "impostor_ratio": 0.5, "seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    capped, default = tmp_path / "capped.json", tmp_path / "default.json"
    base = ["bench", "--spec", str(spec_path), "--runs", "1", "--methods", "src,nn"]
    assert main(base + ["--max-iter", "1", "--out", str(capped)]) == 3
    total = int(capsys.readouterr().err.split("warning: ", 1)[1].split()[0])
    methods = json.loads(capped.read_text())["methods"]
    # Template matching solves nothing, so it never fails to converge.
    assert methods["src"]["non_converged"] == total > 0
    assert methods["nn_template"]["non_converged"] == 0
    assert main(base + ["--out", str(default)]) == 0
    methods = json.loads(default.read_text())["methods"]
    assert [entry["non_converged"] for entry in methods.values()] == [0, 0]


def test_metrics_header_after_comments(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "# scores\nscore,label\n0.9,genuine\n0.8,genuine\n0.3,impostor\n0.1,impostor\n"
    )
    assert main(["metrics", "--scores", str(scores)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 4
    late = tmp_path / "late.csv"
    late.write_text("0.9,genuine\nscore,label\n0.1,impostor\n")
    assert main(["metrics", "--scores", str(late)]) == 2


def test_build_wrong_typed_natural_marks_is_a_data_error(workspace):
    meta_path = workspace / "generic.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["natural"] = ["x"]
    meta_path.write_text(json.dumps(meta))
    clustering = workspace / "clustering.json"
    main([
        "exemplars", "--meta", str(meta_path), "--eta", "40.0",
        "--out", str(clustering),
    ])
    rc = main([
        "build",
        "--stills", str(workspace / "stills.csv"),
        "--generic", str(workspace / "generic.csv"),
        "--clustering", str(clustering),
        "--natural", "labeled",
        "--out-gallery", str(workspace / "g2.csv"),
        "--out-variational", str(workspace / "v2.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--eta", "5", "--out", "r.json"],
        ["exemplars", "--meta", "m.json", "--lambda", "0.1", "--out", "c.json"],
        ["build", "--stills", "s.csv", "--generic", "g.csv", "--clustering", "c.json",
         "--tol", "1e-3", "--out-gallery", "g.csv", "--out-variational", "v.csv"],
        ["classify", "--gallery", "g.csv", "--probes", "p.csv", "--q-norm", "inf",
         "--out", "d.csv"],
    ],
)
def test_config_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1


def test_classify_warning_names_the_nonconverged_probes(workspace, capsys):
    clustering = workspace / "clustering.json"
    main([
        "exemplars", "--meta", str(workspace / "generic.csv.meta.json"),
        "--eta", "40.0", "--out", str(clustering),
    ])
    main([
        "build",
        "--stills", str(workspace / "stills.csv"),
        "--generic", str(workspace / "generic.csv"),
        "--clustering", str(clustering),
        "--out-gallery", str(workspace / "gallery.csv"),
        "--out-variational", str(workspace / "variational.csv"),
    ])
    rng = np.random.default_rng(1)
    probes = rng.normal(size=(12, 4))
    probes[:, 1] = 0.0  # a trivial solve, converged at once
    save_matrix(SampleMatrix(probes), workspace / "probes4.csv")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "classify",
            "--gallery", str(workspace / "gallery.csv"),
            "--probes", str(workspace / "probes4.csv"),
            "--method", "src",
            "--max-iter", "1",
            "--out", str(workspace / "capped.csv"),
        ])
    assert rc == 3
    # The summary below names the probes; the per-solve warnings would bury it.
    assert not [w for w in caught if "extended solve did not reach tol" in str(w.message)]
    err = capsys.readouterr().err
    match = re.search(
        r"warning: (\d+) probe solves did not converge "
        r"\(probes ([\d, ]+); largest optimality residual (\S+)\)",
        err,
    )
    assert match is not None, err
    gallery = load_gallery(workspace / "gallery.csv")
    codes = [
        classify("src", gallery, None, probes[:, j], ModelConfig(max_iter=1)).code
        for j in range(probes.shape[1])
    ]
    failed = [j for j, code in enumerate(codes) if not code.converged]
    assert failed == [0, 2, 3] and int(match.group(1)) == len(failed)
    assert [int(j) for j in match.group(2).split(", ")] == failed
    worst = max(codes[j].optimality for j in failed)
    assert float(match.group(3)) == pytest.approx(worst, rel=0.06)


def test_bench_warning_gives_each_methods_count(tmp_path, capsys):
    spec = {
        "n_classes": 8, "n_watchlist": 3, "n_generic_ids": 4,
        "samples_per_generic_id": 3, "q_true": 2, "feature_dim": 24,
        "n_probe_per_id": 4, "impostor_ratio": 0.5, "seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "capped.json"
    assert main([
        "bench", "--spec", str(spec_path), "--runs", "1", "--methods", "src,nn",
        "--max-iter", "1", "--out", str(out),
    ]) == 3
    err = capsys.readouterr().err
    methods = json.loads(out.read_text())["methods"]
    total = methods["src"]["non_converged"]
    assert total > 0
    assert (
        f"warning: {total} probe solves did not converge (nn_template 0, src {total})"
        in err
    )


def test_classify_csv_marks_exactly_the_probes_the_warning_names(workspace, capsys):
    clustering = workspace / "clustering.json"
    main([
        "exemplars", "--meta", str(workspace / "generic.csv.meta.json"),
        "--eta", "40.0", "--out", str(clustering),
    ])
    main([
        "build",
        "--stills", str(workspace / "stills.csv"),
        "--generic", str(workspace / "generic.csv"),
        "--clustering", str(clustering),
        "--out-gallery", str(workspace / "gallery.csv"),
        "--out-variational", str(workspace / "variational.csv"),
    ])
    rng = np.random.default_rng(2)
    probes = rng.normal(size=(12, 5))
    probes[:, 3] = 0.0  # a trivial solve, converged at once
    save_matrix(SampleMatrix(probes), workspace / "probes5.csv")
    out = workspace / "capped.csv"
    capsys.readouterr()
    assert main([
        "classify",
        "--gallery", str(workspace / "gallery.csv"),
        "--variational", str(workspace / "variational.csv"),
        "--probes", str(workspace / "probes5.csv"),
        "--method", "spv",
        "--max-iter", "1",
        "--out", str(out),
    ]) == 3
    match = re.search(r"\(probes ([\d, ]+); largest optimality residual (\S+)\)",
                      capsys.readouterr().err)
    assert match is not None
    named = [int(j) for j in match.group(1).split(", ")]
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [int(row["probe_id"]) for row in rows if row["converged"] == "0"] == named
    assert 3 not in named and rows[3]["converged"] == "1"
    assert all(row["converged"] == "1" for row in rows if int(row["probe_id"]) not in named)
    assert all(int(row["iterations"]) <= 1 for row in rows)
    # The warning's largest residual is the largest optimality in the CSV.
    worst = max(float(rows[j]["optimality"]) for j in named)
    assert float(match.group(2)) == pytest.approx(worst, rel=0.06)
