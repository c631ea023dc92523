"""Every JSON input goes through one strict reader: wrong-typed, unreadable
or malformed JSON raises DataError from the Python API and exits 2 from
every subcommand that reads the file, and every JSON file the program
writes reads back equal."""

import dataclasses
import json
import math

import numpy as np
import pytest

from spv.benchmark import BenchmarkSpec
from spv.cli import main
from spv.dictionaries import (
    IdentitySynthesizer,
    ImportedSynthesizer,
    build_augmented_gallery,
    build_variational_dictionary,
    load_gallery,
    load_variational,
    save_gallery,
    save_variational,
)
from spv.exemplars import PoseClustering, load_clustering, save_clustering
from spv.experiment import EvalReport, emit_report, load_report
from spv.matrixio import (
    DataError,
    ModelConfig,
    SampleMatrix,
    SampleMeta,
    json_value,
    load_metadata,
    read_json,
    save_matrix,
    save_metadata,
)

CONFIG_CASES = [{"lam": "x"}, {"xi": 2.7}, {"max_iter": 10.5}, {"seed": 3.9}, {"xi": True}]
SPEC_CASES = [{"n_classes": "x"}, {"noise_sigma": "a"}, 5]
# Each case replaces the first three samples of a valid metadata object.
METADATA_CASES = [
    {"labels": [1.7, 0, 2]},
    {"labels": ["1", 0, 2]},
    {"poses": [["0", "0", "0"], [0, 0, 0], [0, 0, 0]]},
]
# Integers outside the int64 range, for a config and for metadata labels.
CONFIG_RANGE_CASE = {"xi": 10**20}
METADATA_RANGE_CASE = {"labels": [10**20, 0, 2]}
# A valid clustering of 12 samples has exemplars 0 and 2.
CLUSTERING = {
    "exemplar_indices": [0, 2],
    "exemplar_poses": [[5.0, 5.0, 5.0], [20.0, 20.0, 20.0]],
    "assignment": [0, 0, 2] * 4,
    "q": 2,
}
CLUSTERING_CASES = [
    {"exemplar_indices": [0.9, 2.2]},
    {"q": 2.4},
    {"exemplar_indices": [True], "exemplar_poses": [[5.0, 5.0, 5.0]],
     "assignment": [1] * 12, "q": 1},
]
MANIFEST = {"classes": [0, 1, 2], "poses": [[5.0, 5.0, 5.0]]}
MANIFEST_CASES = [{"classes": ["a"]}, {"poses": "x"}, [MANIFEST], {"classes": [0, 1.5, 2]}]
# Sidecar q values that the command line site (q = 1) must refuse.
SIDECAR_Q_CASES = [1.9, True]


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def _edit(base, case):
    return {**base, **case} if isinstance(case, dict) else case


@pytest.mark.parametrize("raw", CONFIG_CASES)
def test_wrong_typed_config_is_a_data_error(tmp_path, raw):
    with pytest.raises(DataError, match="wrong type"):
        ModelConfig.from_json(_write(tmp_path / "cfg.json", raw))


@pytest.mark.parametrize("raw, key, ndim", [
    (METADATA_RANGE_CASE, "labels", 1),
    ({"labels": [-(2**63) - 1]}, "labels", 1),
    (CONFIG_RANGE_CASE, "xi", 0),
])
def test_integer_outside_int64_is_a_data_error(raw, key, ndim):
    with pytest.raises(DataError, match="wrong type"):
        json_value(raw, key, "input", ndim=ndim, integer=True)
    bound = {"labels": [0, 2**63 - 1]} if ndim else {"xi": -(2**63)}
    assert json_value(bound, key, "input", ndim=ndim, integer=True).dtype == np.int64


def test_config_integer_outside_int64_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="wrong type"):
        ModelConfig.from_json(_write(tmp_path / "cfg.json", CONFIG_RANGE_CASE))
    meta = {"labels": METADATA_RANGE_CASE["labels"], "poses": [[0, 0, 0]] * 3}
    with pytest.raises(DataError, match="wrong type"):
        load_metadata(_write(tmp_path / "m.json", meta))


@pytest.mark.parametrize("raw", SPEC_CASES)
def test_wrong_typed_benchmark_spec_is_a_data_error(tmp_path, raw):
    with pytest.raises(DataError):
        BenchmarkSpec.from_json(_write(tmp_path / "spec.json", raw))


@pytest.mark.parametrize("text", [None, "{"])
def test_missing_or_invalid_natural_marks_file_is_a_data_error(tmp_path, text):
    path = tmp_path / "m.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(DataError):
        read_json(path, "metadata")


def _saved_dictionaries(tmp_path):
    """A saved gallery and variational dictionary, as (path, loader, saved
    object) pairs."""
    rng = np.random.default_rng(3)
    stills = SampleMatrix(rng.normal(size=(8, 2)))
    stills_meta = SampleMeta(labels=[0, 1], poses=np.zeros((2, 3)))
    clustering = PoseClustering((0,), [[5.0, 5.0, 5.0]], [0] * 6, 1)
    gallery = build_augmented_gallery(stills, stills_meta, clustering, IdentitySynthesizer())
    save_gallery(gallery, tmp_path / "g.csv")
    generic = SampleMatrix(rng.normal(size=(8, 6)))
    generic_meta = SampleMeta(labels=[9, 9, 9, 8, 8, 8], poses=np.zeros((6, 3)))
    variational = build_variational_dictionary(generic, generic_meta, clustering)
    save_variational(variational, tmp_path / "v.csv")
    return (
        (tmp_path / "g.csv", load_gallery, gallery),
        (tmp_path / "v.csv", load_variational, variational),
    )


def test_dictionary_sidecar_is_parsed_once(tmp_path, monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append(1) or loads(text, **kw))
    for path, load, _ in _saved_dictionaries(tmp_path):
        calls.clear()
        load(path)
        assert len(calls) == 1


@pytest.mark.parametrize("case", MANIFEST_CASES)
def test_wrong_typed_manifest_is_a_data_error(tmp_path, case):
    _write(tmp_path / "manifest.json", MANIFEST)
    assert ImportedSynthesizer(tmp_path).classes == [0, 1, 2]
    _write(tmp_path / "manifest.json", _edit(MANIFEST, case))
    with pytest.raises(DataError):
        ImportedSynthesizer(tmp_path)


@pytest.mark.parametrize("payload", [[1, 2], 5])
def test_non_object_report_is_a_data_error(tmp_path, payload):
    with pytest.raises(DataError):
        load_report(_write(tmp_path / "r.json", payload))


def test_every_written_json_file_reads_back_equal(tmp_path):
    for path, load, saved in _saved_dictionaries(tmp_path):
        back = load(path)
        assert back.q == saved.q == 1
        for field in dataclasses.fields(saved):
            if field.compare and field.name != "matrix":
                np.testing.assert_array_equal(getattr(back, field.name), getattr(saved, field.name))

    clustering = PoseClustering((0, 2), CLUSTERING["exemplar_poses"], CLUSTERING["assignment"], 2)
    save_clustering(clustering, tmp_path / "c.json")
    back = load_clustering(tmp_path / "c.json")
    assert back.exemplar_indices == clustering.exemplar_indices and back.q == 2
    np.testing.assert_array_equal(back.exemplar_poses, clustering.exemplar_poses)
    np.testing.assert_array_equal(back.assignment, clustering.assignment)

    meta = SampleMeta(labels=[3, -1], poses=[[0.5, -1.0, 2.0], [0, 0, 0]], blocks=[1, 2])
    save_metadata(meta, tmp_path / "m.json", extra={"natural": [1]})
    back = load_metadata(tmp_path / "m.json")
    for name in ("labels", "poses", "blocks"):
        np.testing.assert_array_equal(getattr(back, name), getattr(meta, name))
    assert read_json(tmp_path / "m.json", "metadata")["natural"] == [1]

    config = ModelConfig(lam=0.01, row_norm_q=math.inf, xi=2, max_iter=50, seed=4)
    assert ModelConfig.from_json(_write(tmp_path / "cfg.json", config.to_dict())) == config
    spec = BenchmarkSpec(n_classes=12, n_watchlist=4, noise_sigma=0, seed=99)
    assert BenchmarkSpec.from_json(_write(tmp_path / "spec.json", spec.to_dict())) == spec

    report = EvalReport("spv", (0.5, 0.75), (0.25, 1.0), ((0.0, 0.0), (1.0, 1.0)),
                        ((0.0, 1.0), (1.0, 0.5)), 0.0)
    emit_report({report.method: report}, tmp_path / "r.json")
    assert load_report(tmp_path / "r.json") == {"n_runs": 2, "methods": {"spv": report.to_dict()}}


@pytest.fixture()
def site(tmp_path):
    """Inputs for every subcommand: three stills, a generic set of four
    identities with three samples each, a one-exemplar clustering, imported
    views, a benchmark spec, and the dictionaries built from them."""
    rng = np.random.default_rng(0)
    stills = rng.normal(size=(12, 3))
    save_matrix(SampleMatrix(stills), tmp_path / "stills.csv")
    save_metadata(SampleMeta(np.arange(3), np.zeros((3, 3))), tmp_path / "stills.csv.meta.json")
    save_matrix(SampleMatrix(rng.normal(size=(12, 12))), tmp_path / "generic.csv")
    poses = [[0, 0, 0], [20, 20, 20], [25, 25, 25]] * 4
    save_metadata(
        SampleMeta(np.repeat([50, 51, 52, 53], 3), poses),
        tmp_path / "generic.csv.meta.json",
        extra={"natural": [0, 3, 6, 9]},
    )
    save_matrix(SampleMatrix(stills[:, [1]]), tmp_path / "probes.csv")
    _write(tmp_path / "clustering.json", {**CLUSTERING, **CLUSTERING_CASES[2], "exemplar_indices": [1]})
    (tmp_path / "views").mkdir()
    _write(tmp_path / "views" / "manifest.json", MANIFEST)
    for c in range(3):
        save_matrix(SampleMatrix(rng.normal(size=(12, 1))), tmp_path / "views" / f"{c}_0.csv")
    _write(tmp_path / "spec.json", {
        "n_classes": 8, "n_watchlist": 3, "n_generic_ids": 4, "samples_per_generic_id": 3,
        "q_true": 2, "feature_dim": 24, "n_probe_per_id": 4, "seed": 3,
    })
    assert main(_argv(tmp_path, "build")) == 0
    return tmp_path


def _argv(ws, command):
    return [str(a) for a in {
        "exemplars": ["exemplars", "--meta", ws / "generic.csv.meta.json", "--eta", "40",
                      "--out", ws / "c2.json"],
        "build": ["build", "--stills", ws / "stills.csv", "--generic", ws / "generic.csv",
                  "--clustering", ws / "clustering.json", "--out-gallery", ws / "gallery.csv",
                  "--out-variational", ws / "variational.csv"],
        "build-labeled": ["build", "--stills", ws / "stills.csv", "--generic", ws / "generic.csv",
                          "--clustering", ws / "clustering.json", "--natural", "labeled",
                          "--out-gallery", ws / "g2.csv", "--out-variational", ws / "v2.csv"],
        "build-import": ["build", "--stills", ws / "stills.csv", "--generic", ws / "generic.csv",
                         "--clustering", ws / "clustering.json", "--synth", f"import:{ws / 'views'}",
                         "--out-gallery", ws / "g3.csv", "--out-variational", ws / "v3.csv"],
        "classify": ["classify", "--gallery", ws / "gallery.csv", "--variational",
                     ws / "variational.csv", "--probes", ws / "probes.csv", "--out", ws / "d.csv"],
        "bench": ["bench", "--spec", ws / "spec.json", "--runs", "1", "--methods", "nn",
                  "--out", ws / "r.json"],
    }[command]]


def _cli_cases():
    for command in ("exemplars", "build", "classify", "bench"):
        for raw in CONFIG_CASES:
            yield command, "cfg.json", raw
    for raw in SPEC_CASES:
        yield "bench", "spec.json", raw
    for command in ("exemplars", "build"):
        for case in METADATA_CASES:
            yield command, "generic.csv.meta.json", case
    yield "build-labeled", "generic.csv.meta.json", {"natural": [0.9, 3, 6, 9]}
    for name in ("gallery.csv.meta.json", "variational.csv.meta.json"):
        for q in SIDECAR_Q_CASES:
            yield "classify", name, {"q": q}
    for case in CLUSTERING_CASES:
        yield "build", "clustering.json", _edit(CLUSTERING, case)
    for case in MANIFEST_CASES:
        yield "build-import", "views/manifest.json", _edit(MANIFEST, case)
    for command in ("exemplars", "build", "classify", "bench"):
        yield command, "cfg.json", CONFIG_RANGE_CASE
    for command in ("exemplars", "build"):
        yield command, "generic.csv.meta.json", METADATA_RANGE_CASE
    for marks in (["x"], [[0]], 3):
        yield "build-labeled", "generic.csv.meta.json", {"natural": marks}


@pytest.mark.parametrize("command, name, case", list(_cli_cases()))
def test_wrong_typed_json_input_exits_2(site, command, name, case):
    argv = _argv(site, command)
    assert main(argv) in (0, 3)
    if name == "cfg.json":
        argv += ["--config", str(_write(site / name, case))]
    elif name.endswith(".meta.json"):
        metadata = json.loads((site / name).read_text())
        if "labels" in case or "poses" in case:
            metadata = {**metadata, **{k: v + metadata[k][3:] for k, v in case.items()}}
        else:
            metadata = {**metadata, **case}
        _write(site / name, metadata)
    else:
        _write(site / name, case)
    assert main(argv) == 2
