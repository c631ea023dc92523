import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spv.dictionaries import (
    AugmentedGallery,
    IdentitySynthesizer,
    ImportedSynthesizer,
    ToySynthesizer,
    VariationalDictionary,
    build_augmented_gallery,
    build_variational_dictionary,
    load_gallery,
    load_variational,
    save_gallery,
    save_variational,
)
from spv.exemplars import PoseClustering
from spv.matrixio import DataError, SampleMatrix, SampleMeta, format_float


def _clustering(q, rng=None, n=None):
    rng = rng or np.random.default_rng(0)
    n = n or q
    poses = rng.uniform(5, 40, size=(q, 3))
    assignment = np.concatenate([np.arange(q), rng.integers(0, q, size=n - q)])
    return PoseClustering(tuple(range(q)), poses, assignment, q)


def _stills(rng, k, d=10):
    data = rng.normal(size=(d, k))
    data /= np.linalg.norm(data, axis=0)
    meta = SampleMeta(labels=np.arange(k), poses=np.zeros((k, 3)))
    return SampleMatrix(data), meta


def test_gallery_counts_k2_q3():
    rng = np.random.default_rng(1)
    stills, meta = _stills(rng, 2)
    gallery = build_augmented_gallery(stills, meta, _clustering(3), ToySynthesizer(10, seed=1))
    assert gallery.matrix.shape == (10, 8)
    assert gallery.q == 3 and gallery.k == 2
    np.testing.assert_array_equal(gallery.pose_slots, [0, 1, 2, 3, 0, 1, 2, 3])
    np.testing.assert_array_equal(gallery.classes, [0, 0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_allclose(np.linalg.norm(gallery.matrix, axis=0), 1.0, atol=1e-12)


def test_gallery_identity_synthesizer_duplicates_still():
    rng = np.random.default_rng(2)
    stills, meta = _stills(rng, 2)
    gallery = build_augmented_gallery(stills, meta, _clustering(2), IdentitySynthesizer())
    for c in range(2):
        cols = gallery.matrix[:, gallery.classes == c]
        for j in range(1, cols.shape[1]):
            np.testing.assert_allclose(cols[:, j], cols[:, 0], atol=1e-12)


def test_gallery_frontal_pose_returns_still():
    rng = np.random.default_rng(3)
    stills, meta = _stills(rng, 1)
    clustering = PoseClustering((0,), np.zeros((1, 3)), np.zeros(1, dtype=int), 1)
    gallery = build_augmented_gallery(stills, meta, clustering, ToySynthesizer(10, seed=4))
    np.testing.assert_allclose(gallery.matrix[:, 1], gallery.matrix[:, 0], atol=1e-12)


def test_gallery_duplicate_class_ids_rejected():
    rng = np.random.default_rng(4)
    stills, _ = _stills(rng, 2)
    meta = SampleMeta(labels=[1, 1], poses=np.zeros((2, 3)))
    with pytest.raises(DataError, match="duplicate"):
        build_augmented_gallery(stills, meta, _clustering(2), IdentitySynthesizer())


def test_gallery_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    stills, meta = _stills(rng, 3)
    gallery = build_augmented_gallery(stills, meta, _clustering(2), ToySynthesizer(10, seed=6))
    path = tmp_path / "gallery.csv"
    save_gallery(gallery, path)
    back = load_gallery(path)
    np.testing.assert_allclose(back.matrix, gallery.matrix, atol=1e-12)
    np.testing.assert_array_equal(back.classes, gallery.classes)
    np.testing.assert_array_equal(back.pose_slots, gallery.pose_slots)
    assert back.q == gallery.q


def _generic(rng, ids=3, per_id=4, d=10):
    cols, labels, poses = [], [], []
    for i in range(ids):
        for s in range(per_id):
            cols.append(rng.normal(size=d))
            labels.append(100 + i)
            poses.append([0, 0, 0] if s == 0 else rng.uniform(5, 40, size=3))
    return SampleMatrix(np.column_stack(cols)), SampleMeta(labels=labels, poses=poses)


def test_variational_direct_subtraction():
    generic = SampleMatrix(np.array([[1.0, 2.0], [1.0, 3.0]]))
    meta = SampleMeta(labels=[7, 7], poses=[[0, 0, 0], [10, 0, 0]])
    clustering = PoseClustering((1,), np.array([[10.0, 0, 0]]), np.array([1, 1]), 1)
    v = build_variational_dictionary(generic, meta, clustering)
    assert v.n_atoms == 1
    expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
    np.testing.assert_allclose(v.matrix[:, 0], expected, atol=1e-12)
    assert v.blocks[0] == 1


def test_variational_counting_oracle():
    rng = np.random.default_rng(6)
    generic, meta = _generic(rng, ids=10, per_id=4)
    clustering = _clustering(3, rng=np.random.default_rng(7), n=40)
    v = build_variational_dictionary(generic, meta, clustering)
    assert v.n_atoms == generic.n_samples - 10
    sizes = [int(np.sum(v.blocks == b)) for b in range(1, 4)]
    assert sum(sizes) == v.n_atoms


def test_variational_blocks_contiguous_and_match_assignment():
    rng = np.random.default_rng(8)
    generic, meta = _generic(rng, ids=4, per_id=5)
    clustering = _clustering(3, rng=np.random.default_rng(9), n=20)
    v = build_variational_dictionary(generic, meta, clustering)
    assert np.all(np.diff(v.blocks) >= 0)
    # every atom's block equals the pose cluster of its source sample
    for j in range(v.n_atoms):
        source_cols = np.flatnonzero(
            (meta.labels == v.source_labels[j])
            & np.all(np.isclose(meta.poses, v.atom_poses[j]), axis=1)
        )
        assert any(clustering.block_of(int(c)) == v.blocks[j] for c in source_cols)


def test_variational_single_sample_identity_warns():
    generic = SampleMatrix(np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]]))
    meta = SampleMeta(labels=[1, 2, 2], poses=[[0, 0, 0], [0, 0, 0], [10, 0, 0]])
    clustering = PoseClustering((1,), np.array([[5.0, 0, 0]]), np.array([1, 1, 1]), 1)
    with pytest.warns(RuntimeWarning, match="single sample"):
        v = build_variational_dictionary(generic, meta, clustering)
    assert v.n_atoms == 1


def test_variational_empty_result_rejected():
    generic = SampleMatrix(np.array([[1.0], [2.0]]))
    meta = SampleMeta(labels=[1], poses=[[0, 0, 0]])
    clustering = PoseClustering((0,), np.zeros((1, 3)), np.zeros(1, dtype=int), 1)
    with pytest.raises(DataError, match="no variation atoms"):
        with pytest.warns(RuntimeWarning):
            build_variational_dictionary(generic, meta, clustering)


def test_variational_natural_tie_breaks_to_lowest_index():
    generic = SampleMatrix(np.array([[1.0, 2.0, 4.0], [0.0, 1.0, 3.0]]))
    meta = SampleMeta(labels=[5, 5, 5], poses=[[0, 0, 0], [0, 0, 0], [10, 0, 0]])
    clustering = PoseClustering((2,), np.array([[10.0, 0, 0]]), np.array([2, 2, 2]), 1)
    v = build_variational_dictionary(generic, meta, clustering)
    # Column 0 is the natural sample, so both atoms point along (1, 1); with
    # column 1 as the natural the first atom would point along (-1, -1).
    np.testing.assert_allclose(v.matrix[:, 0], np.array([1.0, 1.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(v.matrix[:, 1], np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_variational_labeled_natural_mode():
    rng = np.random.default_rng(10)
    generic, meta = _generic(rng, ids=2, per_id=3)
    clustering = _clustering(2, rng=np.random.default_rng(11), n=6)
    marked = build_variational_dictionary(
        generic, meta, clustering, natural_marks=[1, 4]
    )
    assert marked.n_atoms == 4
    with pytest.raises(DataError, match="exactly one"):
        build_variational_dictionary(
            generic, meta, clustering, natural_marks=[1, 2, 4]
        )


def test_variational_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    generic, meta = _generic(rng)
    clustering = _clustering(2, rng=np.random.default_rng(13), n=12)
    v = build_variational_dictionary(generic, meta, clustering)
    path = tmp_path / "variational.spvm"
    save_variational(v, path)
    back = load_variational(path)
    np.testing.assert_array_equal(back.matrix, v.matrix)
    np.testing.assert_array_equal(back.blocks, v.blocks)
    assert back.q == v.q


def test_paired_memo_is_not_part_of_the_gallery_value(tmp_path):
    rng = np.random.default_rng(14)
    generic, meta = _generic(rng)
    clustering = _clustering(2, rng=np.random.default_rng(15), n=12)
    v = build_variational_dictionary(generic, meta, clustering)
    stills, stills_meta = _stills(rng, 3)
    gallery = build_augmented_gallery(stills, stills_meta, clustering, ToySynthesizer(10, seed=6))
    text = repr(gallery)
    pair = gallery.paired(v)
    assert pair.table((1, 2)) is not None
    assert pair.built == 1
    # The pair holds the gallery's and the dictionary's arrays, not copies,
    # and serves every later request for the same dictionary.
    assert pair.dp is gallery.matrix and pair.v is v.matrix
    assert gallery.paired(v) is pair
    assert gallery == gallery and repr(gallery) == text and "_paired" not in text
    value = [f.name for f in dataclasses.fields(gallery) if f.compare]
    assert value == ["matrix", "classes", "pose_slots", "atom_poses", "q"]
    # The variational dictionary holds its value and nothing else.
    assert [f.name for f in dataclasses.fields(v)] == [
        "matrix", "blocks", "source_labels", "atom_poses", "q"
    ]

    path = tmp_path / "gallery.spvm"
    save_gallery(gallery, path)
    for copy in (dataclasses.replace(gallery), load_gallery(path)):
        for name in value:
            np.testing.assert_array_equal(getattr(copy, name), getattr(gallery, name))
        assert repr(copy) == text
        # Each copy starts without a pair and builds its own.
        assert copy._paired is None
        assert copy.paired(v) is not pair
    with pytest.raises(ValueError):
        dataclasses.replace(gallery, _paired=gallery._paired)


def test_empty_variational_refused_on_save(tmp_path):
    empty = VariationalDictionary(np.zeros((4, 0)), np.zeros(0), np.zeros(0), np.zeros((0, 3)), 0)
    with pytest.raises(DataError):
        save_variational(empty, tmp_path / "v.csv")


def test_toy_synthesizer_identity_at_frontal():
    synth = ToySynthesizer(12, seed=0, warp_strength=2.0)
    x = np.random.default_rng(1).normal(size=12)
    np.testing.assert_array_equal(synth.synthesize(x, (0, 0, 0)), x)


def test_toy_synthesizer_preserves_norm_without_offset():
    rng = np.random.default_rng(2)
    x = rng.normal(size=16)
    synth = ToySynthesizer(16, seed=3, warp_strength=1.5)
    warped = synth.synthesize(x, (20, -15, 10))
    offset = _rotation_only(synth, x, (20, -15, 10))
    assert abs(np.linalg.norm(warped - offset) - np.linalg.norm(x)) <= 1e-10


def _rotation_only(synth, x, pose):
    # isolate the additive offset by synthesizing the zero vector
    return synth.synthesize(np.zeros_like(x), pose)


def test_toy_synthesizer_nonlinear_not_additive():
    rng = np.random.default_rng(4)
    synth = ToySynthesizer(16, seed=5, warp_strength=2.0)
    x1 = rng.normal(size=16)
    x2 = rng.normal(size=16)
    pose = (25, 10, -10)
    lhs = synth.synthesize(x1 + x2, pose) + _rotation_only(synth, np.zeros(16), pose)
    rhs = synth.synthesize(x1, pose) + synth.synthesize(x2, pose)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    # but the warp differs from a global additive shift: x + const
    shift = synth.synthesize(x1, pose) - x1
    np.testing.assert_array_less(1e-3, np.max(np.abs(synth.synthesize(x2, pose) - (x2 + shift))))


def test_toy_synthesizer_deterministic_across_processes():
    code = (
        "import numpy as np\n"
        "from spv.dictionaries import ToySynthesizer\n"
        "s = ToySynthesizer(8, seed=42, warp_strength=1.3)\n"
        "x = np.arange(8, dtype=float)\n"
        "print(','.join(format(v, '.17g') for v in s.synthesize(x, (12, -7, 3))))\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    assert len(outs) == 1


def test_import_synthesizer_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    poses = [[10.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 30.0]]
    manifest = {"classes": [0, 1], "poses": poses}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    stored = {}
    for c in range(2):
        for p in range(3):
            vec = rng.normal(size=6)
            stored[(c, p)] = vec
            lines = "\n".join(format_float(v) for v in vec)
            (tmp_path / f"{c}_{p}.csv").write_text(lines + "\n")
    synth = ImportedSynthesizer(tmp_path)
    got = synth.synthesize(np.zeros(6), poses[2], class_id=1)
    np.testing.assert_array_equal(got, stored[(1, 2)])
    with pytest.raises(DataError, match="no stored view"):
        synth.synthesize(np.zeros(6), (99.0, 0.0, 0.0), class_id=0)
    still = rng.normal(size=6)
    np.testing.assert_array_equal(synth.synthesize(still, (0, 0, 0), class_id=0), still)
    (tmp_path / "0_1.csv").unlink()
    with pytest.raises(DataError, match="missing stored view"):
        synth.synthesize(np.zeros(6), poses[1], class_id=0)


def test_import_synthesizer_full_gallery_build(tmp_path):
    rng = np.random.default_rng(7)
    poses = [[15.0, 5.0, 0.0], [5.0, 25.0, 0.0], [-10.0, 10.0, 5.0]]
    (tmp_path / "manifest.json").write_text(json.dumps({"classes": [0, 1], "poses": poses}))
    for c in range(2):
        for p in range(3):
            vec = rng.normal(size=6)
            (tmp_path / f"{c}_{p}.csv").write_text(
                "\n".join(format_float(v) for v in vec) + "\n"
            )
    stills = SampleMatrix(rng.normal(size=(6, 2)))
    meta = SampleMeta(labels=[0, 1], poses=np.zeros((2, 3)))
    clustering = PoseClustering((0, 1, 2), np.array(poses), np.arange(3), 3)
    gallery = build_augmented_gallery(stills, meta, clustering, ImportedSynthesizer(tmp_path))
    assert gallery.matrix.shape == (6, 8)
    np.testing.assert_array_equal(gallery.classes, [0, 0, 0, 0, 1, 1, 1, 1])
    missing = ImportedSynthesizer(tmp_path)
    with pytest.raises(DataError, match="class"):
        missing.synthesize(np.zeros(6), poses[0], class_id=9)


def test_gallery_layout_validation():
    with pytest.raises(DataError):
        AugmentedGallery(
            np.ones((4, 4)), [0, 0, 1, 1], [0, 1, 1, 0], np.zeros((4, 3)), 1
        )
    with pytest.raises(DataError):
        VariationalDictionary(
            np.ones((4, 2)), [2, 1], [0, 1], np.zeros((2, 3)), 2
        )


@pytest.mark.parametrize("q", ["two", None, [2], -1, 2.9, True])
def test_wrong_sidecar_q_is_a_data_error(tmp_path, q):
    rng = np.random.default_rng(14)
    stills, meta = _stills(rng, 2)
    save_gallery(build_augmented_gallery(stills, meta, _clustering(2), IdentitySynthesizer()),
                 tmp_path / "g.csv")
    generic, generic_meta = _generic(rng)
    v = build_variational_dictionary(generic, generic_meta, _clustering(2, n=12))
    save_variational(v, tmp_path / "v.csv")
    for path, load in ((tmp_path / "g.csv", load_gallery), (tmp_path / "v.csv", load_variational)):
        sidecar = Path(str(path) + ".meta.json")
        raw = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**raw, "q": q}))
        with pytest.raises(DataError, match="q must be"):
            load(path)
