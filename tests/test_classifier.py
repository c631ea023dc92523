import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spv.solvers
from spv.classifier import (
    ProbeDecision,
    accept,
    class_selector,
    classify,
    esrc_classify,
    nn_template_classify,
    sci,
    spv_classify,
)
from spv.dictionaries import (
    AugmentedGallery,
    IdentitySynthesizer,
    ToySynthesizer,
    VariationalDictionary,
    build_augmented_gallery,
)
from spv.exemplars import PoseClustering
from spv.matrixio import DataError, ModelConfig, SampleMatrix, SampleMeta
from spv.solvers import extended_solve

from oracles import cd_lasso, cd_weighted_lasso


def test_class_selector_basic():
    out = class_selector(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1]), 1)
    np.testing.assert_array_equal(out, [0.0, 2.0, 3.0])


def test_class_selector_unknown_class():
    with pytest.raises(DataError, match="does not appear"):
        class_selector(np.array([1.0]), np.array([0]), 5)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_class_selector_partition_identity(k, seed):
    rng = np.random.default_rng(seed)
    code = rng.normal(size=12)
    classes = rng.integers(0, k, size=12)
    total = sum(
        class_selector(code, classes, c) for c in np.unique(classes)
    )
    np.testing.assert_allclose(total, code, atol=1e-12)


def test_sci_concentrated_is_one():
    classes = np.repeat(np.arange(5), 2)
    alpha = np.zeros(10)
    alpha[0] = 3.0
    assert sci(alpha, classes) == pytest.approx(1.0)


def test_sci_uniform_is_zero():
    classes = np.repeat(np.arange(5), 2)
    alpha = np.ones(10)
    assert sci(alpha, classes) == pytest.approx(0.0, abs=1e-12)


def test_sci_direct_arithmetic():
    # max class fraction 0.6 over 5 classes: (5 * 0.6 - 1) / 4 = 0.5
    classes = np.arange(5)
    alpha = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
    assert sci(alpha, classes) == pytest.approx(0.5)


def test_sci_zero_mass_and_class_count_guard():
    classes = np.arange(5)
    assert sci(np.zeros(5), classes) == 0.0
    with pytest.raises(DataError):
        sci(np.ones(2), np.zeros(2, dtype=int))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_sci_range_and_scale_invariance(k, seed, scale):
    rng = np.random.default_rng(seed)
    classes = rng.integers(0, k, size=3 * k)
    alpha = rng.normal(size=3 * k)
    value = sci(alpha, classes, k)
    assert 0.0 <= value <= 1.0
    assert sci(alpha * scale, classes, k) == pytest.approx(value, abs=1e-12)
    # The per-class l1 masses, one mask at a time, as the reference.
    masses = [np.sum(np.abs(alpha[classes == c])) for c in np.unique(classes)]
    reference = (k * max(masses) / np.sum(np.abs(alpha)) - 1.0) / (k - 1.0)
    assert value == pytest.approx(min(max(reference, 0.0), 1.0), abs=1e-12)


def test_accept_boundary():
    decision = ProbeDecision((0, 1), np.array([0.5, 1.0]), 0, 0.25, True, None)
    assert accept(decision, 0.25) is True
    low = ProbeDecision((0, 1), np.array([0.5, 1.0]), 0, 0.0, False, None)
    assert accept(low, 0.25) is False
    with pytest.raises(DataError):
        accept(decision, 1.0)


def _still_setup(rng, k=4, d=12):
    stills = rng.normal(size=(d, k))
    meta = SampleMeta(labels=np.arange(k), poses=np.zeros((k, 3)))
    return SampleMatrix(stills), meta


def _stills_gallery(rng, k=4, d=12):
    """A q = 0 gallery: one unit-norm still per class, all at pose slot 0."""
    return build_augmented_gallery(*_still_setup(rng, k, d), None, IdentitySynthesizer())


def _src(gallery, y, config):
    return classify("src", gallery, None, y, config)


def test_src_recovers_enrolled_still():
    rng = np.random.default_rng(0)
    gallery = _stills_gallery(rng)
    config = ModelConfig(lam=1e-6, tol=1e-10, max_iter=4000)
    decision = _src(gallery, gallery.matrix[:, 3], config)
    assert decision.predicted == 3
    assert decision.min_residual <= 1e-5
    assert decision.accepted


def test_src_orthogonal_probe_rejected():
    rng = np.random.default_rng(1)
    gallery = _stills_gallery(rng, k=3, d=12)
    y = rng.normal(size=12)
    q, _ = np.linalg.qr(gallery.matrix)
    y -= q @ (q.T @ y)
    decision = _src(gallery, y, ModelConfig(lam=0.01))
    assert np.max(np.abs(decision.code.alpha)) <= 1e-9
    np.testing.assert_allclose(decision.residuals, np.linalg.norm(y), atol=1e-9)
    assert not decision.accepted


def test_src_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(2)
    config = ModelConfig(lam=0.05, tol=1e-10, max_iter=6000)
    for _ in range(8):
        gallery = _stills_gallery(rng, k=5, d=10)
        y = gallery.matrix[:, int(rng.integers(5))] + 0.1 * rng.normal(size=10)
        decision = _src(gallery, y, config)
        alpha = cd_lasso(gallery.matrix, y, config.lam)
        residuals = [
            np.linalg.norm(y - gallery.matrix @ np.where(gallery.classes == c, alpha, 0.0))
            for c in range(5)
        ]
        margin = np.partition(residuals, 1)
        if margin[1] - margin[0] < 1e-6:
            continue
        assert decision.predicted == int(np.argmin(residuals))


def _variational(rng, d=12, q=2, per_block=2):
    atoms = rng.normal(size=(d, q * per_block))
    atoms /= np.linalg.norm(atoms, axis=0)
    blocks = np.repeat(np.arange(1, q + 1), per_block)
    return VariationalDictionary(
        atoms, blocks, np.arange(q * per_block) + 100, np.zeros((q * per_block, 3)), q
    )


def test_esrc_explains_additive_variation():
    rng = np.random.default_rng(3)
    gallery = _stills_gallery(rng)
    v = _variational(rng)
    y = gallery.matrix[:, 2] + 0.6 * v.matrix[:, 1]
    config = ModelConfig(lam=1e-4, mu=1e-4, tau=0.5, tol=1e-9, max_iter=5000)
    esrc = esrc_classify(gallery, v, y, config)
    src = _src(gallery, y, config)
    assert esrc.predicted == 2
    assert esrc.min_residual <= 1e-4
    assert src.min_residual > 0.1


def test_esrc_empty_variational_equals_src():
    rng = np.random.default_rng(4)
    gallery = _stills_gallery(rng)
    y = rng.normal(size=12)
    config = ModelConfig(lam=0.02)
    a = esrc_classify(gallery, None, y, config)
    b = _src(gallery, y, config)
    assert a.predicted == b.predicted
    np.testing.assert_array_equal(a.residuals, b.residuals)
    assert a.sci == b.sci
    np.testing.assert_array_equal(a.code.alpha, b.code.alpha)
    np.testing.assert_array_equal(a.code.beta, b.code.beta)
    assert (a.code.objective, a.code.iterations, a.code.converged) == (
        b.code.objective, b.code.iterations, b.code.converged
    )


def test_esrc_matches_weighted_cd_oracle():
    rng = np.random.default_rng(5)
    config = ModelConfig(lam=0.06, mu=0.03, tau=1.0, tol=1e-10, max_iter=6000)
    for _ in range(6):
        gallery = _stills_gallery(rng, k=4, d=10)
        v = _variational(rng, d=10)
        y = gallery.matrix[:, 1] + 0.4 * v.matrix[:, 0] + 0.05 * rng.normal(size=10)
        decision = esrc_classify(gallery, v, y, config)
        stacked = np.concatenate([gallery.matrix, v.matrix], axis=1)
        weights = np.concatenate([np.full(4, config.lam), np.full(v.n_atoms, config.mu)])
        code = cd_weighted_lasso(stacked, y, weights)
        shared = v.matrix @ code[4:]
        residuals = [
            np.linalg.norm(y - gallery.matrix @ np.where(gallery.classes == c, code[:4], 0.0) - shared)
            for c in range(4)
        ]
        margin = np.partition(residuals, 1)
        if margin[1] - margin[0] < 1e-6:
            continue
        assert decision.predicted == int(np.argmin(residuals))


def test_esrc_min_residual_never_above_src_on_explainable_probes():
    # Holds when the probe is reachable from the dictionaries; far-off
    # random probes can invert it (the shared part thins out the per-class
    # code), so the property is asserted on still-plus-variation probes.
    for seed in range(20):
        local = np.random.default_rng(seed)
        gallery = _stills_gallery(local, k=4, d=10)
        v = _variational(local, d=10)
        k = int(local.integers(4))
        y = (
            gallery.matrix[:, k]
            + local.uniform(0.2, 0.8) * v.matrix[:, int(local.integers(v.n_atoms))]
            + 0.02 * local.normal(size=10)
        )
        config = ModelConfig(lam=0.03, mu=0.03, tau=1.0, tol=1e-8, max_iter=5000)
        a = esrc_classify(gallery, v, y, config)
        b = _src(gallery, y, config)
        assert a.min_residual <= b.min_residual + 1e-6


def _spv_setup(rng, k=3, q=2, d=12):
    stills, meta = _still_setup(rng, k=k, d=d)
    poses = np.vstack([rng.uniform(10, 40, size=3) for _ in range(q)])
    clustering = PoseClustering(
        tuple(range(q)), poses, np.arange(q), q
    )
    synth = ToySynthesizer(d, seed=5, warp_strength=1.0)
    gallery = build_augmented_gallery(stills, meta, clustering, synth)
    v = _variational(rng, d=d, q=q, per_block=2)
    return gallery, v


def test_spv_constructed_in_model_probe():
    rng = np.random.default_rng(7)
    gallery, v = _spv_setup(rng)
    atom = np.flatnonzero((gallery.classes == 2) & (gallery.pose_slots == 2))[0]
    block = np.flatnonzero(v.blocks == 2)
    y = gallery.matrix[:, atom] + 0.5 * v.matrix[:, block[0]]
    config = ModelConfig(lam=1e-8, mu=1e-8, xi=1, tol=1e-10, max_iter=5000)
    decision = spv_classify(gallery, v, y, config)
    assert decision.predicted == 2
    assert decision.min_residual <= 1e-5
    aset = decision.code.active_sets[0]
    assert (aset.pose_slot, aset.block) == (2, 2)


def test_spv_frontal_still_probe():
    rng = np.random.default_rng(8)
    gallery, v = _spv_setup(rng)
    config = ModelConfig(lam=1e-8, mu=1e-8, xi=2, tol=1e-10, max_iter=5000)
    decision = spv_classify(gallery, v, gallery.matrix[:, 0], config)
    assert decision.predicted == gallery.classes[0]
    assert decision.min_residual <= 1e-6


def test_spv_residuals_of_classes_without_an_active_set_are_the_probe_norm():
    rng = np.random.default_rng(12)
    gallery, v = _spv_setup(rng, k=8)
    atom = np.flatnonzero((gallery.classes == 5) & (gallery.pose_slots == 1))[0]
    y = gallery.matrix[:, atom] + 0.3 * v.matrix[:, 0] + 0.05 * rng.normal(size=12)
    decision = spv_classify(gallery, v, y, ModelConfig(lam=0.01, mu=0.01, xi=2))
    sets = decision.code.active_sets
    active = {s.class_id for s in sets}
    assert 1 <= len(active) <= 2
    expected = []
    for c in range(8):
        recon = gallery.matrix @ class_selector(decision.code.alpha, gallery.classes, c)
        blocks = sorted({s.block for s in sets if s.class_id == c})
        if blocks:
            recon = recon + v.matrix @ np.where(np.isin(v.blocks, blocks), decision.code.beta, 0.0)
        expected.append(float(np.linalg.norm(y - recon)))
    np.testing.assert_array_equal(decision.residuals, expected)
    inactive = [c for c in range(8) if c not in active]
    np.testing.assert_array_equal(decision.residuals[inactive], np.linalg.norm(y))


def _same_code(kept, fresh):
    _same_decision(kept, fresh)
    assert kept.code.active_sets == fresh.code.active_sets
    assert kept.code.evaluations == fresh.code.evaluations > 24


def test_spv_memo_serves_only_the_gallery_it_was_built_for():
    # One variational dictionary codes probes against two galleries in the
    # order G1, G2, G1. The scan's enrollment tables (admissible sets,
    # block-union factors, projected galleries) belong to the pair of a
    # gallery and a dictionary: every decision equals the one from a fresh
    # gallery, which builds its own.
    rng = np.random.default_rng(15)
    g1, v = _spv_setup(rng, k=8)
    g2, _ = _spv_setup(rng, k=8)
    config = ModelConfig(lam=0.01, mu=0.01)
    # 8 classes x 3 atoms: C(24, 3) combinations, so the greedy search runs.
    probes = [
        g1.matrix[:, 4] + 0.3 * v.matrix[:, 0] + 0.05 * rng.normal(size=12),
        g2.matrix[:, 10] + 0.2 * v.matrix[:, 3] + 0.05 * rng.normal(size=12),
        rng.normal(size=12),
    ]
    for gallery in (g1, g2, g1):
        for y in probes:
            kept = spv_classify(gallery, v, y, config)
            _same_code(kept, spv_classify(dataclasses.replace(gallery), v, y, config))


def test_spv_pair_serves_only_the_variational_dictionary_it_was_built_for():
    # The mirror case: one gallery codes probes with V1, V2, V1 and then
    # none. Each switch replaces the gallery's pair, so every decision
    # equals the one from a fresh gallery.
    rng = np.random.default_rng(16)
    gallery, v1 = _spv_setup(rng, k=8)
    v2 = _variational(rng)
    config = ModelConfig(lam=0.01, mu=0.01)
    probes = [
        gallery.matrix[:, 4] + 0.3 * v1.matrix[:, 0] + 0.05 * rng.normal(size=12),
        gallery.matrix[:, 10] + 0.2 * v2.matrix[:, 3] + 0.05 * rng.normal(size=12),
        rng.normal(size=12),
    ]
    for variational in (v1, v2, v1, None):
        for y in probes:
            kept = spv_classify(gallery, variational, y, config)
            _same_code(kept, spv_classify(dataclasses.replace(gallery), variational, y, config))
        assert gallery.paired(variational).v.shape[1] == (0 if variational is None else 4)


def test_gallery_only_coding_enumerates_the_admissible_sets_once(monkeypatch):
    # Without a variational dictionary the gallery still keeps its pair:
    # a second probe reuses the first's admissible sets and tables.
    rng = np.random.default_rng(17)
    gallery, _ = _spv_setup(rng, k=8)
    config = ModelConfig(lam=0.01, mu=0.01)
    probes = [gallery.matrix[:, 4] + 0.05 * rng.normal(size=12), rng.normal(size=12)]
    enumerated = []
    enumerate_sets = spv.solvers.admissible_active_sets
    monkeypatch.setattr(
        spv.solvers, "admissible_active_sets",
        lambda *args: enumerated.append(args) or enumerate_sets(*args),
    )
    kept = [spv_classify(gallery, None, y, config) for y in probes]
    assert len(enumerated) == 1
    for decision, y in zip(kept, probes):
        _same_code(decision, spv_classify(dataclasses.replace(gallery), None, y, config))


def test_spv_clustering_mismatch_is_hard_error():
    rng = np.random.default_rng(9)
    gallery, _ = _spv_setup(rng, q=2)
    wrong = _variational(rng, d=12, q=3, per_block=2)
    with pytest.raises(DataError, match="mismatch"):
        spv_classify(gallery, wrong, np.ones(12), ModelConfig())


def test_decisions_permute_with_relabeling():
    rng = np.random.default_rng(10)
    stills, meta = _still_setup(rng, k=4)
    gallery = build_augmented_gallery(stills, meta, None, IdentitySynthesizer())
    y = gallery.matrix[:, 1] + 0.05 * rng.normal(size=12)
    config = ModelConfig(lam=0.01)
    base = _src(gallery, y, config)
    perm = {0: 3, 1: 0, 2: 2, 3: 1}
    permuted_meta = SampleMeta(
        labels=[perm[int(c)] for c in meta.labels], poses=meta.poses
    )
    permuted = build_augmented_gallery(stills, permuted_meta, None, IdentitySynthesizer())
    np.testing.assert_array_equal(permuted.matrix, gallery.matrix)
    moved = _src(permuted, y, config)
    assert moved.predicted == perm[base.predicted]
    for c in range(4):
        assert moved.residual_of(perm[c]) == pytest.approx(base.residual_of(c), abs=1e-12)


def test_nn_template_reference():
    rng = np.random.default_rng(11)
    gallery = _stills_gallery(rng, k=3)
    decision = nn_template_classify(gallery, gallery.matrix[:, 2])
    assert decision.predicted == 2
    assert decision.min_residual == pytest.approx(0.0, abs=1e-12)
    assert decision.sci == 0.0 and not decision.accepted


def test_probe_decision_invariants():
    with pytest.raises(DataError):
        ProbeDecision((0, 1), np.array([1.0, 0.5]), 0, 0.5, True, None)
    with pytest.raises(DataError):
        ProbeDecision((0, 1), np.array([0.5, 1.0]), 0, 1.5, True, None)


def _same_decision(a, b):
    assert a.class_ids == b.class_ids and a.predicted == b.predicted
    np.testing.assert_array_equal(a.residuals, b.residuals)
    assert (a.sci, a.accepted) == (b.sci, b.accepted)
    if b.code is not None:
        np.testing.assert_array_equal(a.code.alpha, b.code.alpha)
        np.testing.assert_array_equal(a.code.beta, b.code.beta)


def test_classify_decides_with_the_rule_it_names():
    rng = np.random.default_rng(13)
    gallery, v = _spv_setup(rng, k=4)
    y = gallery.matrix[:, 5] + 0.3 * v.matrix[:, 0] + 0.02 * rng.normal(size=12)
    config = ModelConfig(lam=0.01, mu=0.01)
    _same_decision(classify("spv", gallery, v, y, config), spv_classify(gallery, v, y, config))
    _same_decision(classify("src", gallery, v, y, config), esrc_classify(gallery, None, y, config))
    _same_decision(classify("esrc", gallery, v, y, config), esrc_classify(gallery, v, y, config))
    _same_decision(classify("nn_template", gallery, v, y, config), nn_template_classify(gallery, y))
    # The baselines code over one still per class, the pose-slot-0 atoms.
    for method in ("src", "esrc"):
        assert classify(method, gallery, v, y, config).code.alpha.shape == (gallery.k,)


def test_src_and_esrc_code_over_the_stills_as_stored():
    # A gallery built directly need not hold unit-norm atoms: with its
    # stills scaled by 2, SRC and ESRC solve over the stored stills and
    # measure every class residual against them.
    rng = np.random.default_rng(18)
    built, v = _spv_setup(rng, k=4)
    slot0 = built.pose_slots == 0
    matrix = np.array(built.matrix)
    matrix[:, slot0] *= 2.0
    gallery = AugmentedGallery(matrix, built.classes, built.pose_slots, built.atom_poses, built.q)
    stills, classes = matrix[:, slot0], built.classes[slot0]
    y = stills[:, 1] + 0.3 * v.matrix[:, 0] + 0.02 * rng.normal(size=12)
    config = ModelConfig(lam=0.01, mu=0.01)
    for method, variational in (("src", None), ("esrc", v)):
        decision = classify(method, gallery, v, y, config)
        w = np.zeros((12, 0)) if variational is None else v.matrix
        code = extended_solve(stills, w, y, config.lam, config.mu, config.tau, config.tol,
                              config.max_iter)
        np.testing.assert_array_equal(decision.code.alpha, code.alpha)
        np.testing.assert_array_equal(decision.code.beta, code.beta)
        shared = w @ code.beta
        residuals = [np.linalg.norm(y - stills @ np.where(classes == c, code.alpha, 0.0) - shared)
                     for c in range(4)]
        np.testing.assert_allclose(decision.residuals, residuals, rtol=1e-12)


@pytest.mark.parametrize("method", ["nn", "SRC", "lasso", ""])
def test_classify_unknown_method_is_a_data_error(method):
    gallery, v = _spv_setup(np.random.default_rng(14))
    with pytest.raises(DataError, match="unknown method"):
        classify(method, gallery, v, gallery.matrix[:, 0], ModelConfig())


@pytest.mark.parametrize("method", ["spv", "esrc", "src", "nn_template"])
def test_a_malformed_probe_is_a_data_error_before_any_solve(method, monkeypatch):
    gallery, v = _spv_setup(np.random.default_rng(15))
    y = gallery.matrix[:, 0]

    def solve(*args, **kwargs):
        raise AssertionError("a malformed probe reached a solve")

    monkeypatch.setattr(spv.classifier, "extended_solve", solve)
    monkeypatch.setattr(spv.classifier, "paired_solve", solve)
    for bad in (np.nan, np.inf, -np.inf):
        probe = y.copy()
        probe[3] = bad
        with pytest.raises(DataError, match="probe contains non-finite values"):
            classify(method, gallery, v, probe, ModelConfig())
    with pytest.raises(DataError, match="probe has 11 entries, but the dictionary has 12 rows"):
        classify(method, gallery, v, y[:-1], ModelConfig())


def test_a_variational_dictionary_of_another_row_count_is_a_data_error():
    # 36 sets at xi = 3: spv searches greedily, and must refuse the pair
    # before its scan with the error esrc gives.
    rng = np.random.default_rng(19)
    gallery, _ = _spv_setup(rng, k=12, d=20)
    v = _variational(rng, d=18)
    for method in ("spv", "esrc"):
        with pytest.raises(DataError, match=r"dictionary rows \(20, 18\) differ"):
            classify(method, gallery, v, gallery.matrix[:, 0], ModelConfig())


def test_esrc_factors_the_variational_dictionary_once(monkeypatch):
    # The Newton finish's eigendecomposition of 2 V'V is the variational
    # dictionary's own, made at its first ESRC probe and read by every
    # later one. Decisions match solves that make it themselves, and the
    # kept decomposition is not part of the dictionary's value.
    rng = np.random.default_rng(16)
    gallery, v = _spv_setup(rng, d=20)
    before = repr(v)
    probes = [gallery.matrix[:, j] + 0.4 * v.matrix[:, j % v.n_atoms] + 0.05 * rng.normal(size=20)
              for j in range(0, gallery.matrix.shape[1], 3)]
    eighs = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        cached = [classify("esrc", gallery, v, y, ModelConfig()) for y in probes]
    assert eighs == [(v.n_atoms, v.n_atoms)]
    solve = spv.classifier.extended_solve
    monkeypatch.setattr(
        spv.classifier, "extended_solve", lambda *args, spectrum=None: solve(*args)
    )
    own = [classify("esrc", gallery, v, y, ModelConfig()) for y in probes]
    values, vectors = v.spectrum()
    assert v.spectrum()[1] is vectors
    np.testing.assert_allclose(
        (vectors * values) @ vectors.T, 2.0 * v.matrix.T @ v.matrix, atol=1e-12
    )
    for a, b in zip(own, cached):
        assert (a.predicted, a.accepted) == (b.predicted, b.accepted)
        np.testing.assert_allclose(b.residuals, a.residuals, rtol=1e-9)
    assert repr(v) == before
    assert [f.name for f in dataclasses.fields(v)] == [
        "matrix", "blocks", "source_labels", "atom_poses", "q"
    ]
    assert dataclasses.replace(v)._spectrum is None
