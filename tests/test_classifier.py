import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spv.classifier import (
    ProbeDecision,
    accept,
    class_selector,
    esrc_classify,
    nn_template_classify,
    sci,
    spv_classify,
    src_classify,
)
from spv.dictionaries import (
    ToySynthesizer,
    VariationalDictionary,
    build_augmented_gallery,
)
from spv.exemplars import PoseClustering
from spv.matrixio import DataError, ModelConfig, SampleMatrix, SampleMeta

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


def test_accept_boundary():
    decision = ProbeDecision((0, 1), np.array([0.5, 1.0]), 0, 0.25, True, None)
    assert accept(decision, 0.25) is True
    low = ProbeDecision((0, 1), np.array([0.5, 1.0]), 0, 0.0, False, None)
    assert accept(low, 0.25) is False
    with pytest.raises(DataError):
        accept(decision, 1.0)


def _still_setup(rng, k=4, d=12):
    stills = rng.normal(size=(d, k))
    stills /= np.linalg.norm(stills, axis=0)
    meta = SampleMeta(labels=np.arange(k), poses=np.zeros((k, 3)))
    return SampleMatrix(stills), meta


def test_src_recovers_enrolled_still():
    rng = np.random.default_rng(0)
    stills, meta = _still_setup(rng)
    config = ModelConfig(lam=1e-6, tol=1e-10, max_iter=4000)
    decision = src_classify(stills, meta, stills.column(3), config)
    assert decision.predicted == 3
    assert decision.min_residual <= 1e-5
    assert decision.accepted


def test_src_orthogonal_probe_rejected():
    rng = np.random.default_rng(1)
    stills, meta = _still_setup(rng, k=3, d=12)
    y = rng.normal(size=12)
    q, _ = np.linalg.qr(stills.data)
    y -= q @ (q.T @ y)
    decision = src_classify(stills, meta, y, ModelConfig(lam=0.01))
    assert np.max(np.abs(decision.code.alpha)) <= 1e-9
    np.testing.assert_allclose(decision.residuals, np.linalg.norm(y), atol=1e-9)
    assert not decision.accepted


def test_src_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(2)
    config = ModelConfig(lam=0.05, tol=1e-10, max_iter=6000)
    for _ in range(8):
        stills, meta = _still_setup(rng, k=5, d=10)
        y = stills.column(int(rng.integers(5))) + 0.1 * rng.normal(size=10)
        decision = src_classify(stills, meta, y, config)
        alpha = cd_lasso(stills.data, y, config.lam)
        residuals = [
            np.linalg.norm(y - stills.data @ np.where(meta.labels == c, alpha, 0.0))
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
    stills, meta = _still_setup(rng)
    v = _variational(rng)
    y = stills.column(2) + 0.6 * v.matrix[:, 1]
    config = ModelConfig(lam=1e-4, mu=1e-4, tau=0.5, tol=1e-9, max_iter=5000)
    esrc = esrc_classify(stills, meta, v, y, config)
    src = src_classify(stills, meta, y, config)
    assert esrc.predicted == 2
    assert esrc.min_residual <= 1e-4
    assert src.min_residual > 0.1


def test_esrc_empty_variational_equals_src():
    rng = np.random.default_rng(4)
    stills, meta = _still_setup(rng)
    y = rng.normal(size=12)
    config = ModelConfig(lam=0.02)
    a = esrc_classify(stills, meta, None, y, config)
    b = src_classify(stills, meta, y, config)
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
        stills, meta = _still_setup(rng, k=4, d=10)
        v = _variational(rng, d=10)
        y = stills.column(1) + 0.4 * v.matrix[:, 0] + 0.05 * rng.normal(size=10)
        decision = esrc_classify(stills, meta, v, y, config)
        stacked = np.concatenate([stills.data, v.matrix], axis=1)
        weights = np.concatenate([np.full(4, config.lam), np.full(v.n_atoms, config.mu)])
        code = cd_weighted_lasso(stacked, y, weights)
        shared = v.matrix @ code[4:]
        residuals = [
            np.linalg.norm(y - stills.data @ np.where(meta.labels == c, code[:4], 0.0) - shared)
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
        stills, meta = _still_setup(local, k=4, d=10)
        v = _variational(local, d=10)
        k = int(local.integers(4))
        y = (
            stills.column(k)
            + local.uniform(0.2, 0.8) * v.matrix[:, int(local.integers(v.n_atoms))]
            + 0.02 * local.normal(size=10)
        )
        config = ModelConfig(lam=0.03, mu=0.03, tau=1.0, tol=1e-8, max_iter=5000)
        a = esrc_classify(stills, meta, v, y, config)
        b = src_classify(stills, meta, y, config)
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
    block = v.block_columns(2)
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


def test_spv_clustering_mismatch_is_hard_error():
    rng = np.random.default_rng(9)
    gallery, _ = _spv_setup(rng, q=2)
    wrong = _variational(rng, d=12, q=3, per_block=2)
    with pytest.raises(DataError, match="mismatch"):
        spv_classify(gallery, wrong, np.ones(12), ModelConfig())


def test_decisions_permute_with_relabeling():
    rng = np.random.default_rng(10)
    stills, meta = _still_setup(rng, k=4)
    y = stills.column(1) + 0.05 * rng.normal(size=12)
    config = ModelConfig(lam=0.01)
    base = src_classify(stills, meta, y, config)
    perm = {0: 3, 1: 0, 2: 2, 3: 1}
    permuted_meta = SampleMeta(
        labels=[perm[int(c)] for c in meta.labels], poses=meta.poses
    )
    moved = src_classify(stills, permuted_meta, y, config)
    assert moved.predicted == perm[base.predicted]
    for c in range(4):
        assert moved.residual_of(perm[c]) == pytest.approx(base.residual_of(c), abs=1e-12)


def test_nn_template_reference():
    rng = np.random.default_rng(11)
    stills, meta = _still_setup(rng, k=3)
    decision = nn_template_classify(stills, meta, stills.column(2))
    assert decision.predicted == 2
    assert decision.min_residual == pytest.approx(0.0, abs=1e-12)
    assert decision.sci == 0.0 and not decision.accepted


def test_probe_decision_invariants():
    with pytest.raises(DataError):
        ProbeDecision((0, 1), np.array([1.0, 0.5]), 0, 0.5, True, None)
    with pytest.raises(DataError):
        ProbeDecision((0, 1), np.array([0.5, 1.0]), 0, 1.5, True, None)
