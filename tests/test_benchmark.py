import numpy as np
import pytest

from spv.benchmark import BenchmarkSpec, generate_benchmark
from spv.classifier import classify
from spv.dictionaries import IdentitySynthesizer, build_augmented_gallery
from spv.matrixio import DataError, ModelConfig


def test_default_spec_counts():
    spec = BenchmarkSpec()
    bundle = generate_benchmark(spec)
    assert bundle.stills.data.shape == (spec.feature_dim, spec.n_classes)
    assert bundle.generic.n_samples == spec.n_generic_ids * spec.samples_per_generic_id
    assert bundle.probes.n_samples == spec.n_classes * spec.n_probe_per_id
    histogram = np.bincount(bundle.probes_meta.labels)
    assert np.all(histogram == spec.n_probe_per_id)


def test_generic_ids_disjoint_from_classes():
    spec = BenchmarkSpec(n_classes=8, n_watchlist=2, impostor_ratio=0.5)
    bundle = generate_benchmark(spec)
    assert set(bundle.generic_meta.labels) & set(range(spec.n_classes)) == set()


def test_degenerate_generator_probes_equal_stills():
    spec = BenchmarkSpec(
        n_classes=6,
        n_watchlist=3,
        noise_sigma=0.0,
        warp_strength=0.0,
        illum_strength=0.0,
        pose_jitter=0.0,
        probe_offset=0.0,
        n_probe_per_id=4,
    )
    bundle = generate_benchmark(spec)
    for j in range(bundle.probes.n_samples):
        c = int(bundle.probes_meta.labels[j])
        np.testing.assert_allclose(bundle.probes.column(j), bundle.stills.column(c), atol=1e-12)
    # rank-1 is perfect for plain coding on the degenerate set
    config = ModelConfig(lam=1e-6)
    gallery = build_augmented_gallery(bundle.stills, bundle.stills_meta, None, IdentitySynthesizer())
    hits = 0
    for j in range(0, bundle.probes.n_samples, 3):
        decision = classify("src", gallery, None, bundle.probes.column(j), config)
        hits += decision.predicted == int(bundle.probes_meta.labels[j])
    assert hits == len(range(0, bundle.probes.n_samples, 3))


def test_same_seed_bit_identical():
    spec = BenchmarkSpec(n_classes=10, n_watchlist=3)
    a = generate_benchmark(spec)
    b = generate_benchmark(spec)
    assert np.array_equal(a.stills.data, b.stills.data)
    assert np.array_equal(a.generic.data, b.generic.data)
    assert np.array_equal(a.probes.data, b.probes.data)
    assert np.array_equal(a.pose_modes, b.pose_modes)


def test_different_seed_differs():
    a = generate_benchmark(BenchmarkSpec(n_classes=6, n_watchlist=2, seed=1))
    b = generate_benchmark(BenchmarkSpec(n_classes=6, n_watchlist=2, seed=2))
    assert not np.array_equal(a.probes.data, b.probes.data)


def test_infeasible_specs_rejected():
    with pytest.raises(DataError, match="zero impostor"):
        BenchmarkSpec(n_watchlist=5, impostor_ratio=0.05)
    with pytest.raises(DataError, match="identities per"):
        BenchmarkSpec(n_classes=6, n_watchlist=5, impostor_ratio=0.5)
    with pytest.raises(DataError):
        BenchmarkSpec(n_watchlist=40, n_classes=30)
    with pytest.raises(DataError):
        BenchmarkSpec(impostor_ratio=1.0)
    with pytest.raises(DataError):
        BenchmarkSpec(noise_sigma=-0.1)


def test_impostor_id_count_convention():
    spec = BenchmarkSpec(n_watchlist=5, impostor_ratio=0.5)
    assert spec.n_impostor_ids == 5
    spec = BenchmarkSpec(n_watchlist=6, impostor_ratio=0.25)
    assert spec.n_impostor_ids == 2


def test_spec_json_roundtrip(tmp_path):
    spec = BenchmarkSpec(n_classes=12, n_watchlist=4, seed=99)
    path = tmp_path / "spec.json"
    import json

    path.write_text(json.dumps(spec.to_dict()))
    assert BenchmarkSpec.from_json(path) == spec
    with pytest.raises(DataError, match="unknown benchmark keys"):
        BenchmarkSpec.from_dict({"bogus": 1})


def test_generic_natural_sample_is_clean_frontal():
    spec = BenchmarkSpec(noise_sigma=0.0)
    bundle = generate_benchmark(spec)
    per_id = spec.samples_per_generic_id
    for i in range(spec.n_generic_ids):
        first = i * per_id
        np.testing.assert_array_equal(bundle.generic_meta.poses[first], np.zeros(3))
        np.testing.assert_allclose(
            bundle.generic.column(first),
            bundle.stills.data[:, 0] * 0 + bundle.generic.column(first),
        )
