import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spv.matrixio import DataError
from spv.metrics import aupr, pauc20, pr_curve, roc_curve

from oracles import aupr_reference, pauc_dense_oracle, roc_brute_force


def test_roc_perfect_separation_passes_through_top_left():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [True, True, False, False]
    points = roc_curve(scores, labels)
    assert (0.0, 1.0) in points
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


def test_roc_constant_scores_is_diagonal():
    points = roc_curve([0.5] * 6, [True, False, True, False, True, False])
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.uniform(size=n) < 0.5
        if labels.all() or not labels.any():
            continue
        ours = roc_curve(scores, labels)
        brute = roc_brute_force(scores, labels)
        assert len(ours) == len(set(ours))
        for point in ours:
            assert any(abs(point[0] - b[0]) < 1e-12 and abs(point[1] - b[1]) < 1e-12 for b in brute)
        # every achievable operating point shows up
        assert len(set(ours)) == len(brute)


def test_tied_infinite_scores_group_like_finite_ties():
    labels = [1, 0, 1, 0, 1, 0]
    rejected = [1.0, 0.5, -np.inf, -np.inf, -np.inf, -np.inf]
    finite = [1.0, 0.5, -9.0, -9.0, -9.0, -9.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert roc_curve(rejected, labels) == roc_curve(finite, labels)
        areas = [aupr(pr_curve(rejected, order)) for order in (labels, [1, 0, 0, 1, 0, 1])]
    assert areas[0] == areas[1]


def test_roc_single_class_rejected():
    with pytest.raises(DataError):
        roc_curve([0.1, 0.2], [True, True])


def test_pauc20_perfect_is_one():
    points = roc_curve([3.0, 2.0, 1.0, 0.5], [True, True, False, False])
    assert pauc20(points) == pytest.approx(1.0, abs=1e-15)


def test_pauc20_diagonal_is_point_one():
    assert abs(pauc20([(0.0, 0.0), (1.0, 1.0)]) - 0.1) <= 1e-15


def test_pauc20_matches_dense_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(6, 60))
        scores = rng.normal(size=n)
        labels = rng.uniform(size=n) < 0.4
        if labels.all() or not labels.any():
            continue
        points = roc_curve(scores, labels)
        assert pauc20(points) == pytest.approx(pauc_dense_oracle(points), abs=1e-9)


def test_aupr_perfect_is_one():
    points = pr_curve([3.0, 2.0, 1.0, 0.5], [True, True, False, False])
    assert aupr(points) == pytest.approx(1.0, abs=1e-12)


def test_aupr_all_impostor_rejected():
    with pytest.raises(DataError):
        pr_curve([0.3, 0.2], [False, False])


def test_aupr_random_scores_near_prevalence():
    rng = np.random.default_rng(2)
    n = 1000
    scores = rng.normal(size=n)
    labels = rng.uniform(size=n) < 0.3
    value = aupr(pr_curve(scores, labels))
    assert abs(value - labels.mean()) <= 0.1


def test_aupr_matches_reference_trapezoid():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    labels = rng.uniform(size=40) < 0.5
    points = pr_curve(scores, labels)
    assert aupr(points) == pytest.approx(aupr_reference(points), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_metrics_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = 30
    scores = rng.normal(size=n)
    labels = rng.uniform(size=n) < 0.5
    if labels.all() or not labels.any():
        return
    for transform in (lambda s: 3.0 * s + 7.0, np.exp, lambda s: np.arctan(s)):
        base_roc = roc_curve(scores, labels)
        warped_roc = roc_curve(transform(scores), labels)
        assert pauc20(base_roc) == pytest.approx(pauc20(warped_roc), abs=1e-12)
        assert aupr(pr_curve(scores, labels)) == pytest.approx(
            aupr(pr_curve(transform(scores), labels)), abs=1e-12
        )


def test_roc_points_monotone_in_fpr():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=50)
    labels = rng.uniform(size=50) < 0.5
    points = roc_curve(scores, labels)
    fprs = [p[0] for p in points]
    tprs = [p[1] for p in points]
    assert all(b >= a for a, b in zip(fprs, fprs[1:]))
    assert all(b >= a for a, b in zip(tprs, tprs[1:]))
