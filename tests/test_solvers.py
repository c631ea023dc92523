import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spv.matrixio import DataError, ModelConfig
from spv.solvers import (
    admissible_active_sets,
    extended_solve,
    lasso_solve,
    paired_solve,
    restricted_least_squares,
    soft_threshold,
    tau_norm,
)

from oracles import (
    extended_objective,
    extended_support_oracle,
    lasso_objective,
    lasso_support_oracle,
)


def _dictionary(rng, d, n):
    a = rng.normal(size=(d, n))
    return a / np.linalg.norm(a, axis=0)


def test_lasso_recovers_exact_atom():
    rng = np.random.default_rng(0)
    a = _dictionary(rng, 6, 8)
    x = lasso_solve(a, a[:, 0], lam=1e-4)
    assert x[0] >= 0.99
    assert np.max(np.abs(x[1:])) <= 1e-3


def test_lasso_zero_probe_gives_zero_code():
    rng = np.random.default_rng(1)
    a = _dictionary(rng, 5, 7)
    assert np.all(lasso_solve(a, np.zeros(5), lam=0.1) == 0)


def test_lasso_dominates_support_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = _dictionary(rng, 6, 8)
        truth = np.zeros(8)
        truth[rng.choice(8, size=2, replace=False)] = rng.normal(size=2)
        y = a @ truth + 0.05 * rng.normal(size=6)
        lam = 0.05
        x = lasso_solve(a, y, lam, tol=1e-9, max_iter=5000)
        assert lasso_objective(a, y, x, lam) <= lasso_support_oracle(a, y, lam) + 1e-6


def test_lasso_subgradient_optimality():
    rng = np.random.default_rng(3)
    a = _dictionary(rng, 7, 9)
    y = rng.normal(size=7)
    lam = 0.08
    x = lasso_solve(a, y, lam, tol=1e-9, max_iter=5000)
    correlations = a.T @ (y - a @ x)
    assert np.max(np.abs(correlations)) <= lam + 1e-6
    on = x != 0
    # on-support stationarity with sign consistency: 2 a_j^T r = lam sign(x_j)
    np.testing.assert_allclose(
        2.0 * correlations[on], lam * np.sign(x[on]), atol=1e-6
    )


def test_lasso_dimension_mismatch():
    with pytest.raises(DataError):
        lasso_solve(np.ones((4, 2)), np.ones(3), 0.1)
    with pytest.raises(DataError):
        lasso_solve(np.ones((3, 2)), np.ones(3), 0.0)


def test_tau_norm_values():
    x = np.array([3.0, 4.0])
    assert tau_norm(x, 0.0) == pytest.approx(5.0)
    assert tau_norm(x, 1.0) == pytest.approx(7.0)
    assert tau_norm(x, 0.5) == pytest.approx(6.0)
    with pytest.raises(DataError):
        tau_norm(x, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_tau_norm_between_l2_and_l1(values, tau):
    x = np.array(values)
    l1, l2 = np.sum(np.abs(x)), np.linalg.norm(x)
    value = tau_norm(x, tau)
    assert min(l1, l2) - 1e-9 <= value <= max(l1, l2) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_soft_threshold_shrinks(values, amount):
    x = np.array(values)
    out = soft_threshold(x, amount)
    assert np.all(np.abs(out) <= np.maximum(np.abs(x) - amount, 0.0) + 1e-12)
    assert np.all((out == 0) | (np.sign(out) == np.sign(x)))


def test_extended_empty_variational_equals_lasso():
    rng = np.random.default_rng(4)
    a = _dictionary(rng, 6, 5)
    y = rng.normal(size=6)
    code = extended_solve(a, None, y, lam=0.05, mu=0.05, tau=0.5, tol=1e-9, max_iter=4000)
    x = lasso_solve(a, y, 0.05, tol=1e-9, max_iter=4000)
    np.testing.assert_array_equal(x, code.alpha)
    assert code.beta.size == 0


def test_reported_objective_matches_recomputation():
    rng = np.random.default_rng(17)
    dp = _dictionary(rng, 8, 5)
    v = _dictionary(rng, 8, 4)
    y = rng.normal(size=8)
    lam, mu, tau = 0.05, 0.03, 0.4
    with pytest.warns(RuntimeWarning, match="did not reach"):
        capped = extended_solve(dp, v, y, lam, mu, tau, tol=1e-12, max_iter=3)
    assert not capped.converged and capped.iterations == 3
    solves = [
        (extended_solve(dp, v, y, lam, mu, tau, tol=1e-9, max_iter=5000), dp, v, y),
        (capped, dp, v, y),
        (extended_solve(dp, v, np.zeros(8), lam, mu, tau), dp, v, np.zeros(8)),
        (extended_solve(np.zeros((8, 3)), None, y, lam, mu, tau), np.zeros((8, 3)), np.zeros((8, 0)), y),
    ]
    assert solves[0][0].converged
    for code, a, b, probe in solves:
        expect = extended_objective(a, b, probe, code.alpha, code.beta, lam, mu, tau)
        assert abs(code.objective - expect) <= 1e-12 * abs(expect)


def test_extended_penalty_asymmetry_prefers_variational():
    rng = np.random.default_rng(5)
    dp = _dictionary(rng, 8, 4)
    v = _dictionary(rng, 8, 3)
    y = v[:, 1].copy()
    code = extended_solve(dp, v, y, lam=1e2, mu=1e-4, tau=1.0, tol=1e-10, max_iter=5000)
    assert np.max(np.abs(code.alpha)) <= 1e-6
    assert code.beta[1] >= 0.99


def test_extended_dominates_support_oracle():
    rng = np.random.default_rng(6)
    for _ in range(6):
        dp = _dictionary(rng, 8, 6)
        v = _dictionary(rng, 8, 6)
        y = dp @ rng.normal(size=6) * 0.3 + v[:, 0] * 0.5 + 0.05 * rng.normal(size=8)
        code = extended_solve(dp, v, y, lam=0.05, mu=0.04, tau=0.6, tol=1e-9, max_iter=6000)
        oracle = extended_support_oracle(dp, v, y, 0.05, 0.04, 0.6)
        ours = extended_objective(dp, v, y, code.alpha, code.beta, 0.05, 0.04, 0.6)
        assert ours <= oracle + 1e-6


def test_extended_tau1_equal_mu_reduces_to_concatenated_lasso():
    rng = np.random.default_rng(7)
    dp = _dictionary(rng, 7, 5)
    v = _dictionary(rng, 7, 4)
    y = rng.normal(size=7)
    lam = 0.07
    code = extended_solve(dp, v, y, lam, lam, 1.0, tol=1e-10, max_iter=6000)
    stacked = np.concatenate([dp, v], axis=1)
    x = lasso_solve(stacked, y, lam, tol=1e-10, max_iter=6000)
    ours = lasso_objective(stacked, y, np.concatenate([code.alpha, code.beta]), lam)
    theirs = lasso_objective(stacked, y, x, lam)
    assert abs(ours - theirs) <= 1e-8


def test_solver_scaling_consistency():
    rng = np.random.default_rng(8)
    a = _dictionary(rng, 6, 5)
    y = rng.normal(size=6)
    lam = 1e-9
    for c in (0.5, 2.0):
        r1 = np.linalg.norm(y - a @ lasso_solve(a, y, lam, tol=1e-10, max_iter=8000))
        rc = np.linalg.norm(c * y - a @ lasso_solve(a, c * y, lam, tol=1e-10, max_iter=8000))
        assert abs(rc - c * r1) <= 1e-5


def test_restricted_least_squares_basics():
    rng = np.random.default_rng(9)
    a = _dictionary(rng, 6, 4)
    x = restricted_least_squares(a, [1], 2.0 * a[:, 1])
    assert x[1] == pytest.approx(2.0, abs=1e-10)
    assert np.all(x[[0, 2, 3]] == 0)
    q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    y = rng.normal(size=6)
    x = restricted_least_squares(q, [0, 2], y)
    np.testing.assert_allclose(x[[0, 2]], q[:, [0, 2]].T @ y, atol=1e-12)


def test_restricted_least_squares_ridge_fallback_matches_pinv():
    rng = np.random.default_rng(10)
    col = rng.normal(size=5)
    col /= np.linalg.norm(col)
    a = np.column_stack([col, col])
    y = rng.normal(size=5)
    x = restricted_least_squares(a, [0, 1], y)
    assert np.all(np.isfinite(x))
    expect = np.linalg.pinv(a) @ y
    np.testing.assert_allclose(x, expect, atol=1e-5)
    with pytest.raises(DataError):
        restricted_least_squares(a, [], y)


def _toy_paired_instance(rng, d=8, n_classes=3, q=2, block_size=2):
    gal = _dictionary(rng, d, n_classes * (q + 1))
    classes = np.repeat(np.arange(n_classes), q + 1)
    slots = np.tile(np.arange(q + 1), n_classes)
    slot_poses = np.vstack([np.zeros(3)] + [rng.uniform(5, 40, size=3) for _ in range(q)])
    poses = np.vstack([slot_poses[s] for s in slots])
    v = _dictionary(rng, d, q * block_size)
    v_blocks = np.repeat(np.arange(1, q + 1), block_size)
    return gal, classes, slots, poses, v, v_blocks


def test_paired_zero_probe():
    rng = np.random.default_rng(11)
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng)
    code = paired_solve(gal, classes, slots, poses, v, v_blocks, np.zeros(8), ModelConfig())
    assert code.active_sets == ()
    assert np.all(code.alpha == 0) and np.all(code.beta == 0)


def test_paired_constructed_active_set():
    rng = np.random.default_rng(12)
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng, n_classes=3, q=3)
    # class 2, pose-slot 3 atom plus half of a block-3 variational atom
    atom = np.flatnonzero((classes == 2) & (slots == 3))[0]
    block3 = np.flatnonzero(v_blocks == 3)
    y = gal[:, atom] + 0.5 * v[:, block3[0]]
    config = ModelConfig(lam=1e-9, mu=1e-9, xi=1, tol=1e-10, max_iter=5000)
    code = paired_solve(gal, classes, slots, poses, v, v_blocks, y, config)
    assert len(code.active_sets) == 1
    chosen = code.active_sets[0]
    assert (chosen.class_id, chosen.pose_slot, chosen.block) == (2, 3, 3)
    residual = np.linalg.norm(y - gal @ code.alpha - v @ code.beta)
    assert residual <= 1e-6


def test_paired_dominates_enumeration_oracle():
    rng = np.random.default_rng(13)
    config = ModelConfig(lam=0.02, mu=0.02, tau=0.5, xi=2, tol=1e-8, max_iter=3000)
    for _ in range(4):
        gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng)
        y = rng.normal(size=8)
        y /= np.linalg.norm(y)
        code = paired_solve(gal, classes, slots, poses, v, v_blocks, y, config)
        sets = admissible_active_sets(classes, slots, poses, v_blocks)
        best = np.inf
        for combo in itertools.combinations(range(len(sets)), 2):
            g_idx = sorted({i for k in combo for i in sets[k].gallery_indices})
            b_idx = sorted({i for k in combo for i in sets[k].block_indices})
            sub_v = v[:, b_idx] if b_idx else np.zeros((8, 0))
            ref = extended_solve(
                gal[:, g_idx], sub_v, y, config.lam, config.mu, config.tau,
                tol=1e-10, max_iter=8000,
            )
            best = min(best, ref.objective)
        assert code.objective <= best + 1e-6


def test_paired_pairing_rule_holds():
    rng = np.random.default_rng(14)
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng, n_classes=4, q=3)
    config = ModelConfig(lam=0.01, mu=0.01, xi=3)
    y = rng.normal(size=8)
    code = paired_solve(gal, classes, slots, poses, v, v_blocks, y, config)
    frontal_slot = min(
        (s for s in set(slots) if s > 0),
        key=lambda s: np.linalg.norm(poses[np.flatnonzero(slots == s)[0]]),
    )
    for aset in code.active_sets:
        if aset.pose_slot > 0:
            assert aset.block == aset.pose_slot
        else:
            assert aset.block == frontal_slot


def test_paired_full_budget_reaches_least_squares_residual():
    rng = np.random.default_rng(15)
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng, d=12)
    n_sets = len(admissible_active_sets(classes, slots, poses, v_blocks))
    config = ModelConfig(lam=1e-10, mu=1e-10, xi=n_sets, tol=1e-10, max_iter=8000)
    y = rng.normal(size=12)
    code = paired_solve(gal, classes, slots, poses, v, v_blocks, y, config)
    stacked = np.concatenate([gal, v], axis=1)
    lsq, *_ = np.linalg.lstsq(stacked, y, rcond=None)
    target = np.linalg.norm(y - stacked @ lsq)
    ours = np.linalg.norm(y - gal @ code.alpha - v @ code.beta)
    assert ours <= target + 1e-6


def test_paired_xi_clamped_with_warning():
    rng = np.random.default_rng(16)
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng, n_classes=2, q=1)
    config = ModelConfig(lam=0.01, mu=0.01, xi=50)
    with pytest.warns(RuntimeWarning, match="clamp"):
        paired_solve(gal, classes, slots, poses, v, v_blocks, np.ones(8), config)


def test_paired_rejects_empty_gallery():
    with pytest.raises(DataError):
        paired_solve(
            np.zeros((4, 0)), np.zeros(0), np.zeros(0), np.zeros((0, 3)),
            None, None, np.ones(4), ModelConfig(),
        )
