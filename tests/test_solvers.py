import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spv.solvers
from spv.benchmark import BenchmarkSpec, generate_benchmark
from spv.classifier import spv_classify
from spv.dictionaries import build_augmented_gallery, build_variational_dictionary
from spv.exemplars import extract_clustering, pose_dissimilarities, select_exemplars
from spv.matrixio import DataError, ModelConfig, SampleMatrix, SampleMeta
from spv.solvers import (
    _ENUMERATION_LIMIT,
    _RANK_TOL,
    PairedDictionary,
    _bordered_solve,
    _candidate_residuals,
    _support_of,
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
    first_order_residual,
    greedy_scan_oracle,
    lasso_objective,
    lasso_support_oracle,
    residual_apg,
    support_residual,
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


def test_stalled_solve_stops_at_its_first_stall():
    # At tol 0 the stationarity test cannot pass, so the plain proximal step
    # stops descending first (here at the rounding floor near 1e-15); the
    # solve must stop there, so a run capped two iterations earlier ends at
    # a different point.
    rng = np.random.default_rng(0)
    a, v, y = rng.normal(size=(8, 4)), rng.normal(size=(8, 3)), rng.normal(size=8)
    with pytest.warns(RuntimeWarning, match="did not reach") as record:
        stalled = extended_solve(a, v, y, 0.1, 0.1, 0.5, tol=0.0, max_iter=5000)
    assert not stalled.converged and stalled.iterations < 5000
    with pytest.warns(RuntimeWarning, match="did not reach"):
        short = extended_solve(a, v, y, 0.1, 0.1, 0.5, tol=0.0, max_iter=stalled.iterations - 2)
    assert not np.array_equal(
        np.concatenate([short.alpha, short.beta]), np.concatenate([stalled.alpha, stalled.beta])
    )
    assert f"stopped after {stalled.iterations} of at most 5000" in str(record[0].message)


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


def test_solve_agrees_with_the_residual_loop():
    # The extended solve against the plain residual-space APG
    # (oracles.residual_apg), on random tall, square and wide extended
    # solves and lassos. The Newton finish changes the path and the step
    # count, so the solve must converge whenever the reference does, to an
    # objective no worse, at a point that meets tol. Where tol >= 1e-7 and
    # every accept test of the reference is decided by more than its
    # rounding (a relative objective change above 1e-14), and both points
    # meet tol, they also meet it on the objective restricted to the union
    # U of their supports. Where G_UU is nonsingular, a first-order
    # residual of at most tol bounds each one's distance from that
    # restricted optimum by sqrt(|U|) tol over the smallest eigenvalue of
    # 2 G_UU, so they lie within twice that of each other; where it is
    # singular, the optimum need not be unique and only the objective is
    # compared.
    rng = np.random.default_rng(20)
    strict = bounded = 0
    for _ in range(200):
        d, n_a = int(rng.integers(6, 20)), int(rng.integers(1, 6))
        n_v = int(rng.choice([0, 2, 4, 8]))
        tol = float(rng.choice([1e-6, 1e-7, 1e-9, 1e-10]))
        dp, v, y = _dictionary(rng, d, n_a), _dictionary(rng, d, n_v), rng.normal(size=d)
        lam, mu = 10.0 ** rng.uniform(-3, -1, size=2)
        tau = float(rng.choice([0.0, 0.5, 1.0]))
        if n_v == 0:
            mu, tau = lam, 1.0
        alpha, beta, objective, iterations, converged, closest = residual_apg(
            dp, v, y, lam, mu, tau, tol, 5000
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = extended_solve(dp, v if n_v else None, y, lam, mu, tau, tol, 5000)
        assert code.converged or not converged
        assert code.objective <= objective + 1e-12
        if code.converged:
            assert first_order_residual(dp, v, y, code.alpha, code.beta, lam, mu, tau) <= tol
        if tol >= 1e-7 and closest > 1e-14:
            strict += 1
            ours, theirs = np.concatenate([code.alpha, code.beta]), np.concatenate([alpha, beta])
            union = (ours != 0) | (theirs != 0)
            cols = np.concatenate([dp, v], axis=1)[:, union]
            curvature = 2.0 * np.linalg.eigvalsh(cols.T @ cols)[0]
            if converged and curvature > 1e-8:
                bounded += 1
                bound = 2.0 * math.sqrt(union.sum()) * tol / curvature
                assert np.linalg.norm(ours - theirs) <= bound
    assert strict >= 60 and bounded >= 60


def test_tight_tolerance_refit_converges_without_warning():
    # A reduced form of the refits in test_spv_frontal_still_probe: a probe
    # outside the span of two gallery and two variational atoms, penalties
    # near zero. The objective is about 0.5 while the last steps to
    # tol=1e-10 change it by less than its rounding, so an accept test on
    # recomputed objectives stalls; the change formed from the step does
    # not.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dp, v = _dictionary(rng, 12, 2), _dictionary(rng, 12, 2)
        y = rng.normal(size=12)
        y /= np.linalg.norm(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = extended_solve(dp, v, y, 1e-8, 1e-8, 0.5, tol=1e-10, max_iter=5000)
        assert code.converged
        assert first_order_residual(dp, v, y, code.alpha, code.beta, 1e-8, 1e-8, 0.5) <= 1e-10


def _wide_refits(monkeypatch):
    """The penalized refits of the first four watch-list probes of run 0 of
    ``run_experiment(bundle, methods=("spv",), n_runs=1)`` on a benchmark
    set with 30 generic ids x 8 samples: 3 gallery atoms plus all 210
    variational atoms, in 160 dimensions, each as ``(args, kwargs)`` of its
    ``extended_solve`` call. The enrollment starts from the eta that
    ``eta_for_cluster_count`` returns for this set (100.531...), which
    spares its 30-second search."""
    spec = BenchmarkSpec(n_generic_ids=30, samples_per_generic_id=8)
    bundle = generate_benchmark(spec)
    config = ModelConfig()
    d = pose_dissimilarities(bundle.generic_meta)
    clustering = extract_clustering(select_exemplars(d, 100.53114165347421), d, bundle.generic_meta)
    variational = build_variational_dictionary(bundle.generic, bundle.generic_meta, clustering)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed + config.seed, spawn_key=(0,)))
    watch = np.sort(rng.choice(np.arange(spec.n_classes), size=spec.n_watchlist, replace=False))
    stills = SampleMatrix(bundle.stills.data[:, watch])
    meta = SampleMeta(labels=watch, poses=bundle.stills_meta.poses[watch])
    gallery = build_augmented_gallery(stills, meta, clustering, bundle.synthesizer)
    refits = []

    def recorded(*args, **kwargs):
        refits.append((args, kwargs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return extended_solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(spv.solvers, "extended_solve", recorded)
        for col in np.flatnonzero(np.isin(bundle.probes_meta.labels, watch))[:4]:
            y = bundle.probes.column(col)
            spv_classify(gallery, variational, y / np.linalg.norm(y), config)
    return refits


def test_wide_variational_refits_converge_within_the_default_cap(monkeypatch):
    # Refits over a wide variational dictionary: it has rank 160, so the
    # problem is not strongly convex and the proximal gradient alone needs
    # 1000-3600 steps. The Newton finish must stop them within the default
    # max_iter at an objective no worse than a 50,000-step solve's. The
    # greedy search stops at 2 sets, whose support spans the probe (a
    # residual of 0, as the lstsq oracle scores it); its least-squares fit
    # interpolates the probe, so the search passes it no start: each refit
    # starts at zero.
    refits = _wide_refits(monkeypatch)
    assert len(refits) == 4
    for args, kwargs in refits:
        dp, v, y, lam, mu, tau, tol, max_iter = args
        assert (dp.shape, v.shape, max_iter) == ((160, 2), (160, 186), 1000)
        assert kwargs.get("start") is None
        code = extended_solve(*args, **kwargs)
        assert code.converged and code.optimality <= tol
        assert first_order_residual(dp, v, y, code.alpha, code.beta, lam, mu, tau) <= tol
        *_, objective, _, converged, _ = residual_apg(dp, v, y, lam, mu, tau, tol, 50_000)
        assert converged
        assert code.objective <= objective + 1e-9


def test_unsolvable_finish_leaves_the_proximal_gradient_path(monkeypatch):
    # Two supports the Newton finish cannot solve: an exact copy of a
    # gallery atom (a still and its pose-(0, 0, 0) synthesized view, both
    # in the optimal support, make the restricted system singular) and
    # more nonzero coefficients than the probe has rows. No LinAlgError may
    # escape, and the solve must return what the proximal gradient alone
    # returns (the finish disabled), which must match the residual loop.
    # The singular tries cost their solves; the wide ones stop before any.
    instances = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        g, v = _dictionary(rng, 12, 3), _dictionary(rng, 12, 3)
        y = 0.7 * g[:, 0] + 0.2 * g[:, 1] + 0.3 * v[:, 0] + 0.05 * rng.normal(size=12)
        instances.append((g[:, [0, 0, 1, 2]], v, y, 0.005, 0.005, 0.5, True))
        dp, v = _dictionary(rng, 5, 3), _dictionary(rng, 5, 6)
        instances.append((dp, v, rng.normal(size=5), 0.01, 0.01, 0.2, False))
    for dp, v, y, lam, mu, tau, singular in instances:
        code = extended_solve(dp, v, y, lam, mu, tau, 1e-8, 5000)
        with monkeypatch.context() as patch:
            patch.setattr(spv.solvers, "_FINISH_AFTER", 10**9)
            alone = extended_solve(dp, v, y, lam, mu, tau, 1e-8, 5000)
        assert code.converged and alone.converged
        assert (code.iterations > alone.iterations) == singular
        np.testing.assert_array_equal(code.alpha, alone.alpha)
        np.testing.assert_array_equal(code.beta, alone.beta)
        assert first_order_residual(dp, v, y, code.alpha, code.beta, lam, mu, tau) <= 1e-8
        *_, objective, _, converged, _ = residual_apg(dp, v, y, lam, mu, tau, 1e-8, 5000)
        assert converged and code.objective <= objective + 1e-12


def test_optimality_is_the_first_order_residual_of_the_returned_point(monkeypatch):
    rng = np.random.default_rng(21)
    dp, v, y = _dictionary(rng, 10, 4), _dictionary(rng, 10, 6), rng.normal(size=10)
    lam = 0.05
    # mu = 50 keeps beta at zero, where the l2 term's subdifferential is a ball.
    for mu, tau in ((0.02, 0.0), (0.02, 0.5), (0.02, 1.0), (50.0, 0.5)):
        code = extended_solve(dp, v, y, lam, mu, tau, tol=1e-8, max_iter=5000)
        assert code.converged and code.optimality <= 1e-8
        expect = first_order_residual(dp, v, y, code.alpha, code.beta, lam, mu, tau)
        assert abs(code.optimality - expect) <= 1e-12
        with pytest.warns(RuntimeWarning, match="did not reach") as record:
            capped = extended_solve(dp, v, y, lam, mu, tau, tol=1e-8, max_iter=5)
        expect = first_order_residual(dp, v, y, capped.alpha, capped.beta, lam, mu, tau)
        assert capped.optimality > 1e-8 and abs(capped.optimality - expect) <= 1e-12
        assert f"at optimality residual {capped.optimality:.3g}" in str(record[0].message)
    assert extended_solve(dp, v, np.zeros(10), lam, lam, 0.5).optimality == 0.0
    assert extended_solve(np.zeros((10, 3)), None, y, lam, lam, 0.5).optimality == 0.0

    refits = []

    def traced(*args, **kwargs):
        refits.append(extended_solve(*args, **kwargs))
        return refits[-1]

    monkeypatch.setattr(spv.solvers, "extended_solve", traced)
    # The greedy search refits its settled support once.
    gal, classes, slots, poses, v, v_blocks, _ = _greedy_paired_instance(rng)
    y = gal[:, 1] + 0.1 * rng.normal(size=16)
    config = ModelConfig(lam=0.01, mu=0.01, xi=3)
    code = paired_solve(PairedDictionary(gal, classes, slots, poses, v, v_blocks), y, config)
    assert len(refits) == 1
    assert code.optimality == refits[0].optimality > 0.0


def _grouped_dictionary(rng, d, groups, per, spread):
    """``groups`` x ``per`` unit atoms, each group near-copies of one random
    direction, as the pose-difference atoms of one cluster are."""
    bases = rng.normal(size=(groups, d))
    a = np.repeat(bases, per, axis=0).T + spread * rng.normal(size=(d, groups * per))
    return a / np.linalg.norm(a, axis=0)


def test_a_wide_first_try_may_drop_every_coordinate_it_needs_to(monkeypatch):
    # ESRC's shape on a 160-sample generic set: 5 gallery and 128
    # variational atoms in 160 rows, the variational ones in 8 groups of
    # near-copies. The first try starts from all 133 coordinates, and the
    # optimum keeps 3 gallery and 110 variational ones; the try takes 79
    # solves, each dropping or admitting one coordinate. A try capped at 40
    # solves failed here, and the solve took 264 iterations in all; a try
    # may now spend one solve more than its start has nonzero
    # coefficients, so the first try ends the solve.
    rng = np.random.default_rng(0)
    dp = _grouped_dictionary(rng, 160, 1, 5, 0.5)
    v = _grouped_dictionary(rng, 160, 8, 16, 0.3)
    y = dp[:, 0] + 0.3 * v[:, 3] + 0.2 * v[:, 40] + 0.05 * rng.normal(size=160)
    y /= np.linalg.norm(y)
    supports = []
    bordered = spv.solvers._bordered_solve
    monkeypatch.setattr(
        spv.solvers, "_bordered_solve",
        lambda hessian, idx, *rest: supports.append(idx.size) or bordered(hessian, idx, *rest),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = extended_solve(dp, v, y, 0.005, 0.005, 0.5, 1e-6, 1000)
    assert code.converged and code.finish_capped == 0
    assert first_order_residual(dp, v, y, code.alpha, code.beta, 0.005, 0.005, 0.5) <= 1e-6
    # One try: it starts from the full support, and each later solve's
    # support is at most one coordinate wider than the one before.
    assert supports[0] == 133 and len(supports) == code.finish_solves > 40
    assert all(later <= earlier + 1 for earlier, later in zip(supports, supports[1:]))
    assert code.iterations < 264


def test_the_first_try_comes_two_accepted_steps_after_the_signs_settle(monkeypatch):
    # The signs of this solve's iterates change at each of its first six
    # steps and then hold. With the finish disabled, the iterate after m
    # steps is the solve stopped at max_iter = m. The finish's first solve
    # must be iteration 9, after the two settled steps 7 and 8.
    rng = np.random.default_rng(0)
    dp, v = _dictionary(rng, 20, 4), _dictionary(rng, 20, 5)
    y = dp[:, 0] + 0.5 * v[:, 1] + 0.1 * rng.normal(size=20)
    args = (dp, v, y, 0.05, 0.05, 0.5, 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with monkeypatch.context() as patch:
            patch.setattr(spv.solvers, "_FINISH_AFTER", 10**9)
            signs = [np.sign(np.zeros(9))] + [
                np.sign(np.concatenate([code.alpha, code.beta]))
                for code in (extended_solve(*args, m) for m in range(1, 31))
            ]
        changed = [m for m in range(1, 31) if not np.array_equal(signs[m], signs[m - 1])]
        assert changed == [1, 2, 3, 4, 5, 6]
        first = next(m for m in range(1, 31) if extended_solve(*args, m).finish_solves)
    assert first == changed[-1] + 3
    code = extended_solve(*args, 5000)
    assert code.converged and code.iterations < 30


def test_a_paired_code_carries_its_refits_finish_counts(monkeypatch):
    refits = []

    def traced(*args, **kwargs):
        refits.append(extended_solve(*args, **kwargs))
        return refits[-1]

    monkeypatch.setattr(spv.solvers, "extended_solve", traced)
    rng = np.random.default_rng(22)
    gal, classes, slots, poses, v, v_blocks, _ = _greedy_paired_instance(rng)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    solves = 0
    for j in range(6):
        y = gal[:, j] + 0.3 * v[:, j] + 0.05 * rng.normal(size=16)
        code = paired_solve(pair, y, ModelConfig(lam=0.01, mu=0.01, xi=3))
        assert (code.finish_solves, code.finish_capped) == (
            refits[-1].finish_solves, refits[-1].finish_capped
        )
        assert 0 <= code.finish_solves <= code.iterations
        solves += code.finish_solves
    assert solves


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_solvers_reject_a_non_finite_probe_before_any_solve(bad, monkeypatch):
    rng = np.random.default_rng(23)
    gal, classes, slots, poses, v, v_blocks, _ = _greedy_paired_instance(rng)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)

    def solve(*args, **kwargs):
        raise AssertionError("a non-finite probe reached a solve")

    monkeypatch.setattr(spv.solvers, "_solve_composite", solve)
    monkeypatch.setattr(spv.solvers, "_candidate_residuals", solve)
    y = gal[:, 0].copy()
    y[5] = bad
    with pytest.raises(DataError, match="probe contains non-finite values"):
        extended_solve(gal, v, y, 0.01, 0.01, 0.5)
    with pytest.raises(DataError, match="probe contains non-finite values"):
        lasso_solve(gal, y, 0.01)
    with pytest.raises(DataError, match="probe contains non-finite values"):
        paired_solve(pair, y, ModelConfig())
    # A wrong length keeps each entry point's own message.
    with pytest.raises(DataError, match="probe has 15 entries, but the dictionary has 16 rows"):
        extended_solve(gal, v, y[:-1], 0.01, 0.01, 0.5)
    with pytest.raises(DataError, match=r"gallery rows \(16\) do not match probe length \(15\)"):
        paired_solve(pair, y[:-1], ModelConfig())


def _direct_newton_solve(hessian, idx, k, rhs, c, u):
    """H_SS^-1 rhs with H_SS built whole, as the Newton finish built it
    before its curved solves were bordered: 2 G_SS plus c (I - u u') on
    the variational tail, refused (None) when Cholesky fails or a pivot is
    at most ``_RANK_TOL`` times the largest."""
    hess = hessian[np.ix_(idx, idx)]
    hess[k:, k:] += c * (np.eye(u.size) - np.outer(u, u))
    try:
        pivots = np.diag(np.linalg.cholesky(hess))
    except np.linalg.LinAlgError:
        return None
    if pivots.min() <= _RANK_TOL * pivots.max():
        return None
    return np.linalg.solve(hess, rhs)


def test_bordered_step_is_the_newton_step():
    # A refit over three sets, one per block of 12 columns, with the
    # pair's table for the union as the factor: its columns must be those
    # of the refit, in _refit's order. Every curved support of the refit
    # (0-3 of its 3 gallery coordinates, 0-25 of its 36 variational ones
    # dropped) must give the Newton step of the Hessian built whole, on a
    # tall probe and on one shorter than the union, where 2 G_FF is
    # singular but B(c) = 2 G_FF + c I is not.
    rng = np.random.default_rng(45)
    for d in (60, 24):
        gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(
            rng, d=d, n_classes=2, q=3, block_size=12
        )
        pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
        for trial in range(8):
            subset = [rng.choice([s for s in pair.sets if s.block == b]) for b in (1, 2, 3)]
            g_idx, b_idx = _support_of(subset)
            stacked = np.concatenate([gal[:, g_idx], v[:, b_idx]], axis=1)
            hessian = 2.0 * stacked.T @ stacked
            n_a, n_v = g_idx.size, b_idx.size
            assert (n_a, n_v) == (3, 36)
            factor = pair.spectrum((1, 2, 3))
            for k, n_drop in itertools.product(range(4), (0, 1, 7, 25)):
                gallery = np.sort(rng.choice(n_a, size=k, replace=False))
                kept = n_a + np.sort(rng.choice(n_v, size=n_v - n_drop, replace=False))
                idx = np.concatenate([gallery, kept])
                zb = rng.normal(size=kept.size)
                u = zb / np.linalg.norm(zb)
                c = 10.0 ** rng.uniform(-4, 0)
                rhs = rng.normal(size=idx.size)
                expected = _direct_newton_solve(hessian, idx, k, rhs, c, u)
                assert expected is not None
                step = _bordered_solve(hessian, idx, k, rhs, c, u, factor)
                assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)

    # An exact duplicate gallery atom in the support makes H singular: the
    # bordered solve's rank test refuses it, as the whole-Hessian test does.
    original, classes, slots, poses, v, v_blocks = _toy_paired_instance(
        rng, d=30, n_classes=2, q=3, block_size=6
    )
    sets = admissible_active_sets(classes, slots, poses, v_blocks)
    for trial in range(6):
        subset = [rng.choice([s for s in sets if s.block == b]) for b in (1, 2, 3)]
        g_idx, b_idx = _support_of(subset)
        gal = original.copy()
        gal[:, g_idx[trial % 3]] = gal[:, g_idx[(trial + 1) % 3]]
        pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
        stacked = np.concatenate([gal[:, g_idx], v[:, b_idx]], axis=1)
        hessian = 2.0 * stacked.T @ stacked
        factor = pair.spectrum((1, 2, 3))
        idx = np.concatenate([np.arange(3), 3 + np.sort(rng.choice(b_idx.size, size=10, replace=False))])
        zb = rng.normal(size=10)
        u = zb / np.linalg.norm(zb)
        rhs = rng.normal(size=idx.size)
        assert _direct_newton_solve(hessian, idx, 3, rhs, 0.01, u) is None
        assert _bordered_solve(hessian, idx, 3, rhs, 0.01, u, factor) is None


def test_spectrum_is_a_cache_of_the_variational_gram():
    # A solve given the eigendecomposition of 2 V'V takes the same Newton
    # finish as one that makes it from its own Gram matrix, to rounding; a
    # decomposition that is not a pair, has the wrong shape, a non-finite
    # entry or values out of order is a data error.
    rng = np.random.default_rng(46)
    for _ in range(10):
        dp, v, y = _dictionary(rng, 20, 3), _dictionary(rng, 20, 12), rng.normal(size=20)
        spectrum = np.linalg.eigh(2.0 * v.T @ v)
        own = extended_solve(dp, v, y, 0.01, 0.01, 0.5, 1e-8, 5000)
        cached = extended_solve(dp, v, y, 0.01, 0.01, 0.5, 1e-8, 5000, spectrum=spectrum)
        assert own.converged and cached.converged
        assert own.iterations == cached.iterations
        assert abs(own.objective - cached.objective) <= 1e-12 * own.objective
        np.testing.assert_allclose(cached.beta, own.beta, rtol=0, atol=1e-9)
    values, vectors = spectrum
    nan_value, inf_vector = values.copy(), vectors.copy()
    nan_value[3], inf_vector[2, 5] = np.nan, np.inf
    for bad in ((values[:-1], vectors), (values, vectors[:, :-1]), (values[:, None], vectors),
                (values[::-1], vectors), (nan_value, vectors), (values, inf_vector),
                (values,), (values, vectors, values), 3.0):
        with pytest.raises(DataError, match="spectrum"):
            extended_solve(dp, v, y, 0.01, 0.01, 0.5, spectrum=bad)


def test_a_solve_without_a_spectrum_factors_once(monkeypatch):
    # Without a spectrum, the first curved solve makes the eigendecomposition
    # of 2 G_VV from the Gram matrix, and every later solve of every try
    # reads it: one eigh per solve, on n_v x n_v, also where the finish
    # tries again or admits a coordinate.
    eighs, supports = [], []
    eigh, bordered = np.linalg.eigh, spv.solvers._bordered_solve
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    monkeypatch.setattr(
        spv.solvers, "_bordered_solve",
        lambda hessian, idx, *rest: supports.append(set(idx.tolist())) or bordered(hessian, idx, *rest),
    )
    rng = np.random.default_rng(0)
    grown = 0
    for _ in range(12):
        dp, v = _dictionary(rng, 40, 5), _dictionary(rng, 40, 30)
        y = dp[:, 0] + 0.3 * v @ (rng.normal(size=30) * (rng.random(30) < 0.5))
        y += 0.05 * rng.normal(size=40)
        eighs.clear()
        supports.clear()
        code = extended_solve(dp, v, y, 0.01, 0.01, 0.5, 1e-8, 5000)
        assert code.converged
        assert eighs == ([(30, 30)] if supports else [])
        # A support holding a coordinate the one before it lacks: an
        # admission, or a new try from another support.
        grown += any(later - earlier for earlier, later in zip(supports, supports[1:]))
    assert grown


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
    x = restricted_least_squares(a[:, [1]], 2.0 * a[:, 1])
    assert x.shape == (1,)
    assert x[0] == pytest.approx(2.0, abs=1e-10)
    q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    y = rng.normal(size=6)
    x = restricted_least_squares(q[:, [0, 2]], y)
    np.testing.assert_allclose(x, q[:, [0, 2]].T @ y, atol=1e-12)


def test_restricted_least_squares_ridge_fallback_matches_pinv():
    rng = np.random.default_rng(10)
    col = rng.normal(size=5)
    col /= np.linalg.norm(col)
    a = np.column_stack([col, col])
    y = rng.normal(size=5)
    x = restricted_least_squares(a[:, [0, 1]], y)
    assert np.all(np.isfinite(x))
    expect = np.linalg.pinv(a) @ y
    np.testing.assert_allclose(x, expect, atol=1e-5)
    with pytest.raises(DataError):
        restricted_least_squares(a[:, []], y)


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
    pair = PairedDictionary(*_toy_paired_instance(rng))
    code = paired_solve(pair, np.zeros(8), ModelConfig())
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
    code = paired_solve(PairedDictionary(gal, classes, slots, poses, v, v_blocks), y, config)
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
        pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
        code = paired_solve(pair, y, config)
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
    code = paired_solve(PairedDictionary(gal, classes, slots, poses, v, v_blocks), y, config)
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
    code = paired_solve(PairedDictionary(gal, classes, slots, poses, v, v_blocks), y, config)
    stacked = np.concatenate([gal, v], axis=1)
    lsq, *_ = np.linalg.lstsq(stacked, y, rcond=None)
    target = np.linalg.norm(y - stacked @ lsq)
    ours = np.linalg.norm(y - gal @ code.alpha - v @ code.beta)
    assert ours <= target + 1e-6


def test_paired_xi_clamped_with_warning():
    rng = np.random.default_rng(16)
    pair = PairedDictionary(*_toy_paired_instance(rng, n_classes=2, q=1))
    config = ModelConfig(lam=0.01, mu=0.01, xi=50)
    with pytest.warns(RuntimeWarning, match="clamp"):
        paired_solve(pair, np.ones(8), config)


def test_paired_rejects_empty_gallery():
    with pytest.raises(DataError):
        PairedDictionary(np.zeros((4, 0)), np.zeros(0), np.zeros(0), np.zeros((0, 3)))


def test_paired_rejects_variational_atoms_without_block_ids():
    rng = np.random.default_rng(16)
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng, n_classes=2, q=1)
    for blocks in (None, v_blocks[:-1]):
        with pytest.raises(DataError, match="every variational atom needs a block id"):
            PairedDictionary(gal, classes, slots, poses, v, blocks)


def _greedy_paired_instance(rng, d=16, n_classes=6):
    """18 paired sets with blocks of 3: C(18, 3) = 816 combinations at
    xi = 3, beyond the enumeration limit, so paired_solve searches greedily."""
    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(
        rng, d=d, n_classes=n_classes, q=2, block_size=3
    )
    sets = admissible_active_sets(classes, slots, poses, v_blocks)
    assert math.comb(len(sets), 3) > _ENUMERATION_LIMIT
    return gal, classes, slots, poses, v, v_blocks, sets


def _batched(pair, y, base, candidates, outside=None):
    """``_candidate_residuals`` of candidate sets over a base of sets."""
    index = {s: i for i, s in enumerate(pair.sets)}
    candidates = np.array([index[s] for s in candidates], dtype=np.int64)
    return _candidate_residuals(pair, y, [index[s] for s in base], candidates, outside)


def _oracle_active_sets(code, chosen):
    """The oracle's chosen sets that keep a nonzero coefficient in the refit."""
    return tuple(
        s for s in chosen
        if np.any(code.alpha[list(s.gallery_indices)] != 0)
        or np.any(code.beta[list(s.block_indices)] != 0)
    )


def test_batched_scan_matches_exact_residuals_and_oracle_choice():
    rng = np.random.default_rng(41)
    config = ModelConfig(lam=0.01, mu=0.01, xi=3)
    for trial in range(6):
        gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
        by_atom = {s.gallery_indices[0]: s for s in sets}
        # Atom 9 duplicates atom 1 (another class); atom 14 lies in the span
        # of atom 5 and a column of atom 5's block.
        gal[:, 9] = gal[:, 1]
        inside = gal[:, 5] + v[:, by_atom[5].block_indices[0]]
        gal[:, 14] = inside / np.linalg.norm(inside)
        signal = rng.choice(len(sets), size=3, replace=False)
        y = gal[:, signal] @ rng.uniform(0.5, 1.5, size=3)
        y += v[:, list(by_atom[int(signal[0])].block_indices)] @ rng.uniform(0.2, 0.6, size=3)
        y += 0.05 * rng.normal(size=y.size)

        pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
        chosen = greedy_scan_oracle(gal, v, y, sets, config.xi)
        bases = [chosen[:k] for k in range(len(chosen))]
        bases += [chosen[:k] + chosen[k + 1:] for k in range(len(chosen))]
        bases += [[by_atom[5]], [by_atom[1]], [by_atom[1], by_atom[9]]]
        for base in bases:
            candidates = [s for s in sets if s not in base]
            scores = _batched(pair, y, base, candidates)
            exact = [support_residual(gal, v, y, base + [s]) for s in candidates]
            np.testing.assert_allclose(scores, exact, rtol=1e-9, atol=0)
            if base == [by_atom[5]]:
                # Atom 14 adds nothing to this base; atoms paired with the
                # base's block add no new variational columns.
                k = candidates.index(by_atom[14])
                assert scores[k] == pytest.approx(support_residual(gal, v, y, base), rel=1e-9)
                assert any(s.block == base[0].block for s in candidates)

        code = paired_solve(pair, y, config)
        assert code.active_sets == _oracle_active_sets(code, chosen), trial


def test_rank_deficient_and_wide_supports_score_their_distance_to_the_span():
    # Every candidate support scores the distance from the probe to its
    # span, the residual np.linalg.lstsq gives, whatever its rank or width.
    rng = np.random.default_rng(42)
    gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
    by_atom = {s.gallery_indices[0]: s for s in sets}
    # Atoms 1 and 5 (classes 0 and 1) are one column, so a base holding
    # both is rank deficient.
    gal[:, 5] = gal[:, 1]
    base = [by_atom[1], by_atom[5]]
    candidates = [s for s in sets if s not in base]
    y = rng.normal(size=16)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    scores = _batched(pair, y, base, candidates)
    exact = [support_residual(gal, v, y, base + [s]) for s in candidates]
    np.testing.assert_allclose(scores, exact, rtol=1e-9, atol=0)

    # Atom 2 (block 2) is also the first column of block 1, so once the
    # greedy path has chosen it, every candidate paired with block 1 is
    # scored over a rank-deficient support.
    block1, block2 = (list(by_atom[i].block_indices) for i in (1, 2))
    gal[:, 2] = v[:, block1[0]]
    y = 1.5 * gal[:, 2] + v[:, block2].sum(axis=1) + 0.02 * rng.normal(size=16)
    config = ModelConfig(lam=0.01, mu=0.01, xi=3)
    assert greedy_scan_oracle(gal, v, y, sets, 1) == [by_atom[2]]
    candidates = [s for s in sets if s != by_atom[2]]
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    scores = _batched(pair, y, [by_atom[2]], candidates)
    exact = [support_residual(gal, v, y, [by_atom[2], s]) for s in candidates]
    assert any(s.block_indices == by_atom[1].block_indices for s in candidates)
    np.testing.assert_allclose(scores, exact, rtol=1e-9, atol=0)
    chosen = greedy_scan_oracle(gal, v, y, sets, config.xi)
    code = paired_solve(pair, y, config)
    assert code.active_sets == _oracle_active_sets(code, chosen)

    # A 6-dimensional probe: from the second round on, a candidate that
    # adds a second block of 3 has a support wider than the probe, and
    # one that adds an atom to 5 columns spans it. Such a support's
    # distance to the probe is rounding noise, as lstsq's is, and the
    # choice is the oracle's.
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng, d=6)
        pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
        y = rng.normal(size=6)
        noise = 1e-12 * np.linalg.norm(y)
        chosen = greedy_scan_oracle(gal, v, y, sets, config.xi)
        bases = [chosen[:k] for k in range(len(chosen))]
        bases += [chosen[:k] + chosen[k + 1:] for k in range(len(chosen))]
        spanning = 0
        for base in bases:
            candidates = [s for s in sets if s not in base]
            scores = _batched(pair, y, base, candidates)
            expected = np.array([support_residual(gal, v, y, base + [s]) for s in candidates])
            spans = expected <= noise
            spanning += spans.sum()
            assert np.all(scores[spans] <= noise)
            np.testing.assert_allclose(scores[~spans], expected[~spans], rtol=1e-9, atol=0)
        assert spanning > 0
        code = paired_solve(pair, y, config)
        assert code.active_sets == _oracle_active_sets(code, chosen), seed


def test_block_factors_are_reused_across_probes(monkeypatch):
    rng = np.random.default_rng(44)
    gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
    by_atom = {s.gallery_indices[0]: s for s in sets}
    one, two = by_atom[1], by_atom[2]
    assert (one.block, two.block) == (1, 2)
    bases = [[], [one], [two], [one, by_atom[4]], [one, two]]

    def scan(pair, y):
        """Every base's batched scores and exact residuals on probe y."""
        outside = {}
        for base in bases:
            candidates = [s for s in sets if s not in base]
            scores = _batched(pair, y, base, candidates, outside)
            exact = np.array([support_residual(pair.dp, pair.v, y, base + [s]) for s in candidates])
            yield base, candidates, scores, exact

    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    config = ModelConfig(lam=0.01, mu=0.01, xi=3)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    # The pair holds the dictionaries themselves, not copies.
    assert pair.dp is gal and pair.v is v
    admissible = pair.sets
    for probe in range(4):
        y = rng.normal(size=16)
        for _, _, scores, exact in scan(pair, y):
            np.testing.assert_allclose(scores, exact, rtol=1e-9, atol=0)
        if probe == 0:
            assert sorted(pair._unions) == [(1,), (1, 2), (2,)]
            tables = dict(pair._unions)
        # Later probes reuse the first probe's bases, admissible sets and
        # projected galleries: each union's entry is built once.
        assert pair.built == 3
        assert pair.sets is admissible
        assert all(pair._unions[u] is t for u, t in tables.items())
        # The refit factors its union once per pair: a probe calls eigh only
        # for the unions no earlier probe refit over, and a second solve of
        # the same probe calls it not at all.
        spectra, known, calls = pair.spectra, dict(pair._spectra), len(eighs)
        code = paired_solve(pair, y, config)
        new = set(pair._spectra) - set(known)
        assert pair.spectra - spectra == len(new) == len(eighs) - calls
        assert pair.spectra == len(pair._spectra) > 0
        assert all(pair._spectra[u] is t for u, t in known.items())
        spectra, calls = pair.spectra, len(eighs)
        again = paired_solve(pair, y, config)
        assert pair.spectra == spectra and len(eighs) == calls
        np.testing.assert_array_equal(again.beta, code.beta)
    # A union's table holds the atoms of the sets paired with its blocks.
    for union, (q, table, column) in pair._unions.items():
        paired = [k for k, s in enumerate(pair.sets) if s.block in union]
        assert table.shape == (16, len(paired))
        assert np.flatnonzero(column >= 0).tolist() == paired
    held = [a for entry in tables.values() for a in entry]
    held += [a for spectrum in pair._spectra.values() for a in spectrum]
    assert pair.nbytes > sum(a.nbytes for a in held)
    # Each counter is its table's size, and cannot be set.
    assert (pair.built, pair.spectra) == (len(pair._unions), len(pair._spectra))
    with pytest.raises(AttributeError):
        pair.spectra = 0

    # A column of block 2 equal to a column of block 1 makes the union of
    # the two rank deficient: its basis spans the union's 5 distinct
    # columns, built once, and every candidate scored on it, on every
    # probe, scores its distance to the span.
    v = v.copy()
    v[:, two.block_indices[1]] = v[:, one.block_indices[0]]
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    for probe in range(4):
        y = rng.normal(size=16)
        on_union = 0
        for base, candidates, scores, exact in scan(pair, y):
            np.testing.assert_allclose(scores, exact, rtol=1e-9, atol=0)
            blocks = {s.block for s in base}
            on_union += sum(blocks | {s.block} == {1, 2} for s in candidates)
        assert on_union > 0
        assert pair.built == 3
        assert pair.table((1, 2))[0].shape == (16, 5)


def test_each_union_has_one_orthonormal_basis_of_its_columns():
    rng = np.random.default_rng(46)
    gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    for union in [(1,), (2,), (1, 2)]:
        q, table, column = pair.table(union)
        cols = v[:, np.isin(v_blocks, union)]
        assert q.shape == cols.shape
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(cols - q @ (q.T @ cols), 0.0, rtol=0, atol=1e-12)
        # The projected gallery is the scanned atoms outside that span.
        atoms = gal[:, pair.atoms[column >= 0]]
        np.testing.assert_allclose(table, atoms - q @ (q.T @ atoms), rtol=0, atol=1e-12)
        assert pair.table(union) is pair._unions[union]
    assert pair.built == 3

    # The empty union, the only one of a gallery-only pair, has a basis
    # without columns, and its table is the gallery itself.
    alone = PairedDictionary(gal, classes, slots, poses)
    q, table, column = alone.table(())
    assert q.shape == (16, 0)
    np.testing.assert_array_equal(table, gal[:, alone.atoms])
    assert alone.built == 1

    # A column of block 2 in the span of block 1's makes their union rank
    # deficient, though each block alone is not: the union's basis spans
    # its columns with one column fewer, and a scan over it scores each
    # candidate support's distance to its span.
    v = v.copy()
    first = v[:, v_blocks == 1]
    v[:, np.flatnonzero(v_blocks == 2)[0]] = first @ np.array([0.6, -0.8, 0.0])
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    for union, rank in (((1,), 3), ((2,), 3), ((1, 2), 5)):
        q, table, column = pair.table(union)
        cols = v[:, np.isin(v_blocks, union)]
        assert q.shape == (16, rank)
        np.testing.assert_allclose(q.T @ q, np.eye(rank), rtol=0, atol=1e-12)
        np.testing.assert_allclose(cols - q @ (q.T @ cols), 0.0, rtol=0, atol=1e-12)
    assert pair.built == 3
    y = rng.normal(size=16)
    base = [next(s for s in sets if s.block == 1)]
    candidates = [s for s in sets if s.block == 2]
    scores = _batched(pair, y, base, candidates)
    exact = [support_residual(gal, v, y, base + [s]) for s in candidates]
    np.testing.assert_allclose(scores, exact, rtol=1e-9, atol=0)


def test_the_greedy_search_solves_one_least_squares_fit_per_probe(monkeypatch):
    rng = np.random.default_rng(47)
    gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    config = ModelConfig(lam=0.01, mu=0.01, xi=3)
    calls = []
    solve = spv.solvers.restricted_least_squares
    monkeypatch.setattr(
        spv.solvers, "restricted_least_squares", lambda a, y: calls.append(a.shape) or solve(a, y)
    )
    # The one fit is the refit's start on the final support, and the
    # settled residuals come from the scans.
    for probe in range(6):
        y = rng.normal(size=16)
        calls.clear()
        code = paired_solve(pair, y, config)
        assert len(calls) == 1, (probe, calls)
        assert calls[0][1] < y.size and code.evaluations > len(sets)
    # Exact duplicate atoms, as ToySynthesizer makes them: slot 1 at pose
    # (0, 0, 0) renders a copy of the still, and both pair with block 1.
    # Once one of a pair is chosen, every later scan scores the other
    # inside the support, and that takes no fit of its own.
    gal, poses = gal.copy(), poses.copy()
    gal[:, slots == 1] = gal[:, slots == 0]
    poses[slots == 1] = 0.0
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    twins = [s for s in pair.sets if s.pose_slot == 1]
    assert all(s.block == 1 for s in pair.sets if s.pose_slot <= 1)
    for probe in range(6):
        atoms = rng.choice(np.flatnonzero(slots == 0), size=3, replace=False)
        y = gal[:, atoms] @ rng.uniform(0.5, 1.5, size=3) + 0.05 * rng.normal(size=16)
        calls.clear()
        code = paired_solve(pair, y, config)
        assert len(calls) == 1, (probe, calls)
        assert not set(code.active_sets) & set(twins)


def _tie_instance(coefs):
    """30 gallery-only sets (C(30, 2) = 435 > the enumeration limit at
    xi = 2) where atom 22 (class 7) duplicates atom 7 (class 2), and atom 1
    leans towards y = coefs[0] * atom 4 + coefs[1] * atom 7 along a
    direction no other atom has."""
    rng = np.random.default_rng(7)
    classes = np.repeat(np.arange(10), 3)
    slots = np.tile(np.arange(3), 10)
    gal = rng.normal(size=(20, 30))
    gal[0] = 0.0
    gal /= np.linalg.norm(gal, axis=0)
    gal[:, 22] = gal[:, 7]
    y = coefs[0] * gal[:, 4] + coefs[1] * gal[:, 7]
    lean = y + 0.8 * np.eye(20)[0]
    gal[:, 1] = lean / np.linalg.norm(lean)
    return gal, classes, slots, np.zeros((30, 3)), y


def test_identical_atoms_tie_break_to_the_lower_index():
    config = ModelConfig(lam=1e-6, mu=1e-6, xi=2)
    # A greedy round: atom 7 (and its twin 22) explains y best.
    gal, classes, slots, poses, y = _tie_instance((0.6, 1.0))
    code = paired_solve(PairedDictionary(gal, classes, slots, poses), y, replace(config, xi=1))
    assert [s.gallery_indices for s in code.active_sets] == [(7,)]
    # The swap pass: the rounds pick atoms 1 then 4, and swapping atom 1
    # out for atom 7 or its twin fits y exactly.
    gal, classes, slots, poses, y = _tie_instance((1.0, 1.0))
    code = paired_solve(PairedDictionary(gal, classes, slots, poses), y, replace(config, xi=1))
    assert [s.gallery_indices for s in code.active_sets] == [(1,)]
    code = paired_solve(PairedDictionary(gal, classes, slots, poses), y, config)
    assert [s.gallery_indices for s in code.active_sets] == [(7,), (4,)]


def test_evaluations_count_the_scored_candidate_supports():
    n = 30
    config = ModelConfig(lam=1e-6, mu=1e-6, xi=2)
    gal, classes, slots, poses, y = _tie_instance((1.0, 1.0))
    code = paired_solve(PairedDictionary(gal, classes, slots, poses), y, config)
    # Two rounds; the first swap pass accepts at position 0 after scanning
    # n - 2 candidates, the second scans both positions and stops.
    assert code.evaluations == n + (n - 1) + (n - 2) + 2 * (n - 2)

    rng = np.random.default_rng(43)
    gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
    n, xi = len(sets), 3
    y = gal[:, [0, 7, 14]].sum(axis=1) + 0.01 * rng.normal(size=16)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    code = paired_solve(pair, y, replace(config, xi=xi))
    assert sorted(s.gallery_indices for s in code.active_sets) == [(0,), (7,), (14,)]
    # Rounds of n, n - 1, n - 2 candidates and one swap pass that finds no
    # improvement at any of the xi positions.
    assert code.evaluations == sum(n - k for k in range(xi)) + xi * (n - xi)

    gal, classes, slots, poses, v, v_blocks = _toy_paired_instance(rng)
    n_sets = len(admissible_active_sets(classes, slots, poses, v_blocks))
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    code = paired_solve(pair, rng.normal(size=8), config)
    assert code.evaluations == math.comb(n_sets, 2)
    assert extended_solve(gal, v, rng.normal(size=8), 0.01, 0.01, 0.5).evaluations == 0


def test_greedy_refit_starts_from_the_least_squares_fit(monkeypatch):
    # The greedy search starts its refit from the settled support's
    # least-squares fit. The warm refit must converge and meet tol. Both
    # refits meeting tol, they also meet it on the objective restricted to
    # the union U of their supports; where G_UU is nonsingular, each lies
    # within sqrt(|U|) tol over the smallest eigenvalue of 2 G_UU of that
    # restricted optimum, so within twice that of each other (as in
    # test_solve_agrees_with_the_residual_loop).
    refits = []

    def recorded(*args, **kwargs):
        refits.append((args, kwargs, extended_solve(*args, **kwargs)))
        return refits[-1][2]

    monkeypatch.setattr(spv.solvers, "extended_solve", recorded)
    rng = np.random.default_rng(45)
    bounded, warm_steps, cold_steps = 0, 0, 0
    for _ in range(30):
        gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
        signal = rng.choice(len(sets), size=3, replace=False)
        y = gal[:, signal] @ rng.uniform(0.5, 1.5, size=3) + 0.05 * rng.normal(size=16)
        y /= np.linalg.norm(y)
        lam = mu = 10.0 ** rng.uniform(-3, -2)
        config = ModelConfig(lam=lam, mu=mu, tau=float(rng.choice([0.0, 0.5, 1.0])), xi=3)
        refits.clear()
        paired_solve(PairedDictionary(gal, classes, slots, poses, v, v_blocks), y, config)
        assert len(refits) == 1
        args, kwargs, warm = refits[0]
        dp, sub_v, _, _, _, tau, tol, _ = args
        assert kwargs["start"].shape == (dp.shape[1] + sub_v.shape[1],)
        cold = extended_solve(*args)
        assert warm.converged and cold.converged
        assert first_order_residual(dp, sub_v, y, warm.alpha, warm.beta, lam, mu, tau) <= tol
        warm_steps, cold_steps = warm_steps + warm.iterations, cold_steps + cold.iterations
        ours = np.concatenate([warm.alpha, warm.beta])
        theirs = np.concatenate([cold.alpha, cold.beta])
        union = (ours != 0) | (theirs != 0)
        cols = np.concatenate([dp, sub_v], axis=1)[:, union]
        curvature = 2.0 * np.linalg.eigvalsh(cols.T @ cols)[0]
        if curvature > 1e-8:
            bounded += 1
            bound = 2.0 * math.sqrt(union.sum()) * tol / curvature
            assert np.linalg.norm(ours - theirs) <= bound
    assert bounded >= 20
    assert warm_steps < cold_steps


def test_start_rule_and_its_zero_fallback():
    rng = np.random.default_rng(46)
    dp, v, y = _dictionary(rng, 10, 4), _dictionary(rng, 10, 6), rng.normal(size=10)
    lam, mu, tau = 0.05, 0.05, 0.5
    plain = extended_solve(dp, v, y, lam, mu, tau, tol=1e-8, max_iter=5000)
    # A start whose objective is above ||y||^2 is not taken: the solve is
    # the one from zero, bit for bit.
    for start in (np.full(10, 3.0), -np.arange(10.0)):
        assert extended_objective(dp, v, y, start[:4], start[4:], lam, mu, tau) > y @ y
        code = extended_solve(dp, v, y, lam, mu, tau, tol=1e-8, max_iter=5000, start=start)
        np.testing.assert_array_equal(code.alpha, plain.alpha)
        np.testing.assert_array_equal(code.beta, plain.beta)
        assert (code.objective, code.iterations, code.converged, code.optimality) == (
            plain.objective, plain.iterations, plain.converged, plain.optimality
        )
    # A start below it is taken: from the optimum, the first step stalls
    # and the solve ends there, converged.
    optimum = np.concatenate([plain.alpha, plain.beta])
    code = extended_solve(dp, v, y, lam, mu, tau, tol=1e-8, max_iter=5000, start=optimum)
    assert code.converged and code.iterations == 1
    assert code.objective <= plain.objective + 1e-15

    bad = [np.zeros(9), np.zeros((10, 1)), np.full(10, np.nan), np.r_[np.inf, np.zeros(9)]]
    for start in bad:
        with pytest.raises(DataError, match="start"):
            extended_solve(dp, v, y, lam, mu, tau, start=start)


def test_swap_pass_reuses_the_final_rounds_scores(monkeypatch):
    # Until a swap is taken, the swap pass's last position has the final
    # round's base and candidates, so it reuses that round's scores less
    # the chosen one: a search that takes no swap scans xi + (xi - 1) times.
    scans = []

    def recorded(pair, y, base, candidates, *rest):
        scores = _candidate_residuals(pair, y, base, candidates, *rest)
        named = [[pair.sets[i] for i in indices] for indices in (base, candidates)]
        scans.append((*named, scores))
        return scores

    monkeypatch.setattr(spv.solvers, "_candidate_residuals", recorded)
    config = ModelConfig(lam=1e-6, mu=1e-6, xi=3)
    rng = np.random.default_rng(43)
    gal, classes, slots, poses, v, v_blocks, sets = _greedy_paired_instance(rng)
    n, xi = len(sets), config.xi
    y = gal[:, [0, 7, 14]].sum(axis=1) + 0.01 * rng.normal(size=16)
    pair = PairedDictionary(gal, classes, slots, poses, v, v_blocks)
    code = paired_solve(pair, y, config)
    assert len(scans) == xi + (xi - 1)
    # A full recomputation of the last position gives the reused scores, so
    # the same choice (no swap) and the same count of compared candidates.
    base, candidates, scores = scans[xi - 1]
    settled = sorted(code.active_sets, key=sets.index)
    (third,) = [s for s in settled if s not in base]
    full = _batched(pair, y, base, [s for s in candidates if s != third])
    np.testing.assert_allclose(np.delete(scores, candidates.index(third)), full, rtol=1e-12)
    assert not np.any(full < support_residual(gal, v, y, settled) - 1e-10)
    assert settled == sorted(greedy_scan_oracle(gal, v, y, sets, xi), key=sets.index)
    assert code.evaluations == sum(n - k for k in range(xi)) + xi * (n - xi)

    # After a swap the last position's base has changed, so every position
    # of the next pass is scanned: two rounds, one position of the first
    # pass, both of the second.
    scans.clear()
    gal, classes, slots, poses, y = _tie_instance((1.0, 1.0))
    code = paired_solve(PairedDictionary(gal, classes, slots, poses), y, replace(config, xi=2))
    assert [s.gallery_indices for s in code.active_sets] == [(7,), (4,)]
    assert len(scans) == 2 + 1 + 2
