import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

import spv.exemplars
from spv.exemplars import (
    AssignmentMatrix,
    DissimilarityMatrix,
    PoseClustering,
    clustering_from_dict,
    eta_for_cluster_count,
    eta_max,
    extract_clustering,
    medoid_index,
    pose_dissimilarities,
    project_columns_to_simplex,
    select_exemplars,
)
from spv.matrixio import DataError, SampleMeta

from oracles import facility_subsets_oracle


def _meta(poses):
    poses = np.asarray(poses, dtype=float)
    return SampleMeta(labels=np.zeros(len(poses), dtype=int), poses=poses)


TWO_CLUSTERS = _meta(
    [[0, 0, 0], [1, 1, 0], [0, 2, 1], [60, 60, 0], [61, 59, 0], [60, 62, 1]]
)


def test_pose_dissimilarity_345():
    d = pose_dissimilarities(_meta([[0, 0, 0], [0, 3, 4]]))
    assert d.values[0, 1] == pytest.approx(5.0)
    assert d.values[1, 0] == pytest.approx(5.0)


def test_pose_dissimilarity_identical_is_zero():
    d = pose_dissimilarities(_meta([[7, -3, 2], [7, -3, 2]]))
    assert d.values[0, 1] == 0.0


def test_pose_dissimilarity_matches_double_loop():
    rng = np.random.default_rng(5)
    poses = rng.uniform(-90, 90, size=(10, 3))
    d = pose_dissimilarities(_meta(poses)).values
    for i in range(10):
        for j in range(10):
            expect = math.dist(poses[i], poses[j])
            assert abs(d[i, j] - expect) <= 1e-12


def test_dissimilarity_validation():
    with pytest.raises(DataError):
        DissimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DataError):
        DissimilarityMatrix(np.array([[1.0]]))
    with pytest.raises(DataError):
        DissimilarityMatrix(-np.ones((2, 2)) + np.eye(2))


def test_simplex_projection_properties():
    rng = np.random.default_rng(0)
    m = rng.normal(scale=3.0, size=(6, 9))
    p = project_columns_to_simplex(m)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
    again = project_columns_to_simplex(p)
    np.testing.assert_allclose(again, p, atol=1e-12)


def test_identical_poses_collapse_to_one_exemplar():
    d = pose_dissimilarities(_meta([[5, 5, 5]] * 3))
    z = select_exemplars(d, eta=1.0)
    clustering = extract_clustering(z, d)
    assert clustering.q == 1
    assert clustering.exemplar_indices == (0,)


def test_tiny_eta_gives_identity_assignment():
    rng = np.random.default_rng(2)
    meta = _meta(rng.uniform(-45, 45, size=(7, 3)))
    d = pose_dissimilarities(meta)
    z = select_exemplars(d, eta=1e-9)
    clustering = extract_clustering(z, d, meta)
    assert clustering.q == 7
    assert z.objective <= 1e-6


def test_two_cluster_instance_matches_subset_oracle():
    d = pose_dissimilarities(TWO_CLUSTERS)
    eta = 10.0
    z = select_exemplars(d, eta)
    clustering = extract_clustering(z, d, TWO_CLUSTERS)
    subset, _ = facility_subsets_oracle(d.values, eta, 2, max_size=3)
    assert clustering.q == 2
    assert clustering.exemplar_indices == tuple(sorted(subset))


def test_constraints_hold_at_solution():
    d = pose_dissimilarities(TWO_CLUSTERS)
    z = select_exemplars(d, 7.5)
    assert np.max(np.abs(z.z.sum(axis=0) - 1.0)) <= 1e-8
    assert np.all(z.z >= -1e-12)


def test_extract_identity_assignment():
    z = AssignmentMatrix(np.eye(3), 0.0, 1, True)
    d = pose_dissimilarities(_meta([[0, 0, 0], [10, 0, 0], [20, 0, 0]]))
    clustering = extract_clustering(z, d)
    assert clustering.q == 3
    np.testing.assert_array_equal(clustering.assignment, [0, 1, 2])


def test_extract_single_row_assigns_everything():
    z = np.zeros((3, 3))
    z[1] = 1.0
    clustering = extract_clustering(
        AssignmentMatrix(z, 0.0, 1, True),
        pose_dissimilarities(_meta([[0, 0, 0], [10, 0, 0], [20, 0, 0]])),
    )
    assert clustering.exemplar_indices == (1,)
    np.testing.assert_array_equal(clustering.assignment, [1, 1, 1])


def test_extract_matches_nearest_medoid_partition():
    d = pose_dissimilarities(TWO_CLUSTERS)
    z = select_exemplars(d, 10.0)
    clustering = extract_clustering(z, d, TWO_CLUSTERS)
    for j in range(d.n):
        dists = {i: d.values[i, j] for i in clustering.exemplar_indices}
        best = min(dists, key=lambda i: (dists[i], i))
        if j in clustering.exemplar_indices:
            best = j
        assert clustering.assignment[j] == best


def test_clustering_self_assignment_enforced():
    with pytest.raises(DataError, match="assigned to itself"):
        PoseClustering((0, 1), np.zeros((2, 3)), np.array([1, 1]), 2)
    with pytest.raises(DataError, match="non-exemplar"):
        PoseClustering((0,), np.zeros((1, 3)), np.array([0, 1]), 1)


def test_eta_max_single_sample():
    d = pose_dissimilarities(_meta([[1, 2, 3]]))
    assert eta_max(d) > 0


def test_eta_max_yields_medoid_and_smaller_eta_splits():
    rng = np.random.default_rng(7)
    meta = _meta(rng.uniform(-60, 60, size=(5, 3)))
    d = pose_dissimilarities(meta)
    top = eta_max(d)
    clustering = extract_clustering(select_exemplars(d, top), d, meta)
    assert clustering.exemplar_indices == (medoid_index(d),)
    small = extract_clustering(select_exemplars(d, top / 1000.0), d, meta)
    assert small.q >= 2


def test_eta_for_cluster_count_hits_target():
    d = pose_dissimilarities(TWO_CLUSTERS)
    eta = eta_for_cluster_count(d, 2)
    clustering = extract_clustering(select_exemplars(d, eta), d, TWO_CLUSTERS)
    assert clustering.q == 2
    with pytest.raises(DataError):
        eta_for_cluster_count(d, 7)


def test_eta_search_never_solves_twice_at_one_eta(monkeypatch):
    etas = []

    def recording(d, eta, *args, **kwargs):
        etas.append(float(eta))
        return select_exemplars(d, eta, *args, **kwargs)

    monkeypatch.setattr("spv.exemplars.select_exemplars", recording)
    eta_for_cluster_count(pose_dissimilarities(TWO_CLUSTERS), 2)
    assert len(etas) >= 2
    assert len(set(etas)) == len(etas)


def _count_admm_phases(monkeypatch) -> list:
    phases = []
    admm = spv.exemplars._admm_phase
    monkeypatch.setattr(
        spv.exemplars, "_admm_phase",
        lambda *args, **kwargs: phases.append(1) or admm(*args, **kwargs),
    )
    return phases


@pytest.mark.parametrize("target", [1, 2])
def test_the_solve_at_the_eta_a_search_returns_is_not_made_again(target, monkeypatch):
    # An eta search leaves its solve at the eta it returns on d (eta_max's
    # for one cluster), so the caller's solve there, the next step of an
    # enrollment, runs no ADMM phase and returns that solve. Another eta,
    # tol, max_iter, row norm or dissimilarity matrix solves afresh, and the
    # kept solve is not part of d's value.
    d = pose_dissimilarities(TWO_CLUSTERS)
    before = repr(d)
    eta = eta_for_cluster_count(d, target)
    phases = _count_admm_phases(monkeypatch)
    z = select_exemplars(d, eta)
    assert phases == []
    assert extract_clustering(z, d).q == target
    fresh = select_exemplars(pose_dissimilarities(TWO_CLUSTERS), eta)
    assert phases
    np.testing.assert_array_equal(z.z, fresh.z)
    assert (z.objective, z.iterations, z.converged) == (
        fresh.objective, fresh.iterations, fresh.converged
    )
    for args, kwargs in (((0.5 * eta,), {}), ((eta,), {"tol": 1e-7}), ((eta,), {"max_iter": 4000}),
                         ((eta, math.inf), {})):
        phases.clear()
        select_exemplars(d, *args, **kwargs)
        assert phases
    assert repr(d) == before
    assert [f.name for f in fields(d) if f.compare] == ["values"]


def test_a_kept_solve_that_did_not_converge_warns_again(monkeypatch):
    admm = spv.exemplars._admm_phase
    monkeypatch.setattr(
        spv.exemplars, "_admm_phase",
        lambda *args, **kwargs: (*admm(*args, **kwargs)[:2], False),
    )
    d = pose_dissimilarities(TWO_CLUSTERS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        eta = eta_for_cluster_count(d, 2)
    phases = _count_admm_phases(monkeypatch)
    with pytest.warns(RuntimeWarning, match="exemplar solver stopped"):
        z = select_exemplars(d, eta)
    assert phases == [] and not z.converged


def test_a_capped_solve_warns_with_the_iterations_it_ran():
    # max_iter caps each phase, not the solve: the warm-up and every
    # reduced re-solve stop within 3 here, and the warning names the total.
    d = pose_dissimilarities(TWO_CLUSTERS)
    with pytest.warns(RuntimeWarning, match="exemplar solver stopped") as record:
        z = select_exemplars(d, 1.0, max_iter=3)
    assert not z.converged and z.iterations > 3
    message = str(record[0].message)
    assert f"stopped after {z.iterations} iterations" in message
    assert "at most 3 in the warm-up and 3 in each re-solve" in message


def test_the_warm_up_does_not_stall_while_the_row_prox_zeroes_every_row():
    # The 29th pose cloud of the acceptance structure test (seed 77, 35
    # samples). At this eta the row prox zeroes every row for the first
    # 25 iterations while C's objective stands still; a warm-up that took
    # that for a stall ranked the rows from the uniform start and the
    # vertex rule returned the medoid alone (objective 15,189.28).
    rng = np.random.default_rng(77)
    for _ in range(29):
        n = int(rng.integers(4, 41))
        poses = rng.uniform(-60, 60, size=(n, 3))
    d = pose_dissimilarities(_meta(poses))
    z = select_exemplars(d, 16 * float(d.values.max()))
    assert extract_clustering(z, d).exemplar_indices == (30, 32)
    assert z.objective <= 15186.93


@pytest.mark.parametrize("row_norm", [2, math.inf])
def test_selection_is_no_worse_than_any_vertex_and_assigns_nearest(row_norm):
    # On random pose clouds of 4 to 40 samples, Z is column-stochastic,
    # its objective is no worse than Z = I or any one-row vertex, and
    # every sample goes to a nearest exemplar.
    rng = np.random.default_rng(31)
    for n in (4, 9, 14, 19, 24, 29, 34, 40):
        meta = _meta(rng.uniform(-60, 60, size=(n, 3)))
        d = pose_dissimilarities(meta)
        dv = d.values
        vertex_norm = math.sqrt(n) if row_norm == 2 else 1.0
        top = eta_max(d, row_norm)
        for eta in np.geomspace(1e-3 * top, top, 4):
            eta = float(eta)
            assignment = select_exemplars(d, eta, row_norm)
            z = assignment.z
            assert np.all(z >= -1e-12)
            np.testing.assert_allclose(z.sum(axis=0), 1.0, atol=1e-8)
            norms = np.linalg.norm(z, axis=1) if row_norm == 2 else np.max(z, axis=1)
            f = float(np.sum(dv * z) + eta * norms.sum())
            best = min(eta * n, float(dv.sum(axis=1).min()) + eta * vertex_norm)
            assert f <= best + 1e-9 * max(1.0, abs(best))
            clustering = extract_clustering(assignment, d, meta)
            exemplars = np.array(clustering.exemplar_indices)
            own = dv[clustering.assignment, np.arange(n)]
            assert np.all(own <= dv[exemplars].min(axis=0) + 1e-9)


def test_q_monotone_in_eta_on_grid():
    rng = np.random.default_rng(13)
    meta = _meta(rng.uniform(-50, 50, size=(15, 3)))
    d = pose_dissimilarities(meta)
    qs = [
        extract_clustering(select_exemplars(d, float(e)), d, meta).q
        for e in np.geomspace(1e-9, eta_max(d), 10)
    ]
    assert all(a >= b for a, b in zip(qs, qs[1:]))


def test_invalid_eta_rejected():
    d = pose_dissimilarities(TWO_CLUSTERS)
    with pytest.raises(DataError):
        select_exemplars(d, 0.0)
    with pytest.raises(DataError):
        select_exemplars(d, -1.0)


@pytest.mark.parametrize(
    "key, value",
    [("exemplar_indices", ["x"]), ("exemplar_poses", [[0, 0, "a"]]),
     ("assignment", [None]), ("q", "one"), ("q", None),
     ("exemplar_indices", [0.9]), ("exemplar_indices", [True]), ("q", 1.4)],
)
def test_wrong_typed_clustering_values_are_a_data_error(key, value):
    raw = {"exemplar_indices": [0], "exemplar_poses": [[0, 0, 0]], "assignment": [0], "q": 1}
    assert clustering_from_dict(raw).q == 1
    with pytest.raises(DataError, match="wrong type"):
        clustering_from_dict({**raw, key: value})
