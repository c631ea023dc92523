"""Each benchmark check passes on real program output and fails on a
corrupted copy of it.

    python3 -m pytest screenbench/test_checks.py -q
"""

import dataclasses
import types

import numpy as np
import pytest

import checks
import inputs
import reference
import run
import tracing

spv = run.load_program()


@pytest.fixture(scope="module")
def session():
    data = inputs.generate(inputs.WORKLOADS["small_watchlist"], 3, spv.ToySynthesizer)
    config = spv.ModelConfig()
    enrolled = run.enroll(spv, data, config)
    pairing = checks.block_of_slot(enrolled["clustering"].exemplar_poses)
    decisions = []
    for j in range(12):
        y = np.ascontiguousarray(data.probes[:, j])
        decisions.append((y, spv.spv_classify(enrolled["gallery"], enrolled["variational"], y, config)))
    return types.SimpleNamespace(data=data, config=config, enrolled=enrolled,
                                 pairing=pairing, decisions=decisions)


def _with_code(decision, **changes):
    return dataclasses.replace(decision, code=dataclasses.replace(decision.code, **changes))


def test_real_outputs_pass(session):
    run.check_enrollment(session.enrolled, session.data)
    for y, decision in session.decisions:
        run.check_decision(decision, y, session.enrolled, session.pairing, session.config)


def test_generator_is_a_function_of_the_seed():
    workload = inputs.WORKLOADS["small_watchlist"]
    a, b, c = (inputs.generate(workload, s, spv.ToySynthesizer) for s in (5, 5, 6))
    assert np.array_equal(a.probes, b.probes) and np.array_equal(a.generic, b.generic)
    assert not np.array_equal(a.probes, c.probes)
    assert np.array_equal(a.generic, c.generic) and np.array_equal(a.stills, c.stills)
    assert a.probes.shape[1] == workload.pool_size
    assert np.allclose(np.linalg.norm(a.probes, axis=0), 1.0)


def test_prediction_off_the_minimum_residual_fails(session):
    y, decision = session.decisions[0]
    blocks = checks.check_active_sets(decision.code, session.enrolled["gallery"],
                                      session.enrolled["variational"], session.pairing, session.config.xi)
    recomputed = checks.class_residuals(y, decision.code.alpha, decision.code.beta,
                                        session.enrolled["gallery"], session.enrolled["variational"], blocks)
    checks.check_residuals(decision, recomputed)
    worst = max(recomputed, key=recomputed.get)
    wrong = types.SimpleNamespace(predicted=worst, residual_of=decision.residual_of)
    with pytest.raises(checks.CheckFailed, match="misses the minimum"):
        checks.check_residuals(wrong, recomputed)


def test_reported_residual_that_disagrees_fails(session):
    _, decision = session.decisions[0]
    recomputed = {c: decision.residual_of(c) for c in decision.class_ids}
    recomputed[decision.predicted] -= 1e-3
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_residuals(decision, recomputed)


def test_variational_coefficient_outside_paired_blocks_fails(session):
    gallery, variational = session.enrolled["gallery"], session.enrolled["variational"]
    y, decision = session.decisions[0]
    used = {s.block for s in decision.code.active_sets}
    outside = np.flatnonzero(~np.isin(variational.blocks, sorted(used)))
    assert outside.size, "every block is in use; pick another probe"
    beta = decision.code.beta.copy()
    beta[outside[0]] = 0.1
    corrupted = _with_code(decision, beta=beta).code
    with pytest.raises(checks.CheckFailed, match="outside the blocks paired"):
        checks.check_active_sets(corrupted, gallery, variational, session.pairing, session.config.xi)


def test_mispaired_active_set_fails(session):
    gallery, variational = session.enrolled["gallery"], session.enrolled["variational"]
    _, decision = session.decisions[0]
    first = decision.code.active_sets[0]
    other = next(b for b in sorted(set(variational.blocks.tolist())) if b != first.block)
    bad = dataclasses.replace(first, block=other)
    corrupted = dataclasses.replace(decision.code, active_sets=(bad,) + decision.code.active_sets[1:])
    with pytest.raises(checks.CheckFailed, match="paired with block"):
        checks.check_active_sets(corrupted, gallery, variational, session.pairing, session.config.xi)


def test_too_many_gallery_groups_fails(session):
    gallery = session.enrolled["gallery"]
    alpha = np.zeros(gallery.matrix.shape[1])
    alpha[: session.config.xi + 1] = 0.1
    with pytest.raises(checks.CheckFailed, match="groups"):
        checks.check_group_count(alpha, gallery, session.config.xi)


def test_wrong_sci_fails(session):
    _, decision = session.decisions[0]
    classes = session.enrolled["gallery"].classes
    checks.check_sci(decision, decision.code.alpha, classes)
    with pytest.raises(checks.CheckFailed, match="SCI"):
        checks.check_sci(dataclasses.replace(decision, sci=decision.sci * 0.5 + 0.01), decision.code.alpha, classes)


def test_objective_above_its_value_at_zero_fails(session):
    gallery, variational = session.enrolled["gallery"], session.enrolled["variational"]
    y, decision = session.decisions[0]
    code = decision.code
    checks.check_objective(code, y, gallery, variational, session.config)
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_objective(dataclasses.replace(code, objective=code.objective + 1e-3),
                               y, gallery, variational, session.config)
    far = dataclasses.replace(code, alpha=code.alpha + 5.0)
    r = y - gallery.matrix @ far.alpha - variational.matrix @ far.beta
    lam, mu, tau = session.config.lam, session.config.mu, session.config.tau
    f = float(r @ r) + lam * float(np.abs(far.alpha).sum()) + mu * (
        tau * float(np.abs(far.beta).sum()) + (1 - tau) * float(np.linalg.norm(far.beta)))
    with pytest.raises(checks.CheckFailed, match="exceeds its value at zero"):
        checks.check_objective(dataclasses.replace(far, objective=f), y, gallery, variational, session.config)


def test_perturbed_converged_code_fails_optimality(session):
    gallery, variational = session.enrolled["gallery"], session.enrolled["variational"]
    y, decision = next((y, d) for y, d in session.decisions if d.code.converged)
    checks.check_optimality(decision.code, y, gallery, variational, session.config)
    alpha = decision.code.alpha.copy()
    on = np.flatnonzero(alpha)[0]
    alpha[on] *= 1.01
    with pytest.raises(checks.CheckFailed, match="optimality"):
        checks.check_optimality(dataclasses.replace(decision.code, alpha=alpha), y, gallery, variational, session.config)


def test_wrong_pauc_fails():
    rng = np.random.default_rng(0)
    labels = np.arange(60) % 2 == 0
    scores = rng.normal(size=60) + labels
    roc = spv.metrics.roc_curve(scores, labels)
    pauc = spv.metrics.pauc20(roc)
    ap = spv.metrics.aupr(spv.metrics.pr_curve(scores, labels))
    checks.check_session_scores(scores, labels, pauc, ap, roc)
    with pytest.raises(checks.CheckFailed, match="pAUC20"):
        checks.check_session_scores(scores, labels, pauc + 1e-6, ap, roc)
    with pytest.raises(checks.CheckFailed, match="AUPR"):
        checks.check_session_scores(scores, labels, pauc, ap - 1e-6, roc)
    k = len(roc) // 2
    dented = roc[:k] + [(roc[k][0], 0.5 * roc[k][1])] + roc[k + 1:]
    with pytest.raises(checks.CheckFailed, match="Mann-Whitney"):
        checks.check_session_scores(scores, labels, pauc, ap, dented)


def test_sweep_groups_ties():
    labels = np.array([1, 0, 1, 0, 1, 0], dtype=bool)
    scores = np.array([3.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    assert checks.mann_whitney_auc(scores, labels) == pytest.approx(5 / 9)
    assert len(checks.sweep(scores, labels)) == 3


def test_assignment_worse_than_a_feasible_vertex_fails(session):
    poses = session.data.generic_poses
    z, eta = session.enrolled["z"].z, session.enrolled["eta"]
    checks.check_assignment_objective(z, poses, eta)
    n = z.shape[0]
    spread = np.full((n, n), 1.0 / n)  # feasible, but worse than Z = I or a vertex
    with pytest.raises(checks.CheckFailed, match="worse than a feasible vertex"):
        checks.check_assignment_objective(spread, poses, eta)
    with pytest.raises(checks.CheckFailed, match="sum to 1"):
        checks.check_assignment_objective(0.5 * z, poses, eta)


def test_assignment_to_a_farther_exemplar_fails(session):
    clustering = session.enrolled["clustering"]
    poses = session.data.generic_poses
    checks.check_nearest_assignment(clustering.exemplar_indices, clustering.assignment, poses)
    assignment = clustering.assignment.copy()
    exemplars = set(clustering.exemplar_indices)
    j = next(j for j in range(assignment.size) if j not in exemplars)
    assignment[j] = next(e for e in clustering.exemplar_indices if e != assignment[j])
    with pytest.raises(checks.CheckFailed, match="nearest exemplar"):
        checks.check_nearest_assignment(clustering.exemplar_indices, assignment, poses)


def test_variational_atom_from_the_wrong_base_fails(session):
    v, clustering, data = session.enrolled["variational"], session.enrolled["clustering"], session.data
    args = (v.blocks, v.source_labels, v.atom_poses, clustering.exemplar_indices,
            clustering.assignment, data.generic, data.generic_labels, data.generic_poses)
    matrix = v.matrix.copy()
    matrix[:, 0] = -matrix[:, 0]
    with pytest.raises(checks.CheckFailed, match="unit difference"):
        checks.check_variational_atoms(matrix, *args)
    with pytest.raises(checks.CheckFailed, match="filed in block"):
        checks.check_variational_atoms(v.matrix, (v.blocks % 4) + 1, *args[1:])


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [("classifier.spv_classify", 0.0, 10.0, -1, 0),
                    ("classifier.paired_solve", 1.0, 9.0, 0, 0),
                    ("solvers.extended_solve", 2.0, 5.0, 1, 0),
                    ("solvers.restricted_least_squares", 5.0, 6.0, 1, 0)]
    own = tracer.self_times()
    assert own["classifier.spv_classify"] == 2.0
    assert own["classifier.paired_solve"] == 4.0
    metrics = tracing.per_layer_metrics(tracer, 1)
    assert metrics["solvers.paired_self_s"]["value"] == 4.0
    assert metrics["classifier.self_s"]["value"] == 2.0
    assert metrics["solvers.ls_calls"]["value"] == 1


def test_scaling_follows_the_local_reference_time():
    latencies = np.full(40, 0.02)
    references = np.full(40, reference.REFERENCE_S)
    assert np.allclose(reference.scaled(latencies, references), latencies)
    references[20:] *= 2.0  # the machine halves its speed mid-stream
    scaled = reference.scaled(latencies * np.where(np.arange(40) < 20, 1.0, 2.0), references)
    assert np.allclose(scaled[:12], 0.02) and np.allclose(scaled[29:], 0.02)
