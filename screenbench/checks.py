"""Correctness checks of a screening session, computed apart from the program.

Each check recomputes what it needs from the arrays the program returned
and the arrays the benchmark generated, using only NumPy and the
definitions of the method, and raises ``CheckFailed`` on the first
violation. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9


class CheckFailed(AssertionError):
    """A program output violates a property the method must have."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- enrollment -------------------------------------------------------------


def pose_distances(poses: np.ndarray) -> np.ndarray:
    poses = np.asarray(poses, dtype=np.float64)
    return np.sqrt(((poses[:, None, :] - poses[None, :, :]) ** 2).sum(axis=2))


def check_assignment_objective(z: np.ndarray, poses: np.ndarray, eta: float) -> None:
    """Z is column-stochastic and no worse than Z = I or any one-row vertex.

    Objective: sum_ij d_ij z_ij + eta * sum_i ||z_i||_2 (row-norm order 2).
    """
    z = np.asarray(z, dtype=np.float64)
    d = pose_distances(poses)
    n = d.shape[0]
    _require(z.shape == (n, n), f"assignment shape {z.shape} for {n} samples")
    _require(bool(np.all(z >= -1e-12)), "assignment has negative entries")
    _require(bool(np.allclose(z.sum(axis=0), 1.0, atol=1e-8)), "assignment columns do not sum to 1")
    f = float((d * z).sum() + eta * np.linalg.norm(z, axis=1).sum())
    f_identity = eta * n
    f_vertex = float(d.sum(axis=1).min() + eta * math.sqrt(n))
    best = min(f_identity, f_vertex)
    _require(
        f <= best + REL * max(1.0, abs(best)),
        f"assignment objective {f:.12g} worse than a feasible vertex {best:.12g}",
    )


def check_nearest_assignment(exemplars, assignment, poses: np.ndarray) -> None:
    """Every sample goes to an exemplar at the least pose distance."""
    d = pose_distances(poses)
    ex = np.asarray(exemplars, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    _require(bool(np.all(np.isin(assignment, ex))), "a sample is assigned to a non-exemplar")
    _require(bool(np.all(assignment[ex] == ex)), "an exemplar is not assigned to itself")
    own = d[assignment, np.arange(d.shape[0])]
    nearest = d[ex].min(axis=0)
    worst = int(np.argmax(own - nearest))
    _require(
        own[worst] <= nearest[worst] + 1e-9,
        f"sample {worst} assigned at distance {own[worst]:.6g}, nearest exemplar at {nearest[worst]:.6g}",
    )


def check_variational_atoms(matrix, blocks, source_labels, atom_poses,
                            exemplars, assignment, generic, labels, poses) -> None:
    """Each atom is the unit difference of its sample from that identity's
    most frontal sample, filed in the block of the sample's exemplar, and
    every non-natural sample yields exactly one atom."""
    matrix = np.asarray(matrix, dtype=np.float64)
    exemplars = [int(e) for e in exemplars]
    used = set()
    naturals = {}
    for label in np.unique(labels):
        cols = np.flatnonzero(labels == label)
        naturals[int(label)] = int(cols[np.argmin(np.linalg.norm(poses[cols], axis=1))])
    for k in range(matrix.shape[1]):
        label = int(source_labels[k])
        cols = np.flatnonzero((labels == label) & np.all(poses == atom_poses[k], axis=1))
        _require(cols.size == 1, f"atom {k} matches {cols.size} generic samples")
        col = int(cols[0])
        natural = naturals[label]
        _require(col != natural and col not in used, f"atom {k} repeats or uses a natural sample")
        used.add(col)
        diff = generic[:, col] - generic[:, natural]
        expected = diff / np.linalg.norm(diff)
        _require(
            bool(np.allclose(matrix[:, k], expected, rtol=0.0, atol=1e-12)),
            f"atom {k} is not the unit difference of sample {col} from {natural}",
        )
        block = exemplars.index(int(assignment[col])) + 1
        _require(int(blocks[k]) == block, f"atom {k} filed in block {blocks[k]}, expected {block}")
    _require(len(used) == labels.size - len(naturals), "some generic sample produced no atom")


# --- probe decisions ---------------------------------------------------------


def block_of_slot(exemplar_poses: np.ndarray) -> dict[int, int]:
    """Pairing rule: slot p >= 1 takes block p; slot 0 (the still) takes the
    block whose exemplar pose is nearest to frontal, lowest on ties."""
    norms = np.linalg.norm(np.asarray(exemplar_poses, dtype=np.float64), axis=1)
    pairing = {p: p for p in range(1, norms.size + 1)}
    pairing[0] = int(np.argmin(norms)) + 1
    return pairing


def check_active_sets(code, gallery, variational, pairing, xi: int) -> dict[int, set]:
    """The code's active sets are admissible paired groups, at most xi of
    them, covering every nonzero coefficient. Returns the blocks of each
    class's active sets."""
    sets = code.active_sets
    _require(len(sets) <= xi, f"{len(sets)} active sets exceed xi={xi}")
    blocks_by_class: dict[int, set] = {int(c): set() for c in np.unique(gallery.classes)}
    covered_g, covered_b = set(), set()
    for s in sets:
        _require(len(s.gallery_indices) == 1, "an active set must hold exactly one gallery atom")
        atom = s.gallery_indices[0]
        _require(
            int(gallery.classes[atom]) == s.class_id and int(gallery.pose_slots[atom]) == s.pose_slot,
            f"active set {s.class_id}/{s.pose_slot} names gallery atom {atom} of another group",
        )
        block = pairing[s.pose_slot]
        _require(s.block == block, f"slot {s.pose_slot} paired with block {s.block}, expected {block}")
        columns = tuple(int(i) for i in np.flatnonzero(variational.blocks == block))
        _require(tuple(s.block_indices) == columns, f"block {block} columns do not match the dictionary")
        blocks_by_class[s.class_id].add(block)
        covered_g.add(atom)
        covered_b.update(columns)
    _require(
        set(np.flatnonzero(code.alpha).tolist()) <= covered_g,
        "a nonzero gallery coefficient lies outside the active sets",
    )
    _require(
        set(np.flatnonzero(code.beta).tolist()) <= covered_b,
        "a nonzero variational coefficient lies outside the blocks paired with the chosen gallery atoms",
    )
    return blocks_by_class


def check_group_count(alpha, gallery, xi: int) -> None:
    """Nonzero gallery coefficients fall in at most xi (class, slot) groups."""
    on = np.flatnonzero(alpha)
    groups = {(int(gallery.classes[i]), int(gallery.pose_slots[i])) for i in on}
    _require(len(groups) <= xi, f"gallery code spans {len(groups)} groups, xi={xi}")


def unpaired_blocks(alpha, beta, gallery, variational, pairing) -> set:
    """Blocks carrying variational mass with no nonzero paired gallery atom."""
    paired = {pairing[int(gallery.pose_slots[i])] for i in np.flatnonzero(alpha)}
    used = {int(b) for b in variational.blocks[np.flatnonzero(beta)]}
    return used - paired


def class_residuals(y, alpha, beta, gallery, variational, blocks_by_class) -> dict[int, float]:
    out = {}
    for c, blocks in blocks_by_class.items():
        recon = gallery.matrix @ np.where(gallery.classes == c, alpha, 0.0)
        if blocks:
            recon = recon + variational.matrix @ np.where(np.isin(variational.blocks, sorted(blocks)), beta, 0.0)
        out[c] = float(np.linalg.norm(y - recon))
    return out


def check_residuals(decision, recomputed: dict[int, float]) -> None:
    """Reported residuals match the recomputation; the prediction attains
    the minimum."""
    scale = max(1.0, max(recomputed.values()))
    for c, r in recomputed.items():
        reported = decision.residual_of(c)
        _require(abs(reported - r) <= REL * scale, f"class {c} residual {reported:.12g}, recomputed {r:.12g}")
    least = min(recomputed.values())
    _require(
        recomputed[decision.predicted] <= least + REL * scale,
        f"predicted class {decision.predicted} misses the minimum residual {least:.12g}",
    )


def sci_of(alpha, classes) -> float:
    ids = np.unique(classes)
    total = float(np.abs(alpha).sum())
    if total == 0.0:
        return 0.0
    top = max(float(np.abs(alpha[classes == c]).sum()) for c in ids)
    return (ids.size * top / total - 1.0) / (ids.size - 1.0)


def check_sci(decision, alpha, classes) -> None:
    value = sci_of(alpha, classes)
    _require(-1e-12 <= value <= 1.0 + 1e-12, f"recomputed SCI {value} outside [0, 1]")
    _require(abs(value - decision.sci) <= REL, f"SCI {decision.sci}, recomputed {value}")


def _mixed(beta, tau) -> float:
    return tau * float(np.abs(beta).sum()) + (1.0 - tau) * float(np.linalg.norm(beta))


def check_objective(code, y, gallery, variational, config) -> None:
    """The reported objective is the recomputed one, and no worse than at zero."""
    r = y - gallery.matrix @ code.alpha - variational.matrix @ code.beta
    f = float(r @ r) + config.lam * float(np.abs(code.alpha).sum()) + config.mu * _mixed(code.beta, config.tau)
    _require(abs(f - code.objective) <= REL * max(1.0, f), f"objective {code.objective:.12g}, recomputed {f:.12g}")
    y2 = float(y @ y)
    _require(f <= y2 * (1.0 + 1e-12), f"objective {f:.12g} exceeds its value at zero {y2:.12g}")


def optimality_residual(a, v, y, alpha, beta, lam, mu, tau) -> float:
    """Largest violation of the first-order conditions of
    min ||y - a alpha - v beta||^2 + lam |alpha|_1 + mu (tau |beta|_1 + (1-tau) ||beta||_2)."""
    r = y - a @ alpha - v @ beta
    worst = 0.0
    ga = -2.0 * (a.T @ r)
    on = alpha != 0
    worst = max(worst, float(np.abs(ga[on] + lam * np.sign(alpha[on])).max(initial=0.0)))
    worst = max(worst, float((np.abs(ga[~on]) - lam).max(initial=0.0)))
    if v.shape[1]:
        gb = -2.0 * (v.T @ r)
        w1, w2 = mu * tau, mu * (1.0 - tau)
        norm = float(np.linalg.norm(beta))
        if norm == 0.0:
            shrunk = np.sign(gb) * np.maximum(np.abs(gb) - w1, 0.0)
            worst = max(worst, float(np.linalg.norm(shrunk)) - w2)
        else:
            on = beta != 0
            stat = gb[on] + w1 * np.sign(beta[on]) + w2 * beta[on] / norm
            worst = max(worst, float(np.abs(stat).max(initial=0.0)))
            worst = max(worst, float((np.abs(gb[~on]) - w1).max(initial=0.0)))
    return worst


def check_optimality(code, y, gallery, variational, config) -> None:
    """A converged code satisfies the first-order conditions of the problem
    restricted to its active sets, within the solver tolerance."""
    g_idx = sorted({i for s in code.active_sets for i in s.gallery_indices})
    b_idx = sorted({i for s in code.active_sets for i in s.block_indices})
    value = optimality_residual(
        gallery.matrix[:, g_idx], variational.matrix[:, b_idx], y,
        code.alpha[g_idx], code.beta[b_idx], config.lam, config.mu, config.tau,
    )
    _require(value <= config.tol * (1.0 + 1e-6) + 1e-12, f"optimality residual {value:.3g} above tol {config.tol}")


# --- session scores -----------------------------------------------------------


def sweep(scores, labels):
    """Independent threshold sweep: (fpr, tpr, precision) at every distinct
    score, strictest first."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    rows = []
    for t in sorted(set(scores.tolist()), reverse=True):
        hit = scores >= t
        tp, fp = int((hit & labels).sum()), int((hit & ~labels).sum())
        rows.append((fp / n_neg, tp / n_pos, tp / (tp + fp)))
    return rows


def swept_pauc20(rows) -> float:
    points = [(0.0, 0.0)] + [(f, t) for f, t, _ in rows]
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        if f0 >= 0.2:
            break
        if f1 > 0.2:
            t1 = t0 + (t1 - t0) * (0.2 - f0) / (f1 - f0)
            f1 = 0.2
        area += 0.5 * (t0 + t1) * (f1 - f0)
    return area / 0.2


def swept_aupr(rows) -> float:
    points = [(0.0, rows[0][2])] + [(t, p) for _, t, p in rows]
    return sum(0.5 * (p0 + p1) * (r1 - r0) for (r0, p0), (r1, p1) in zip(points, points[1:]))


def mann_whitney_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def check_session_scores(scores, labels, pauc, aupr_value, roc_points) -> None:
    """pAUC20 and AUPR agree with the independent sweep, and the full area
    under the program's ROC equals the Mann-Whitney statistic."""
    rows = sweep(scores, labels)
    expected = swept_pauc20(rows)
    _require(abs(pauc - expected) <= 1e-12, f"pAUC20 {pauc!r}, independent sweep {expected!r}")
    expected = swept_aupr(rows)
    _require(abs(aupr_value - expected) <= 1e-12, f"AUPR {aupr_value!r}, independent sweep {expected!r}")
    area = sum(0.5 * (t0 + t1) * (f1 - f0) for (f0, t0), (f1, t1) in zip(roc_points, roc_points[1:]))
    mw = mann_whitney_auc(scores, labels)
    _require(abs(area - mw) <= 1e-12, f"ROC area {area!r}, Mann-Whitney {mw!r}")
