"""Representative pose-exemplar selection and cluster assignment.

Selects a small set of representative samples from pairwise pose
dissimilarities by minimizing

    sum_ij d_ij z_ij + eta * sum_i ||z_i||_q
    subject to  z_ij >= 0  and  sum_i z_ij = 1 for every column j,

where z_ij is the probability that sample i represents sample j. Nonzero
rows of the minimizer are the exemplars; every sample is then assigned to
its nearest exemplar.

The solver splits the program as Z = C (ADMM): C takes an exact Euclidean
projection of every column onto the probability simplex, Z the proximal
map of the row-norm penalty. It runs in three phases:

1. a warm-up over all rows, whose row norms rank the samples;
2. reduced re-solves, warm-started from the warm-up, over a ladder of
   candidate row sets (the k highest-ranked rows for k = 1, 2, ..., and
   every row the warm-up left above a small share of the largest norm,
   plus the medoid); the sparsest set whose objective is within tol of
   the best one wins, the lowest indices breaking ties;
3. a vertex comparison: the best one-row vertex replaces that solve when
   it is no worse, so exact ties resolve toward a single exemplar.

Every phase returns its feasible iterate C, so the returned Z is exactly
column-stochastic. Correctness is checked against brute-force enumeration
oracles in the test suite.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .matrixio import DataError, SampleMeta, json_value, parse_row_norm, read_json

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric non-negative N x N matrix of pairwise pose dissimilarities.

    ``_chosen`` holds the solve an eta search (``eta_max``,
    ``eta_for_cluster_count``) made at the eta it returned, keyed by
    ``select_exemplars``' arguments ``(eta, q, tol, max_iter)``, so that
    the caller's solve at that eta is not made twice; each search replaces
    it. It is not part of the value: it takes no part in ``==`` or
    ``repr``, and every new instance starts without one.
    """

    values: np.ndarray
    _chosen: tuple[tuple, AssignmentMatrix] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"dissimilarity matrix must be square, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("dissimilarity matrix contains NaN or Inf")
        if np.any(values < 0):
            raise DataError("dissimilarities must be non-negative")
        if np.any(np.abs(np.diag(values)) > 0):
            raise DataError("dissimilarity matrix must have a zero diagonal")
        if not np.allclose(values, values.T, atol=1e-9):
            raise DataError("dissimilarity matrix must be symmetric")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_chosen", None)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AssignmentMatrix:
    """Solver output: z[i, j] = probability that sample i represents sample j."""

    z: np.ndarray
    objective: float
    iterations: int
    converged: bool

    def __post_init__(self):
        z = np.array(self.z, dtype=np.float64, copy=True)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise DataError(f"assignment matrix must be square, got {z.shape}")
        if np.any(z < -1e-12) or np.any(z > 1 + 1e-12):
            raise DataError("assignment entries must lie in [0, 1]")
        col_err = np.max(np.abs(z.sum(axis=0) - 1.0))
        if col_err > 1e-8:
            raise DataError(f"assignment columns must sum to 1 (error {col_err:.2e})")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class PoseClustering:
    """Selected exemplars plus the nearest-exemplar assignment of every sample."""

    exemplar_indices: tuple[int, ...]
    exemplar_poses: np.ndarray
    assignment: np.ndarray
    q: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.exemplar_indices)
        if len(idx) < 1:
            raise DataError("clustering needs at least one exemplar")
        if self.q != len(idx):
            raise DataError("q must equal the number of exemplars")
        poses = np.array(self.exemplar_poses, dtype=np.float64, copy=True)
        if poses.shape != (len(idx), 3):
            raise DataError(f"exemplar_poses must have shape ({len(idx)}, 3)")
        assignment = np.array(self.assignment, dtype=np.int64, copy=True)
        members = set(idx)
        for j, a in enumerate(assignment):
            if int(a) not in members:
                raise DataError(f"sample {j} assigned to non-exemplar {a}")
        for i in idx:
            if int(assignment[i]) != i:
                raise DataError(f"exemplar {i} must be assigned to itself")
        poses.flags.writeable = False
        assignment.flags.writeable = False
        object.__setattr__(self, "exemplar_indices", idx)
        object.__setattr__(self, "exemplar_poses", poses)
        object.__setattr__(self, "assignment", assignment)

    def block_of(self, sample: int) -> int:
        """1-based block id of a sample: the rank of its exemplar."""
        return self.exemplar_indices.index(int(self.assignment[sample])) + 1


def pose_dissimilarities(meta: SampleMeta) -> DissimilarityMatrix:
    """Pairwise Euclidean distances between pose triples, in degrees."""
    poses = meta.poses
    diff = poses[:, None, :] - poses[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(d, 0.0)
    return DissimilarityMatrix(0.5 * (d + d.T))


def project_columns_to_simplex(m: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of every column onto the probability simplex."""
    n = m.shape[0]
    u = np.sort(m, axis=0)[::-1]
    cumsum = np.cumsum(u, axis=0)
    ranks = np.arange(1, n + 1, dtype=np.float64)[:, None]
    cond = u + (1.0 - cumsum) / ranks > 0
    rho = n - 1 - np.argmax(cond[::-1], axis=0)
    shift = (1.0 - cumsum[rho, np.arange(m.shape[1])]) / (rho + 1.0)
    return np.maximum(m + shift[None, :], 0.0)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    if radius <= 0:
        return np.zeros_like(v)
    a = np.abs(v)
    total = a.sum()
    if total <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    cumsum = np.cumsum(u)
    ranks = np.arange(1, a.size + 1)
    cond = u - (cumsum - radius) / ranks > 0
    rho = np.max(np.flatnonzero(cond))
    theta = (cumsum[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _prox_rows(m: np.ndarray, amount: float, q: float) -> np.ndarray:
    """Proximal map of amount * sum_i ||row_i||_q, applied row-wise."""
    if amount <= 0:
        return m.copy()
    if q == 2:
        norms = np.linalg.norm(m, axis=1)
        scale = np.maximum(0.0, 1.0 - amount / np.maximum(norms, 1e-300))
        return m * scale[:, None]
    # prox of the sup norm via Moreau: v - P_{l1 ball}(v)
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        out[i] = m[i] - _project_l1_ball(m[i], amount)
    return out


def _row_norm_sum(m: np.ndarray, q: float) -> float:
    if q == 2:
        return float(np.linalg.norm(m, axis=1).sum())
    return float(np.max(np.abs(m), axis=1).sum())


def _objective(d: np.ndarray, z: np.ndarray, eta: float, q: float) -> float:
    return float(np.sum(d * z) + eta * _row_norm_sum(z, q))


def _admm_phase(dv, eta, q, tol, max_iter, init=None):
    """Split the program as Z = C with C column-feasible and Z row-prox-friendly.

    Accepts a rectangular cost slice (candidate rows x all columns) for the
    reduced re-solves and an optional warm-start iterate. Returns the
    feasible iterate C, the iterations run and whether it stopped before
    ``max_iter``: once primal and dual residuals fall below
    tol * sqrt(sqrt(size)), size being the number of entries, or once the
    objective of C stalls while Z has a nonzero row. Residual balancing
    updates the penalty parameter.
    """
    n_rows, n_cols = dv.shape
    rho = max(float(dv.mean()), eta / math.sqrt(max(n_cols, 1)), 1e-9)
    if init is None:
        c = np.full((n_rows, n_cols), 1.0 / n_rows)
    else:
        c = project_columns_to_simplex(init)
    z = c.copy()
    u = np.zeros((n_rows, n_cols))
    limit = tol * math.sqrt(math.sqrt(n_rows * n_cols))
    iterations = 0
    converged = False
    f_prev = _objective(dv, c, eta, q)
    stall = 0
    for iterations in range(1, max_iter + 1):
        c = project_columns_to_simplex(z + u - dv / rho)
        z_new = _prox_rows(c - u, eta / rho, q)
        primal = float(np.linalg.norm(z_new - c))
        dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        u += z - c
        if primal <= limit and dual <= limit:
            converged = True
            break
        # The contract tolerance is on relative objective change; declare
        # convergence when the feasible iterate's objective stalls even if
        # the splitting residuals keep creeping (near-tied optima). While the
        # row prox still zeroes every row, Z is infeasible and C can stand
        # still without having settled, so such a check is no stall.
        if iterations % 10 == 0:
            f_now = _objective(dv, c, eta, q)
            if z.any() and abs(f_prev - f_now) < tol * max(1.0, abs(f_now)):
                stall += 1
                if stall >= 3:
                    converged = True
                    break
            else:
                stall = 0
            f_prev = f_now
        if iterations % 25 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                u *= 0.5
            elif dual > 10.0 * primal:
                rho *= 0.5
                u *= 2.0
    return c, iterations, converged


def select_exemplars(
    d: DissimilarityMatrix,
    eta: float,
    row_norm_q: float = 2,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> AssignmentMatrix:
    """Minimize the penalized assignment objective over column-stochastic Z.

    Three phases (see the module docstring): a splitting warm-up over all
    rows (at most min(max_iter, 2000) iterations) ranks the rows, reduced
    re-solves over a ladder of candidate row sets (at most ``max_iter``
    each) give the sparsest set within tol of the best objective, and the
    lowest-index one-row vertex replaces that solve when it is no worse.
    ``iterations`` counts every phase; ``converged`` is the chosen
    re-solve's flag, or True at a vertex. A chosen re-solve that ran out
    of iterations is still returned, with ``converged=False`` and a
    warning. The solve an eta search left on ``d`` for these arguments is
    returned as it is, with its warning.
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise DataError(f"eta must be strictly positive, got {eta}")
    q = parse_row_norm(row_norm_q)
    if d._chosen is not None and d._chosen[0] == (eta, q, tol, max_iter):
        z = d._chosen[1]
        if not z.converged:
            _warn_unconverged(tol, max_iter, z.iterations)
        return z
    dv = d.values
    n = d.n
    if n == 1:
        return AssignmentMatrix(np.ones((1, 1)), _objective(dv, np.ones((1, 1)), eta, q), 0, True)

    warm, iterations, _ = _admm_phase(dv, eta, q, tol, min(max_iter, 2000))
    row_norms = np.linalg.norm(warm, axis=1)
    ranking = np.argsort(-row_norms, kind="stable")
    loose = set(np.flatnonzero(row_norms > 1e-4 * max(row_norms.max(), 1e-300)))
    loose.add(medoid_index(d))
    top = min(n, 12, len(loose) + 1)
    candidates = [tuple(sorted(ranking[:k])) for k in range(1, top + 1)]
    candidates.append(tuple(sorted(loose)))

    solved = {}
    for rows in candidates:
        if rows in solved:
            continue
        reduced, it_red, ok_red = _admm_phase(
            dv[list(rows)], eta, q, tol, max_iter, init=warm[list(rows)]
        )
        iterations += it_red
        z_full = np.zeros((n, n))
        z_full[list(rows)] = reduced
        solved[rows] = z_full, _objective(dv, z_full, eta, q), ok_red

    # The sparsest candidate set whose objective is within tol of the best.
    best_f = min(entry[1] for entry in solved.values())
    slack = best_f + tol * max(1.0, abs(best_f))
    viable = [rows for rows, entry in solved.items() if entry[1] <= slack]
    z, f, converged = solved[min(viable, key=lambda rows: (len(rows), rows))]

    # Resolve exact ties toward a single row: adopt the best one-row vertex
    # whenever it does not worsen the objective (lowest index wins).
    row_sums = dv.sum(axis=1)
    vertex_penalty = eta * (math.sqrt(n) if q == 2 else 1.0)
    best_row = int(np.argmin(row_sums))
    f_vertex = float(row_sums[best_row]) + vertex_penalty
    if f_vertex <= f + 1e-12 * max(1.0, abs(f)):
        z = np.zeros((n, n))
        z[best_row] = 1.0
        f = f_vertex
        converged = True

    if not converged:
        _warn_unconverged(tol, max_iter, iterations)
    return AssignmentMatrix(z, f, iterations, converged)


def _warn_unconverged(tol, max_iter, iterations) -> None:
    warnings.warn(
        f"exemplar solver stopped after {iterations} iterations without "
        f"meeting tol={tol} (at most {min(max_iter, 2000)} in the warm-up and "
        f"{max_iter} in each re-solve); returning best iterate",
        RuntimeWarning,
    )


def _leave(d: DissimilarityMatrix, eta: float, q: float, z: AssignmentMatrix) -> None:
    """Keep ``z``, a solve at the solver defaults, as ``d``'s chosen solve."""
    object.__setattr__(d, "_chosen", ((eta, q, DEFAULT_TOL, DEFAULT_MAX_ITER), z))


def extract_clustering(
    assignment: AssignmentMatrix,
    d: DissimilarityMatrix,
    meta: SampleMeta | None = None,
) -> PoseClustering:
    """Read exemplars off the nonzero rows of Z and assign samples to them.

    Rows whose sup norm exceeds 5% of the largest row sup norm are
    exemplars; a row that nowhere reaches that share of the peak column
    assignment represents nothing. Every sample goes to the exemplar with
    the smallest dissimilarity, ties broken by the lowest exemplar index;
    exemplars always stay assigned to themselves.
    """
    z = assignment.z
    row_max = np.max(np.abs(z), axis=1)
    peak = float(row_max.max())
    if peak <= 0:
        raise DataError("degenerate assignment matrix: all rows are zero")
    exemplars = [int(i) for i in np.flatnonzero(row_max > 0.05 * peak)]

    dv = d.values
    assign = np.empty(d.n, dtype=np.int64)
    ex = np.array(exemplars)
    exemplar_set = set(exemplars)
    for j in range(d.n):
        if j in exemplar_set:
            assign[j] = j
        else:
            assign[j] = int(ex[np.argmin(dv[ex, j])])
    if meta is not None:
        poses = meta.poses[exemplars]
    else:
        poses = np.zeros((len(exemplars), 3))
    return PoseClustering(tuple(exemplars), poses, assign, len(exemplars))


def medoid_index(d: DissimilarityMatrix) -> int:
    """Sample minimizing the total dissimilarity to all others (lowest index wins)."""
    return int(np.argmin(d.values.sum(axis=1)))


def eta_max(d: DissimilarityMatrix, row_norm_q: float = 2) -> float:
    """A penalty weight at which selection collapses to the single medoid.

    Starts from the dissimilarity scale and doubles until the solver, at
    its default tolerances, returns exactly the medoid row. The returned
    value is therefore verified rather than a closed-form bound; its solve
    is left on ``d`` (``DissimilarityMatrix._chosen``).
    """
    if d.n == 1:
        return 1.0
    q = parse_row_norm(row_norm_q)
    target = medoid_index(d)
    eta = max(float(d.values.max()), 1e-9)
    for _ in range(60):
        z = select_exemplars(d, eta, q)
        clustering = extract_clustering(z, d)
        if clustering.exemplar_indices == (target,):
            _leave(d, eta, q, z)
            return eta
        eta *= 2.0
    raise RuntimeError("eta_max search did not collapse to a single medoid")


def eta_for_cluster_count(
    d: DissimilarityMatrix, target_q: int, row_norm_q: float = 2
) -> float:
    """Sweep a 24-point geometric eta grid, downward from eta_max over seven
    decades, toward a target cluster count.

    Returns the largest grid value whose cluster count matches ``target_q``
    exactly, or the value with the nearest count when no exact match shows
    up on the grid, and leaves its solve on ``d``
    (``DissimilarityMatrix._chosen``).
    """
    if target_q < 1:
        raise DataError(f"target cluster count must be >= 1, got {target_q}")
    if target_q > d.n:
        raise DataError(f"cannot form {target_q} clusters from {d.n} samples")
    top = eta_max(d, row_norm_q)
    if target_q == 1:
        return top
    # The grid starts at eta_max, verified above to give one exemplar; its
    # solve stays the one eta_max left on d unless a grid value does better.
    best_eta, best_gap, best = top, abs(1 - target_q), None
    for eta in np.geomspace(top, top * 1e-7, 24)[1:]:
        eta = float(eta)
        z = select_exemplars(d, eta, row_norm_q)
        gap = abs(extract_clustering(z, d).q - target_q)
        if gap < best_gap:
            best_eta, best_gap, best = eta, gap, z
            if not gap:
                break
    if best is not None:
        _leave(d, best_eta, parse_row_norm(row_norm_q), best)
    return best_eta


def clustering_to_dict(clustering: PoseClustering) -> dict:
    return {
        "exemplar_indices": list(clustering.exemplar_indices),
        "exemplar_poses": [[float(a) for a in row] for row in clustering.exemplar_poses],
        "assignment": [int(a) for a in clustering.assignment],
        "q": clustering.q,
    }


def clustering_from_dict(raw: dict) -> PoseClustering:
    what = "clustering JSON"
    return PoseClustering(
        tuple(json_value(raw, "exemplar_indices", what, 1, integer=True).tolist()),
        json_value(raw, "exemplar_poses", what, 2),
        json_value(raw, "assignment", what, 1, integer=True),
        json_value(raw, "q", what, integer=True).item(),
    )


def save_clustering(clustering: PoseClustering, path) -> None:
    Path(path).write_text(json.dumps(clustering_to_dict(clustering), indent=1) + "\n")


def load_clustering(path) -> PoseClustering:
    return clustering_from_dict(read_json(path, "clustering file"))
