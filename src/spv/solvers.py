"""Sparse-coding optimizers.

Three related problems over column-normalized dictionaries:

* ``lasso_solve``      min ||y - A x||_2^2 + lam ||x||_1, the extended
                       problem with no variational part
* ``extended_solve``   min ||y - D a - V b||_2^2 + lam ||a||_1
                           + mu (tau ||b||_1 + (1 - tau) ||b||_2)
* ``paired_solve``     the extended objective with the joint support
                       constrained to a union of at most xi admissible
                       active sets, each pairing one gallery atom
                       (class, pose-slot) with the variational block of
                       the same pose id.

Note the squared data terms are not halved and the l2 penalty on the
variational part is the plain norm, not its square. The convex solves use
a monotone accelerated proximal gradient iteration (an accelerated step
that falls back to a plain proximal step whenever it would increase the
objective), stopping on the first-order optimality residual. The active
set search is greedy over paired groups with a local swap refinement, and
switches to exhaustive enumeration when the number of combinations is
small; either way the final coefficients come from the convex solve
restricted to the chosen support.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrixio import DataError, ModelConfig

_ENUMERATION_LIMIT = 400


@dataclass(frozen=True)
class ActiveSet:
    """A jointly selected coefficient group: one gallery atom plus a block.

    Pose-slot p >= 1 pairs with the variational block of the same pose id;
    the original still (slot 0) pairs with the block whose exemplar pose is
    nearest to frontal. ``block`` is None when no variational block exists.
    """

    class_id: int
    pose_slot: int
    block: int | None
    gallery_indices: tuple[int, ...]
    block_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class SparseCode:
    """Solution of a sparse encoding: gallery part, variational part, diagnostics."""

    alpha: np.ndarray
    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    active_sets: tuple[ActiveSet, ...] = ()

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        beta = np.array(self.beta, dtype=np.float64, copy=True)
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise DataError("sparse code contains non-finite coefficients")
        if not math.isfinite(self.objective):
            raise DataError("sparse code objective is not finite")
        alpha.flags.writeable = False
        beta.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def soft_threshold(x: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - amount, 0.0)


def l2_shrink(x: np.ndarray, amount: float) -> np.ndarray:
    norm = np.linalg.norm(x)
    if norm <= amount:
        return np.zeros_like(x)
    return x * (1.0 - amount / norm)


def tau_norm(x: np.ndarray, tau: float) -> float:
    """Mixed penalty tau*||x||_1 + (1-tau)*||x||_2 (plain l2 norm, not squared)."""
    if not 0.0 <= tau <= 1.0:
        raise DataError(f"tau must lie in [0, 1], got {tau}")
    x = np.asarray(x, dtype=np.float64)
    return float(tau * np.sum(np.abs(x)) + (1.0 - tau) * np.linalg.norm(x))


def _mixed_prox(x: np.ndarray, l1_amount: float, l2_amount: float) -> np.ndarray:
    # Exact prox of a||.||_1 + b||.||_2: soft threshold, then shrink the norm.
    return l2_shrink(soft_threshold(x, l1_amount), l2_amount)


def _lipschitz(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    gram = a.T @ a
    return 2.0 * float(np.linalg.eigvalsh(gram)[-1])


def _solve_composite(a, v, y, lam, mu, tau, tol, max_iter):
    """Monotone accelerated proximal gradient on the extended objective.

    Each iterate's residual is formed once; it gives the objective for the
    monotone test and the gradient for the stationarity test. Returns
    ``(alpha, beta, objective, iterations, converged)``.
    """
    n_a, n_v = a.shape[1], v.shape[1]
    x = np.zeros(n_a + n_v)
    if np.linalg.norm(y) == 0.0 or (n_a + n_v) == 0:
        return x[:n_a], x[n_a:], float(y @ y), 0, True

    stacked = np.concatenate([a, v], axis=1) if n_v else a
    lip = _lipschitz(stacked)
    if lip == 0.0:
        return x[:n_a], x[n_a:], float(y @ y), 0, True
    step = 1.0 / lip
    sty = stacked.T @ y
    gram = stacked.T @ stacked
    w2 = mu * (1.0 - tau)
    weights = np.concatenate([np.full(n_a, lam), np.full(n_v, mu * tau)])

    def prox(u):
        out = np.empty_like(u)
        out[:n_a] = soft_threshold(u[:n_a], step * lam)
        if n_v:
            out[n_a:] = _mixed_prox(u[n_a:], step * mu * tau, step * mu * (1.0 - tau))
        return out

    def evaluate(u):
        r = y - stacked @ u
        value = float(r @ r) + lam * float(np.abs(u[:n_a]).sum())
        if n_v:
            value += mu * tau_norm(u[n_a:], tau)
        return value, r

    def stationarity(u, r):
        """Max distance of the first-order conditions from zero."""
        g = -2.0 * (stacked.T @ r)
        stat = g + weights * np.sign(u)
        bnorm = np.linalg.norm(u[n_a:])
        if bnorm:
            stat[n_a:] += w2 * u[n_a:] / bnorm
        # On-support stationarity, off-support subgradient slack.
        violation = np.where(u != 0, np.abs(stat), np.maximum(np.abs(g) - weights, 0.0))
        worst = float(violation[:n_a].max(initial=0.0))
        if n_v and bnorm == 0.0:
            # At beta = 0 the l2 term's subdifferential is the ball of radius w2.
            return max(worst, float(np.linalg.norm(violation[n_a:])) - w2)
        return max(worst, float(violation[n_a:].max(initial=0.0)))

    def forward(u):
        return u - step * 2.0 * (gram @ u - sty)

    f, r = evaluate(x)
    momentum = x.copy()
    t_acc = 1.0
    iterations = 0
    converged = False
    stalled = 0
    for iterations in range(1, max_iter + 1):
        candidate = prox(forward(momentum))
        fc, rc = evaluate(candidate)
        if fc > f:
            candidate = prox(forward(x))
            fc, rc = evaluate(candidate)
            t_acc = 1.0
        if fc > f:
            # Numerical fixed point: the plain proximal step cannot descend.
            candidate, fc, rc = x, f, r
            stalled += 1
        else:
            stalled = 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = candidate + ((t_acc - 1.0) / t_next) * (candidate - x)
        x, f, r, t_acc = candidate, fc, rc, t_next
        if stationarity(x, r) <= tol:
            converged = True
            break
        if stalled >= 5:
            break
    return x[:n_a], x[n_a:], f, iterations, converged


def lasso_solve(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> np.ndarray:
    """Solve min ||y - A x||_2^2 + lam ||x||_1 over a column dictionary.

    This is the extended solve with no variational part; returns its
    (read-only) gallery coefficient vector.
    """
    return extended_solve(a, None, y, lam, lam, 1.0, tol, max_iter).alpha


def extended_solve(
    dp: np.ndarray,
    v: np.ndarray | None,
    y: np.ndarray,
    lam: float,
    mu: float,
    tau: float,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> SparseCode:
    """Two-dictionary encoding with an l1 gallery penalty and a mixed
    l1/l2 penalty on the shared variational part.

    With ``mu == lam`` and ``tau == 1`` this is exactly the lasso on the
    concatenated dictionary; an empty ``v`` is the lasso on ``dp``.
    """
    dp = np.asarray(dp, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    v = np.zeros((dp.shape[0], 0)) if v is None or np.size(v) == 0 else np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or dp.ndim != 2:
        raise DataError("dictionaries must be 2-D arrays")
    if dp.shape[0] != y.size or v.shape[0] != y.size:
        raise DataError(
            f"dictionary rows ({dp.shape[0]}, {v.shape[0]}) do not match probe "
            f"length ({y.size})"
        )
    if not (lam > 0 and mu > 0):
        raise DataError("lam and mu must be strictly positive")
    if not 0.0 <= tau <= 1.0:
        raise DataError(f"tau must lie in [0, 1], got {tau}")
    alpha, beta, objective, iterations, converged = _solve_composite(
        dp, v, y, lam, mu, tau, tol, max_iter
    )
    if not converged:
        warnings.warn(
            f"extended solve did not reach tol={tol} within {max_iter} iterations",
            RuntimeWarning,
        )
    return SparseCode(alpha, beta, objective, iterations, converged)


def restricted_least_squares(
    a: np.ndarray, support: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Least-squares fit on a column subset; off-support entries are zero.

    Falls back to a 1e-10 ridge when the Gram submatrix is singular, which
    returns a finite near-minimum-norm solution for duplicate columns.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    support = np.asarray(support, dtype=np.int64).ravel()
    if support.size == 0:
        raise DataError("restricted least squares needs a non-empty support")
    sub = a[:, support]
    gram = sub.T @ sub
    rhs = sub.T @ y
    try:
        chol = np.linalg.cholesky(gram)
        coef = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)
    x = np.zeros(a.shape[1])
    x[support] = coef
    return x


def admissible_active_sets(
    classes: np.ndarray,
    pose_slots: np.ndarray,
    atom_poses: np.ndarray,
    v_blocks: np.ndarray,
) -> list[ActiveSet]:
    """Enumerate the admissible (class, pose-slot, block) groups.

    One group per gallery atom. Slot p >= 1 takes the variational block p;
    slot 0 takes the block whose exemplar pose is nearest to (0, 0, 0),
    ties broken by the lowest slot. Without variational atoms the groups
    are gallery-only.
    """
    classes = np.asarray(classes, dtype=np.int64)
    pose_slots = np.asarray(pose_slots, dtype=np.int64)
    atom_poses = np.asarray(atom_poses, dtype=np.float64)
    v_blocks = np.asarray(v_blocks, dtype=np.int64)

    slot_ids = sorted(int(s) for s in set(pose_slots) if s > 0)
    frontal_block = None
    if slot_ids and v_blocks.size:
        best = math.inf
        for s in slot_ids:
            pose = atom_poses[np.flatnonzero(pose_slots == s)[0]]
            dist = float(np.linalg.norm(pose))
            if dist < best - 1e-12:
                best = dist
                frontal_block = s

    block_columns = {
        b: tuple(int(i) for i in np.flatnonzero(v_blocks == b))
        for b in sorted(set(int(b) for b in v_blocks))
    }
    sets = []
    order = np.lexsort((pose_slots, classes))
    for atom in order:
        slot = int(pose_slots[atom])
        block = (slot if slot > 0 else frontal_block) if v_blocks.size else None
        sets.append(
            ActiveSet(
                class_id=int(classes[atom]),
                pose_slot=slot,
                block=block,
                gallery_indices=(int(atom),),
                block_indices=block_columns.get(block, ()) if block is not None else (),
            )
        )
    return sets


def _support_of(sets) -> tuple[np.ndarray, np.ndarray]:
    g = sorted({i for s in sets for i in s.gallery_indices})
    b = sorted({i for s in sets for i in s.block_indices})
    return np.array(g, dtype=np.int64), np.array(b, dtype=np.int64)


def _refit(dp, v, y, sets, config: ModelConfig):
    g_idx, b_idx = _support_of(sets)
    sub_v = v[:, b_idx] if b_idx.size else np.zeros((dp.shape[0], 0))
    code = extended_solve(
        dp[:, g_idx] if g_idx.size else np.zeros((dp.shape[0], 0)),
        sub_v,
        y,
        config.lam,
        config.mu,
        config.tau,
        config.tol,
        config.max_iter,
    )
    alpha = np.zeros(dp.shape[1])
    beta = np.zeros(v.shape[1])
    if g_idx.size:
        alpha[g_idx] = code.alpha
    if b_idx.size:
        beta[b_idx] = code.beta
    return alpha, beta, code


def paired_solve(
    dp: np.ndarray,
    classes: np.ndarray,
    pose_slots: np.ndarray,
    atom_poses: np.ndarray,
    v: np.ndarray | None,
    v_blocks: np.ndarray | None,
    y: np.ndarray,
    config: ModelConfig,
) -> SparseCode:
    """Joint encoding over at most ``config.xi`` paired active sets.

    Candidate sets are ranked each round by the residual reduction of an
    unpenalized fit on the enlarged support (matching-pursuit style); the
    chosen union then gets a penalized refit via the restricted extended
    solve. A local swap pass guards the greedy choice, and instances with
    few enough combinations are enumerated exactly.
    """
    dp = np.asarray(dp, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if dp.ndim != 2 or dp.shape[1] == 0:
        raise DataError("paired solve needs a non-empty gallery dictionary")
    if dp.shape[0] != y.size:
        raise DataError(
            f"gallery rows ({dp.shape[0]}) do not match probe length ({y.size})"
        )
    if v is None or np.size(v) == 0:
        v = np.zeros((dp.shape[0], 0))
        v_blocks = np.zeros(0, dtype=np.int64)
    else:
        v = np.asarray(v, dtype=np.float64)
        v_blocks = np.asarray(v_blocks, dtype=np.int64)
        if v.shape[1] != v_blocks.size:
            raise DataError("every variational atom needs a block id")

    sets = admissible_active_sets(classes, pose_slots, atom_poses, v_blocks)
    xi = config.xi
    if xi > len(sets):
        warnings.warn(
            f"xi={xi} exceeds the {len(sets)} admissible active sets; clamping",
            RuntimeWarning,
        )
        xi = len(sets)

    if np.linalg.norm(y) == 0.0:
        return SparseCode(
            np.zeros(dp.shape[1]), np.zeros(v.shape[1]), 0.0, 0, True, ()
        )

    n_combos = math.comb(len(sets), xi)
    widest = max((1 + len(s.block_indices)) for s in sets)
    if n_combos <= _ENUMERATION_LIMIT and xi * widest <= 24:
        chosen, alpha, beta, code = _solve_exhaustive(dp, v, y, sets, xi, config)
    else:
        chosen, alpha, beta, code = _solve_greedy(dp, v, y, sets, xi, config)

    active = tuple(
        s
        for s in chosen
        if np.any(alpha[list(s.gallery_indices)] != 0)
        or (s.block_indices and np.any(beta[list(s.block_indices)] != 0))
    )
    return SparseCode(
        alpha, beta, code.objective, code.iterations, code.converged, active
    )


def _solve_exhaustive(dp, v, y, sets, xi, config):
    best = None
    for combo in itertools.combinations(range(len(sets)), xi):
        subset = [sets[i] for i in combo]
        alpha, beta, code = _refit(dp, v, y, subset, config)
        if best is None or code.objective < best[3].objective - 1e-12:
            best = (subset, alpha, beta, code)
    return best


def _ls_residual(dp, v, y, sets) -> float:
    g_idx, b_idx = _support_of(sets)
    cols = [dp[:, g_idx]] if g_idx.size else []
    if b_idx.size:
        cols.append(v[:, b_idx])
    a = np.concatenate(cols, axis=1)
    x = restricted_least_squares(a, np.arange(a.shape[1]), y)
    return float(np.linalg.norm(y - a @ x))


def _solve_greedy(dp, v, y, sets, xi, config):
    chosen: list = []
    remaining = list(range(len(sets)))
    best_res = float(np.linalg.norm(y))
    for _ in range(xi):
        best_i = None
        for i in remaining:
            res = _ls_residual(dp, v, y, chosen + [sets[i]])
            if best_i is None or res < best_res - 1e-12:
                best_i, best_res = i, res
        chosen.append(sets[best_i])
        remaining.remove(best_i)
        if best_res <= 1e-12:
            break

    # Swap pass on the unpenalized residual guards the greedy pick against
    # near ties; the penalized refit runs once on the settled support.
    for _ in range(2):
        improved = False
        for pos in range(len(chosen)):
            for i in list(remaining):
                trial = chosen.copy()
                out, trial[pos] = trial[pos], sets[i]
                res = _ls_residual(dp, v, y, trial)
                if res < best_res - 1e-10:
                    chosen, best_res = trial, res
                    remaining.remove(i)
                    remaining.append(sets.index(out))
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    alpha, beta, code = _refit(dp, v, y, chosen, config)
    return chosen, alpha, beta, code
