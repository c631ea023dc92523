"""Independent brute-force oracles used to verify the solvers and metrics.

Everything here is deliberately written from scratch against the problem
statements (enumeration, coordinate descent, quadratic-time sweeps) and
must stay independent of the package implementations it checks. The one
sanctioned exception: the paired-support oracle scores each enumerated
support with the package's restricted convex refit, because the refit
itself is verified separately against the least-squares enumeration here.
"""

from __future__ import annotations

import itertools

import numpy as np


def lasso_objective(a, y, x, lam):
    r = y - a @ x
    return float(r @ r + lam * np.sum(np.abs(x)))


def extended_objective(dp, v, y, alpha, beta, lam, mu, tau):
    r = y - dp @ alpha - (v @ beta if v.shape[1] else 0.0)
    pen = lam * np.sum(np.abs(alpha))
    if beta.size:
        pen += mu * (tau * np.sum(np.abs(beta)) + (1 - tau) * np.linalg.norm(beta))
    return float(r @ r + pen)


def _kkt_violation(g_a, g_b, alpha, beta, lam, mu, tau):
    """Largest violation of the optimality conditions given the data-term
    gradients ``g_a`` and ``g_b`` of the two coefficient parts."""
    on = alpha != 0
    worst = max(
        np.max(np.abs(g_a[on] + lam * np.sign(alpha[on])), initial=0.0),
        np.max(np.abs(g_a[~on]) - lam, initial=0.0),
    )
    if not beta.size:
        return float(worst)
    bnorm = np.linalg.norm(beta)
    if bnorm == 0.0:
        slack = np.maximum(np.abs(g_b) - mu * tau, 0.0)
        return float(max(worst, np.linalg.norm(slack) - mu * (1 - tau)))
    slack = np.where(
        beta != 0,
        np.abs(g_b + mu * tau * np.sign(beta) + mu * (1 - tau) * beta / bnorm),
        np.maximum(np.abs(g_b) - mu * tau, 0.0),
    )
    return float(max(worst, np.max(slack)))


def first_order_residual(dp, v, y, alpha, beta, lam, mu, tau):
    """Largest violation of the extended objective's optimality conditions.

    The gradient comes from the residual y - D alpha - V beta. A nonzero
    coefficient must zero its gradient plus penalty derivative; a zero one
    only needs its gradient inside the l1 slack. At beta = 0 the l2 term
    adds a ball of radius mu (1 - tau), so the variational slacks count by
    their norm minus that radius.
    """
    r = y - dp @ alpha - (v @ beta if v.shape[1] else 0.0)
    return _kkt_violation(-2.0 * (dp.T @ r), -2.0 * (v.T @ r), alpha, beta, lam, mu, tau)


def residual_apg(dp, v, y, lam, mu, tau, tol, max_iter):
    """Monotone accelerated proximal gradient that evaluates each iterate
    through its residual y - [D V] x.

    The extended solve's loop written the direct way: the step is the
    inverse of twice the largest eigenvalue of the Gram matrix G; an
    accelerated step whose objective (recomputed from the candidate's
    residual) exceeds the current one is replaced by a plain proximal step
    from the current point; the loop stops when that step exceeds it too,
    and converges when the optimality violation, with the gradient taken
    from the residual, is at most ``tol``.

    Returns ``(alpha, beta, objective, iterations, converged, closest)``.
    ``closest`` is the smallest relative objective change among the
    accept/reject tests of points that moved: below about 1e-15 a test's
    outcome is decided by the rounding of the two objectives.
    """
    n_a, n_v = dp.shape[1], v.shape[1]
    x = np.zeros(n_a + n_v)
    if np.linalg.norm(y) == 0.0 or n_a + n_v == 0:
        return x[:n_a], x[n_a:], float(y @ y), 0, True, np.inf
    a = np.concatenate([dp, v], axis=1)
    gram = a.T @ a
    lip = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    if lip == 0.0:
        return x[:n_a], x[n_a:], float(y @ y), 0, True, np.inf
    step = 1.0 / lip
    sty = a.T @ y

    def prox(u):
        out = np.sign(u) * np.maximum(np.abs(u) - step * lam, 0.0)
        if n_v:
            b = np.sign(u[n_a:]) * np.maximum(np.abs(u[n_a:]) - step * mu * tau, 0.0)
            norm = np.linalg.norm(b)
            shrink = step * mu * (1.0 - tau)
            out[n_a:] = 0.0 if norm <= shrink else b * (1.0 - shrink / norm)
        return out

    def evaluate(u):
        r = y - a @ u
        b = u[n_a:]
        value = float(r @ r) + lam * float(np.abs(u[:n_a]).sum())
        if n_v:
            value += mu * float(tau * np.sum(np.abs(b)) + (1.0 - tau) * np.linalg.norm(b))
        return value, r

    f, r = evaluate(x)
    momentum = x.copy()
    t_acc = 1.0
    iterations = 0
    converged = False
    closest = np.inf
    for iterations in range(1, max_iter + 1):
        candidate = prox(momentum - step * 2.0 * (gram @ momentum - sty))
        fc, rc = evaluate(candidate)
        if np.any(candidate != x):
            closest = min(closest, abs(fc - f) / f)
        if fc > f:
            candidate = prox(x - step * 2.0 * (gram @ x - sty))
            fc, rc = evaluate(candidate)
            if np.any(candidate != x):
                closest = min(closest, abs(fc - f) / f)
            t_acc = 1.0
        if fc > f:
            break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = candidate + ((t_acc - 1.0) / t_next) * (candidate - x)
        x, f, r, t_acc = candidate, fc, rc, t_next
        g = -2.0 * (a.T @ r)
        if _kkt_violation(g[:n_a], g[n_a:], x[:n_a], x[n_a:], lam, mu, tau) <= tol:
            converged = True
            break
    return x[:n_a], x[n_a:], f, iterations, converged, closest


def ls_on_support(a, y, support):
    x = np.zeros(a.shape[1])
    if len(support):
        sub = a[:, list(support)]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        x[list(support)] = coef
    return x


def lasso_support_oracle(a, y, lam, max_support=3):
    """Best l1-penalized objective over least-squares fits on all small supports."""
    best = lasso_objective(a, y, np.zeros(a.shape[1]), lam)
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(a.shape[1]), size):
            x = ls_on_support(a, y, support)
            best = min(best, lasso_objective(a, y, x, lam))
    return best


def extended_support_oracle(dp, v, y, lam, mu, tau, max_support=3):
    """Enumerate least-squares fits over small supports of each part."""
    n_a, n_v = dp.shape[1], v.shape[1]
    stacked = np.concatenate([dp, v], axis=1) if n_v else dp
    best = extended_objective(dp, v, y, np.zeros(n_a), np.zeros(n_v), lam, mu, tau)
    a_supports = [()] + [
        s for size in range(1, max_support + 1)
        for s in itertools.combinations(range(n_a), size)
    ]
    v_supports = [()] + [
        s for size in range(1, max_support + 1)
        for s in itertools.combinations(range(n_v), size)
    ]
    for sa in a_supports:
        for sv in v_supports:
            support = list(sa) + [n_a + j for j in sv]
            if not support:
                continue
            x = ls_on_support(stacked, y, support)
            best = min(
                best,
                extended_objective(dp, v, y, x[:n_a], x[n_a:], lam, mu, tau),
            )
    return best


def cd_lasso(a, y, lam, n_iter=4000):
    """Coordinate descent for min ||y - Ax||^2 + lam ||x||_1 (independent route)."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    x = np.zeros(a.shape[1])
    col_sq = np.sum(a * a, axis=0)
    r = y.copy()
    for _ in range(n_iter):
        delta = 0.0
        for j in range(a.shape[1]):
            if col_sq[j] == 0:
                continue
            old = x[j]
            rho = a[:, j] @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / col_sq[j]
            if new != old:
                r += a[:, j] * (old - new)
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta < 1e-14:
            break
    return x


def cd_weighted_lasso(a, y, weights, n_iter=4000):
    """Coordinate descent with a per-coordinate l1 weight vector."""
    a = np.asarray(a, dtype=float)
    x = np.zeros(a.shape[1])
    col_sq = np.sum(a * a, axis=0)
    r = np.asarray(y, dtype=float).copy()
    for _ in range(n_iter):
        delta = 0.0
        for j in range(a.shape[1]):
            if col_sq[j] == 0:
                continue
            old = x[j]
            rho = a[:, j] @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - weights[j] / 2.0, 0.0) / col_sq[j]
            if new != old:
                r += a[:, j] * (old - new)
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta < 1e-14:
            break
    return x


def support_residual(dp, v, y, subset):
    """Distance from y to the span of the support of the active sets
    ``subset``: the residual norm of an ``np.linalg.lstsq`` fit on its
    gallery columns of ``dp`` and variational columns of ``v``, whatever
    its rank or width."""
    g = sorted({i for s in subset for i in s.gallery_indices})
    b = sorted({i for s in subset for i in s.block_indices})
    a = np.concatenate([dp[:, g], v[:, b]], axis=1)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(np.linalg.norm(y - a @ coef))


def greedy_scan_oracle(dp, v, y, sets, xi):
    """The paired active-set search scored one least-squares solve per
    candidate support (``support_residual``).

    Greedy rounds keep the first running minimum of the candidate residuals
    in ``remaining`` order (a later candidate must win by 1e-12) and stop
    early once the residual is at most 1e-12. Then up to two swap passes
    each take the first (position, candidate) swap, in position then
    ``remaining`` order, that beats the current residual by 1e-10; the
    swapped-out set goes to the end of ``remaining``. Returns the chosen
    sets in order.
    """
    chosen = []
    remaining = list(range(len(sets)))
    for _ in range(xi):
        best_i, best_res = None, None
        for i in remaining:
            res = support_residual(dp, v, y, chosen + [sets[i]])
            if best_i is None or res < best_res - 1e-12:
                best_i, best_res = i, res
        chosen.append(sets[best_i])
        remaining.remove(best_i)
        if best_res <= 1e-12:
            break

    for _ in range(2):
        swap = None
        for pos in range(len(chosen)):
            for i in remaining:
                trial = chosen[:pos] + [sets[i]] + chosen[pos + 1:]
                res = support_residual(dp, v, y, trial)
                if res < best_res - 1e-10:
                    swap = pos, i, res
                    break
            if swap:
                break
        if swap is None:
            break
        pos, i, best_res = swap
        remaining.remove(i)
        remaining.append(sets.index(chosen[pos]))
        chosen[pos] = sets[i]
    return chosen


def facility_subsets_oracle(d, eta, q_norm, max_size):
    """Exhaustive subset search scoring crisp nearest-exemplar assignments.

    Score of a subset S: sum_j min_{i in S} d_ij plus eta times the row-norm
    value of the induced hard assignment (sqrt of the member count per
    exemplar for the l2 row norm, |S| for the sup norm).
    """
    n = d.shape[0]
    best_score, best_subset = np.inf, None
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(n), size):
            rows = d[list(subset)]
            nearest = np.argmin(rows, axis=0)
            cost = float(rows[nearest, np.arange(n)].sum())
            if q_norm == 2:
                counts = np.bincount(nearest, minlength=size)
                penalty = float(np.sqrt(counts[counts > 0]).sum())
            else:
                penalty = float(size)
            score = cost + eta * penalty
            if score < best_score - 1e-12:
                best_score, best_subset = score, subset
    return best_subset, best_score


def roc_brute_force(scores, labels):
    """Quadratic-time threshold enumeration of ROC points."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n_pos = labels.sum()
    n_neg = (~labels).sum()
    points = {(0.0, 0.0), (1.0, 1.0)}
    for threshold in np.unique(scores):
        decided = scores >= threshold
        tpr = float((decided & labels).sum() / n_pos)
        fpr = float((decided & ~labels).sum() / n_neg)
        points.add((fpr, tpr))
    return sorted(points)


def pauc_dense_oracle(points, limit=0.2):
    """Midpoint integration on a dense grid joined with the curve nodes.

    Midpoints never coincide with curve nodes, so vertical segments
    (duplicate fpr values) contribute no spurious area, and the midpoint
    rule is exact on every linear piece because the grid contains all
    curve nodes below the limit.
    """
    fpr = np.array([p[0] for p in points])
    tpr = np.array([p[1] for p in points])
    grid = np.union1d(np.linspace(0.0, limit, 20001), fpr[fpr <= limit])
    grid = grid[grid <= limit + 1e-15]

    def interp(g):
        left = np.searchsorted(fpr, g, side="right") - 1
        right = np.searchsorted(fpr, g, side="left")
        f0, f1 = fpr[left], fpr[right]
        t0, t1 = tpr[left], tpr[right]
        if f1 == f0:
            return t0
        return t0 + (t1 - t0) * (g - f0) / (f1 - f0)

    area = 0.0
    for g0, g1 in zip(grid[:-1], grid[1:]):
        if g1 > g0:
            area += interp(0.5 * (g0 + g1)) * (g1 - g0)
    return float(area / limit)


def aupr_reference(points):
    """Plain trapezoid over the (recall, precision) polyline."""
    area = 0.0
    for (r0, p0), (r1, p1) in zip(points[:-1], points[1:]):
        area += 0.5 * (p0 + p1) * (r1 - r0)
    return float(area)
