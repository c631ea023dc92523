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
a monotone accelerated proximal gradient iteration (Beck & Teboulle's
FISTA, 2009, with an accelerated step that falls back to a plain proximal
step whenever it would not decrease the objective), stopping on the
first-order optimality residual, which the code reports as
``optimality``. The iteration runs in coefficient space: it forms the
support's Gram matrix once and makes one product with it per step, and
it tests each step on the objective change formed from the step itself,
so the test stays accurate near the optimum. Once the iterate's sign
pattern settles, a Newton finish tries to end the solve: feature-sign
search (Lee, Battle, Raina & Ng, NIPS 2007) minimizes the objective
restricted to those signs with Newton steps, dropping a coordinate at its
first zero crossing and admitting one whose gradient exceeds its weight,
as the finishing phase of a proximal method (proximal Newton, Lee, Sun &
Saunders, SIAM J. Optim. 2014). A try starts after two settled steps and
may spend one solve more than its starting point has nonzero
coefficients, enough to drop every one of them. Its point is taken only
if it passes the same stationarity test; otherwise the proximal gradient
goes on from where it was and waits twice as long for the next try. A
Newton solve whose support holds a variational coordinate is curved: the
l2 term adds c (I - u u') to the variational block of 2 G_SS, with
c = mu (1 - tau) / ||z_b|| and u = z_b / ||z_b||, both new at every step.
Every such solve runs against one eigendecomposition of 2 G_VV over all
the variational coordinates, which makes 2 G_VV + c I diagonal for every
c, and everything that varies within a try enters as a small bordered
system (the fixed-factor active-set scheme of QPSchur, Bartlett &
Biegler, Optimization and Engineering 2006): the variational coordinates
off the support, the few gallery coordinates, and the -c u u' term. A
solve makes that eigendecomposition once, at its first curved solve,
unless its caller passes it (a paired refit reads it from the
``PairedDictionary``, which keeps one per block union). Solves with no
shift c (tau = 1, the lasso, no variational coordinate) factor the
restricted Hessian directly. The active set search is greedy over paired
groups with a local swap refinement, and switches to exhaustive
enumeration when the number of combinations is small; either way the
final coefficients come from the convex solve restricted to the chosen
support. ``extended_solve`` takes an optional
first iterate, used only when its objective is below the objective at
zero; the greedy search passes the least-squares fit on its chosen
support (a warm start, as in the regularization-path solvers of
Friedman, Hastie & Tibshirani, 2010), except on a support with
as many columns as the probe has rows, whose fit interpolates the probe.
The exhaustive search and every other caller start at zero.

The greedy search ranks candidates by the residual of an unpenalized fit
on the enlarged support, scored in batches (Batch-OMP, Rubinstein,
Zibulevsky & Elad 2008, over groups as in Lozano, Swirszcz & Abe's group
OMP, 2009): the candidates whose supports hold the same union of
variational blocks share its orthonormal basis, and each candidate's
residual follows from its gallery atom's component orthogonal to its
support. As in Batch-OMP, what depends on the dictionaries alone is
built once per enrollment, in the ``PairedDictionary`` that a paired
solve codes over (an ``AugmentedGallery`` keeps the one for the
variational dictionary it was last coded with): the admissible active
sets with their index arrays when the pair is made, and on first use
one entry per union: its basis, from one QR of the union's columns, and
its projected gallery, the gallery atoms paired with the union's blocks
with that basis projected out. These tables grow as unions x rows x
(columns + atoms). Per probe, only the probe is projected onto each
union's complement, and the support's few gallery atoms are
orthogonalized against the union by Gram-Schmidt; a group's atoms are
then read from the projected gallery and projected off those few. The
same pair keeps, per union of a settled support, the eigendecomposition
its refit's Newton finish factors on. The swap pass's last position has
the final round's base and candidates until a swap is taken, and reuses
that round's scores. The residual of each support the search settles on
is the scan's score of it. ``restricted_least_squares`` solves the final
support once, for the refit's start, and also scores any candidate whose
support is (nearly) rank deficient or has as many columns as the probe
has rows, so those get its exact residual.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrixio import DataError, ModelConfig

_ENUMERATION_LIMIT = 400
# Relative size below which a factor's diagonal or an atom's component
# outside the support counts as rank loss, in the batched candidate scan
# and in the refit's Newton finish.
_RANK_TOL = 1e-6
# The refit's Newton finish: tried once the iterate's signs have held for
# this many accepted steps (twice as many after each try whose solves
# failed).
_FINISH_AFTER = 2


# Slotted (no per-instance dict): every kept probe decision holds these.
@dataclass(frozen=True, slots=True)
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


# Slotted (no per-instance dict): every kept probe decision holds these.
@dataclass(frozen=True, slots=True)
class SparseCode:
    """Solution of a sparse encoding: gallery part, variational part, diagnostics.

    ``iterations`` is the convex solve's work: its proximal gradient steps
    plus the linear solves of its Newton finish, tried or taken, and at
    most the solve's ``max_iter``. ``evaluations`` is the number of
    candidate supports the paired active-set search compared, including
    those whose scores it reused from an earlier scan; a plain extended
    solve leaves it at 0. ``optimality`` is the first-order
    residual of the returned coefficients, the number the solver's stop
    test compares with ``tol`` (0.0 for a trivial solve).
    ``finish_solves`` is the part of ``iterations`` that the Newton finish
    spent on linear solves, and ``finish_capped`` the number of its tries
    that spent every solve they were allowed without an answer.
    """

    alpha: np.ndarray
    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    active_sets: tuple[ActiveSet, ...] = ()
    evaluations: int = 0
    optimality: float = 0.0
    finish_solves: int = 0
    finish_capped: int = 0

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


def check_probe(y, rows: int) -> np.ndarray:
    """Probe y as a float64 vector; a length other than the dictionary's
    ``rows`` or a NaN or infinite entry is a ``DataError``."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != rows:
        raise DataError(f"probe has {y.size} entries, but the dictionary has {rows} rows")
    if not np.all(np.isfinite(y)):
        raise DataError("probe contains non-finite values")
    return y


def soft_threshold(x: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - amount, 0.0)


def tau_norm(x: np.ndarray, tau: float) -> float:
    """Mixed penalty tau*||x||_1 + (1-tau)*||x||_2 (plain l2 norm, not squared)."""
    if not 0.0 <= tau <= 1.0:
        raise DataError(f"tau must lie in [0, 1], got {tau}")
    x = np.asarray(x, dtype=np.float64)
    return float(tau * np.sum(np.abs(x)) + (1.0 - tau) * np.linalg.norm(x))


def _bordered_solve(hessian, idx, k, rhs, c, u, spectrum):
    """H^-1 rhs for the curved restricted Hessian of the Newton finish,
    H = hessian_SS + c (E_b - u u'), or None when the rank test refuses H.

    ``hessian`` is the data term's Hessian 2 G over every coordinate, the
    variational ones F last. S is the sorted support ``idx``: its first
    ``k`` coordinates are gallery ones, the rest (b) variational ones,
    where E_b is the identity and ``u`` a unit vector. ``spectrum`` is
    ``(values, vectors)``, hessian_FF = Q diag(values) Q' with ascending
    values, so F is the trailing ``values.size`` coordinates. Then
    B = hessian_FF + c I is Q diag(values + c) Q' for every c > 0, and the
    rest of H enters as borders (the fixed-factor active-set scheme of
    QPSchur, Bartlett & Biegler, 2006):

    * the coordinates D of F outside b are held at zero through the
      positive-definite E_D' B^-1 E_D, one row and column per coordinate,
      which turns B^-1 into B_bb^-1;
    * the gallery coordinates and an auxiliary s = u'x_b, which turns the
      -c u u' term into a border, are left to the Schur complement Z of
      B_bb in the bordered matrix: Z = diag(hessian_gg, c) - P' B_bb^-1 P
      over the borders P = [hessian_bg, -c u], at most (k + 1) x (k + 1).
      H is positive definite exactly when Z is.

    The rank test refuses H when B's smallest eigenvalue is at most
    ``_RANK_TOL``^2 times its largest, or when a Cholesky pivot of Z is at
    most ``_RANK_TOL`` times the square root of its diagonal entry before
    elimination (hessian_jj for a gallery coordinate, c for s): the test
    an atom's component outside the support meets in the scan.
    """
    values, vectors = spectrum
    if values[0] + c <= _RANK_TOL**2 * (values[-1] + c):
        return None
    scale = values + c
    n_v = values.size
    n_a = hessian.shape[0] - n_v
    g = idx[:k]
    pos = idx[k:] - n_a
    gallery = hessian.take(g, 0)
    # The borders P = [hessian_bg, -c u] and rhs_b as rows over F. B_bb^-1
    # of a row is its B^-1 with D held at zero, which its entries on D do
    # not change.
    rows = np.zeros((k + 2, n_v))
    rows[:k] = gallery[:, n_a:]
    rows[k, pos] = -c * u
    rows[k + 1, pos] = rhs[k:]
    proj = rows @ vectors
    coef = proj / scale
    if pos.size < n_v:
        dropped = np.ones(n_v, dtype=bool)
        dropped[pos] = False
        q_d = vectors[dropped]
        scaled = q_d / scale
        coef -= np.linalg.solve(scaled @ q_d.T, q_d @ coef.T).T @ scaled
    # coef holds B_bb^-1 of each row in Q's basis, so this is [Z, Z's rhs]:
    # [[hessian_gg, 0, rhs_g], [0, c, 0]] - P' B_bb^-1 [P, rhs_b].
    system = np.zeros((k + 1, k + 2))
    system[:k, :k] = gallery.take(g, 1)
    system[:k, k + 1] = rhs[:k]
    system[k, k] = c
    before = np.sqrt(system.diagonal())
    system -= proj[: k + 1] @ coef.T
    z = system[:, : k + 1]
    try:
        pivots = np.linalg.cholesky(z).diagonal()
    except np.linalg.LinAlgError:
        return None
    if (pivots <= _RANK_TOL * before).any():
        return None
    t = np.linalg.solve(z, system[:, k + 1])
    x = (coef[k + 1] - t @ coef[: k + 1]) @ vectors.T
    return np.concatenate((t[:k], x[pos]))


def _solve_composite(a, v, y, lam, mu, tau, tol, max_iter, start=None, spectrum=None):
    """Monotone accelerated proximal gradient on the extended objective.

    The loop works in coefficient space: the Gram matrix G = [A V]'[A V]
    (whose largest eigenvalue gives the step) and s = [A V]'y are formed
    once, and each iterate x carries h_x = G x - s, half the gradient of
    the data term. An accelerated step costs one product with G, a
    fallback plain step a second, and the momentum m = c + theta (c - x)
    gets h_m = h_c + theta (h_c - h_x) without one. A step c from x is
    accepted when it lowers the objective: (c - x)'(h_c + h_x) plus the
    penalty change is negative. That change is accurate to the size of the
    step, where a difference of two recomputed objectives loses it to
    rounding near the optimum. An accelerated step that fails falls back
    to a plain step from x; a plain step that fails is a numerical fixed
    point and ends the loop. The stationarity test takes the gradient
    2 h_x, and the reported objective comes from one residual after the
    loop.

    When the signs of x have held for ``_FINISH_AFTER`` accepted steps,
    ``finish`` tries to solve the problem restricted to them from x with
    Newton steps on G and s. A try may spend one solve more than x has
    nonzero coefficients, within what is left of max_iter: each solve that
    does not end it drops a coordinate or admits one, and a try from a
    nearly full support needs a solve per dropped coordinate. The loop ends
    converged at the try's point when that point passes the stationarity
    test; otherwise the try is discarded and the loop goes on from the
    unchanged x and momentum. A try that spent solves and failed doubles
    the settled run the next one waits for, so a support the finish cannot
    solve (singular, or at least as wide as y is long) costs few solves,
    and so does a try that cannot pass the test at all (tol = 0).
    ``iterations`` counts the steps plus the finish's solves.

    A curved solve, one with a variational coordinate in the support and
    w2 = mu (1 - tau) > 0, is a bordered system (``_bordered_solve``) on
    ``spectrum``, the (values, vectors) of 2 V'V; without one, the first
    curved solve makes it from G, once for the whole solve. Every
    other solve (tau = 1, the lasso, a support without variational
    coordinates) has no shift to factor around and takes the restricted
    Hessian 2 G_SS directly, refused when a Cholesky pivot is at most
    ``_RANK_TOL`` times the largest.

    The loop starts at ``start`` (stacked: the gallery part, then the
    variational part) if the objective there is below the objective at
    zero, ||y||^2, judged by the change test of a step from zero.
    Otherwise, and without a start, it starts at zero and runs exactly as
    if none were given. ``extended_solve`` validates ``start``; this
    function trusts it. Returns ``(alpha, beta, objective, iterations,
    converged, optimality, finish_solves, finish_capped)``: optimality is
    the first-order residual of the returned point, finish_solves the
    finish's share of iterations and finish_capped the number of tries
    that spent every solve they were allowed without an answer.
    """
    n_a, n_v = a.shape[1], v.shape[1]
    x = np.zeros(n_a + n_v)
    if np.linalg.norm(y) == 0.0 or (n_a + n_v) == 0:
        return x[:n_a], x[n_a:], float(y @ y), 0, True, 0.0, 0, 0

    stacked = np.concatenate([a, v], axis=1) if n_v else a
    gram = stacked.T @ stacked
    lip = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    if lip == 0.0:
        return x[:n_a], x[n_a:], float(y @ y), 0, True, 0.0, 0, 0
    step = 1.0 / lip
    sty = stacked.T @ y
    w2 = mu * (1.0 - tau)
    weights = np.concatenate([np.full(n_a, lam), np.full(n_v, mu * tau)])
    thresholds, shrink = step * weights, step * w2

    def prox_step(u, hu):
        """Proximal gradient step from u, where hu = G u - s. Returns the
        new point and the norm of its variational part."""
        z = u - step * 2.0 * hu
        out = soft_threshold(z, thresholds)
        if not n_v:
            return out, 0.0
        b = out[n_a:]
        norm = math.sqrt(b @ b)
        if norm <= shrink:
            b[:] = 0.0
            return out, 0.0
        b *= 1.0 - shrink / norm
        return out, norm - shrink

    def violations(u, hu, bnorm):
        """Per-coordinate distance of the first-order conditions from zero:
        on the support, of the gradient 2 hu plus the penalty's derivative;
        off it, of the gradient's excess over the l1 weight (negative when
        inside). ``bnorm`` is the norm of u's variational part."""
        stat = 2.0 * hu + weights * np.sign(u)
        if bnorm:
            stat[n_a:] += w2 * u[n_a:] / bnorm
        return np.abs(stat) - weights * (u == 0)

    def stationarity(violation, bnorm):
        """The first-order residual: the largest violation, clipped at zero."""
        if n_v and not bnorm:
            # At beta = 0 the l2 term's subdifferential is the ball of radius w2.
            slack = np.maximum(violation[n_a:], 0.0)
            return max(float(violation[:n_a].max(initial=0.0)), math.sqrt(slack @ slack) - w2)
        return max(float(violation.max()), 0.0)

    def change(c, hc, c_norm, x, hx, x_norm):
        """f(c) - f(x), each term formed from c - x so that its rounding
        error scales with the step, not with the objective. The l2 term
        uses ||c_b|| - ||x_b|| = (c_b - x_b)'(c_b + x_b) / (||c_b|| + ||x_b||)."""
        step_cx = c - x
        value = step_cx @ (hc + hx) + weights @ (np.abs(c) - np.abs(x))
        if c_norm or x_norm:
            value += w2 * (step_cx[n_a:] @ (c[n_a:] + x[n_a:])) / (c_norm + x_norm)
        return float(value)

    def finish(z, hz, budget):
        """Feature-sign Newton finish from z (with hz = G z - s), at most
        ``budget`` solves and one more than z has nonzero coefficients.

        Each round minimizes the smooth objective restricted to the current
        signs with one Newton step, stops at the first coordinate the step
        would carry across zero and drops it; once the restricted problem
        is solved, a point that is still not optimal admits the
        off-support coordinate whose gradient most exceeds its weight, with
        the descent sign. A point that meets tol ends the finish if its
        step solved the restricted problem exactly (a full step with no
        variational coordinate in the support, where that problem is
        quadratic); otherwise one more step follows, and the lower of the
        two points is kept. Returns ``(solves, result, capped)``: result
        is ``(point, h, bnorm, optimality)`` for a point that meets tol, and
        None when the solves run out (then capped is True), the rank test
        refuses a restricted system or it has as many columns as y has
        rows, or no coordinate can enter before one is found.

        A curved solve's rank test reads the Cholesky pivots of the small
        Schur complement Z, since H is positive definite exactly when Z
        is. An uncurved solve factors 2 G_SS directly: without the shift c
        there is no B(c) to factor once.
        """
        nonlocal spectrum
        z, signs = z.copy(), np.sign(z)
        solves, met, capped = 0, None, False
        hessian = 2.0 * gram
        allowed = min(budget, np.count_nonzero(signs) + 1)
        while solves < allowed:
            idx = np.flatnonzero(signs)
            if idx.size >= y.size:
                break
            solves += 1
            zs, ss = z[idx], signs[idx]
            grad = 2.0 * hz[idx] + weights[idx] * ss
            # idx is sorted, so the variational coordinates are its tail.
            k = int(np.searchsorted(idx, n_a))
            curved = bool(w2) and k < idx.size
            if curved:
                zb = zs[k:]
                norm = math.sqrt(zb @ zb)
                u = zb / norm
                grad[k:] += w2 * u
                if spectrum is None:
                    spectrum = np.linalg.eigh(hessian[n_a:, n_a:])
                step = _bordered_solve(hessian, idx, k, grad, w2 / norm, u, spectrum)
                if step is None:
                    break
                d = -step
            else:
                hess = hessian.take(idx, 0).take(idx, 1)
                try:
                    pivots = np.diag(np.linalg.cholesky(hess))
                except np.linalg.LinAlgError:
                    break
                if pivots.min() <= _RANK_TOL * pivots.max():
                    break
                d = -np.linalg.solve(hess, grad)
            # Line search to the first sign change: the restricted objective
            # equals the true one up to there.
            toward = ss * d < 0
            ratios = np.full(idx.size, np.inf)
            ratios[toward] = -zs[toward] / d[toward]
            first = int(np.argmin(ratios))
            crossed = ratios[first] <= 1.0
            if crossed and ratios[first] == 0.0:
                # A coordinate just admitted would leave at once: no progress.
                break
            z[idx] = zs + min(ratios[first], 1.0) * d
            if crossed:
                z[idx[first]] = 0.0
            signs = np.sign(z)
            hz = gram @ z - sty
            bnorm = math.sqrt(z[n_a:] @ z[n_a:]) if n_v else 0.0
            violation = violations(z, hz, bnorm)
            optimality = stationarity(violation, bnorm)
            if optimality <= tol:
                point = (z.copy(), hz, bnorm, optimality)
                if met is not None and change(*point[:3], *met[:3]) > 0.0:
                    point = met
                if met is not None or not (curved or crossed):
                    return solves, point, False
                met = point
                continue
            if crossed or violation[signs != 0].max(initial=0.0) > tol:
                continue
            # The restricted problem is solved: admit the worst violator. A
            # variational coordinate enters only beside a nonzero block,
            # where the l2 term is smooth.
            excess = np.where(signs == 0, violation, -np.inf)
            if not bnorm:
                excess[n_a:] = -np.inf
            j = int(np.argmax(excess))
            if excess[j] <= 0.0:
                break
            signs[j] = -np.sign(hz[j])
        else:
            capped = met is None
        return solves, met, capped

    hx, x_norm = -sty, 0.0
    if start is not None:
        h_start = gram @ start - sty
        s_norm = math.sqrt(start[n_a:] @ start[n_a:]) if n_v else 0.0
        if change(start, h_start, s_norm, x, hx, x_norm) < 0.0:
            x, hx, x_norm = start, h_start, s_norm
    optimality = stationarity(violations(x, hx, x_norm), x_norm)
    momentum, hm = x, hx
    t_acc = 1.0
    signs, stable, wait = np.sign(x), 0, _FINISH_AFTER
    iterations = finish_solves = finish_capped = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        candidate, c_norm = prox_step(momentum, hm)
        hc = gram @ candidate - sty
        delta = change(candidate, hc, c_norm, x, hx, x_norm)
        if delta >= 0.0:
            candidate, c_norm = prox_step(x, hx)
            hc = gram @ candidate - sty
            delta = change(candidate, hc, c_norm, x, hx, x_norm)
            t_acc = 1.0
        if delta >= 0.0:
            # Numerical fixed point: the plain proximal step cannot descend,
            # and every later iteration would repeat it from the same point.
            # x is unchanged, so its optimality is known; only x = 0 in the
            # first iteration has not been tested against tol yet.
            converged = optimality <= tol
            break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        theta = (t_acc - 1.0) / t_next
        momentum = candidate + theta * (candidate - x)
        hm = hc + theta * (hc - hx)
        x, hx, x_norm, t_acc = candidate, hc, c_norm, t_next
        optimality = stationarity(violations(x, hx, x_norm), x_norm)
        if optimality <= tol:
            converged = True
            break
        new_signs = np.sign(x)
        stable = stable + 1 if np.array_equal(new_signs, signs) else 0
        signs = new_signs
        if stable >= wait:
            solves, finished, capped = finish(x, hx, max_iter - iterations)
            iterations += solves
            finish_solves += solves
            finish_capped += capped
            if finished:
                x, hx, x_norm, optimality = finished
                converged = True
                break
            if solves:
                # Back off: the next try needs twice as long a settled run.
                stable, wait = 0, 2 * wait
    r = y - stacked @ x
    objective = float(r @ r) + lam * float(np.abs(x[:n_a]).sum())
    if n_v:
        objective += mu * tau_norm(x[n_a:], tau)
    return (x[:n_a], x[n_a:], objective, iterations, converged, optimality,
            finish_solves, finish_capped)


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
    start: np.ndarray | None = None,
    *,
    spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> SparseCode:
    """Two-dictionary encoding with an l1 gallery penalty and a mixed
    l1/l2 penalty on the shared variational part.

    With ``mu == lam`` and ``tau == 1`` this is exactly the lasso on the
    concatenated dictionary; an empty ``v`` is the lasso on ``dp``. A probe
    ``y`` of the wrong length or with a NaN or infinite entry is a
    ``DataError`` (``check_probe``), raised before any solve.

    ``start`` is an optional first iterate in stacked order, the gallery
    coefficients then the variational ones; a wrong shape or a non-finite
    value is a ``DataError``. The solve starts there only if the objective
    at ``start`` is below the objective at zero, ||y||^2. Otherwise it
    starts at zero and returns exactly what it returns without a start, so
    the reported objective stays at most ||y||^2 either way.

    ``spectrum`` is an optional eigendecomposition ``(values, vectors)`` of
    2 V'V, the doubled Gram matrix of ``v``'s columns in their order, with
    ascending values (as ``numpy.linalg.eigh`` returns it); anything but a
    pair of shapes ``(n_v,)`` and ``(n_v, n_v)``, a non-finite entry, or
    values out of order, is a ``DataError``. The Newton finish's curved
    solves factor on it, and a solve without it makes it from its Gram
    matrix and runs the same algorithm; a caller that solves over the
    same ``v`` again (the paired search's refits) passes it to make it
    once. It must be the decomposition of this ``v``: the solve trusts it.
    """
    dp = np.asarray(dp, dtype=np.float64)
    v = np.zeros((dp.shape[0], 0)) if v is None or np.size(v) == 0 else np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or dp.ndim != 2:
        raise DataError("dictionaries must be 2-D arrays")
    if dp.shape[0] != v.shape[0]:
        raise DataError(f"dictionary rows ({dp.shape[0]}, {v.shape[0]}) differ")
    y = check_probe(y, dp.shape[0])
    if not (lam > 0 and mu > 0):
        raise DataError("lam and mu must be strictly positive")
    if not 0.0 <= tau <= 1.0:
        raise DataError(f"tau must lie in [0, 1], got {tau}")
    if start is not None:
        start = np.array(start, dtype=np.float64)
        width = dp.shape[1] + v.shape[1]
        if start.shape != (width,):
            raise DataError(f"start has shape {start.shape}, expected ({width},)")
        if not np.all(np.isfinite(start)):
            raise DataError("start contains non-finite values")
    if spectrum is not None:
        try:
            values, vectors = (np.asarray(a, dtype=np.float64) for a in spectrum)
        except (TypeError, ValueError):
            raise DataError("spectrum must be a pair of arrays (values, vectors)") from None
        n_v = v.shape[1]
        if values.shape != (n_v,) or vectors.shape != (n_v, n_v):
            raise DataError(
                f"spectrum has shapes {values.shape} and {vectors.shape}, "
                f"expected ({n_v},) and ({n_v}, {n_v})"
            )
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))):
            raise DataError("spectrum contains non-finite values")
        if np.any(values[1:] < values[:-1]):
            raise DataError("spectrum values must ascend")
        spectrum = values, vectors
    alpha, beta, objective, iterations, converged, optimality, solves, capped = _solve_composite(
        dp, v, y, lam, mu, tau, tol, max_iter, start, spectrum
    )
    if not converged:
        warnings.warn(
            f"extended solve did not reach tol={tol}; stopped after {iterations} "
            f"of at most {max_iter} iterations at optimality residual {optimality:.3g}",
            RuntimeWarning,
        )
    return SparseCode(
        alpha, beta, objective, iterations, converged, optimality=optimality,
        finish_solves=solves, finish_capped=capped,
    )


def restricted_least_squares(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares fit of y on the columns of a (the restricted support).

    Falls back to a 1e-10 ridge when the Gram matrix is singular, which
    returns a finite near-minimum-norm solution for duplicate columns.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if a.shape[1] == 0:
        raise DataError("restricted least squares needs a non-empty support")
    gram = a.T @ a
    rhs = a.T @ y
    try:
        chol = np.linalg.cholesky(gram)
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    except np.linalg.LinAlgError:
        return np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)


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


def _refit(pair, y, sets, config: ModelConfig, start=None):
    g_idx, b_idx = _support_of(sets)
    union = tuple(sorted({s.block for s in sets if s.block_indices}))
    code = extended_solve(
        pair.dp[:, g_idx],
        pair.v[:, b_idx],
        y,
        config.lam,
        config.mu,
        config.tau,
        config.tol,
        config.max_iter,
        start=start,
        spectrum=pair.spectrum(union) if union else None,
    )
    alpha = np.zeros(pair.dp.shape[1])
    beta = np.zeros(pair.v.shape[1])
    alpha[g_idx] = code.alpha
    beta[b_idx] = code.beta
    return alpha, beta, code


def paired_solve(pair: PairedDictionary, y: np.ndarray, config: ModelConfig) -> SparseCode:
    """Joint encoding of probe y over at most ``config.xi`` paired active
    sets of ``pair``.

    Candidate sets are ranked each round by the residual of an
    unpenalized fit on the enlarged support (matching-pursuit style),
    all of a round's candidates scored together, one projection per
    variational block; the chosen union then gets a penalized refit via
    the restricted extended solve. A local swap pass, scored the same
    way, guards the greedy choice, and instances with few enough
    combinations are enumerated exactly. The greedy search starts the
    refit from the least-squares fit on the chosen support, unless that
    support has as many columns as the probe has rows. The code's
    ``evaluations`` is the number of candidate supports compared (the
    combinations refit, when enumerated). The admissible sets, the block
    unions' bases and projected galleries, and the refit unions' spectra
    come from ``pair``, so they are built once for every probe coded over
    it. A probe with a NaN or infinite entry is a ``DataError``
    (``check_probe``), raised before any solve.
    """
    dp, v, sets = pair.dp, pair.v, pair.sets
    if np.size(y) != dp.shape[0]:
        raise DataError(
            f"gallery rows ({dp.shape[0]}) do not match probe length ({np.size(y)})"
        )
    y = check_probe(y, dp.shape[0])
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

    if math.comb(len(sets), xi) <= _ENUMERATION_LIMIT and xi * pair.widest <= 24:
        chosen, alpha, beta, code, evaluations = _solve_exhaustive(pair, y, xi, config)
    else:
        chosen, alpha, beta, code, evaluations = _solve_greedy(pair, y, xi, config)

    active = tuple(
        s
        for s in chosen
        if np.any(alpha[list(s.gallery_indices)] != 0)
        or (s.block_indices and np.any(beta[list(s.block_indices)] != 0))
    )
    return SparseCode(
        alpha, beta, code.objective, code.iterations, code.converged, active, evaluations,
        code.optimality, code.finish_solves, code.finish_capped,
    )


def _solve_exhaustive(pair, y, xi, config):
    sets = pair.sets
    best = None
    for combo in itertools.combinations(range(len(sets)), xi):
        subset = [sets[i] for i in combo]
        alpha, beta, code = _refit(pair, y, subset, config)
        if best is None or code.objective < best[3].objective - 1e-12:
            best = (subset, alpha, beta, code)
    return (*best, math.comb(len(sets), xi))


def _ls_fit(pair, y, sets) -> tuple[float, np.ndarray]:
    """Residual norm and coefficients of the least-squares fit on the
    support of ``sets``, in the stacked order of ``_refit``."""
    g_idx, b_idx = _support_of(sets)
    a = np.concatenate([pair.dp[:, g_idx], pair.v[:, b_idx]], axis=1)
    x = restricted_least_squares(a, y)
    return float(np.linalg.norm(y - a @ x)), x


class PairedDictionary:
    """The gallery paired with the variational dictionary: the unit a paired
    solve codes over, with the scan's enrollment-only tables.

    It is built once per enrollment from the gallery ``dp`` (its atoms'
    classes, pose slots and poses) and the variational atoms ``v`` with
    their block ids ``v_blocks``; ``v`` None or empty means no variational
    part. It holds ``dp`` and ``v`` by reference, not copies, so they must
    not change while it is in use (a gallery's and a variational
    dictionary's arrays are read-only); the tables are its own, so every
    probe coded over it reads tables of these dictionaries.

    Built at construction: the admissible active sets (``sets``) with their
    gallery-atom and block-id arrays (``atoms``, and ``blocks`` with 0 for
    no block), each block's columns of v (``columns``), the widest set's
    column count (``widest``) and each set's atom's squared norm (``sq``).

    Built on first use, one entry per union of variational blocks (a
    sorted tuple of block ids; ``table``): the union's orthonormal basis,
    the Q of one QR of its columns of v in sorted order, and the atoms a
    scan over the union reads with that basis projected out; or None when
    the union is rank deficient, a diagonal entry of that R being at most
    ``_RANK_TOL`` times its column's norm. The empty union's basis has no
    columns. These grow as unions x rows x the union's columns and the
    atoms paired with its blocks.

    Built on first use per union of the refit (the blocks of a settled
    support): the eigendecomposition of 2 V_U'V_U, the doubled Gram matrix
    of the union's columns of v in sorted order, the order ``_refit``
    passes them in, which the refit's Newton finish factors its curved
    solves on. These grow as unions x columns^2.

    ``built`` counts the union entries made, ``projections`` the entries
    that hold a table (every union but the rank-deficient ones),
    ``spectra`` the refit unions' eigendecompositions, and
    ``nbytes`` is the size of the arrays the tables hold.
    """

    def __init__(self, dp, classes, pose_slots, atom_poses, v=None, v_blocks=None):
        dp = np.asarray(dp, dtype=np.float64)
        if dp.ndim != 2 or dp.shape[1] == 0:
            raise DataError("paired solve needs a non-empty gallery dictionary")
        if v is None or np.size(v) == 0:
            v = np.zeros((dp.shape[0], 0))
            v_blocks = np.zeros(0, dtype=np.int64)
        else:
            v = np.asarray(v, dtype=np.float64)
            if v_blocks is None or v.shape[1] != np.size(v_blocks):
                raise DataError("every variational atom needs a block id")
            v_blocks = np.asarray(v_blocks, dtype=np.int64)
        self.dp, self.v = dp, v
        self.sets = admissible_active_sets(classes, pose_slots, atom_poses, v_blocks)
        self.atoms = np.array([s.gallery_indices[0] for s in self.sets], dtype=np.int64)
        self.blocks = np.array([s.block or 0 for s in self.sets], dtype=np.int64)
        self.columns = {s.block: s.block_indices for s in self.sets if s.block is not None}
        self.widest = max(1 + len(s.block_indices) for s in self.sets)
        self.sq = np.einsum("ij,ij->j", dp, dp)[self.atoms]
        self._unions: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray] | None] = {}
        self._spectra: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def _columns(self, union) -> np.ndarray:
        """The union's columns of v in sorted order, block after block."""
        return self.v[:, sorted(i for b in union for i in self.columns[b])]

    def table(self, union) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The scan's table for ``union``: its orthonormal basis q, the
        gallery atoms of the sets that a scan over it reads (those paired
        with one of its blocks or with none) with q projected out, and each
        set's column in that gallery, -1 for the sets left out. None when
        the union is rank deficient."""
        if union not in self._unions:
            cols = self._columns(union)
            q, r = np.linalg.qr(cols)
            entry = None
            if np.all(np.abs(np.diag(r)) > _RANK_TOL * np.linalg.norm(cols, axis=0)):
                keep = np.flatnonzero(np.isin(self.blocks, (0, *union)))
                column = np.full(len(self.sets), -1)
                column[keep] = np.arange(keep.size)
                entry = q, _project_out(self.dp[:, self.atoms[keep]], q), column
            self._unions[union] = entry
        return self._unions[union]

    def spectrum(self, union) -> tuple[np.ndarray, np.ndarray]:
        """The (values, vectors) of 2 V_U'V_U for ``union``'s columns of v
        in sorted order, as ``extended_solve``'s ``spectrum``."""
        if union not in self._spectra:
            cols = self._columns(union)
            values, vectors = np.linalg.eigh(2.0 * (cols.T @ cols))
            self._spectra[union] = values, vectors
        return self._spectra[union]

    # The tables only grow, so each counter is the size of its table.
    built = property(lambda self: len(self._unions))
    projections = property(lambda self: sum(e is not None for e in self._unions.values()))
    spectra = property(lambda self: len(self._spectra))

    @property
    def nbytes(self) -> int:
        arrays = [a for entry in self._unions.values() if entry is not None for a in entry]
        arrays += [a for pair in self._spectra.values() for a in pair]
        return sum(a.nbytes for a in arrays + [self.atoms, self.blocks, self.sq])


def _project_out(x, q):
    """x minus its component in the span of the orthonormal columns of q."""
    return x - q @ (q.T @ x)


def _held_basis(held, q, sq) -> np.ndarray | None:
    """Orthonormal basis of the base's gallery atoms outside the span of
    the orthonormal q, as an (n, k) matrix for k atoms ((n, 0) without
    atoms). ``held`` holds the atoms with q projected out once, ``sq``
    their squared norms. By Gram-Schmidt: each atom has q projected out
    once more, then the atoms before it twice (for orthogonality). None
    when an atom keeps at most ``_RANK_TOL`` times its norm, the rank test
    of a union's QR."""
    x = _project_out(held, q)
    basis = np.empty_like(x)
    for j in range(x.shape[1]):
        col, prior = x[:, j], basis[:, :j]
        for _ in range(2):
            col = col - prior @ (prior.T @ col)
        norm = math.sqrt(col @ col)
        if norm <= _RANK_TOL * math.sqrt(sq[j]):
            return None
        basis[:, j] = col / norm
    return basis


def _candidate_residuals(pair, y, base, candidates, outside=None) -> np.ndarray:
    """Residual norm of the least-squares fit on the support of the base
    plus each candidate set, in candidate order. ``base`` (a sequence)
    and ``candidates`` (an array) index ``pair.sets``, the admissible sets
    of the ``PairedDictionary`` ``pair``.

    Candidates are grouped by the union U of their block with the base's
    blocks. U's orthonormal basis and the gallery's component outside it
    come from ``pair``, and the probe's component outside U from
    ``outside``, a memo by union that lives for one probe. Per group, the
    base's gallery atoms are orthogonalized against U by Gram-Schmidt
    (``_held_basis``), then the group's atoms (outside U already) are
    projected onto the complement of that basis in one pass, and each
    residual is read off the atom's component p orthogonal to the
    support: the fit moves the support's residual r by (p'r / p'p) p.
    ``_ls_fit``, whose ridge path handles rank loss, scores instead:

    * every candidate whose support has as many columns as the probe has
      rows;
    * every candidate of a group whose support fails either rank test:
      U is rank deficient in ``pair``, or a base atom keeps at most
      ``_RANK_TOL`` times its norm outside U and the atoms before it;
    * every atom with almost nothing outside the support.
    """
    outside = {} if outside is None else outside
    scores = np.empty(candidates.size)
    if not candidates.size:
        return scores
    # The base's sets in support order, by gallery atom.
    base = np.array(base, dtype=np.int64)
    base = base[np.argsort(pair.atoms[base])]
    held = set(pair.blocks[base].tolist()) - {0}
    # The block each candidate adds to the base's, 0 for none.
    added = pair.blocks[candidates]
    for b in held:
        added = np.where(added == b, 0, added)
    order = np.argsort(added, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(added[order])) + 1):
        block = int(added[members[0]])
        union = tuple(sorted(held | {block} if block else held))
        # A candidate support with as many columns as the probe has rows
        # fits it exactly or is rank deficient: its residual is rounding
        # noise or the ridge path's, which only the exact solve reproduces.
        width = base.size + sum(len(pair.columns[b]) for b in union)
        entry = pair.table(union) if width + 1 < y.size else None
        basis = None
        if entry is not None:
            q, table, column = entry
            basis = _held_basis(table[:, column[base]], q, pair.sq[base])
        if basis is None:
            exact = members
        else:
            if union not in outside:
                outside[union] = _project_out(y, q)
            resid = _project_out(outside[union], basis)
            group = candidates[members]
            p = _project_out(table[:, column[group]], basis)
            pp = np.einsum("ij,ij->j", p, p)
            inside = pp <= (_RANK_TOL**2) * pair.sq[group]
            step = (p.T @ resid) / np.where(inside, 1.0, pp)
            scores[members] = np.linalg.norm(resid[:, None] - p * step, axis=0)
            exact = members[inside]
        if exact.size:
            base_sets = [pair.sets[i] for i in base]
            for k in exact:
                scores[k] = _ls_fit(pair, y, base_sets + [pair.sets[candidates[k]]])[0]
    return scores


def _solve_greedy(pair, y, xi, config):
    """Greedy rounds, then a swap pass, over batched candidate scores of
    the admissible sets of ``pair``.

    Each round takes the first running minimum of the candidate residuals
    in ``remaining`` order (a later candidate must beat it by 1e-12); the
    swap pass takes the first swap that beats the settled residual by
    1e-10. The settled residual is the scan's score of the support taken,
    in a round or a swap; the least-squares fit is solved once, on the
    final support, as the refit's start. Every scan reads its
    enrollment-only tables from ``pair`` and shares one memo of the
    probe's components outside the block unions. Until a swap is taken,
    the swap pass's last position has the final round's base and
    candidates, so it reuses that round's scores less the chosen one.
    Returns the chosen sets, the refit and the number of candidate
    supports compared, reused ones included.
    """
    sets = pair.sets
    chosen: list[int] = []
    remaining = np.arange(len(sets))
    evaluations = 0
    outside: dict = {}
    for _ in range(xi):
        scores = _candidate_residuals(pair, y, chosen, remaining, outside)
        evaluations += remaining.size
        values = scores.tolist()
        best = 0
        for k in range(1, len(values)):
            if values[k] < values[best] - 1e-12:
                best = k
        chosen.append(int(remaining[best]))
        remaining = np.delete(remaining, best)
        last = np.delete(scores, best)
        best_res = values[best]
        if best_res <= 1e-12:
            break

    # Swap pass on the unpenalized residual guards the greedy pick against
    # near ties; the penalized refit runs once on the settled support.
    for _ in range(2):
        swap = None
        for pos in range(len(chosen)):
            if last is not None and pos == len(chosen) - 1:
                scores = last
            else:
                base = chosen[:pos] + chosen[pos + 1:]
                scores = _candidate_residuals(pair, y, base, remaining, outside)
            evaluations += remaining.size
            better = np.flatnonzero(scores < best_res - 1e-10)
            if better.size:
                swap = pos, int(better[0])
                break
        if swap is None:
            break
        last = None
        pos, k = swap
        best_res = float(scores[k])
        taken = int(remaining[k])
        remaining = np.append(np.delete(remaining, k), chosen[pos])
        chosen[pos] = taken

    # The refit starts from the settled support's least-squares fit, near
    # its optimum at small penalties, unless the support has as many
    # columns as the probe has rows: that fit interpolates the probe, and
    # the solve takes longer from there than from zero.
    chosen_sets = [sets[i] for i in chosen]
    start = None
    if sum(map(len, _support_of(chosen_sets))) < y.size:
        start = _ls_fit(pair, y, chosen_sets)[1]
    alpha, beta, code = _refit(pair, y, chosen_sets, config, start)
    return chosen_sets, alpha, beta, code, evaluations
