"""Probe classification with class residuals and open-set rejection.

Three decision rules over column dictionaries:

* ``src_classify``  codes the probe over the reference stills alone
  (``esrc_classify`` with no variational dictionary).
* ``esrc_classify`` adds a shared variational dictionary; the variational
  part of the code is common to every class residual.
* ``spv_classify``  codes over the pose-augmented gallery paired with the
  blocked variational dictionary; each class residual uses the shared
  variational part restricted to the blocks of that class's active sets.

All rules predict the class with the smallest reconstruction residual and
gate acceptance on the sparsity concentration index of the gallery
coefficients. Dictionary atoms are unit-normalized in memory before any
solve; probes are used at their own scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionaries import AugmentedGallery, VariationalDictionary
from .matrixio import DataError, ModelConfig, SampleMeta, normalize_columns_array
from .solvers import SparseCode, extended_solve, paired_solve


@dataclass(frozen=True)
class ProbeDecision:
    """Per-class residuals plus the argmin decision and the rejection gate."""

    class_ids: tuple[int, ...]
    residuals: np.ndarray
    predicted: int
    sci: float
    accepted: bool
    code: SparseCode | None = None

    def __post_init__(self):
        residuals = np.array(self.residuals, dtype=np.float64, copy=True)
        if residuals.shape != (len(self.class_ids),):
            raise DataError("one residual per class is required")
        if not np.all(np.isfinite(residuals)) or np.any(residuals < 0):
            raise DataError("residuals must be finite and non-negative")
        if self.predicted != self.class_ids[int(np.argmin(residuals))]:
            raise DataError("predicted class must attain the minimum residual")
        if not -1e-12 <= self.sci <= 1 + 1e-12:
            raise DataError(f"sci must lie in [0, 1], got {self.sci}")
        residuals.flags.writeable = False
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "sci", float(min(max(self.sci, 0.0), 1.0)))

    def residual_of(self, class_id: int) -> float:
        return float(self.residuals[self.class_ids.index(class_id)])

    @property
    def min_residual(self) -> float:
        return float(self.residuals.min())


def class_selector(code: np.ndarray, classes: np.ndarray, k: int) -> np.ndarray:
    """Copy of the code with every entry outside class k zeroed."""
    code = np.asarray(code, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    if code.shape != classes.shape:
        raise DataError("atom class labels must match the code length")
    mask = classes == int(k)
    if not np.any(mask):
        raise DataError(f"class {k} does not appear among the atoms")
    return np.where(mask, code, 0.0)


def sci(alpha: np.ndarray, classes: np.ndarray, k_classes: int | None = None) -> float:
    """Sparsity concentration index of a gallery code.

    (k * max_i ||delta_i(alpha)||_1 / ||alpha||_1 - 1) / (k - 1), clamped to
    [0, 1] against rounding; defined as 0 when the code has no l1 mass.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    if alpha.shape != classes.shape:
        raise DataError("atom class labels must match the code length")
    ids = np.unique(classes)
    k = int(k_classes) if k_classes is not None else ids.size
    if k < 2:
        raise DataError(f"sci needs at least 2 classes, got {k}")
    total = float(np.sum(np.abs(alpha)))
    if total == 0.0:
        return 0.0
    masses = [float(np.sum(np.abs(alpha[classes == c]))) for c in ids]
    value = (k * max(masses) / total - 1.0) / (k - 1.0)
    return float(min(max(value, 0.0), 1.0))


def accept(decision: ProbeDecision, threshold: float) -> bool:
    """Accept iff the decision's SCI reaches the threshold (>= convention)."""
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must lie in (0, 1), got {threshold}")
    return decision.sci >= threshold


def _decide(class_ids, residuals, alpha, classes, config, code) -> ProbeDecision:
    residuals = np.asarray(residuals, dtype=np.float64)
    predicted = class_ids[int(np.argmin(residuals))]
    k = len(class_ids)
    score = sci(alpha, classes, k) if k >= 2 else (1.0 if np.any(alpha) else 0.0)
    return ProbeDecision(
        class_ids=tuple(class_ids),
        residuals=residuals,
        predicted=predicted,
        sci=score,
        accepted=score >= config.sci_threshold,
        code=code,
    )


def src_classify(dictionary, meta: SampleMeta, y: np.ndarray, config: ModelConfig) -> ProbeDecision:
    """Classify by coding the probe over the reference dictionary alone:
    ESRC with no variational dictionary."""
    return esrc_classify(dictionary, meta, None, y, config)


def esrc_classify(
    dictionary,
    meta: SampleMeta,
    variational: VariationalDictionary | None,
    y: np.ndarray,
    config: ModelConfig,
) -> ProbeDecision:
    """Classify with a shared variational dictionary appended to the stills.

    The variational part of the code contributes to every class residual;
    SCI is computed on the gallery part only. Without a variational
    dictionary this is SRC.
    """
    data = dictionary.data if hasattr(dictionary, "data") else np.asarray(dictionary)
    data = normalize_columns_array(data)
    classes = np.asarray(meta.labels, dtype=np.int64)
    if classes.size != data.shape[1]:
        raise DataError("metadata does not cover every dictionary atom")
    y = np.asarray(y, dtype=np.float64).ravel()
    v = variational.matrix if variational is not None else np.zeros((data.shape[0], 0))
    code = extended_solve(
        data, v, y, config.lam, config.mu, config.tau, config.tol, config.max_iter
    )
    shared = v @ code.beta if v.shape[1] else 0.0
    class_ids = sorted(int(c) for c in set(classes))
    residuals = [
        float(np.linalg.norm(y - data @ class_selector(code.alpha, classes, c) - shared))
        for c in class_ids
    ]
    return _decide(class_ids, residuals, code.alpha, classes, config, code)


def spv_classify(
    gallery: AugmentedGallery,
    variational: VariationalDictionary | None,
    y: np.ndarray,
    config: ModelConfig,
) -> ProbeDecision:
    """Classify with the paired gallery/variational joint encoding.

    The gallery and the variational dictionary must come from the same pose
    clustering (same q). Class residuals mask the shared variational part
    to the blocks that appear in the class's own active sets.
    """
    if variational is not None and variational.n_atoms and variational.q != gallery.q:
        raise DataError(
            f"clustering mismatch: gallery has q={gallery.q} but variational "
            f"dictionary has q={variational.q}"
        )
    y = np.asarray(y, dtype=np.float64).ravel()
    v = variational.matrix if variational is not None else None
    v_blocks = variational.blocks if variational is not None else None
    code = paired_solve(
        gallery.matrix,
        gallery.classes,
        gallery.pose_slots,
        gallery.atom_poses,
        v,
        v_blocks,
        y,
        config,
    )
    classes = gallery.classes
    class_ids = sorted(int(c) for c in set(classes))
    blocks_by_class: dict[int, set[int]] = {c: set() for c in class_ids}
    for aset in code.active_sets:
        if aset.block is not None:
            blocks_by_class[aset.class_id].add(aset.block)
    residuals = []
    for c in class_ids:
        recon = gallery.matrix @ class_selector(code.alpha, classes, c)
        if variational is not None and blocks_by_class[c]:
            mask = np.isin(variational.blocks, sorted(blocks_by_class[c]))
            recon = recon + variational.matrix @ np.where(mask, code.beta, 0.0)
        residuals.append(float(np.linalg.norm(y - recon)))
    return _decide(class_ids, residuals, code.alpha, classes, config, code)


def nn_template_classify(dictionary, meta: SampleMeta, y: np.ndarray) -> ProbeDecision:
    """Plain nearest-neighbor template matching against the stills.

    Residuals are Euclidean distances to each class template; there is no
    sparse code, so SCI is 0 and the decision is never accepted by the gate.
    """
    data = dictionary.data if hasattr(dictionary, "data") else np.asarray(dictionary)
    classes = np.asarray(meta.labels, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64).ravel()
    class_ids = sorted(int(c) for c in set(classes))
    residuals = []
    for c in class_ids:
        cols = np.flatnonzero(classes == c)
        dists = np.linalg.norm(data[:, cols] - y[:, None], axis=0)
        residuals.append(float(dists.min()))
    residuals = np.asarray(residuals)
    predicted = class_ids[int(np.argmin(residuals))]
    return ProbeDecision(tuple(class_ids), residuals, predicted, 0.0, False, None)
