"""Probe classification with class residuals and open-set rejection.

``classify`` decides a probe with a named method over one augmented
gallery, whose atoms and classes every rule reads as stored:

* ``esrc_classify`` codes the probe over the gallery's pose-slot-0 atoms,
  one reference still per class, plus a shared variational dictionary
  whose part of the code is common to every class residual. Without one
  it is SRC (``"src"``).
* ``spv_classify``  codes over the whole gallery paired with the blocked
  variational dictionary; each class residual uses the shared variational
  part restricted to the blocks of that class's active sets.
* ``nn_template_classify`` matches the probe to the stills by distance.

The coding rules predict the class with the smallest reconstruction
residual and gate acceptance on the sparsity concentration index of the
gallery coefficients. The dictionary builders unit-normalize every atom;
probes are used at their own scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionaries import AugmentedGallery, VariationalDictionary
from .matrixio import DataError, ModelConfig
from .solvers import SparseCode, check_probe, extended_solve, paired_solve

METHODS = ("src", "esrc", "spv", "nn_template")


# Slotted (no per-instance dict): every kept probe decision holds these.
@dataclass(frozen=True, slots=True)
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
    ids, inverse = np.unique(classes, return_inverse=True)
    k = int(k_classes) if k_classes is not None else ids.size
    if k < 2:
        raise DataError(f"sci needs at least 2 classes, got {k}")
    mass = np.abs(alpha)
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    largest = float(np.bincount(inverse, weights=mass).max())
    value = (k * largest / total - 1.0) / (k - 1.0)
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


def _stills(gallery: AugmentedGallery) -> tuple[np.ndarray, np.ndarray]:
    """The gallery's pose-slot-0 atoms and their classes, as stored."""
    slot0 = gallery.pose_slots == 0
    return gallery.matrix[:, slot0], gallery.classes[slot0]


def esrc_classify(
    gallery: AugmentedGallery,
    variational: VariationalDictionary | None,
    y: np.ndarray,
    config: ModelConfig,
) -> ProbeDecision:
    """Classify with a shared variational dictionary appended to the
    gallery's stills.

    The variational part of the code contributes to every class residual;
    SCI is computed on the stills' part only. Without a variational
    dictionary this is SRC. The Newton finish factors on the variational
    dictionary's own ``spectrum``, made once for every probe.
    """
    data, classes = _stills(gallery)
    y = check_probe(y, data.shape[0])
    v, spectrum = np.zeros((data.shape[0], 0)), None
    if variational is not None:
        v, spectrum = variational.matrix, variational.spectrum()
    code = extended_solve(
        data, v, y, config.lam, config.mu, config.tau, config.tol, config.max_iter,
        spectrum=spectrum,
    )
    shared = v @ code.beta if v.shape[1] else 0.0
    class_ids = np.unique(classes).tolist()
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
    clustering (same q). The code is over the gallery's pair with the
    variational dictionary (``AugmentedGallery.paired``), whose tables the
    gallery keeps for its next probe. Class residuals mask the shared
    variational part to the blocks that appear in the class's own active
    sets.
    """
    if variational is not None and variational.q != gallery.q:
        raise DataError(
            f"clustering mismatch: gallery has q={gallery.q} but variational "
            f"dictionary has q={variational.q}"
        )
    y = check_probe(y, gallery.matrix.shape[0])
    code = paired_solve(gallery.paired(variational), y, config)
    classes = gallery.classes
    class_ids = np.unique(classes).tolist()
    blocks_by_class: dict[int, set[int]] = {}
    for aset in code.active_sets:
        blocks = blocks_by_class.setdefault(aset.class_id, set())
        if aset.block is not None:
            blocks.add(aset.block)
    # A class without an active set has a zero code and no blocks, so its
    # reconstruction is zero and its residual is ||y||.
    residuals = np.full(len(class_ids), float(np.linalg.norm(y)))
    for c, blocks in blocks_by_class.items():
        recon = gallery.matrix @ class_selector(code.alpha, classes, c)
        if blocks:
            mask = np.isin(variational.blocks, sorted(blocks))
            recon = recon + variational.matrix @ np.where(mask, code.beta, 0.0)
        residuals[class_ids.index(c)] = float(np.linalg.norm(y - recon))
    return _decide(class_ids, residuals, code.alpha, classes, config, code)


def nn_template_classify(gallery: AugmentedGallery, y: np.ndarray) -> ProbeDecision:
    """Plain nearest-neighbor template matching against the gallery's stills.

    Residuals are Euclidean distances to each class template; there is no
    sparse code, so SCI is 0 and the decision is never accepted by the gate.
    """
    data, classes = _stills(gallery)
    y = check_probe(y, data.shape[0])
    class_ids = np.unique(classes).tolist()
    residuals = []
    for c in class_ids:
        cols = np.flatnonzero(classes == c)
        dists = np.linalg.norm(data[:, cols] - y[:, None], axis=0)
        residuals.append(float(dists.min()))
    residuals = np.asarray(residuals)
    predicted = class_ids[int(np.argmin(residuals))]
    return ProbeDecision(tuple(class_ids), residuals, predicted, 0.0, False, None)


def classify(
    method: str,
    gallery: AugmentedGallery,
    variational: VariationalDictionary | None,
    y: np.ndarray,
    config: ModelConfig,
) -> ProbeDecision:
    """Decide probe y with one of ``METHODS``.

    ``"spv"`` codes over the whole gallery; ``"src"``, ``"esrc"`` and
    ``"nn_template"`` over its pose-slot-0 atoms, one still per class.
    """
    if method == "spv":
        return spv_classify(gallery, variational, y, config)
    if method in ("src", "esrc"):
        return esrc_classify(gallery, variational if method == "esrc" else None, y, config)
    if method == "nn_template":
        return nn_template_classify(gallery, y)
    raise DataError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
