"""Construction of the augmented gallery and the variational dictionary.

The augmented gallery holds, per enrolled class, the original still (pose
slot 0) followed by one synthesized view per pose exemplar (slots 1..q).
The variational dictionary holds difference atoms harvested from a generic
set of non-enrolled identities, grouped into contiguous blocks by pose
cluster. View synthesis is pluggable: a deterministic toy warp family, an
identity stub, or precomputed views imported from disk.

Dictionaries persist as a matrix file plus a ``<path>.meta.json`` sidecar
reusing the sample-metadata schema (labels = class/source ids, poses =
atom poses, blocks = pose slot or block id) extended with a ``"q"`` key.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exemplars import PoseClustering
from .matrixio import (
    DataError,
    SampleMatrix,
    SampleMeta,
    check_pair,
    load_matrix,
    load_metadata,
    normalize_columns_array,
    save_matrix,
    save_metadata,
)


@dataclass(frozen=True)
class AugmentedGallery:
    """Column dictionary of stills plus synthetic views, q+1 atoms per class."""

    matrix: np.ndarray
    classes: np.ndarray
    pose_slots: np.ndarray
    atom_poses: np.ndarray
    q: int

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64, copy=True)
        classes = np.array(self.classes, dtype=np.int64, copy=True)
        slots = np.array(self.pose_slots, dtype=np.int64, copy=True)
        poses = np.array(self.atom_poses, dtype=np.float64, copy=True)
        n = matrix.shape[1]
        if classes.shape != (n,) or slots.shape != (n,) or poses.shape != (n, 3):
            raise DataError("gallery metadata does not match the atom count")
        per_class = self.q + 1
        if n % per_class != 0:
            raise DataError(
                f"gallery must hold {per_class} atoms per class, got {n} atoms"
            )
        expected_slots = np.tile(np.arange(per_class), n // per_class)
        if not np.array_equal(slots, expected_slots):
            raise DataError("gallery atoms must be contiguous per class, slot 0 first")
        if not np.array_equal(classes, np.repeat(classes[::per_class], per_class)):
            raise DataError("gallery atoms must be contiguous per class")
        for arr in (matrix, classes, slots, poses):
            arr.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "pose_slots", slots)
        object.__setattr__(self, "atom_poses", poses)

    @property
    def k(self) -> int:
        return self.matrix.shape[1] // (self.q + 1)

    @property
    def class_ids(self) -> np.ndarray:
        return self.classes[:: self.q + 1]


@dataclass(frozen=True)
class VariationalDictionary:
    """Block-structured difference atoms; block ids 1..q, contiguous columns."""

    matrix: np.ndarray
    blocks: np.ndarray
    source_labels: np.ndarray
    atom_poses: np.ndarray
    q: int

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64, copy=True)
        blocks = np.array(self.blocks, dtype=np.int64, copy=True)
        labels = np.array(self.source_labels, dtype=np.int64, copy=True)
        poses = np.array(self.atom_poses, dtype=np.float64, copy=True)
        m = matrix.shape[1]
        if blocks.shape != (m,) or labels.shape != (m,) or poses.shape != (m, 3):
            raise DataError("variational metadata does not match the atom count")
        if m:
            if np.any(blocks < 1) or np.any(blocks > self.q):
                raise DataError(f"block ids must lie in 1..{self.q}")
            if np.any(np.diff(blocks) < 0):
                raise DataError("blocks must be contiguous in column order")
        for arr in (matrix, blocks, labels, poses):
            arr.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "source_labels", labels)
        object.__setattr__(self, "atom_poses", poses)

    @property
    def n_atoms(self) -> int:
        return self.matrix.shape[1]

    def block_columns(self, block: int) -> np.ndarray:
        return np.flatnonzero(self.blocks == block)


def empty_variational(dim: int, q: int = 0) -> VariationalDictionary:
    return VariationalDictionary(
        np.zeros((dim, 0)), np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros((0, 3)), q,
    )


class ViewSynthesizer:
    """Deterministic view generator: same (still, pose) gives the same output,
    and the frontal pose (0, 0, 0) returns the still unchanged."""

    def synthesize(self, still: np.ndarray, pose, class_id: int | None = None) -> np.ndarray:
        raise NotImplementedError


class IdentitySynthesizer(ViewSynthesizer):
    """Returns the still for any pose; useful as a degenerate baseline."""

    def synthesize(self, still, pose, class_id=None):
        return np.array(still, dtype=np.float64, copy=True)


class ToySynthesizer(ViewSynthesizer):
    """Smooth orthogonal warp plus offset standing in for a face-view renderer.

    synthesize(x, pose) = R(pose) @ x + w(pose), where R is a product of
    Givens rotations on seeded coordinate pairs (one family per pose axis,
    angles proportional to the pose angle), so R(0) = I and R is orthogonal,
    and w is a seeded smooth offset with w(0) = 0. The rotations mix
    coordinates, so warped views are not additive offsets of the still.
    """

    def __init__(self, dim: int, seed: int = 0, warp_strength: float = 1.0):
        if dim < 2:
            raise DataError("toy synthesizer needs feature dimension >= 2")
        self.dim = int(dim)
        self.seed = int(seed)
        self.warp_strength = float(warp_strength)
        rng = np.random.default_rng(self.seed)
        self._pairs = []
        self._freqs = []
        for _ in range(3):
            perm = rng.permutation(self.dim)
            n_pairs = self.dim // 2
            self._pairs.append(perm[: 2 * n_pairs].reshape(n_pairs, 2))
            self._freqs.append(rng.uniform(0.5, 1.5, size=n_pairs))
        offsets = rng.normal(size=(3, self.dim))
        self._offsets = offsets / np.linalg.norm(offsets, axis=1, keepdims=True)

    def synthesize(self, still, pose, class_id=None):
        x = np.array(still, dtype=np.float64, copy=True)
        if x.shape != (self.dim,):
            raise DataError(
                f"toy synthesizer built for dimension {self.dim}, got {x.shape}"
            )
        pose = np.asarray(pose, dtype=np.float64).ravel()
        for axis in range(3):
            angle = self.warp_strength * math.radians(float(pose[axis]))
            if angle == 0.0:
                continue
            pairs = self._pairs[axis]
            theta = angle * self._freqs[axis]
            c, s = np.cos(theta), np.sin(theta)
            a = x[pairs[:, 0]].copy()
            b = x[pairs[:, 1]].copy()
            x[pairs[:, 0]] = c * a - s * b
            x[pairs[:, 1]] = s * a + c * b
        for axis in range(3):
            coef = self.warp_strength * math.sin(math.radians(float(pose[axis])))
            if coef != 0.0:
                x += 0.25 * coef * self._offsets[axis]
        return x


class ImportedSynthesizer(ViewSynthesizer):
    """Looks up precomputed views stored as ``<class>_<poseindex>.csv`` files.

    The directory manifest (``manifest.json``) lists the known class ids and
    the pose triples; pose index is the 0-based position in that list. The
    frontal pose short-circuits to the still itself.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        manifest_path = self.directory / "manifest.json"
        if not manifest_path.exists():
            raise DataError(f"missing manifest.json in {self.directory}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path} is not valid JSON: {exc}") from exc
        try:
            self.classes = [int(c) for c in manifest["classes"]]
            self.poses = np.array(manifest["poses"], dtype=np.float64)
        except KeyError as exc:
            raise DataError(f"manifest is missing key {exc}") from exc
        if self.poses.ndim != 2 or self.poses.shape[1] != 3:
            raise DataError("manifest poses must be a list of (pitch, yaw, roll)")
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def _pose_index(self, pose: np.ndarray) -> int:
        match = np.flatnonzero(np.all(np.abs(self.poses - pose) <= 1e-6, axis=1))
        if match.size == 0:
            raise DataError(
                f"no stored view for pose {tuple(float(a) for a in pose)}"
            )
        return int(match[0])

    def synthesize(self, still, pose, class_id=None):
        pose = np.asarray(pose, dtype=np.float64).ravel()
        if np.all(pose == 0.0):
            return np.array(still, dtype=np.float64, copy=True)
        if class_id is None:
            raise DataError("imported synthesizer needs the class id for lookups")
        class_id = int(class_id)
        if class_id not in self.classes:
            raise DataError(f"no stored views for class {class_id}")
        key = (class_id, self._pose_index(pose))
        if key not in self._cache:
            path = self.directory / f"{key[0]}_{key[1]}.csv"
            if not path.exists():
                raise DataError(f"missing stored view for (class {key[0]}, pose {key[1]})")
            self._cache[key] = load_matrix(path).data[:, 0]
        return self._cache[key].copy()


def import_synthesizer(directory) -> ImportedSynthesizer:
    return ImportedSynthesizer(directory)


def toy_synthesizer(dim: int, seed: int = 0, warp_strength: float = 1.0) -> ToySynthesizer:
    return ToySynthesizer(dim, seed, warp_strength)


def build_augmented_gallery(
    stills: SampleMatrix,
    meta: SampleMeta,
    clustering: PoseClustering | None,
    synth: ViewSynthesizer,
) -> AugmentedGallery:
    """Merge each class still with one synthesized view per pose exemplar.

    Atom layout is contiguous per class in still order: slot 0 is the
    original still, slots 1..q follow the exemplar order. All columns come
    out unit-normalized. ``clustering=None`` builds a stills-only gallery.
    """
    check_pair(stills, meta)
    ids = [int(c) for c in meta.labels]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate class ids in the reference stills")
    if any(c < 0 for c in ids):
        raise DataError("reference stills cannot carry unknown (-1) labels")
    q = clustering.q if clustering is not None else 0
    columns, classes, slots, poses = [], [], [], []
    for j, class_id in enumerate(ids):
        still = stills.column(j)
        columns.append(still)
        classes.append(class_id)
        slots.append(0)
        poses.append(meta.poses[j])
        for p in range(1, q + 1):
            pose = clustering.exemplar_poses[p - 1]
            view = synth.synthesize(still, pose, class_id=class_id)
            if view.shape != still.shape:
                raise DataError("synthesizer returned a vector of the wrong dimension")
            columns.append(view)
            classes.append(class_id)
            slots.append(p)
            poses.append(pose)
    matrix = normalize_columns_array(np.column_stack(columns))
    return AugmentedGallery(matrix, classes, slots, np.array(poses), q)


def build_variational_dictionary(
    generic: SampleMatrix,
    meta: SampleMeta,
    clustering: PoseClustering,
    natural_selector: str = "frontal",
    natural_marks=None,
    subtract: str = "natural",
    normalize_atoms: bool = True,
) -> VariationalDictionary:
    """Harvest difference atoms from a generic set, blocked by pose cluster.

    For every generic identity the natural sample is either the one whose
    pose is nearest to frontal (ties to the lowest column index) or an
    explicitly marked column; each remaining sample contributes the atom
    (sample - natural), placed in the block of the sample's pose cluster.
    ``subtract="centroid"`` uses differences from the identity mean instead.
    Identities with a single sample contribute nothing (warning).
    """
    check_pair(generic, meta)
    if natural_selector not in ("frontal", "labeled"):
        raise DataError(f"unknown natural selector {natural_selector!r}")
    if subtract not in ("natural", "centroid"):
        raise DataError(f"unknown subtraction mode {subtract!r}")
    if natural_selector == "labeled" and natural_marks is None:
        raise DataError("natural_selector='labeled' needs natural sample marks")
    marks = set(int(i) for i in natural_marks) if natural_marks is not None else set()
    if len(meta.labels) != clustering.assignment.size:
        raise DataError("clustering does not cover the generic set")

    by_identity: dict[int, list[int]] = {}
    for col, label in enumerate(meta.labels):
        label = int(label)
        if label < 0:
            warnings.warn(
                f"generic column {col} has unknown identity (-1); skipped",
                RuntimeWarning,
            )
            continue
        by_identity.setdefault(label, []).append(col)

    entries = []
    for identity in sorted(by_identity):
        cols = by_identity[identity]
        if len(cols) < 2:
            warnings.warn(
                f"generic identity {identity} has a single sample; no variation atoms",
                RuntimeWarning,
            )
            continue
        if subtract == "centroid":
            base = generic.data[:, cols].mean(axis=1)
            sources = cols
        else:
            if natural_selector == "labeled":
                marked = [c for c in cols if c in marks]
                if len(marked) != 1:
                    raise DataError(
                        f"identity {identity} needs exactly one marked natural "
                        f"sample, found {len(marked)}"
                    )
                natural = marked[0]
            else:
                dists = [float(np.linalg.norm(meta.poses[c])) for c in cols]
                natural = cols[int(np.argmin(dists))]
            base = generic.column(natural)
            sources = [c for c in cols if c != natural]
        for col in sources:
            atom = generic.column(col) - base
            norm = float(np.linalg.norm(atom))
            if norm <= 1e-12:
                warnings.warn(
                    f"zero variation atom from identity {identity}, column {col}; "
                    "dropped",
                    RuntimeWarning,
                )
                continue
            block = clustering.block_of(col)
            entries.append((block, identity, col, atom, norm))

    if not entries:
        raise DataError("generic set produced no variation atoms")
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    atoms = np.column_stack([e[3] / (e[4] if normalize_atoms else 1.0) for e in entries])
    return VariationalDictionary(
        atoms,
        [e[0] for e in entries],
        [e[1] for e in entries],
        meta.poses[[e[2] for e in entries]],
        clustering.q,
    )


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def save_gallery(gallery: AugmentedGallery, path) -> None:
    save_matrix(SampleMatrix(gallery.matrix), path)
    save_metadata(
        SampleMeta(gallery.classes, gallery.atom_poses, gallery.pose_slots),
        _meta_path(path),
        extra={"q": gallery.q},
    )


def load_gallery(path) -> AugmentedGallery:
    matrix = load_matrix(path)
    meta = load_metadata(_meta_path(path), expect_n=matrix.n_samples)
    raw = json.loads(_meta_path(path).read_text())
    if meta.blocks is None or "q" not in raw:
        raise DataError(f"{_meta_path(path)}: gallery sidecar needs blocks and q")
    return AugmentedGallery(
        matrix.data, meta.labels, meta.blocks, meta.poses, int(raw["q"])
    )


def save_variational(v: VariationalDictionary, path) -> None:
    if v.n_atoms == 0:
        raise DataError("refusing to save an empty variational dictionary")
    save_matrix(SampleMatrix(v.matrix), path)
    save_metadata(
        SampleMeta(v.source_labels, v.atom_poses, v.blocks),
        _meta_path(path),
        extra={"q": v.q},
    )


def load_variational(path) -> VariationalDictionary:
    matrix = load_matrix(path)
    meta = load_metadata(_meta_path(path), expect_n=matrix.n_samples)
    raw = json.loads(_meta_path(path).read_text())
    if meta.blocks is None or "q" not in raw:
        raise DataError(f"{_meta_path(path)}: variational sidecar needs blocks and q")
    return VariationalDictionary(
        matrix.data, meta.blocks, meta.labels, meta.poses, int(raw["q"])
    )
