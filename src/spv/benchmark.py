"""Seeded desk-scale benchmark generator for the evaluation harness.

Every identity is a random unit vector. Video-style samples are the toy
warp of the identity at a pose drawn from a small set of pose modes, plus
a shared illumination offset (one of a few additive atoms common to all
identities) and Gaussian noise. Pose effects are therefore non-additive
across identities, while illumination effects are; that split is what the
generator is designed to exercise. The full bundle is a deterministic
function of the generator seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dictionaries import ToySynthesizer
from .matrixio import DataError, SampleMatrix, SampleMeta, json_fields, read_json


@dataclass(frozen=True)
class BenchmarkSpec:
    """Generator parameters; the seed fixes the whole dataset.

    ``impostor_ratio`` is the fraction of probes that come from identities
    outside the watch-list: an experiment enrolling w identities draws
    probe sets from round(ratio / (1 - ratio) * w) extra identities.
    """

    n_classes: int = 30
    n_watchlist: int = 5
    n_generic_ids: int = 10
    samples_per_generic_id: int = 5
    q_true: int = 4
    feature_dim: int = 160
    noise_sigma: float = 0.02
    warp_strength: float = 3.0
    n_probe_per_id: int = 20
    impostor_ratio: float = 0.5
    illum_strength: float = 2.6
    n_illum: int = 3
    pose_jitter: float = 1.5
    frontal_share: float = 0.55
    probe_offset: float = 22.0
    probe_offset_share: float = 0.2
    shared_weight: float = 0.5
    seed: int = 7

    def __post_init__(self):
        for name in (
            "n_classes",
            "n_watchlist",
            "n_generic_ids",
            "samples_per_generic_id",
            "q_true",
            "feature_dim",
            "n_probe_per_id",
        ):
            if int(getattr(self, name)) < 1:
                raise DataError(f"{name} must be >= 1")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n_watchlist > self.n_classes:
            raise DataError("n_watchlist cannot exceed n_classes")
        for name in ("noise_sigma", "warp_strength", "illum_strength", "pose_jitter"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if not 0.0 <= self.frontal_share <= 1.0:
            raise DataError("frontal_share must lie in [0, 1]")
        if self.probe_offset < 0:
            raise DataError("probe_offset must be >= 0")
        if not 0.0 <= self.probe_offset_share <= 1.0:
            raise DataError("probe_offset_share must lie in [0, 1]")
        if not 0.0 <= self.shared_weight < 1.0:
            raise DataError("shared_weight must lie in [0, 1)")
        if not 0.0 <= self.impostor_ratio < 1.0:
            raise DataError("impostor_ratio must lie in [0, 1)")
        if self.impostor_ratio > 0:
            if self.n_impostor_ids == 0:
                raise DataError(
                    "impostor_ratio rounds to zero impostor identities; "
                    "raise the ratio or the watch-list size"
                )
            if self.n_watchlist + self.n_impostor_ids > self.n_classes:
                raise DataError(
                    f"need {self.n_watchlist + self.n_impostor_ids} identities per "
                    f"run but only {self.n_classes} exist"
                )
        if int(self.n_illum) < 0:
            raise DataError("n_illum must be >= 0")
        object.__setattr__(self, "n_illum", int(self.n_illum))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_impostor_ids(self) -> int:
        ratio = self.impostor_ratio
        return int(round(ratio / (1.0 - ratio) * self.n_watchlist))

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchmarkSpec":
        return cls(**json_fields(cls, raw, "benchmark"))

    @classmethod
    def from_json(cls, path) -> "BenchmarkSpec":
        return cls.from_dict(read_json(path, "benchmark spec"))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class BenchmarkBundle:
    """Deterministic dataset: stills, generic videos, probe sets, generator."""

    spec: BenchmarkSpec
    stills: SampleMatrix
    stills_meta: SampleMeta
    generic: SampleMatrix
    generic_meta: SampleMeta
    probes: SampleMatrix
    probes_meta: SampleMeta
    pose_modes: np.ndarray
    illum_atoms: np.ndarray
    synthesizer: ToySynthesizer


def _unit_vectors(rng, dim: int, count: int) -> np.ndarray:
    vectors = rng.normal(size=(dim, count))
    return vectors / np.linalg.norm(vectors, axis=0)


def _identity_vectors(rng, spec: BenchmarkSpec, mean_face: np.ndarray, count: int) -> np.ndarray:
    # Every identity shares a common component (the category mean) plus an
    # idiosyncratic part, so any reference still partially explains any
    # probe, the way all faces resemble each other.
    unique = _unit_vectors(rng, spec.feature_dim, count)
    # Typicality varies per identity: some are close to the category mean,
    # some are distinctive.
    w = np.clip(spec.shared_weight * rng.uniform(0.4, 1.6, size=count), 0.0, 0.9)
    mixed = np.sqrt(1.0 - w) * unique + np.sqrt(w) * mean_face[:, None]
    return mixed / np.linalg.norm(mixed, axis=0)


def _draw_pose(rng, spec: BenchmarkSpec, modes: np.ndarray) -> np.ndarray:
    # Mode 0 is the near-frontal condition and carries frontal_share of the
    # samples; the remaining modes split the rest evenly.
    if modes.shape[0] == 1 or rng.uniform() < spec.frontal_share:
        mode = modes[0]
    else:
        mode = modes[rng.integers(1, modes.shape[0])]
    pose = mode + rng.normal(scale=spec.pose_jitter, size=3)
    return np.clip(pose, -180.0, 180.0)


def _video_sample(rng, spec, synth, identity, pose, illum) -> np.ndarray:
    x = synth.synthesize(identity, pose)
    if spec.n_illum and spec.illum_strength > 0:
        j = rng.integers(0, illum.shape[1])
        coef = rng.uniform(0.15, 1.0) * spec.illum_strength
        x = x + coef * illum[:, j]
    if spec.noise_sigma > 0:
        x = x + rng.normal(scale=spec.noise_sigma, size=x.shape)
    return x


def generate_benchmark(spec: BenchmarkSpec) -> BenchmarkBundle:
    """Build the full dataset bundle for a spec; same seed, same bytes.

    Stills are the clean frontal identity vectors. Generic identities live
    in a separate id range (n_classes + i) so they can never collide with
    watch-list ids. Every class id gets its own probe set; the experiment
    protocol decides which ids act as genuine and which as impostors.
    """
    rng = np.random.default_rng(spec.seed)
    synth = ToySynthesizer(spec.feature_dim, seed=spec.seed + 1, warp_strength=spec.warp_strength)

    mean_face = _unit_vectors(rng, spec.feature_dim, 1)[:, 0]
    identities = _identity_vectors(rng, spec, mean_face, spec.n_classes)
    generic_ids = _identity_vectors(rng, spec, mean_face, spec.n_generic_ids)
    modes = rng.uniform(-45.0, 45.0, size=(spec.q_true, 3))
    modes[0] = rng.uniform(-2.0, 2.0, size=3)
    illum = _unit_vectors(rng, spec.feature_dim, max(spec.n_illum, 1))

    stills = SampleMatrix(identities)
    stills_meta = SampleMeta(
        labels=np.arange(spec.n_classes),
        poses=np.zeros((spec.n_classes, 3)),
    )

    g_cols, g_labels, g_poses = [], [], []
    for i in range(spec.n_generic_ids):
        # Every generic identity gets one clean frontal capture, the
        # natural sample its variation atoms are measured against.
        natural = generic_ids[:, i].copy()
        if spec.noise_sigma > 0:
            natural = natural + rng.normal(scale=spec.noise_sigma, size=natural.shape)
        g_cols.append(natural)
        g_labels.append(spec.n_classes + i)
        g_poses.append(np.zeros(3))
        for _ in range(spec.samples_per_generic_id - 1):
            pose = _draw_pose(rng, spec, modes)
            g_cols.append(_video_sample(rng, spec, synth, generic_ids[:, i], pose, illum))
            g_labels.append(spec.n_classes + i)
            g_poses.append(pose)
    generic = SampleMatrix(np.column_stack(g_cols))
    generic_meta = SampleMeta(labels=g_labels, poses=np.array(g_poses))

    p_cols, p_labels, p_poses = [], [], []
    for c in range(spec.n_classes):
        for _ in range(spec.n_probe_per_id):
            pose = _draw_pose(rng, spec, modes)
            # Probes are not confined to the capture-condition modes: a
            # share of them wander off by up to probe_offset per axis.
            if spec.probe_offset > 0 and rng.uniform() < spec.probe_offset_share:
                pose = np.clip(
                    pose + rng.uniform(-spec.probe_offset, spec.probe_offset, size=3),
                    -180.0,
                    180.0,
                )
            p_cols.append(_video_sample(rng, spec, synth, identities[:, c], pose, illum))
            p_labels.append(c)
            p_poses.append(pose)
    probes = SampleMatrix(np.column_stack(p_cols))
    probes_meta = SampleMeta(labels=p_labels, poses=np.array(p_poses))

    modes.flags.writeable = False
    illum_out = illum if spec.n_illum else illum[:, :0]
    illum_out = np.array(illum_out, copy=True)
    illum_out.flags.writeable = False
    return BenchmarkBundle(
        spec=spec,
        stills=stills,
        stills_meta=stills_meta,
        generic=generic,
        generic_meta=generic_meta,
        probes=probes,
        probes_meta=probes_meta,
        pose_modes=modes,
        illum_atoms=illum_out,
        synthesizer=synth,
    )
