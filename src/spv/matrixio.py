"""Shared data model, file formats, and normalization utilities.

Conventions used throughout the package:

* A sample matrix is dense float64 with one sample per column (d feature
  rows, n sample columns).
* CSV files store one row per feature dimension, comma separated. Lines
  starting with '#' are comments, blank lines are skipped, no header row.
* The binary format is: magic ``SPVM``, little-endian u32 d, u32 n, then
  d*n float64 little-endian in column-major order.
* Metadata is a JSON object ``{"labels": [...], "poses": [[pitch, yaw,
  roll], ...], "blocks": [...] | null}``. Label -1 marks a sample of
  unknown identity. An optional ``"natural"`` key may list column indices
  of explicitly marked natural samples (used by the variational builder).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

_BINARY_MAGIC = b"SPVM"


class DataError(ValueError):
    """Malformed file, inconsistent metadata, or infeasible input."""


@dataclass(frozen=True)
class SampleMatrix:
    """Dense d x n matrix of n sample vectors, one per column."""

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, copy=True)
        if data.ndim != 2:
            raise DataError(f"sample matrix must be 2-D, got shape {data.shape}")
        d, n = data.shape
        if d < 1 or n < 1:
            raise DataError(f"sample matrix must be at least 1x1, got {d}x{n}")
        if not np.all(np.isfinite(data)):
            raise DataError("sample matrix contains NaN or Inf entries")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j]


@dataclass(frozen=True)
class SampleMeta:
    """Per-column sample metadata: class labels, pose angles, cluster ids.

    labels: integer class id per column, -1 for unknown identity.
    poses:  (n, 3) pose triples (pitch, yaw, roll) in degrees.
    blocks: optional per-column pose-cluster id.
    """

    labels: np.ndarray
    poses: np.ndarray
    blocks: np.ndarray | None = None

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        if labels.ndim != 1 or labels.size < 1:
            raise DataError("labels must be a non-empty 1-D integer sequence")
        if np.any(labels < -1):
            raise DataError("labels must be >= 0, or -1 for unknown identity")
        poses = np.array(self.poses, dtype=np.float64, copy=True)
        if poses.ndim != 2 or poses.shape != (labels.size, 3):
            raise DataError(
                f"poses must have shape ({labels.size}, 3), got {poses.shape}"
            )
        if not np.all(np.isfinite(poses)):
            raise DataError("poses contain NaN or Inf entries")
        if np.any(np.abs(poses) > 180.0):
            raise DataError("pose angles must lie in [-180, 180] degrees")
        labels.flags.writeable = False
        poses.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "poses", poses)
        if self.blocks is not None:
            blocks = np.array(self.blocks, dtype=np.int64, copy=True)
            if blocks.shape != (labels.size,):
                raise DataError(
                    f"blocks must have shape ({labels.size},), got {blocks.shape}"
                )
            blocks.flags.writeable = False
            object.__setattr__(self, "blocks", blocks)

    @property
    def n_samples(self) -> int:
        return self.labels.size


def read_json(path, what: str) -> dict:
    """The JSON object in a file; DataError if the file is missing or
    unreadable, is not valid JSON, or does not hold an object."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return raw


def json_value(raw: dict, key: str, what: str, ndim: int = 0, integer: bool = False) -> np.ndarray:
    """The number (``ndim`` 0) or rectangular list of numbers nested ``ndim``
    deep under ``key`` of a JSON object, as an array. Booleans, strings,
    null, ragged or wrongly nested lists, integers too large for the
    array's type and, for ``integer``, numbers written with a decimal
    point or an exponent raise DataError."""
    if key not in raw:
        raise DataError(f"{what} is missing key {key!r}")
    leaf = (int,) if integer else (int, float)
    arr = np.array(raw[key], dtype=object)
    if arr.ndim == ndim and all(type(v) in leaf for v in arr.flat):
        try:
            return arr.astype(np.int64 if integer else np.float64)
        except OverflowError:
            pass
    noun = "64-bit integer" if integer else "number"
    shape = ("a {}", "a list of {}s", "a list of {} lists")[ndim].format(noun)
    raise DataError(f"{what}: {key} must be {shape}; {raw[key]!r:.80} is of the wrong type")


def json_fields(cls, raw: dict, what: str) -> dict:
    """Constructor arguments for the dataclass ``cls`` from a JSON object:
    every key must name a field, and each value is read by ``json_value``,
    as an integer where the field is annotated ``int``."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise DataError(f"unknown {what} keys: {unknown}")
    return {k: json_value(raw, k, what, integer=types[k] in (int, "int")).item() for k in raw}


def check_pair(matrix: SampleMatrix, meta: SampleMeta) -> None:
    """Reject matrix/metadata pairs whose sample counts disagree."""
    if matrix.n_samples != meta.n_samples:
        raise DataError(
            f"metadata covers {meta.n_samples} samples but matrix has "
            f"{matrix.n_samples} columns"
        )


def parse_row_norm(value) -> float:
    """Return the row norm order: 2 or inf."""
    if value in (2, math.inf):
        return 2 if value == 2 else math.inf
    raise DataError(f"row norm must be 2 or inf, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Solver and decision parameters shared across the pipeline.

    lam: l1 weight on gallery coefficients.
    mu:  weight on the variational penalty.
    tau: l1/l2 mix inside the variational penalty, in [0, 1].
    xi:  maximum number of joint active sets.
    eta: row-sparsity weight for exemplar selection.
    row_norm_q: row norm order for exemplar selection, 2 or inf.
    sci_threshold: open-set rejection threshold, in (0, 1).
    tol / max_iter: convex solver stopping controls.
    seed: master seed for experiment splits.
    """

    lam: float = 0.005
    mu: float = 0.005
    tau: float = 0.5
    xi: int = 3
    eta: float = 1.0
    row_norm_q: float = 2
    sci_threshold: float = 0.25
    tol: float = 1e-6
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("lam", "mu", "eta"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DataError(f"{name} must be strictly positive, got {value}")
        if not 0.0 <= self.tau <= 1.0:
            raise DataError(f"tau must lie in [0, 1], got {self.tau}")
        if int(self.xi) < 1:
            raise DataError(f"xi must be a positive integer, got {self.xi}")
        object.__setattr__(self, "xi", int(self.xi))
        object.__setattr__(self, "row_norm_q", parse_row_norm(self.row_norm_q))
        if not 0.0 < self.sci_threshold < 1.0:
            raise DataError(
                f"sci_threshold must lie in (0, 1), got {self.sci_threshold}"
            )
        if not self.tol > 0:
            raise DataError(f"tol must be positive, got {self.tol}")
        if int(self.max_iter) < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        raw = {"lam" if k == "lambda" else k: v for k, v in raw.items()}
        # JSON has no infinity, so to_dict writes an infinite row norm as "inf".
        if raw.get("row_norm_q") == "inf":
            raw["row_norm_q"] = math.inf
        return cls(**json_fields(cls, raw, "config"))

    @classmethod
    def from_json(cls, path) -> "ModelConfig":
        return cls.from_dict(read_json(path, "config file"))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = "lambda" if f.name == "lam" else f.name
            value = getattr(self, f.name)
            if f.name == "row_norm_q":
                value = "inf" if math.isinf(value) else 2
            out[key] = value
        return out

    def override(self, **kwargs) -> "ModelConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


def _is_binary(path: Path) -> bool:
    return path.suffix.lower() in (".spvm", ".bin")


def load_matrix(path) -> SampleMatrix:
    """Load a sample matrix from a CSV or SPVM binary file.

    The suffix decides the format: .spvm and .bin are binary, anything
    else is CSV.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"matrix file not found: {path}")
    if _is_binary(path):
        return _load_binary(path)
    return _load_csv(path)


def _load_csv(path: Path) -> SampleMatrix:
    rows = []
    width = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        cells = text.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(
                f"{path}: row {lineno} has {len(cells)} cells, expected {width}"
            )
        row = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: non-numeric cell {cell.strip()!r} at row {lineno}, "
                    f"column {col}"
                ) from exc
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: non-finite value at row {lineno}, column {col}"
                )
            row.append(value)
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty matrix")
    return SampleMatrix(np.array(rows, dtype=np.float64))


def _load_binary(path: Path) -> SampleMatrix:
    blob = path.read_bytes()
    header = len(_BINARY_MAGIC) + 8
    if len(blob) < header or blob[: len(_BINARY_MAGIC)] != _BINARY_MAGIC:
        raise DataError(f"{path}: not an SPVM binary matrix")
    d, n = struct.unpack_from("<II", blob, len(_BINARY_MAGIC))
    if d < 1 or n < 1:
        raise DataError(f"{path}: empty matrix")
    expected = header + 8 * d * n
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for a {d}x{n} matrix, "
            f"got {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=header)
    return SampleMatrix(flat.reshape((d, n), order="F"))


def save_matrix(matrix: SampleMatrix, path) -> None:
    """Write a sample matrix as CSV (17 significant digits) or SPVM binary,
    chosen by the suffix as in ``load_matrix``."""
    path = Path(path)
    try:
        if _is_binary(path):
            d, n = matrix.data.shape
            blob = _BINARY_MAGIC + struct.pack("<II", d, n)
            blob += matrix.data.astype("<f8").tobytes(order="F")
            path.write_bytes(blob)
        else:
            lines = [
                ",".join(format_float(v) for v in row) for row in matrix.data
            ]
            path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write matrix to {path}: {exc}") from exc


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def normalize_columns_array(data: np.ndarray) -> np.ndarray:
    """Rescale every column to unit l2 norm, preserving direction."""
    data = np.asarray(data, dtype=np.float64)
    norms = np.linalg.norm(data, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"cannot normalize zero column at index {zero[0]}")
    return data / norms


def load_metadata(path, expect_n: int | None = None) -> SampleMeta:
    """Load sample metadata JSON; rejects length mismatches at load time."""
    return metadata_from_dict(read_json(path, "metadata"), path, expect_n)


def metadata_from_dict(raw: dict, path, expect_n: int | None = None) -> SampleMeta:
    """Sample metadata from the parsed JSON object of the file at ``path``."""
    meta = SampleMeta(
        labels=json_value(raw, "labels", path, 1, integer=True),
        poses=json_value(raw, "poses", path, 2),
        blocks=None if raw.get("blocks") is None else json_value(raw, "blocks", path, 1, integer=True),
    )
    if expect_n is not None and meta.n_samples != expect_n:
        raise DataError(
            f"{path}: metadata covers {meta.n_samples} samples, expected {expect_n}"
        )
    return meta


def save_metadata(meta: SampleMeta, path, extra: dict | None = None) -> None:
    out = {
        "labels": [int(v) for v in meta.labels],
        "poses": [[float(a) for a in row] for row in meta.poses],
        "blocks": None if meta.blocks is None else [int(v) for v in meta.blocks],
    }
    if extra:
        out.update(extra)
    Path(path).write_text(json.dumps(out, indent=1) + "\n")
