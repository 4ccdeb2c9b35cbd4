"""Feature-record datasets: synthetic generation, binary file io, splits.

Records hold pre-extracted per-modality feature sequences (text: L_T x D_T,
image: L_I x D_I) with a binary label (1 = fake, 0 = real) and a provenance
tag saying which modality carries class signal.

File format (little-endian), magic ``MMFN``, version 1::

    header: 4s magic | u32 version | u64 n_records | u32 d_t | u32 d_i | u32 l_t | u32 l_i
    record: u32 id_len | id utf-8 | u8 label | u8 provenance
            | l_t*d_t f64 text features (row-major) | l_i*d_i f64 image features

Provenance wire codes: 0 unknown, 1 text, 2 image, 3 both.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .autodiff import as_matrix
from .errors import (
    BadMagicError,
    FileFormatError,
    InconsistentDimsError,
    InputError,
    TruncatedFileError,
    VersionMismatchError,
)

MAGIC = b"MMFN"
FORMAT_VERSION = 1


class Provenance(IntEnum):
    """Which modality was given class-dependent signal."""

    UNKNOWN = 0
    TEXT = 1
    IMAGE = 2
    BOTH = 3


@dataclass(frozen=True)
class FeatureRecord:
    record_id: str
    label: int
    text_features: np.ndarray
    image_features: np.ndarray
    provenance: Provenance = Provenance.UNKNOWN

    def __post_init__(self):
        if self.label not in (0, 1):
            raise InputError(f"label must be 0 or 1, got {self.label!r}")
        object.__setattr__(self, "text_features", as_matrix(self.text_features, name="text_features"))
        object.__setattr__(self, "image_features", as_matrix(self.image_features, name="image_features"))
        object.__setattr__(self, "provenance", Provenance(self.provenance))


@dataclass
class Dataset:
    """A homogeneous collection of records sharing feature dimensions."""

    d_t: int
    d_i: int
    l_t: int
    l_i: int
    records: list[FeatureRecord] = field(default_factory=list)

    def __post_init__(self):
        if min(self.d_t, self.d_i, self.l_t, self.l_i) < 1:
            raise InputError("feature dimensions must all be at least 1")
        for r in self.records:
            if r.text_features.shape != (self.l_t, self.d_t):
                raise InputError(
                    f"record {r.record_id}: text features {r.text_features.shape} "
                    f"do not match dataset shape ({self.l_t}, {self.d_t})"
                )
            if r.image_features.shape != (self.l_i, self.d_i):
                raise InputError(
                    f"record {r.record_id}: image features {r.image_features.shape} "
                    f"do not match dataset shape ({self.l_i}, {self.d_i})"
                )

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.intp)


@dataclass(frozen=True)
class SyntheticSpec:
    """Controls for the synthetic feature generator.

    Class signal of magnitude ``signal_strength`` is added on the first
    ceil(D/4) feature columns (positive for fakes, negative for reals) of
    each informative modality; everything else is Gaussian noise. A
    non-informative modality carries the opposite class's signal with
    probability ``conflict_rate``, otherwise pure noise.
    """

    n_samples: int = 4000
    d_t: int = 16
    d_i: int = 12
    l_t: int = 1
    l_i: int = 1
    p_text_signal: float = 0.55
    p_image_signal: float = 0.45
    signal_strength: float = 1.0
    noise_std: float = 0.8
    conflict_rate: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.n_samples < 1:
            raise InputError(f"n_samples must be at least 1, got {self.n_samples}")
        if min(self.d_t, self.d_i, self.l_t, self.l_i) < 1:
            raise InputError("d_t, d_i, l_t, l_i must all be at least 1")
        for name in ("p_text_signal", "p_image_signal", "conflict_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {v}")
        if self.signal_strength <= 0.0:
            raise InputError(f"signal_strength must be positive, got {self.signal_strength}")
        if self.noise_std < 0.0:
            raise InputError(f"noise_std must be non-negative, got {self.noise_std}")


def _signal_columns(d: int) -> int:
    return -(-d // 4)  # ceil(d / 4)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically generate a balanced labelled dataset from a spec."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    n_fake = n // 2
    labels = np.concatenate([np.ones(n_fake, dtype=np.intp), np.zeros(n - n_fake, dtype=np.intp)])
    labels = labels[rng.permutation(n)]

    k_t = _signal_columns(spec.d_t)
    k_i = _signal_columns(spec.d_i)
    records = []
    for i in range(n):
        text_informative = rng.random() < spec.p_text_signal
        image_informative = rng.random() < spec.p_image_signal
        if not (text_informative or image_informative):
            text_informative = image_informative = True
        conflicted = False
        if text_informative != image_informative:
            conflicted = rng.random() < spec.conflict_rate

        label = int(labels[i])
        sign = spec.signal_strength if label == 1 else -spec.signal_strength
        text = rng.normal(0.0, spec.noise_std, (spec.l_t, spec.d_t))
        if text_informative:
            text[:, :k_t] += sign
        elif conflicted:
            text[:, :k_t] -= sign
        image = rng.normal(0.0, spec.noise_std, (spec.l_i, spec.d_i))
        if image_informative:
            image[:, :k_i] += sign
        elif conflicted:
            image[:, :k_i] -= sign

        if text_informative and image_informative:
            provenance = Provenance.BOTH
        elif text_informative:
            provenance = Provenance.TEXT
        else:
            provenance = Provenance.IMAGE
        records.append(
            FeatureRecord(f"syn-{i:06d}", label, text, image, provenance)
        )
    return Dataset(spec.d_t, spec.d_i, spec.l_t, spec.l_i, records)


# -- binary io -----------------------------------------------------------------


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a temp file and rename so failures leave no partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(dataset: Dataset, path) -> None:
    chunks = [
        struct.pack("<4sIQIIII", MAGIC, FORMAT_VERSION, len(dataset.records),
                    dataset.d_t, dataset.d_i, dataset.l_t, dataset.l_i)
    ]
    for r in dataset.records:
        rid = r.record_id.encode("utf-8")
        chunks.append(struct.pack("<I", len(rid)))
        chunks.append(rid)
        chunks.append(struct.pack("<BB", r.label, int(r.provenance)))
        chunks.append(r.text_features.astype("<f8", copy=False).tobytes())
        chunks.append(r.image_features.astype("<f8", copy=False).tobytes())
    atomic_write_bytes(path, b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFileError(
                f"file ends at byte {len(self.buf)} but {self.pos + n} bytes are needed"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load(path) -> Dataset:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic, version = reader.unpack("<4sI")
    if magic != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, got {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    (n_records,) = reader.unpack("<Q")
    d_t, d_i, l_t, l_i = reader.unpack("<IIII")
    if min(d_t, d_i, l_t, l_i) < 1:
        raise InconsistentDimsError(
            f"header dimensions must all be at least 1, got d_t={d_t} d_i={d_i} l_t={l_t} l_i={l_i}"
        )

    records = []
    for idx in range(n_records):
        (id_len,) = reader.unpack("<I")
        try:
            rid = reader.take(id_len).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError(f"record {idx}: id is not valid utf-8") from err
        label, prov = reader.unpack("<BB")
        if label not in (0, 1):
            raise FileFormatError(f"record {idx}: label byte must be 0 or 1, got {label}")
        if prov > 3:
            raise FileFormatError(f"record {idx}: provenance byte must be 0..3, got {prov}")
        text = np.frombuffer(reader.take(8 * l_t * d_t), dtype="<f8").reshape(l_t, d_t).copy()
        image = np.frombuffer(reader.take(8 * l_i * d_i), dtype="<f8").reshape(l_i, d_i).copy()
        if not (np.isfinite(text).all() and np.isfinite(image).all()):
            raise FileFormatError(f"record {idx}: non-finite feature values")
        records.append(FeatureRecord(rid, label, text, image, Provenance(prov)))
    if reader.pos != len(reader.buf):
        raise FileFormatError(f"{len(reader.buf) - reader.pos} trailing bytes after last record")
    return Dataset(d_t, d_i, l_t, l_i, records)


# -- splits and batching -------------------------------------------------------


def split(dataset: Dataset, fractions: tuple[float, float, float], seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified train/val/test split with a seeded shuffle.

    Fractions must be non-negative and sum to 1; a zero fraction yields an
    (allowed) empty split, but a positive fraction that would round to an
    empty split is an error.
    """
    if len(fractions) != 3:
        raise InputError("fractions must be a (train, val, test) triple")
    if any(f < 0.0 for f in fractions):
        raise InputError(f"fractions must be non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {fractions}")
    if not dataset.records:
        raise InputError("cannot split an empty dataset")

    rng = np.random.default_rng(seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for cls in (0, 1):
        idx = np.array([i for i, r in enumerate(dataset.records) if r.label == cls], dtype=np.intp)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        c1 = int(round(fractions[0] * idx.size))
        c2 = int(round((fractions[0] + fractions[1]) * idx.size))
        parts[0].extend(idx[:c1])
        parts[1].extend(idx[c1:c2])
        parts[2].extend(idx[c2:])

    names = ("train", "val", "test")
    out = []
    for name, frac, indices in zip(names, fractions, parts):
        if frac > 0.0 and not indices:
            raise InputError(f"{name} split would be empty with fraction {frac}")
        order = np.array(sorted(indices), dtype=np.intp)
        rng.shuffle(order)
        out.append(Dataset(dataset.d_t, dataset.d_i, dataset.l_t, dataset.l_i,
                           [dataset.records[i] for i in order]))
    return out[0], out[1], out[2]


def batches(dataset: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Seeded permutation of record indices, chunked; the tail batch may be short."""
    if batch_size < 1:
        raise InputError(f"batch_size must be at least 1, got {batch_size}")
    n = len(dataset.records)
    perm = np.random.default_rng(epoch_seed).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]

