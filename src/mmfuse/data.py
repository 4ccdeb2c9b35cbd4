"""Feature datasets: synthetic generation, binary file io, splits.

A ``Dataset`` holds its n records as columns: ``ids`` (n strings),
``labels`` (n,) with 1 = fake and 0 = real, ``provenance`` (n,) saying
which modality carries class signal, and the per-modality feature
sequences as two float64 stacks, ``text`` (n, L_t, d_t) and ``image``
(n, L_i, d_i). Loading, splitting, batching, perturbing and the forward
passes all work on these arrays rather than on one object per record.
``load`` proves a file's fixed record stride with one comparison, decodes
the ids as one block and gathers each column at once; it walks the records
one by one only when the ids differ in byte length or the block fails.

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
from array import array
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import FileFormatError, InputError

MAGIC = b"MMFN"
FORMAT_VERSION = 1


class Provenance(IntEnum):
    """Which modality was given class-dependent signal."""

    UNKNOWN = 0
    TEXT = 1
    IMAGE = 2
    BOTH = 3


@dataclass(frozen=True, eq=False)
class Dataset:
    """n records as columns; every record shares one sequence shape per modality."""

    ids: tuple[str, ...]
    labels: np.ndarray  # (n,) intp, 1 = fake
    provenance: np.ndarray  # (n,) intp wire codes
    text: np.ndarray  # (n, L_t, d_t) float64
    image: np.ndarray  # (n, L_i, d_i) float64

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name, dtype in (("labels", np.intp), ("provenance", np.intp),
                            ("text", np.float64), ("image", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.ids)
        for name in ("labels", "provenance"):
            if getattr(self, name).shape != (n,):
                raise InputError(f"{name} must have shape ({n},), got {getattr(self, name).shape}")
        for name in ("text", "image"):
            shape = getattr(self, name).shape
            if len(shape) != 3 or shape[0] != n or min(shape[1:]) < 1:
                raise InputError(f"{name} must be an ({n}, L, d) stack with L, d >= 1, got shape {shape}")
        labels, provenance, text, image = self.labels, self.provenance, self.text, self.image
        bad_code = (labels < 0) | (labels > 1) | (provenance < 0) | (provenance > 3)
        if bad_code.any() or not (np.isfinite(text).all() and np.isfinite(image).all()):
            finite = np.isfinite(text).all(axis=(1, 2)) & np.isfinite(image).all(axis=(1, 2))
            i = int((bad_code | ~finite).argmax())  # the first bad record, for any reason
            if labels[i] not in (0, 1):
                reason = f"label must be 0 or 1, got {labels[i]}"
            elif not 0 <= provenance[i] <= 3:
                reason = f"provenance must be 0..3, got {provenance[i]}"
            else:
                reason = "non-finite feature values"
            raise InputError(f"record {i}: {reason}")

    @property
    def d_t(self) -> int:
        return self.text.shape[2]

    @property
    def d_i(self) -> int:
        return self.image.shape[2]

    @property
    def l_t(self) -> int:
        return self.text.shape[1]

    @property
    def l_i(self) -> int:
        return self.image.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> "Dataset":
        """The records at the given positions, in that order, as a new dataset.

        Rows of a valid dataset are valid, so the checks are not rerun:
        train_step takes its first batch of each shape this way.
        """
        index = np.asarray(index, dtype=np.intp)
        rows = object.__new__(Dataset)
        rows.__dict__.update(ids=tuple(self.ids[i] for i in index.tolist()),
                             labels=self.labels[index], provenance=self.provenance[index],
                             text=self.text[index], image=self.image[index])
        return rows


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

    def __post_init__(self):
        if self.n_samples < 1:
            raise InputError(f"n_samples must be at least 1, got {self.n_samples}")
        if min(self.d_t, self.d_i, self.l_t, self.l_i) < 1:
            raise InputError("d_t, d_i, l_t, l_i must all be at least 1")
        record_bytes = 8 * (self.l_t * self.d_t + self.l_i * self.d_i)
        if self.n_samples * record_bytes > np.iinfo(np.intp).max:  # the loader's header rule
            raise InputError(
                f"n_samples={self.n_samples} records of {record_bytes} feature bytes "
                f"are more than an array can hold"
            )
        for name in ("p_text_signal", "p_image_signal", "conflict_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 < self.signal_strength < np.inf:
            raise InputError(f"signal_strength must be positive and finite, got {self.signal_strength}")
        if not 0.0 <= self.noise_std < np.inf:
            raise InputError(f"noise_std must be non-negative and finite, got {self.noise_std}")


# By a record's flags (1 text informative, 2 image informative, 4 conflicted): its text and
# image signal signs (+1 informative, -1 conflicted) and its provenance. Lookups, not bit
# tests: they page in no numpy loop that scoring does not already run.
_SIGNAL_SIGNS = np.array([[0, 1, 0, 1, 0, 1, -1, 0], [0, 0, 1, 1, 0, -1, 1, 0]], dtype=np.float64)
_PROVENANCE_CODES = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.intp)


def _signal_columns(d: int) -> int:
    return -(-d // 4)  # ceil(d / 4)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically generate a balanced labelled dataset from a spec.

    Per record, the loop only draws: the text uniform, the image uniform, the conflict
    uniform when exactly one side is informative, the text normals, the image normals.
    After each block of records, array steps compute ``0.0 + noise_std * z`` as
    ``Generator.normal`` does (no -0.0 is left, so adding a zero signal is exact) and add
    the signal; block-sized temporaries keep the process's memory at the dataset's."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    n_fake = n // 2
    labels = np.concatenate([np.ones(n_fake, dtype=np.intp), np.zeros(n - n_fake, dtype=np.intp)])
    labels = labels[rng.permutation(n)]

    text = np.empty((n, spec.l_t, spec.d_t))
    image = np.empty((n, spec.l_i, spec.d_i))
    provenance = np.empty(n, dtype=np.intp)
    w, block = spec.l_t * spec.d_t, min(n, 256)
    scratch = np.empty((block, w + spec.l_i * spec.d_i))  # one row of normals per record
    rows = list(scratch)
    flags = bytearray(block)  # per record: 1 text informative, 2 image informative, 4 conflicted
    uniform, normal = rng.random, rng.standard_normal
    for start in range(0, n, block):
        stop = min(start + block, n)
        for j in range(stop - start):
            t, m = uniform() < spec.p_text_signal, uniform() < spec.p_image_signal
            # neither side informative makes both informative, with no conflict draw
            flags[j] = t | m << 1 | (uniform() < spec.conflict_rate) << 2 if t != m else 3
            normal(out=rows[j])
        drawn = scratch[:stop - start]
        drawn *= spec.noise_std
        drawn += 0.0
        codes = np.frombuffer(flags, np.uint8, stop - start).astype(np.intp)
        sign = np.where(labels[start:stop] == 1, spec.signal_strength, -spec.signal_strength)
        for x, fresh, signs in zip((text, image), (drawn[:, :w], drawn[:, w:]), _SIGNAL_SIGNS):
            x.reshape(n, -1)[start:stop] = fresh
            x[start:stop, :, :_signal_columns(x.shape[2])] += (sign * signs[codes])[:, None, None]
        provenance[start:stop] = _PROVENANCE_CODES[codes]
    del scratch, rows, drawn, fresh, codes, sign  # freed before the checks, where the peak is
    ids = tuple(f"syn-{i:06d}" for i in range(n))
    return Dataset(ids, labels, provenance, text, image)


# -- binary io -----------------------------------------------------------------


def atomic_write_bytes(path, payload: bytes | np.ndarray) -> None:
    """Write bytes, or a ``uint8`` buffer, via a temp file and rename so
    failures leave no partial file."""
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


class ByteReader:
    """Bounds-checked reads from a file's bytes, advancing ``pos``; ``what``
    names the file in the truncation error."""

    def __init__(self, data: bytes, what: str):
        self.buf = memoryview(data)
        self.what = what
        self.pos = 0

    def need(self, end: int) -> None:
        """Refuse a read that would end past the last byte."""
        if end > len(self.buf):
            raise FileFormatError(
                f"{self.what} ends at byte {len(self.buf)} but {end} bytes are needed")

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        self.need(end)
        out = self.buf[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


_HEADER = struct.Struct("<4sIQIIII")


def _rows(buf: bytes | np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte run of a buffer as ``uint8`` rows, row k starting at byte k."""
    return np.ndarray((max(len(buf) - width + 1, 0), width), np.uint8, buf, strides=(1, 1))


def save(dataset: Dataset, path) -> None:
    """Build the file in one ``uint8`` buffer of its exact size, then write it.
    The ids are encoded as one block; every record's offsets follow from the
    id byte lengths, and each column lands at its records' offsets through a
    strided view, as ``load`` gathers them: the id lengths and bytes, the
    codes, the text block and the image block."""
    n, ids = len(dataset), dataset.ids
    text_bytes, image_bytes = 8 * dataset.l_t * dataset.d_t, 8 * dataset.l_i * dataset.d_i
    tail = 2 + text_bytes + image_bytes
    block = np.frombuffer("".join(ids).encode("utf-8"), np.uint8)
    lengths = np.fromiter((len(rid.encode("utf-8")) for rid in ids), np.int64, n)
    id_ends = np.cumsum(lengths)  # where each id ends in the block
    # where each record's tail starts: the header, k + 1 length fields and k tails precede it
    tails = _HEADER.size + id_ends + 4 * np.arange(1, n + 1) + tail * np.arange(n)
    buf = np.empty(_HEADER.size + 4 * n + len(block) + tail * n, np.uint8)
    buf[:_HEADER.size] = np.frombuffer(_HEADER.pack(
        MAGIC, FORMAT_VERSION, n, dataset.d_t, dataset.d_i, dataset.l_t, dataset.l_i), np.uint8)
    _rows(buf, 4)[tails - lengths - 4] = lengths.astype("<u4").view(np.uint8).reshape(n, 4)
    for width in np.flatnonzero(np.bincount(lengths)[1:]) + 1:  # each id byte length but 0
        at = lengths == width
        _rows(buf, width)[tails[at] - width] = _rows(block, width)[id_ends[at] - width]
    records = _rows(buf, tail)
    records[tails, 0], records[tails, 1] = dataset.labels, dataset.provenance
    for start, width, stack in ((2, text_bytes, dataset.text),
                                (2 + text_bytes, image_bytes, dataset.image)):
        values = stack.astype("<f8", copy=False).reshape(n, width // 8)
        records[tails, start:start + width] = values.view(np.uint8)
    atomic_write_bytes(path, buf)


def _fixed_stride_ids(data: bytes, pos: int, n: int, tail: int):
    """The ids and tail offsets of n >= 1 records from ``pos``, or None. The
    first id's length and the file size fix a stride; an id length equal to
    the first at every predicted record start proves each start by induction.
    The ids decode as one newline-joined block unless one is not utf-8 or
    holds a newline, and then the walk reads the file."""
    id_len = int.from_bytes(data[pos:pos + 4], "little")
    stride = 4 + id_len + tail
    if pos + n * stride != len(data) or (np.ndarray(n, "<u4", data, pos, (stride,)) != id_len).any():
        return None
    lines = np.full((n, id_len + 1), ord("\n"), np.uint8)
    lines[:, :id_len] = np.ndarray((n, id_len), np.uint8, data, pos + 4, (stride, 1))
    try:
        ids = lines.tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    # n ids and the empty string after the last newline, unless an id holds one
    return (ids[:-1], np.arange(pos + 4 + id_len, len(data), stride)) if len(ids) == n + 1 else None


def _walk_ids(data: bytes, pos: int, n: int, tail: int, need):
    """The ids and tail offsets of n records from ``pos``, one record at a
    time; every error names its record or byte count."""
    size, id_len_at = len(data), struct.Struct("<I").unpack_from
    ids, starts = [], array("q")  # packed int64 offsets, not one int object per record
    for k in range(n):
        if pos + 4 > size:
            need(pos + 4)
        (id_len,) = id_len_at(data, pos)
        start = pos + 4 + id_len
        pos = start + tail
        if pos > size:
            need(pos)
        try:
            ids.append(data[start - id_len:start].decode("utf-8"))
        except UnicodeDecodeError as err:
            raise FileFormatError(f"record {k}: id is not valid utf-8") from err
        starts.append(start)
    if pos != size:
        raise FileFormatError(f"{size - pos} trailing bytes after last record")
    return ids, np.frombuffer(starts, np.int64)


def load(path) -> Dataset:
    """Read a feature file in two phases. Every record ends in a tail of one
    size: label, provenance, features. Phase 1 finds the ids and where each
    tail starts, from strided views when every id has one byte length
    (``_fixed_stride_ids``), else by walking the records, which raises every
    format error. Phase 2 views the file as one tail-sized ``uint8`` row at
    every byte offset and gathers the codes and the two feature stacks with
    one fancy index each, so every column is one fresh copy."""
    with open(path, "rb") as fh:
        data = fh.read()
    reader = ByteReader(data, "file")
    magic, version = reader.unpack("<4sI")
    if magic != MAGIC:
        raise FileFormatError(f"expected magic {MAGIC!r}, got {magic!r}")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format version {version}")
    n, d_t, d_i, l_t, l_i = reader.unpack("<QIIII")  # the rest of _HEADER
    text_bytes, image_bytes = 8 * l_t * d_t, 8 * l_i * d_i
    if min(d_t, d_i, l_t, l_i) < 1 or text_bytes + image_bytes > np.iinfo(np.intp).max:
        raise FileFormatError(
            f"header dimensions must all be at least 1 and give an addressable record, "
            f"got d_t={d_t} d_i={d_i} l_t={l_t} l_i={l_i}"
        )
    # every record holds at least its fixed fields and its features, so a
    # count the file cannot hold is refused before anything is allocated
    tail, pos = 2 + text_bytes + image_bytes, reader.pos
    reader.need(pos + n * (4 + tail))
    ids, starts = ((n and _fixed_stride_ids(data, pos, n, tail))
                   or _walk_ids(data, pos, n, tail, reader.need))

    window = _rows(data, tail)  # no rows when a wide header's tail is longer than the file
    codes = window[starts, :2]
    try:
        return Dataset(tuple(ids), codes[:, 0], codes[:, 1],
                       window[starts, 2:2 + text_bytes].view("<f8").reshape(n, l_t, d_t),
                       window[starts, 2 + text_bytes:].view("<f8").reshape(n, l_i, d_i))
    except InputError as err:
        raise FileFormatError(str(err)) from err


# -- splits and batching -------------------------------------------------------


def split(dataset: Dataset, fractions: tuple[float, float, float], seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified train/val/test split with a seeded shuffle.

    Fractions must be non-negative and sum to 1; a zero fraction yields an
    (allowed) empty split, but a positive fraction that would round to an
    empty split is an error.
    """
    if len(fractions) != 3:
        raise InputError("fractions must be a (train, val, test) triple")
    if not all(f >= 0.0 for f in fractions):  # NaN fails both checks, as it must
        raise InputError(f"fractions must be non-negative, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise InputError(f"fractions must sum to 1, got {fractions}")
    if len(dataset) == 0:
        raise InputError("cannot split an empty dataset")

    rng = np.random.default_rng(seed)
    parts: tuple[list, list, list] = ([], [], [])
    for cls in (0, 1):
        idx = np.flatnonzero(dataset.labels == cls)  # an absent class shuffles with no draw
        rng.shuffle(idx)
        c1 = int(round(fractions[0] * idx.size))
        c2 = int(round((fractions[0] + fractions[1]) * idx.size))
        parts[0].append(idx[:c1])
        parts[1].append(idx[c1:c2])
        parts[2].append(idx[c2:])

    names = ("train", "val", "test")
    out = []
    for name, frac, chunks in zip(names, fractions, parts):
        order = np.sort(np.concatenate(chunks))
        if frac > 0.0 and order.size == 0:
            raise InputError(f"{name} split would be empty with fraction {frac}")
        rng.shuffle(order)
        out.append(dataset.take(order))
    return out[0], out[1], out[2]


def batches(dataset: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Seeded permutation of record indices, chunked; the tail batch may be short."""
    if batch_size < 1:
        raise InputError(f"batch_size must be at least 1, got {batch_size}")
    n = len(dataset)
    perm = np.random.default_rng(epoch_seed).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
