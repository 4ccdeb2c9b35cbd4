"""Training loop, AdamW optimizer, and model checkpoints.

Everything is seeded: parameter init comes from the hyper-config, batch
order from the train config, so identical inputs give bitwise identical
checkpoints. Early stopping tracks the best validation F1 (fake class as
positive) and the returned checkpoint always holds the best parameters.

Checkpoint format (little-endian), magic ``MMCK``, version 1::

    4s magic | u32 version
    | u32 len + utf-8 hyper-config block (key=value lines)
    | u32 len + utf-8 train-config block
    | u32 n_params
    | per param: u32 len + utf-8 name | u32 rows | u32 cols | rows*cols f64
    | f64 best validation F1 | u32 best epoch index
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Node, Tape
from .data import Dataset, atomic_write_bytes, batches
from .errors import (
    BadMagicError,
    FileFormatError,
    InputError,
    NumericsError,
    TruncatedFileError,
    VariantMismatchError,
    VersionMismatchError,
)
from .model import (
    HyperConfig,
    ModelParams,
    Variant,
    build_logits,
    check_params_match,
    init_params,
    register_parameters,
    stack_batch,
)

CHECKPOINT_MAGIC = b"MMCK"
CHECKPOINT_VERSION = 1

# minimum gain in validation F1 that counts as an improvement
F1_IMPROVEMENT_THRESHOLD = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise InputError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise InputError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.patience < 0:
            raise InputError(f"patience must be non-negative, got {self.patience}")
        if self.weight_decay < 0.0:
            raise InputError(f"weight_decay must be non-negative, got {self.weight_decay}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise InputError(f"{name} must be in [0, 1), got {v}")
        if self.epsilon <= 0.0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")


# named hyperparameter bundles selectable from the CLI; "paper-protocol"
# pins the originally published training recipe
PRESETS: dict[str, dict] = {
    "paper-protocol": {"learning_rate": 1e-5, "batch_size": 32, "max_epochs": 10},
}


def apply_preset(config: TrainConfig, preset: str) -> TrainConfig:
    if preset not in PRESETS:
        raise InputError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
    return replace(config, **PRESETS[preset])


# -- loss -----------------------------------------------------------------------


def batch_loss(params: ModelParams, hyper: HyperConfig, records,
               *, tape: Tape | None = None, param_nodes=None) -> Node:
    """Mean cross-entropy of a record batch as a 1x1 graph node.

    Pass a tape plus the nodes from register_parameters to read gradients
    back out after Tape.backward; otherwise a private tape is used.
    """
    records = list(records)
    x_t, x_i = stack_batch(hyper, records)
    if tape is None:
        tape = Tape()
    if param_nodes is None:
        param_nodes = register_parameters(tape, params)
    nodes = build_logits(tape, param_nodes, hyper,
                         tape.constant(x_t, name="text_features"),
                         tape.constant(x_i, name="image_features"))
    return tape.cross_entropy_logits(nodes["logits"], [r.label for r in records])


# -- optimizer -------------------------------------------------------------------


@dataclass
class OptimizerState:
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int = 0


def init_optimizer_state(params: ModelParams) -> OptimizerState:
    return OptimizerState(
        first_moment={name: np.zeros_like(arr) for name, arr in params.items()},
        second_moment={name: np.zeros_like(arr) for name, arr in params.items()},
    )


def adamw_step(params: ModelParams, grads, state: OptimizerState, config: TrainConfig) -> None:
    """One AdamW update in place, with decoupled weight decay.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) + lr * weight_decay * theta
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    for name, theta in params.items():
        if name not in grads:
            raise InputError(f"gradient for parameter {name} is missing")
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
        theta -= config.learning_rate * update + config.learning_rate * config.weight_decay * theta


# -- training loop ------------------------------------------------------------------


@dataclass
class Checkpoint:
    hyper: HyperConfig
    params: ModelParams
    train_config: TrainConfig
    best_val_f1: float
    best_epoch: int


def train(train_ds: Dataset, val_ds: Dataset, hyper: HyperConfig,
          config: TrainConfig) -> tuple[Checkpoint, list[dict]]:
    """Train from a fresh init; returns the best checkpoint and epoch history.

    Stops early once `patience` consecutive epochs fail to improve the best
    validation F1 by more than F1_IMPROVEMENT_THRESHOLD (patience 0 stops
    on the first non-improving epoch).
    """
    from .evaluation import evaluate  # local import; evaluation also stands alone

    if not train_ds.records or not val_ds.records:
        raise InputError("train and validation splits must both be non-empty")
    for ds, name in ((train_ds, "train"), (val_ds, "validation")):
        if (ds.d_t, ds.d_i) != (hyper.d_t, hyper.d_i):
            raise InputError(
                f"{name} split dims (d_t={ds.d_t}, d_i={ds.d_i}) do not match "
                f"model (d_t={hyper.d_t}, d_i={hyper.d_i})"
            )

    params = init_params(hyper)
    state = init_optimizer_state(params)
    epoch_seeds = np.random.SeedSequence(config.seed).generate_state(config.max_epochs, np.uint64)

    best_params = params.copy()
    best_f1 = -math.inf
    best_epoch = 0
    bad_streak = 0
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        epoch_losses = []
        for step, idx in enumerate(batches(train_ds, config.batch_size, int(epoch_seeds[epoch]))):
            batch = [train_ds.records[i] for i in idx]
            tape = Tape()
            param_nodes = register_parameters(tape, params)
            loss = batch_loss(params, hyper, batch, tape=tape, param_nodes=param_nodes)
            value = float(loss.value[0, 0])
            if not math.isfinite(value):
                raise NumericsError(f"loss diverged at epoch {epoch}, step {step}")
            tape.backward(loss)
            grads = {
                name: (node.grad if node.grad is not None else np.zeros_like(params[name]))
                for name, node in param_nodes.items()
            }
            adamw_step(params, grads, state, config)
            epoch_losses.append(value)

        val = evaluate(params, hyper, val_ds)
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_accuracy": val.accuracy,
            "val_precision": val.precision,
            "val_recall": val.recall,
            "val_f1": val.f1,
        })
        if val.f1 > best_f1 + F1_IMPROVEMENT_THRESHOLD:
            best_params = params.copy()
            best_f1 = val.f1
            best_epoch = epoch
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= max(config.patience, 1):
                break

    checkpoint = Checkpoint(hyper, best_params, config, float(best_f1), best_epoch)
    return checkpoint, history


# -- checkpoint io --------------------------------------------------------------------


_HYPER_FIELDS = {
    "d_t": int, "d_i": int, "d_c": int, "d_k": int, "gate_hidden": int,
    "cls_hidden": int, "variant": Variant, "init_scale": float, "init_seed": int,
}
_TRAIN_FIELDS = {
    "learning_rate": float, "batch_size": int, "max_epochs": int, "patience": int,
    "weight_decay": float, "beta1": float, "beta2": float, "epsilon": float, "seed": int,
}


def _encode_config(obj, fields) -> bytes:
    lines = []
    for name, kind in fields.items():
        value = getattr(obj, name)
        lines.append(f"{name}={value.value if kind is Variant else repr(kind(value))}")
    return "\n".join(lines).encode("utf-8")


def _decode_config(blob: bytes, fields, cls):
    kwargs = {}
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise FileFormatError("config block is not valid utf-8") from err
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in fields:
            raise FileFormatError(f"unexpected config line {line!r} in checkpoint")
        kind = fields[key]
        try:
            kwargs[key] = Variant(value) if kind is Variant else kind(value)
        except (ValueError, KeyError) as err:
            raise FileFormatError(f"bad value for {key!r} in checkpoint: {value!r}") from err
    missing = set(fields) - set(kwargs)
    if missing:
        raise FileFormatError(f"checkpoint config block is missing keys {sorted(missing)}")
    try:
        return cls(**kwargs)
    except InputError as err:
        raise FileFormatError(f"checkpoint config is invalid: {err}") from err


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    hyper_block = _encode_config(checkpoint.hyper, _HYPER_FIELDS)
    train_block = _encode_config(checkpoint.train_config, _TRAIN_FIELDS)
    chunks = [
        struct.pack("<4sI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
        struct.pack("<I", len(hyper_block)), hyper_block,
        struct.pack("<I", len(train_block)), train_block,
        struct.pack("<I", len(checkpoint.params)),
    ]
    for name, arr in checkpoint.params.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<II", arr.shape[0], arr.shape[1]))
        chunks.append(arr.astype("<f8", copy=False).tobytes())
    chunks.append(struct.pack("<d", checkpoint.best_val_f1))
    chunks.append(struct.pack("<I", checkpoint.best_epoch))
    atomic_write_bytes(path, b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFileError(
                f"checkpoint ends at byte {len(self.buf)} but {self.pos + n} bytes are needed"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path, expected_variant: Variant | None = None) -> Checkpoint:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic, version = reader.unpack("<4sI")
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(f"expected magic {CHECKPOINT_MAGIC!r}, got {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"unsupported checkpoint version {version}")

    (hyper_len,) = reader.unpack("<I")
    hyper = _decode_config(reader.take(hyper_len), _HYPER_FIELDS, HyperConfig)
    (train_len,) = reader.unpack("<I")
    train_config = _decode_config(reader.take(train_len), _TRAIN_FIELDS, TrainConfig)
    if expected_variant is not None and hyper.variant is not Variant(expected_variant):
        raise VariantMismatchError(
            f"checkpoint holds variant {hyper.variant.value!r}, expected {Variant(expected_variant).value!r}"
        )

    (n_params,) = reader.unpack("<I")
    entries = []
    for _ in range(n_params):
        (name_len,) = reader.unpack("<I")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError("parameter name is not valid utf-8") from err
        rows, cols = reader.unpack("<II")
        if rows < 1 or cols < 1:
            raise FileFormatError(f"parameter {name}: shape ({rows}, {cols}) is invalid")
        values = np.frombuffer(reader.take(8 * rows * cols), dtype="<f8").reshape(rows, cols).copy()
        entries.append((name, values))
    (best_f1,) = reader.unpack("<d")
    (best_epoch,) = reader.unpack("<I")
    if reader.pos != len(reader.buf):
        raise FileFormatError(f"{len(reader.buf) - reader.pos} trailing bytes after checkpoint")

    try:
        params = ModelParams(entries)
        check_params_match(params, hyper)
    except InputError as err:
        raise FileFormatError(f"checkpoint parameters are inconsistent: {err}") from err
    return Checkpoint(hyper, params, train_config, best_f1, best_epoch)
