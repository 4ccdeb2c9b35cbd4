"""Training loop, AdamW optimizer, and model checkpoints.

Everything is seeded: parameter init comes from the hyper-config, batch
order from the train config, so identical inputs give bitwise identical
checkpoints, alone or in a lockstep of models. Early stopping tracks each
model's best validation F1 (fake positive); its checkpoint holds the best.

Checkpoint format (little-endian), magic ``MMCK``, version 1::

    4s magic | u32 version
    | u32 len + utf-8 hyper-config block (key=value lines, one per field,
      values in the INI config's text form)
    | u32 len + utf-8 train-config block
    | u32 n_params
    | per param: u32 len + utf-8 name | u32 rows | u32 cols | rows*cols f64
    | f64 best validation F1 | u32 best epoch index
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .autodiff import Node, Tape, as_matrix
from .data import ByteReader, Dataset, atomic_write_bytes, batches
from .errors import FileFormatError, InputError, NumericsError, VariantMismatchError
from .evaluation import evaluate
from .fieldtext import field_types, parse_value, render_value
from .model import (
    HyperConfig,
    ModelParams,
    Variant,
    build_logits,
    check_widths,
    feature_stacks,
    init_params,
    lockstep_params,
    parameter_shapes,
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
        if not 0.0 < self.learning_rate < math.inf:
            raise InputError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise InputError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.patience < 0:
            raise InputError(f"patience must be non-negative, got {self.patience}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise InputError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise InputError(f"{name} must be in [0, 1), got {v}")
        if not 0.0 < self.epsilon < math.inf:
            raise InputError(f"epsilon must be positive and finite, got {self.epsilon}")


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


def batch_loss(flat: np.ndarray, hypers: Sequence[HyperConfig], batch: Dataset, *, tape: Tape,
               grad: np.ndarray, live=None) -> Node:
    """Mean cross-entropy of the models in ``live`` (all if None) on a batch, as a
    1 x len(live) node on ``tape`` whose entry j is model ``live[j]``'s; ``flat`` holds
    each hyper-config's parameter vector in turn (``lockstep_params``), and ``grad``
    (laid out like it) gets their gradients. Both ``batch`` and ``grad`` are read only when
    the tape records; a tape that has run backward on this loss is replayed on what the
    recorded batch's arrays now hold."""
    if tape.root is not None:
        return tape.replay()
    x_text, x_image = feature_stacks(tape, hypers[0], batch)
    models, grads = lockstep_params(flat, hypers), lockstep_params(grad, hypers)
    logits = [build_logits(tape, {n: tape.parameter(a, grads[k][n]) for n, a in models[k].items()},
                           hypers[k], x_text, x_image)["logits"]
              for k in (range(len(hypers)) if live is None else live)]
    return tape.cross_entropy_logits(logits, tape.input(batch.labels))


# -- optimizer -------------------------------------------------------------------


class StepRecording(NamedTuple):
    """A train_step tape, what it was recorded from (parameter vector, hyper-configs,
    live models) and the batch whose arrays it reads, which each later step refills."""

    flat: np.ndarray
    hypers: tuple
    live: tuple
    tape: Tape
    batch: Dataset


@dataclass
class OptimizerState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    # train_step's StepRecordings, the gradient their tapes write, adamw_step's scratch
    recordings: dict = field(default_factory=dict, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grad = np.zeros_like(self.first_moment)
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def init_optimizer_state(flat: np.ndarray) -> OptimizerState:
    return OptimizerState(np.zeros_like(flat), np.zeros_like(flat))


def adamw_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState,
               config: TrainConfig) -> None:
    """One AdamW update of the parameter vector ``theta`` in place, with
    decoupled weight decay; ``grad``, both moments and the two scratch vectors
    that take the place of temporaries are laid out like it.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) + lr * weight_decay * theta
    """
    if grad.shape != theta.shape:
        raise InputError(f"gradient has shape {grad.shape}, the parameters {theta.shape}")
    state.step_count += 1
    bc1 = 1.0 - config.beta1 ** state.step_count
    bc2 = 1.0 - config.beta2 ** state.step_count
    m, v, (a, b) = state.first_moment, state.second_moment, state.scratch
    lr, wd = config.learning_rate, config.weight_decay
    m *= config.beta1
    m += np.multiply(1.0 - config.beta1, grad, out=a)
    v *= config.beta2
    v += np.multiply(1.0 - config.beta2, np.multiply(grad, grad, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), config.epsilon, out=a)
    update = np.divide(np.divide(m, bc1, out=b), a, out=b)
    theta -= np.add(np.multiply(lr, update, out=b), np.multiply(lr * wd, theta, out=a), out=b)


def train_step(flat: np.ndarray, hypers: Sequence[HyperConfig], dataset: Dataset, rows,
               state: OptimizerState, config: TrainConfig, live=None) -> list[float] | None:
    """One AdamW step, in place, of the models in ``live`` (all if None) on
    ``dataset``'s records at ``rows``; returns their losses. The vector ``flat``
    holds each hyper-config's parameters in turn (``lockstep_params``); gradients go
    into ``state.grad``, zeroed first: a parameter the loss misses gets zeros.
    A non-finite loss is returned, and a non-finite gradient behind finite
    losses returns None, with nothing updated: the caller reports either. The
    first step at a batch shape records its tape and batch in ``state``; later
    ones gather their rows into that batch in place and replay while given the
    same ``flat``, hypers and live models, else record in its place.
    """
    hypers, live = tuple(hypers), tuple(range(len(hypers)) if live is None else live)
    key = (len(rows), dataset.text.shape[1:], dataset.image.shape[1:])
    recording = state.recordings.get(key)
    if (recording is None or recording.flat is not flat
            or (recording.hypers, recording.live) != (hypers, live)):
        recording = StepRecording(flat, hypers, live, Tape(), dataset.take(rows))
    else:
        for name in ("labels", "text", "image"):  # ids and provenance stay the first batch's
            getattr(dataset, name).take(rows, axis=0, out=getattr(recording.batch, name))
    loss = batch_loss(flat, hypers, recording.batch, tape=recording.tape, grad=state.grad,
                      live=live)
    losses = loss.value[0].tolist()
    if all(map(math.isfinite, losses)):
        state.grad.fill(0.0)
        recording.tape.backward(loss)
        state.recordings[key] = recording
        # a finite sum of squares has no inf or NaN term; only an overflow needs the full scan
        if not math.isfinite(np.dot(state.grad, state.grad)) and not np.isfinite(state.grad).all():
            return None
        adamw_step(flat, state.grad, state, config)
    return losses


# -- training loop ------------------------------------------------------------------


@dataclass
class Checkpoint:
    hyper: HyperConfig
    params: ModelParams
    train_config: TrainConfig
    best_val_f1: float
    best_epoch: int


def _divergence(flat, grad, hypers, live, losses, epoch: int, step: int) -> NumericsError:
    """The error for a step that updated nothing: the first live model with a non-finite
    loss and its first non-finite parameter, or (losses None) with a non-finite gradient."""
    event, what = ("loss diverged", "parameter") if losses else ("gradient not finite", "gradient")
    finite = lockstep_params(np.isfinite(flat if losses else grad), hypers)
    k = (live[int(np.argmin(np.isfinite(losses)))] if losses
         else next(k for k in live if not finite[k].flat.all()))
    bad = [(name, np.argwhere(~ok)[0].tolist()) for name, ok in finite[k].items() if not ok.all()]
    where = f"first non-finite {what} {bad[0][0]}{bad[0][1]}" if bad else f"every {what} is finite"
    return NumericsError(f"variant {hypers[k].variant.value}: {event} at epoch {epoch}, "
                         f"step {step}; {where}")


def train(train_ds: Dataset, val_ds: Dataset, hypers: Sequence[HyperConfig],
          config: TrainConfig) -> tuple[list[Checkpoint], list[dict]]:
    """Train each hyper-config from a fresh init, in lockstep on one batch stream,
    each with the bits it gets alone; returns their best checkpoints and every
    model's epoch history, one model after another. A model stops early, and
    leaves the step, once `patience` consecutive epochs fail to improve its best
    validation F1 by more than F1_IMPROVEMENT_THRESHOLD (patience 0 stops on the
    first non-improving epoch)."""
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise InputError("train and validation splits must both be non-empty")
    for hyper in hypers:
        for ds, name in ((train_ds, "train"), (val_ds, "validation")):
            check_widths(hyper, ds, f"{name} split")

    # the models' vectors in turn, in one vector that AdamW steps at once; each views its slice
    flat = np.concatenate([init_params(h).flat for h in hypers])
    models = lockstep_params(flat, hypers)
    state = init_optimizer_state(flat)
    epoch_seeds = np.random.SeedSequence(config.seed).generate_state(config.max_epochs, np.uint64)

    best = [Checkpoint(h, p.copy(), config, -math.inf, 0) for h, p in zip(hypers, models)]
    histories: list[list[dict]] = [[] for _ in hypers]
    live = list(range(len(hypers)))

    for epoch in range(config.max_epochs):
        if not live:
            break
        epoch_losses = []
        for step, idx in enumerate(batches(train_ds, config.batch_size, int(epoch_seeds[epoch]))):
            losses = train_step(flat, hypers, train_ds, idx, state, config, live)
            if losses is None or not all(map(math.isfinite, losses)):
                raise _divergence(flat, state.grad, hypers, live, losses, epoch, step)
            epoch_losses.append(losses)

        for k, model_losses in zip(list(live), np.array(epoch_losses).T.copy()):
            val = evaluate(models[k], hypers[k], val_ds)
            histories[k].append({
                "epoch": epoch,
                "train_loss": float(np.mean(model_losses)),
                "val_accuracy": val.accuracy,
                "val_precision": val.precision,
                "val_recall": val.recall,
                "val_f1": val.f1,
            })
            if val.f1 > best[k].best_val_f1 + F1_IMPROVEMENT_THRESHOLD:
                best[k] = Checkpoint(hypers[k], models[k].copy(), config, float(val.f1), epoch)
            elif epoch - best[k].best_epoch >= config.patience:  # epoch 0 always gains: F1 >= 0
                live.remove(k)

    return best, [row for history in histories for row in history]


# -- checkpoint io --------------------------------------------------------------------


def _encode_config(obj) -> bytes:
    kinds = field_types(type(obj))
    lines = (f"{name}={render_value(kind, getattr(obj, name))}" for name, kind in kinds.items())
    return "\n".join(lines).encode("utf-8")


def _decode_config(blob: memoryview, cls):
    kinds = field_types(cls)
    kwargs = {}
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError as err:
        raise FileFormatError("config block is not valid utf-8") from err
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in kinds:
            raise FileFormatError(f"unexpected config line {line!r} in checkpoint")
        if key in kwargs:
            raise FileFormatError(f"checkpoint config sets {key} twice")
        try:
            kwargs[key] = parse_value(key, kinds[key], value)
        except InputError as err:
            raise FileFormatError(f"bad value in checkpoint config: {err}") from err
    missing = set(kinds) - set(kwargs)
    if missing:
        raise FileFormatError(f"checkpoint config block is missing keys {sorted(missing)}")
    try:
        return cls(**kwargs)
    except InputError as err:
        raise FileFormatError(f"checkpoint config is invalid: {err}") from err


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    hyper_block = _encode_config(checkpoint.hyper)
    train_block = _encode_config(checkpoint.train_config)
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


def load_checkpoint(path, expected_variant: Variant | None = None) -> Checkpoint:
    """Read a checkpoint into one fresh parameter vector. Its parameters as read must be
    finite and be the hyper-config's, by name, in order, and shape (else FileFormatError),
    and its variant ``expected_variant`` if that is given (else VariantMismatchError)."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read(), "checkpoint")
    magic, version = reader.unpack("<4sI")
    if magic != CHECKPOINT_MAGIC:
        raise FileFormatError(f"expected magic {CHECKPOINT_MAGIC!r}, got {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(f"unsupported checkpoint version {version}")

    (hyper_len,) = reader.unpack("<I")
    hyper = _decode_config(reader.take(hyper_len), HyperConfig)
    (train_len,) = reader.unpack("<I")
    train_config = _decode_config(reader.take(train_len), TrainConfig)
    if expected_variant is not None and hyper.variant is not Variant(expected_variant):
        raise VariantMismatchError(
            f"checkpoint holds variant {hyper.variant.value!r}, expected {Variant(expected_variant).value!r}"
        )

    (n_params,) = reader.unpack("<I")
    entries = []  # (name, values) as read, a repeated name too
    for _ in range(n_params):
        (name_len,) = reader.unpack("<I")
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError("parameter name is not valid utf-8") from err
        rows, cols = reader.unpack("<II")
        if rows < 1 or cols < 1:
            raise FileFormatError(f"parameter {name}: shape ({rows}, {cols}) is invalid")
        values = np.frombuffer(reader.take(8 * rows * cols), dtype="<f8").reshape(rows, cols)
        entries.append((name, values))
    (best_f1,) = reader.unpack("<d")
    (best_epoch,) = reader.unpack("<I")
    if reader.pos != len(reader.buf):
        raise FileFormatError(f"{len(reader.buf) - reader.pos} trailing bytes after checkpoint")

    shapes = parameter_shapes(hyper)
    try:
        for name, values in entries:
            as_matrix(values, name=name)  # refuses a non-finite entry
        names = tuple(name for name, _ in entries)
        if names != tuple(shapes):
            raise InputError(f"parameter names {names} do not match variant "
                             f"{hyper.variant.value} (expected {tuple(shapes)})")
        for name, values in entries:
            if values.shape != shapes[name]:
                raise InputError(f"parameter {name} has shape {values.shape}, "
                                 f"expected {shapes[name]}")
    except InputError as err:
        raise FileFormatError(f"checkpoint parameters are inconsistent: {err}") from err
    params = ModelParams(np.concatenate([values.ravel() for _, values in entries]), shapes)
    return Checkpoint(hyper, params, train_config, best_f1, best_epoch)
