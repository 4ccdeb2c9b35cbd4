"""Oracles and stage views that only the tests use.

The stage views run package code (``model._forward_nodes``,
``model._attend``, ``model.build_logits``, ``Tape._record``), so the tests
that call them still check what the package computes.
``reference_file_bytes`` is the record-by-record feature writer that
``data.save`` replaced, and ``reference_synthetic`` the record-by-record
generator that ``data.generate_synthetic`` replaced.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from mmfuse import model
from mmfuse.autodiff import Node, Tape, _give, as_matrix
from mmfuse.data import (_HEADER, FORMAT_VERSION, MAGIC, Dataset, Provenance, SyntheticSpec,
                         _signal_columns)
from mmfuse.errors import InputError, UsageError
from mmfuse.model import HyperConfig, ModelParams
from mmfuse.training import batch_loss

Array = np.ndarray


def finite_difference_check(
    f: Callable[[Mapping[str, Array]], float],
    params: Mapping[str, Array],
    analytic: Mapping[str, Array],
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients against central differences of f.

    Perturbs each parameter entry in place (restoring it afterwards) and
    returns the worst relative error, measured as
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if step <= 0.0:
        raise InputError("step must be positive")
    worst = 0.0
    for name, theta in params.items():
        grad = np.asarray(analytic[name]).reshape(-1)
        flat = theta.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f(params)
            flat[i] = orig - step
            f_minus = f(params)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(grad[i] - numeric) / max(1e-8, abs(grad[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst


def sum_all(tape: Tape, a: Node) -> Node:
    """Sum of all entries: m x n -> 1 x 1."""
    tape._own(a)
    return tape._record((1, 1), "sum_all", (a,), lambda out: np.copyto(out, a.value.sum()),
                        lambda g, out: _give(a, np.full_like(a.value, g[0, 0])))


def reference_cross_entropy(logits: Array, labels: Array) -> tuple[np.float64, Array]:
    """One m x 2 logits matrix's mean cross-entropy and its gradient, (softmax - onehot)
    / m, in plain numpy: the formulas of the one-node ``cross_entropy_logits`` that
    the K-node op replaced, which gives each node these bytes."""
    m, rows = len(logits), np.arange(len(logits))
    z = logits - np.maximum(logits[:, 0], logits[:, 1]).reshape(m, 1)
    e = np.exp(z)
    sum_e = np.add(e[:, 0], e[:, 1]).reshape(m, 1)
    log_probs = z - np.log(sum_e)
    grad = (e / sum_e) * (1.0 / m)
    grad[rows, labels] -= 1.0 / m
    return -(np.add.reduce(log_probs[rows, labels]) / m), grad


def loss_and_grads(params: ModelParams, hyper: HyperConfig, batch: Dataset):
    """The batch loss and every parameter's gradient, zeros where the loss does not reach."""
    tape, grad = Tape(), np.zeros_like(params.flat)
    loss = batch_loss(params, [hyper], batch, tape=tape, grad=grad)
    tape.backward(loss)
    return loss.value[0, 0], params.views(grad)


def input_leaves(tape: Tape, params: ModelParams) -> dict[str, Node]:
    """Every parameter on a tape as an input leaf, for probes that need only values:
    no op on them needs a gradient, so the tape keeps none."""
    return {name: tape.input(arr) for name, arr in params.items()}


def loss_value(params: ModelParams, hyper: HyperConfig, batch: Dataset) -> Node:
    """The batch loss as a value alone: ``batch_loss``'s graph on a fresh tape,
    whose parameters are input leaves, so it keeps no op."""
    tape = Tape()
    x_text, x_image = model.feature_stacks(tape, hyper, batch)
    labels = tape.input(batch.labels)
    nodes = model.build_logits(tape, input_leaves(tape, params), hyper, x_text, x_image)
    return tape.cross_entropy_logits([nodes["logits"]], labels)


def set_param(params: ModelParams, name: str, values) -> None:
    """Overwrite an existing parameter with same-shape values."""
    current = params[name]
    arr = as_matrix(values, name=name)
    if arr.shape != current.shape:
        raise InputError(f"parameter {name} has shape {current.shape}, got {arr.shape}")
    current[...] = arr


def pin_gates(params: ModelParams) -> ModelParams:
    """A copy whose gates are exactly 1.0 for every input: zero output
    weights and a bias of 40, so the model's own sigmoid computes
    0.5 * (1 + tanh(20)), which is 1.0 in float64."""
    pinned = params.copy()
    for side in ("text", "image"):
        pinned[f"gate_w_{side}"][...] = 0.0
        pinned[f"gate_b_{side}"][...] = 40.0
    return pinned


@dataclass
class ForwardTrace:
    """Intermediate values of one record's forward pass (None where the
    variant has no such stage)."""

    logits: Array
    projected_text: Array | None = None
    projected_image: Array | None = None
    attended_text: Array | None = None
    attended_image: Array | None = None
    alpha_text: float | None = None
    alpha_image: float | None = None
    fused: Array | None = None


def forward(params: ModelParams, config: HyperConfig, record: Dataset) -> ForwardTrace:
    """Run a one-record dataset, as a batch of one, and capture the trace."""
    if len(record) != 1:
        raise InputError(f"forward takes a one-record dataset, got {len(record)} records")
    nodes = model._forward_nodes(params, config, record)

    def first(key):
        return nodes[key].value[0] if key in nodes else None

    def alpha(key):
        return float(nodes[key].value[0, 0]) if key in nodes else None

    stages = ("projected_text", "projected_image", "attended_text", "attended_image")
    return ForwardTrace(logits=nodes["logits"].value, fused=nodes["fused"].value,
                        alpha_text=alpha("alpha_text"), alpha_image=alpha("alpha_image"),
                        **{key: first(key) for key in stages})


def cross_attend(params: ModelParams, h_text, h_image, d_k: int) -> tuple[Array, Array]:
    """Bi-directional cross-attention with residuals over one record's
    projected sequences (run as a batch of one)."""
    missing = [n for n in model._ATTENTION_NAMES if n not in params.names]
    if missing:
        raise UsageError(f"params are missing {missing}; wrong variant for this operation")
    tape = Tape()
    pn = input_leaves(tape, params)
    att_t, att_i = model._attend(tape, pn,
                                 tape.constant(as_matrix(h_text, name="h_text")[None], name="h_text"),
                                 tape.constant(as_matrix(h_image, name="h_image")[None], name="h_image"),
                                 d_k)
    return att_t.value[0], att_i.value[0]


def reference_file_bytes(dataset: Dataset) -> bytes:
    """A feature file's bytes written record by record, one ``struct.pack``
    per field: the writer ``data.save`` replaced, kept as its oracle."""
    n = len(dataset)
    text, image = dataset.text.astype("<f8", copy=False), dataset.image.astype("<f8", copy=False)
    chunks = [_HEADER.pack(MAGIC, FORMAT_VERSION, n, dataset.d_t, dataset.d_i,
                           dataset.l_t, dataset.l_i)]
    labels, provenance = dataset.labels.tolist(), dataset.provenance.tolist()
    for i, rid in enumerate(dataset.ids):
        encoded = rid.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)) + encoded
                      + struct.pack("<BB", labels[i], provenance[i]))
        chunks.append(text[i].tobytes())
        chunks.append(image[i].tobytes())
    return b"".join(chunks)


def reference_synthetic(spec: SyntheticSpec) -> Dataset:
    """A synthetic dataset built record by record, each record's arithmetic
    beside its draws: the generator ``data.generate_synthetic`` replaced,
    kept as its oracle."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    n_fake = n // 2
    labels = np.concatenate([np.ones(n_fake, dtype=np.intp), np.zeros(n - n_fake, dtype=np.intp)])
    labels = labels[rng.permutation(n)]

    k_t = _signal_columns(spec.d_t)
    k_i = _signal_columns(spec.d_i)
    text = np.empty((n, spec.l_t, spec.d_t))
    image = np.empty((n, spec.l_i, spec.d_i))
    provenance = np.empty(n, dtype=np.intp)
    for i in range(n):
        text_informative = rng.random() < spec.p_text_signal
        image_informative = rng.random() < spec.p_image_signal
        if not (text_informative or image_informative):
            text_informative = image_informative = True
        conflicted = False
        if text_informative != image_informative:
            conflicted = rng.random() < spec.conflict_rate

        sign = spec.signal_strength if labels[i] == 1 else -spec.signal_strength
        text[i] = rng.normal(0.0, spec.noise_std, (spec.l_t, spec.d_t))
        if text_informative:
            text[i, :, :k_t] += sign
        elif conflicted:
            text[i, :, :k_t] -= sign
        image[i] = rng.normal(0.0, spec.noise_std, (spec.l_i, spec.d_i))
        if image_informative:
            image[i, :, :k_i] += sign
        elif conflicted:
            image[i, :, :k_i] -= sign

        if text_informative and image_informative:
            provenance[i] = Provenance.BOTH
        elif text_informative:
            provenance[i] = Provenance.TEXT
        else:
            provenance[i] = Provenance.IMAGE
    ids = tuple(f"syn-{i:06d}" for i in range(n))
    return Dataset(ids, labels, provenance, text, image)


def parse_report(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
