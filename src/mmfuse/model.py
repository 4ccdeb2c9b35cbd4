"""Fusion classifier over pre-extracted text/image feature sequences.

The full model projects both modalities into a shared space, exchanges
information through bi-directional cross-modal attention with residual
connections, pools each sequence, rescales the pooled features with
per-sample sigmoid gates, and classifies the concatenation with a ReLU
MLP. Restricted variants (single modality, plain concatenation, ungated
attention) reuse subsets of the same graph, so comparisons across
variants differ only in the pieces under study.

Every forward pass runs on ``(B, L, d)`` stacks of B records at any
sequence length; a single record is a batch of one. Where a key sequence
has length 1, the attention softmax runs over one element and is exactly
1, so that direction reduces to a closed form (value-projected other
modality plus residual) and computes no scores. Scoring a file walks
it in near-equal chunks of at most ``CHUNK`` records, one graph each.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .autodiff import Node, Tape
from .data import Dataset
from .errors import InputError, WidthMismatchError

Array = np.ndarray


class Variant(str, Enum):
    # declared in reporting order: single modalities, then increasingly complete fusion
    TEXT_ONLY = "text-only"
    IMAGE_ONLY = "image-only"
    CONCAT = "concat"
    FIXED_ATTENTION = "fixed-attention"
    FULL = "full"


VARIANT_ORDER = tuple(Variant)

_ATTENTION_NAMES = (
    "attn_q_text", "attn_k_image", "attn_v_image",
    "attn_q_image", "attn_k_text", "attn_v_text",
)
_BIAS_NAMES = frozenset({"gate_b1", "gate_b_text", "gate_b_image", "cls_b1", "cls_b2"})


@dataclass(frozen=True)
class HyperConfig:
    """Architecture settings; d_t/d_i must match the dataset."""

    d_t: int
    d_i: int
    d_c: int = 8
    d_k: int | None = None
    gate_hidden: int = 16
    cls_hidden: int = 32
    variant: Variant = Variant.FULL
    init_scale: float = 1.0
    init_seed: int = 0

    def __post_init__(self):
        if self.d_k is None:
            object.__setattr__(self, "d_k", self.d_c)
        object.__setattr__(self, "variant", Variant(self.variant))
        if min(self.d_t, self.d_i, self.d_c, self.gate_hidden, self.cls_hidden) < 1:
            raise InputError("model dimensions must all be at least 1")
        if self.d_k != self.d_c:
            raise InputError(f"d_k must equal d_c (got d_k={self.d_k}, d_c={self.d_c})")
        if not 0.0 < self.init_scale < np.inf:
            raise InputError(f"init_scale must be positive and finite, got {self.init_scale}")
        total = sum(rows * cols for rows, cols in parameter_shapes(self).values())
        if 8 * total > np.iinfo(np.intp).max:
            raise InputError(
                f"model widths d_t={self.d_t}, d_i={self.d_i}, d_c={self.d_c}, "
                f"gate_hidden={self.gate_hidden}, cls_hidden={self.cls_hidden} give "
                f"{total} parameters, more than an array can hold"
            )


def parameter_shapes(config: HyperConfig) -> dict[str, tuple[int, int]]:
    """Parameter names and shapes for a variant, in canonical order."""
    v = config.variant
    shapes: dict[str, tuple[int, int]] = {}
    if v is not Variant.IMAGE_ONLY:
        shapes["proj_text"] = (config.d_t, config.d_c)
    if v is not Variant.TEXT_ONLY:
        shapes["proj_image"] = (config.d_i, config.d_c)
    if v in (Variant.FIXED_ATTENTION, Variant.FULL):
        for name in _ATTENTION_NAMES:
            shapes[name] = (config.d_c, config.d_c)
    if v is Variant.FULL:
        shapes["gate_w1"] = (2 * config.d_c, config.gate_hidden)
        shapes["gate_b1"] = (1, config.gate_hidden)
        shapes["gate_w_text"] = (config.gate_hidden, 1)
        shapes["gate_b_text"] = (1, 1)
        shapes["gate_w_image"] = (config.gate_hidden, 1)
        shapes["gate_b_image"] = (1, 1)
    fused = config.d_c if v in (Variant.TEXT_ONLY, Variant.IMAGE_ONLY) else 2 * config.d_c
    shapes["cls_w1"] = (fused, config.cls_hidden)
    shapes["cls_b1"] = (1, config.cls_hidden)
    shapes["cls_w2"] = (config.cls_hidden, 2)
    shapes["cls_b2"] = (1, 2)
    return shapes


class ModelParams:
    """Named parameter matrices of the given shapes, in order, each a (rows, cols)
    view into the vector ``flat``, which is taken as given: no copy, no check."""

    def __init__(self, flat: Array, shapes: dict[str, tuple[int, int]]):
        self.flat, self._shapes, self._arrays = flat, shapes, {}
        start = 0
        for name, (rows, cols) in shapes.items():
            self._arrays[name] = flat[start:start + rows * cols].reshape(rows, cols)
            start += rows * cols

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def items(self):
        return self._arrays.items()

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]

    def __len__(self) -> int:
        return len(self._arrays)

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self._shapes)


def lockstep_params(vector: Array, configs) -> list[ModelParams]:
    """Each config's parameters as named views into its slice of ``vector``, which
    holds the models' vectors in turn (any vector so laid out splits alike)."""
    models, stop = [], 0
    for shapes in map(parameter_shapes, configs):
        start, stop = stop, stop + sum(rows * cols for rows, cols in shapes.values())
        models.append(ModelParams(vector[start:stop], shapes))
    return models


def init_params(config: HyperConfig) -> ModelParams:
    """Seeded init into a zero vector: weights uniform in +-init_scale/sqrt(fan_in),
    drawn in canonical order; biases stay zero."""
    rng = np.random.default_rng(config.init_seed)
    shapes = parameter_shapes(config)
    params = ModelParams(np.zeros(sum(rows * cols for rows, cols in shapes.values())), shapes)
    for name, arr in params.items():
        if name not in _BIAS_NAMES:
            bound = config.init_scale / sqrt(arr.shape[0])
            arr[...] = rng.uniform(-bound, bound, arr.shape)
    return params


# -- graph builders -----------------------------------------------------------
# They take (B, L, d) stacks: B records of L sequence positions each.


def _attend(tape, pn, h_t, h_i, d_k):
    """Scaled dot-product cross-attention in both directions, with residuals.

    A direction whose key sequence has length 1 has attention weight
    exactly 1.0, so it is the value projection plus the residual, the value
    broadcast over the query positions.
    """
    inv = tape.constant([[[1.0 / sqrt(d_k)]]]) if max(h_t.shape[1], h_i.shape[1]) > 1 else None

    def direction(h_q, h_kv, w_q, w_k, w_v):
        values = tape.matmul(h_kv, pn[w_v])
        if h_kv.shape[1] == 1:
            return tape.add(values, h_q)
        scores = tape.matmul(tape.matmul(h_q, pn[w_q]),
                             tape.transpose(tape.matmul(h_kv, pn[w_k])))
        weights = tape.softmax_rows(tape.mul(scores, inv))
        return tape.add(tape.matmul(weights, values), h_q)

    att_t = direction(h_t, h_i, "attn_q_text", "attn_k_image", "attn_v_image")
    att_i = direction(h_i, h_t, "attn_q_image", "attn_k_text", "attn_v_text")
    return att_t, att_i


def _gate_alphas(tape, pn, pooled_t, pooled_i):
    joint = tape.concat_cols(pooled_t, pooled_i)
    hidden = tape.dense(joint, pn["gate_w1"], pn["gate_b1"], "relu")
    alpha_t = tape.dense(hidden, pn["gate_w_text"], pn["gate_b_text"], "sigmoid")
    alpha_i = tape.dense(hidden, pn["gate_w_image"], pn["gate_b_image"], "sigmoid")
    return alpha_t, alpha_i


def _classify(tape, pn, features):
    hidden = tape.dense(features, pn["cls_w1"], pn["cls_b1"], "relu")
    return tape.dense(hidden, pn["cls_w2"], pn["cls_b2"])


def build_logits(tape, pn, config, x_text, x_image, logits=True):
    """Wire the variant's graph over (B, L_t, d_t) and (B, L_i, d_i) feature
    stacks; returns the interesting nodes by name. Sequences are mean-pooled
    after projection (and attention), giving one row per record. With
    ``logits=False`` the full variant stops at its gates.
    """
    v = config.variant
    nodes: dict[str, Node] = {}

    if v is Variant.TEXT_ONLY:
        h_t = tape.matmul(x_text, pn["proj_text"])
        nodes["projected_text"] = h_t
        nodes["fused"] = tape.mean_rows(h_t)
    elif v is Variant.IMAGE_ONLY:
        h_i = tape.matmul(x_image, pn["proj_image"])
        nodes["projected_image"] = h_i
        nodes["fused"] = tape.mean_rows(h_i)
    else:
        h_t = tape.matmul(x_text, pn["proj_text"])
        h_i = tape.matmul(x_image, pn["proj_image"])
        nodes["projected_text"] = h_t
        nodes["projected_image"] = h_i
        if v is Variant.CONCAT:
            nodes["fused"] = tape.concat_cols(tape.mean_rows(h_t), tape.mean_rows(h_i))
        else:
            att_t, att_i = _attend(tape, pn, h_t, h_i, config.d_k)
            nodes["attended_text"] = att_t
            nodes["attended_image"] = att_i
            pooled_t, pooled_i = tape.mean_rows(att_t), tape.mean_rows(att_i)
            if v is Variant.FULL:
                alpha_t, alpha_i = _gate_alphas(tape, pn, pooled_t, pooled_i)
                nodes["alpha_text"] = alpha_t
                nodes["alpha_image"] = alpha_i
                if not logits:
                    return nodes
                nodes["fused"] = tape.concat_cols(tape.mul(pooled_t, alpha_t),
                                                  tape.mul(pooled_i, alpha_i))
            else:
                nodes["fused"] = tape.concat_cols(pooled_t, pooled_i)
    nodes["logits"] = _classify(tape, pn, nodes["fused"])
    return nodes


# -- forward passes ------------------------------------------------------------

# most records per scoring graph: its intermediates stay in cache, its set-up amortises
CHUNK = 2048


@dataclass
class BatchOutputs:
    logits: Array | None  # None from a gates-only pass
    alpha_text: Array | None = None
    alpha_image: Array | None = None


def check_widths(config: HyperConfig, batch: Dataset, what: str = "record") -> None:
    """Refuse ``batch`` unless its feature widths are the model's."""
    if (batch.d_t, batch.d_i) != (config.d_t, config.d_i):
        raise WidthMismatchError(
            f"{what} widths (d_t={batch.d_t}, d_i={batch.d_i}) do not match the model "
            f"(d_t={config.d_t}, d_i={config.d_i})")


def feature_stacks(tape: Tape, config: HyperConfig, batch: Dataset,
                   rows: slice = slice(None)) -> tuple[Node, Node]:
    """A batch's two feature stacks, or views of their ``rows``, as the tape's
    input leaves (not scanned again: a Dataset's features are finite); the
    batch must hold at least one record, with the model's feature widths."""
    if len(batch) == 0:
        raise InputError("a batch needs at least one record")
    check_widths(config, batch)
    return tape.input(batch.text[rows]), tape.input(batch.image[rows])


def _forward_nodes(params, config, batch, rows=slice(None), logits=True) -> dict[str, Node]:
    tape = Tape()  # parameters as input leaves: no op needs a gradient, so none is kept
    pn = {name: tape.input(arr) for name, arr in params.items()}
    return build_logits(tape, pn, config, *feature_stacks(tape, config, batch, rows), logits=logits)


def _outputs(nodes) -> tuple:
    alphas = (nodes[k].value[:, 0] if k in nodes else None for k in ("alpha_text", "alpha_image"))
    return nodes["logits"].value if "logits" in nodes else None, *alphas


def forward_batch(params: ModelParams, config: HyperConfig, batch: Dataset, *,
                  logits: bool = True) -> BatchOutputs:
    """Forward a dataset in order, in ceil(n / CHUNK) near-equal chunks of row
    views: one graph each, whose tape keeps no op, and of which only the
    _outputs arrays live on. The first chunk's feature_stacks checks them all.
    With ``logits=False`` the full variant returns its gates only."""
    n = len(batch)
    k = max(1, -(-n // CHUNK))  # an empty batch is one chunk, which feature_stacks refuses
    parts = [_outputs(_forward_nodes(params, config, batch, slice(n * j // k, n * (j + 1) // k),
                                     logits)) for j in range(k)]
    return BatchOutputs(*(None if p[0] is None else np.concatenate(p) for p in zip(*parts)))


def predict_labels(outputs: BatchOutputs) -> np.ndarray:
    """Hard labels by logit argmax, as ``np.argmax(logits, axis=1)`` gives them:
    a tie resolves to 0/real, and a NaN counts as the largest, the first NaN winning."""
    l0, l1 = outputs.logits[:, 0], outputs.logits[:, 1]
    return (~(l1 <= l0) & (l0 == l0)).astype(np.intp)
