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
modality plus residual) and computes no scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .autodiff import Node, Tape, as_matrix
from .data import FeatureRecord
from .errors import InputError, UsageError

Array = np.ndarray


class Variant(str, Enum):
    TEXT_ONLY = "text-only"
    IMAGE_ONLY = "image-only"
    CONCAT = "concat"
    FIXED_ATTENTION = "fixed-attention"
    FULL = "full"


# fixed reporting order: single modalities, then increasingly complete fusion
VARIANT_ORDER = (
    Variant.TEXT_ONLY,
    Variant.IMAGE_ONLY,
    Variant.CONCAT,
    Variant.FIXED_ATTENTION,
    Variant.FULL,
)

_ATTENTION_NAMES = (
    "attn_q_text", "attn_k_image", "attn_v_image",
    "attn_q_image", "attn_k_text", "attn_v_text",
)
_GATE_NAMES = ("gate_w1", "gate_b1", "gate_w_text", "gate_b_text", "gate_w_image", "gate_b_image")
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
        if self.init_scale <= 0.0:
            raise InputError(f"init_scale must be positive, got {self.init_scale}")

    @property
    def classifier_input_width(self) -> int:
        if self.variant in (Variant.TEXT_ONLY, Variant.IMAGE_ONLY):
            return self.d_c
        return 2 * self.d_c


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
    shapes["cls_w1"] = (config.classifier_input_width, config.cls_hidden)
    shapes["cls_b1"] = (1, config.cls_hidden)
    shapes["cls_w2"] = (config.cls_hidden, 2)
    shapes["cls_b2"] = (1, 2)
    return shapes


class ModelParams:
    """Named parameter matrices with a fixed iteration order."""

    def __init__(self, entries):
        items = entries.items() if hasattr(entries, "items") else entries
        self._arrays: dict[str, Array] = {
            name: as_matrix(arr, name=name) for name, arr in items
        }

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def items(self):
        return self._arrays.items()

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]

    def set(self, name: str, values) -> None:
        """Replace an existing parameter with same-shape values."""
        current = self._arrays[name]
        arr = as_matrix(values, name=name)
        if arr.shape != current.shape:
            raise InputError(f"parameter {name} has shape {current.shape}, got {arr.shape}")
        self._arrays[name] = arr

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def copy(self) -> "ModelParams":
        return ModelParams((name, arr.copy()) for name, arr in self._arrays.items())


def init_params(config: HyperConfig) -> ModelParams:
    """Seeded init: weights uniform in +-init_scale/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(config.init_seed)
    entries = []
    for name, shape in parameter_shapes(config).items():
        if name in _BIAS_NAMES:
            entries.append((name, np.zeros(shape)))
        else:
            bound = config.init_scale / sqrt(shape[0])
            entries.append((name, rng.uniform(-bound, bound, shape)))
    return ModelParams(entries)


def register_parameters(tape: Tape, params: ModelParams) -> dict[str, Node]:
    """Put every parameter on a tape as a gradient-receiving leaf."""
    return {name: tape.parameter(arr, validate=False, name=name) for name, arr in params.items()}


def check_params_match(params: ModelParams, config: HyperConfig) -> None:
    expected = parameter_shapes(config)
    if tuple(expected) != params.names:
        raise InputError(
            f"parameter names {params.names} do not match variant "
            f"{config.variant.value} (expected {tuple(expected)})"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise InputError(f"parameter {name} has shape {params[name].shape}, expected {shape}")


# -- graph builders -----------------------------------------------------------
# They take (B, L, d) stacks: B records of L sequence positions each.


def _attend(tape, pn, h_t, h_i, d_k):
    """Scaled dot-product cross-attention in both directions, with residuals.

    A direction whose key sequence has length 1 has attention weight
    exactly 1.0, so it is the value projection plus the residual, the value
    broadcast over the query positions.
    """
    inv = tape.constant([[1.0 / sqrt(d_k)]]) if max(h_t.shape[1], h_i.shape[1]) > 1 else None

    def direction(h_q, h_kv, w_q, w_k, w_v):
        values = tape.matmul(h_kv, pn[w_v])
        if h_kv.shape[1] == 1:
            return tape.add(values, h_q)
        scores = tape.matmul(tape.matmul(h_q, pn[w_q]),
                             tape.transpose(tape.matmul(h_kv, pn[w_k])))
        weights = tape.softmax_rows(tape.scale_by_scalar(scores, inv))
        return tape.add(tape.matmul(weights, values), h_q)

    att_t = direction(h_t, h_i, "attn_q_text", "attn_k_image", "attn_v_image")
    att_i = direction(h_i, h_t, "attn_q_image", "attn_k_text", "attn_v_text")
    return att_t, att_i


def _gate_alphas(tape, pn, pooled_t, pooled_i):
    joint = tape.concat_cols(pooled_t, pooled_i)
    hidden = tape.relu(tape.add_row_bias(tape.matmul(joint, pn["gate_w1"]), pn["gate_b1"]))
    alpha_t = tape.sigmoid(tape.add_row_bias(tape.matmul(hidden, pn["gate_w_text"]), pn["gate_b_text"]))
    alpha_i = tape.sigmoid(tape.add_row_bias(tape.matmul(hidden, pn["gate_w_image"]), pn["gate_b_image"]))
    return alpha_t, alpha_i


def _classify(tape, pn, features):
    hidden = tape.relu(tape.add_row_bias(tape.matmul(features, pn["cls_w1"]), pn["cls_b1"]))
    return tape.add_row_bias(tape.matmul(hidden, pn["cls_w2"]), pn["cls_b2"])


def build_logits(tape, pn, config, x_text, x_image, *, gate_override=None):
    """Wire the variant's graph over (B, L_t, d_t) and (B, L_i, d_i) feature
    stacks; returns the interesting nodes by name. Sequences are mean-pooled
    after projection (and attention), giving one row per record.
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
                if gate_override is None:
                    alpha_t, alpha_i = _gate_alphas(tape, pn, pooled_t, pooled_i)
                else:
                    m = pooled_t.value.shape[0]
                    alpha_t = tape.constant(np.full((m, 1), float(gate_override[0])))
                    alpha_i = tape.constant(np.full((m, 1), float(gate_override[1])))
                nodes["alpha_text"] = alpha_t
                nodes["alpha_image"] = alpha_i
                nodes["fused"] = tape.concat_cols(tape.scale_rows(pooled_t, alpha_t),
                                                  tape.scale_rows(pooled_i, alpha_i))
            else:
                nodes["fused"] = tape.concat_cols(pooled_t, pooled_i)
    nodes["logits"] = _classify(tape, pn, nodes["fused"])
    return nodes


# -- forward passes ------------------------------------------------------------


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


@dataclass
class BatchOutputs:
    logits: Array
    alpha_text: Array | None = None
    alpha_image: Array | None = None


def stack_batch(config: HyperConfig, records) -> tuple[Array, Array]:
    """Stack a batch's sequences into (B, L_t, d_t) and (B, L_i, d_i) arrays.

    All records must share one text shape and one image shape, and the
    feature widths must match the config.
    """
    if not records:
        raise InputError("a batch needs at least one record")
    text_shapes = {r.text_features.shape for r in records}
    image_shapes = {r.image_features.shape for r in records}
    if len(text_shapes) > 1 or len(image_shapes) > 1:
        raise InputError(f"records in a batch must share feature shapes, got {text_shapes} {image_shapes}")
    ((l_t, d_t),), ((l_i, d_i),) = text_shapes, image_shapes
    if (d_t, d_i) != (config.d_t, config.d_i):
        raise InputError(f"record widths (d_t={d_t}, d_i={d_i}) do not match the model "
                         f"(d_t={config.d_t}, d_i={config.d_i})")
    n = len(records)
    text = np.concatenate([r.text_features for r in records]).reshape(n, l_t, d_t)
    image = np.concatenate([r.image_features for r in records]).reshape(n, l_i, d_i)
    return text, image


def _forward_nodes(params, config, records, gate_override) -> dict[str, Node]:
    x_t, x_i = stack_batch(config, records)
    tape = Tape(grad=False)
    pn = register_parameters(tape, params)
    return build_logits(tape, pn, config,
                        tape.constant(x_t, name="text_features"),
                        tape.constant(x_i, name="image_features"),
                        gate_override=gate_override)


def forward(params: ModelParams, config: HyperConfig, record: FeatureRecord,
            *, gate_override=None) -> ForwardTrace:
    """Run one record, as a batch of one, and capture the trace."""
    nodes = _forward_nodes(params, config, [record], gate_override)

    def first(key):
        return nodes[key].value[0] if key in nodes else None

    def alpha(key):
        return float(nodes[key].value[0, 0]) if key in nodes else None

    stages = ("projected_text", "projected_image", "attended_text", "attended_image")
    return ForwardTrace(logits=nodes["logits"].value, fused=nodes["fused"].value,
                        alpha_text=alpha("alpha_text"), alpha_image=alpha("alpha_image"),
                        **{key: first(key) for key in stages})


def forward_batch(params: ModelParams, config: HyperConfig, records,
                  *, gate_override=None) -> BatchOutputs:
    """Forward a batch of same-shape records as one graph."""
    nodes = _forward_nodes(params, config, list(records), gate_override)
    alphas = (nodes[k].value[:, 0] if k in nodes else None for k in ("alpha_text", "alpha_image"))
    return BatchOutputs(nodes["logits"].value, *alphas)


def predict_proba(trace: ForwardTrace) -> tuple[float, float]:
    """Class probabilities (p_real, p_fake) from a trace's logits."""
    z = trace.logits[0] - trace.logits[0].max()
    e = np.exp(z)
    p = e / e.sum()
    return float(p[0]), float(p[1])


def predict_labels(outputs: BatchOutputs) -> np.ndarray:
    """Hard labels by logit argmax (ties resolve to 0/real)."""
    return np.argmax(outputs.logits, axis=1).astype(np.intp)


# -- standalone stage wrappers --------------------------------------------------
# Array-in/array-out views of the graph stages, for inspection and testing.


def _needs(params: ModelParams, names) -> None:
    missing = [n for n in names if n not in params]
    if missing:
        raise UsageError(f"params are missing {missing}; wrong variant for this operation")


def project(params: ModelParams, record: FeatureRecord) -> tuple[Array, Array]:
    """Project both feature sequences into the shared space."""
    _needs(params, ("proj_text", "proj_image"))
    return (record.text_features @ params["proj_text"],
            record.image_features @ params["proj_image"])


def cross_attend(params: ModelParams, h_text, h_image, d_k: int) -> tuple[Array, Array]:
    """Bi-directional cross-attention with residuals over one record's
    projected sequences (run as a batch of one)."""
    _needs(params, _ATTENTION_NAMES)
    tape = Tape(grad=False)
    pn = register_parameters(tape, params)
    att_t, att_i = _attend(tape, pn,
                           tape.constant(as_matrix(h_text, name="h_text")[None], name="h_text"),
                           tape.constant(as_matrix(h_image, name="h_image")[None], name="h_image"),
                           d_k)
    return att_t.value[0], att_i.value[0]


def gate(params: ModelParams, attended_text, attended_image):
    """Pool attended sequences and compute the two modality gates.

    Returns (alpha_text, alpha_image, pooled_text, pooled_image).
    """
    _needs(params, _GATE_NAMES)
    tape = Tape(grad=False)
    pn = register_parameters(tape, params)
    pooled_t = tape.mean_rows(tape.constant(attended_text, name="attended_text"))
    pooled_i = tape.mean_rows(tape.constant(attended_image, name="attended_image"))
    alpha_t, alpha_i = _gate_alphas(tape, pn, pooled_t, pooled_i)
    return (float(alpha_t.value[0, 0]), float(alpha_i.value[0, 0]),
            pooled_t.value.copy(), pooled_i.value.copy())


def fuse_classify(params: ModelParams, alpha_text: float, alpha_image: float,
                  pooled_text, pooled_image) -> Array:
    """Scale pooled features by their gates, concatenate, and classify."""
    _needs(params, ("cls_w1", "cls_b1", "cls_w2", "cls_b2"))
    tape = Tape(grad=False)
    pn = register_parameters(tape, params)
    scaled_t = tape.scale_by_scalar(tape.constant(pooled_text, name="pooled_text"),
                                    tape.constant([[alpha_text]]))
    scaled_i = tape.scale_by_scalar(tape.constant(pooled_image, name="pooled_image"),
                                    tape.constant([[alpha_image]]))
    return _classify(tape, pn, tape.concat_cols(scaled_t, scaled_i)).value.copy()
