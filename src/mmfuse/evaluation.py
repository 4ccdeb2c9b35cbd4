"""Evaluation: confusion metrics, gate statistics, and input perturbations.

The fake class (label 1) is the positive class everywhere. Ratios with a
zero denominator are reported as 0.0 rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset
from .errors import InputError, UsageError
from .model import HyperConfig, ModelParams, Variant, forward_batch, predict_labels


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int


def compute_metrics(labels, predictions) -> MetricsReport:
    """Binary classification metrics with fake (1) as the positive class."""
    lab = np.asarray(labels)
    pred = np.asarray(predictions)
    if lab.ndim != 1 or lab.shape != pred.shape:
        raise InputError(
            f"labels and predictions must be equal-length vectors, got {lab.shape} and {pred.shape}"
        )
    if lab.size == 0:
        raise InputError("metrics need at least one (label, prediction) pair")
    for name, arr in (("labels", lab), ("predictions", pred)):
        if not ((arr == 0) | (arr == 1)).all():
            raise InputError(f"{name} must contain only 0 and 1")

    tn, fp, fn, tp = (int(c) for c in np.bincount(
        2 * lab.astype(np.intp, copy=False) + pred.astype(np.intp, copy=False), minlength=4))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(
        accuracy=(tp + tn) / lab.size,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp, fp=fp, tn=tn, fn=fn,
    )


def evaluate(params: ModelParams, hyper: HyperConfig, dataset: Dataset) -> MetricsReport:
    """Metrics of argmax predictions over a dataset."""
    outputs = forward_batch(params, hyper, dataset)
    return compute_metrics(dataset.labels, predict_labels(outputs))


# -- gate statistics ---------------------------------------------------------------

DOMINANCE_THRESHOLD = 0.2  # default gate margin past which one modality dominates a record


@dataclass(frozen=True)
class GateStatsReport:
    mean_alpha_t: float
    mean_alpha_i: float
    std_alpha_t: float
    std_alpha_i: float
    pct_text_dominant: float
    pct_image_dominant: float
    pct_balanced: float
    threshold: float
    n_records: int


def collect_gate_weights(params: ModelParams, hyper: HyperConfig,
                         dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-record gate values over a dataset; full variant only."""
    if hyper.variant is not Variant.FULL:
        raise UsageError(f"variant {hyper.variant.value!r} has no gate")
    outputs = forward_batch(params, hyper, dataset, logits=False)
    return outputs.alpha_text, outputs.alpha_image


def gate_stats_from_alphas(alpha_text, alpha_image,
                           threshold: float = DOMINANCE_THRESHOLD) -> GateStatsReport:
    """Summarize gate values: means, population stds, dominance percentages.

    A record is text-dominant when alpha_t - alpha_i > threshold, image-
    dominant when the difference is below -threshold, balanced otherwise.
    """
    a_t = np.asarray(alpha_text, dtype=np.float64)
    a_i = np.asarray(alpha_image, dtype=np.float64)
    if a_t.ndim != 1 or a_t.shape != a_i.shape or a_t.size == 0:
        raise InputError("gate statistics need two equal-length non-empty vectors")
    if not 0.0 <= threshold < np.inf:
        raise InputError(f"threshold must be finite and non-negative, got {threshold}")
    bad = np.flatnonzero(~(np.isfinite(a_t) & np.isfinite(a_i)))
    if bad.size:
        raise InputError(f"record {bad[0]}: non-finite gate values {a_t[bad[0]]}, {a_i[bad[0]]}")
    diff = a_t - a_i
    n = a_t.size
    text_dom = int(np.sum(diff > threshold))
    image_dom = int(np.sum(diff < -threshold))
    return GateStatsReport(
        mean_alpha_t=float(a_t.mean()),
        mean_alpha_i=float(a_i.mean()),
        std_alpha_t=float(a_t.std()),
        std_alpha_i=float(a_i.std()),
        pct_text_dominant=100.0 * text_dom / n,
        pct_image_dominant=100.0 * image_dom / n,
        pct_balanced=100.0 * (n - text_dom - image_dom) / n,
        threshold=float(threshold),
        n_records=n,
    )


def gate_stats(params: ModelParams, hyper: HyperConfig, dataset: Dataset,
               threshold: float = DOMINANCE_THRESHOLD) -> GateStatsReport:
    alpha_text, alpha_image = collect_gate_weights(params, hyper, dataset)
    return gate_stats_from_alphas(alpha_text, alpha_image, threshold)


# -- perturbations ------------------------------------------------------------------


def perturbation_label(side: str, sigma: float | None) -> str:
    """``text-missing`` without a sigma, ``text-noise(sigma=0.5)`` with one."""
    return f"{side}-missing" if sigma is None else f"{side}-noise(sigma={sigma:g})"


@lru_cache(maxsize=1)
def _unit_noise(noise_seed: int, n: int, width: int) -> np.ndarray:
    """Rows of one stream seeded with ``noise_seed``: the generator fills row by
    row, so row i depends only on (noise_seed, i, width), not on n. Read-only:
    every sigma and side shares it."""
    rows = np.random.default_rng(noise_seed).standard_normal((n, width))
    rows.flags.writeable = False
    return rows


def perturb_dataset(dataset: Dataset, side: str, sigma: float | None = None,
                    noise_seed: int = 0) -> Dataset:
    """A copy of the dataset with one side, ``"text"`` or ``"image"``, zeroed
    (no sigma) or noised with standard deviation ``sigma``; the input stays
    untouched.

    Record i's noise is row i of one stream at the file's width
    ``max(l_t*d_t, l_i*d_i)``: it depends on that width, not on n or the other
    records. ``Generator.normal(0.0, sigma)`` is ``0.0 + sigma * z`` over the
    stream's standard normals z, so one draw serves every sigma and both sides.
    Only the replaced stack can be invalid, so only it is checked, and the copy
    is built as ``Dataset.take`` builds its rows.
    """
    if side not in ("text", "image"):
        raise InputError(f"perturbation side must be 'text' or 'image', got {side!r}")
    x = getattr(dataset, side)
    if sigma is None:
        perturbed = np.zeros_like(x)
    elif not 0.0 < sigma < np.inf:
        raise InputError(f"{side}-noise needs a finite sigma > 0, got {sigma}")
    else:
        width = max(dataset.l_t * dataset.d_t, dataset.l_i * dataset.d_i)
        z = _unit_noise(noise_seed, len(dataset), width)
        perturbed = x + (0.0 + sigma * z[:, :x.shape[1] * x.shape[2]].reshape(x.shape))
        if not np.isfinite(perturbed).all():  # a sigma large enough to overflow the features
            i = int((~np.isfinite(perturbed).all(axis=(1, 2))).argmax())
            raise InputError(f"{perturbation_label(side, sigma)}: record {i}: non-finite feature values")
    copy = object.__new__(Dataset)
    copy.__dict__.update(vars(dataset), **{side: perturbed})
    return copy
