"""Comparison experiments: variant ablation and the robustness suite.

Both run all models under one protocol (same splits, same seeds) so rows
are directly comparable.
"""

from __future__ import annotations

from dataclasses import replace

from .data import Dataset
from .errors import InputError
from .evaluation import MetricsReport, evaluate, perturb_dataset, perturbation_label
from .model import HyperConfig, Variant, VARIANT_ORDER
from .training import Checkpoint, TrainConfig, train


def run_ablation(
    splits: tuple[Dataset, Dataset, Dataset],
    hyper_template: HyperConfig,
    train_config: TrainConfig,
) -> tuple[list[tuple[Variant, MetricsReport]], dict[Variant, Checkpoint]]:
    """Train every variant identically, in lockstep on one batch stream (each
    gets the bits it gets alone); report test metrics in fixed order."""
    train_ds, val_ds, test_ds = splits
    if len(test_ds) == 0:
        raise InputError("ablation needs a non-empty test split")
    hypers = [replace(hyper_template, variant=variant) for variant in VARIANT_ORDER]
    checkpoints = dict(zip(VARIANT_ORDER, train(train_ds, val_ds, hypers, train_config)[0]))
    return [(v, evaluate(c.params, c.hyper, test_ds)) for v, c in checkpoints.items()], checkpoints


def run_perturbation_suite(
    full_checkpoint: Checkpoint,
    test_ds: Dataset,
    sigmas: tuple[float, ...],
    noise_seed: int,
    baselines: dict[Variant, Checkpoint] | None = None,
) -> list[tuple[str, MetricsReport]]:
    """Evaluate the full model unperturbed, with each side missing, then with
    the text and then the image noised at each sigma.

    Optional single-modality baselines are appended unperturbed, as
    reference points for the missing-modality rows.
    """
    if full_checkpoint.hyper.variant is not Variant.FULL:
        raise InputError(
            f"perturbation suite needs a full-variant checkpoint, got "
            f"{full_checkpoint.hyper.variant.value!r}"
        )
    if len(test_ds) == 0:
        raise InputError("perturbation suite needs a non-empty test split")

    rows = [("unperturbed", evaluate(full_checkpoint.params, full_checkpoint.hyper, test_ds))]
    sides = ("text", "image")
    scenarios = [(side, None) for side in sides] + [(side, s) for side in sides for s in sigmas]
    for side, sigma in scenarios:  # no name keeps a perturbed copy alive past its evaluation
        rows.append((perturbation_label(side, sigma),
                     evaluate(full_checkpoint.params, full_checkpoint.hyper,
                              perturb_dataset(test_ds, side, sigma, noise_seed))))
    for variant, checkpoint in (baselines or {}).items():
        variant = Variant(variant)
        if variant not in (Variant.TEXT_ONLY, Variant.IMAGE_ONLY):
            raise InputError(f"baselines must be single-modality variants, got {variant.value!r}")
        rows.append((f"baseline-{variant.value}",
                     evaluate(checkpoint.params, checkpoint.hyper, test_ds)))
    return rows
