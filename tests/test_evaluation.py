"""Tests for metrics, gate statistics, perturbations, and experiment drivers."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

import mmfuse.experiments
from mmfuse.config import EvalSettings
from mmfuse.data import Dataset, SyntheticSpec, generate_synthetic, split
from mmfuse.errors import InputError, UsageError
from mmfuse.evaluation import (
    _unit_noise,
    collect_gate_weights,
    compute_metrics,
    evaluate,
    gate_stats,
    gate_stats_from_alphas,
    perturb_dataset,
    perturbation_label,
)
from mmfuse.experiments import run_ablation, run_perturbation_suite
from mmfuse.model import HyperConfig, Variant, VARIANT_ORDER, init_params
from mmfuse.training import Checkpoint, TrainConfig

SMALL = dict(d_t=8, d_i=6, d_c=4, gate_hidden=5, cls_hidden=6)


# -- metrics ---------------------------------------------------------------------


def test_metrics_worked_example():
    # preds [1,1,0,0] against labels [1,0,1,0]: one cell in each confusion bucket
    report = compute_metrics([1, 0, 1, 0], [1, 1, 0, 0])
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 1, 1)
    assert report.accuracy == 0.5
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5


def test_metrics_perfect_predictions():
    report = compute_metrics([1, 0, 0, 1], [1, 0, 0, 1])
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 0, 2, 0)
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0


def test_metrics_zero_denominators_map_to_zero():
    # no positive predictions: precision 0/0, recall 0/2, f1 degenerate
    report = compute_metrics([1, 1, 0], [0, 0, 0])
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    # no positive labels and no positive predictions: recall 0/0
    report = compute_metrics([0, 0], [0, 0])
    assert report.recall == 0.0
    assert report.accuracy == 1.0


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        tp = fp = tn = fn = 0
        for lab, pred in zip(labels, preds):
            if pred == 1 and lab == 1:
                tp += 1
            elif pred == 1 and lab == 0:
                fp += 1
            elif pred == 0 and lab == 0:
                tn += 1
            else:
                fn += 1
        report = compute_metrics(labels, preds)
        assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn)
        assert report.accuracy == (tp + tn) / n
        expected_precision = tp / (tp + fp) if tp + fp else 0.0
        expected_recall = tp / (tp + fn) if tp + fn else 0.0
        denom = expected_precision + expected_recall
        expected_f1 = 2 * expected_precision * expected_recall / denom if denom else 0.0
        assert report.precision == expected_precision
        assert report.recall == expected_recall
        assert report.f1 == expected_f1


def test_metrics_count_bool_and_float_labels_as_integers():
    ints = compute_metrics([1, 0, 1, 0, 1], [1, 1, 0, 0, 1])
    assert compute_metrics(np.array([1.0, 0.0, 1.0, 0.0, 1.0]),
                           np.array([True, True, False, False, True])) == ints
    assert (ints.tp, ints.fp, ints.tn, ints.fn) == (2, 1, 1, 1)


def test_metrics_input_validation():
    with pytest.raises(InputError):
        compute_metrics([1, 0], [1])
    with pytest.raises(InputError):
        compute_metrics([], [])
    with pytest.raises(InputError):
        compute_metrics([2, 0], [1, 0])
    with pytest.raises(InputError):
        compute_metrics([1, 0], [1, -1])


def test_evaluate_runs_on_dataset():
    ds = generate_synthetic(SyntheticSpec(n_samples=40, d_t=8, d_i=6, seed=22))
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    report = evaluate(init_params(hyper), hyper, ds)
    assert report.tp + report.fp + report.tn + report.fn == 40
    assert 0.0 <= report.accuracy <= 1.0


# -- gate statistics --------------------------------------------------------------


def test_gate_stats_worked_example():
    alphas = np.array([[0.9, 0.1], [0.1, 0.9]])
    stats = gate_stats_from_alphas(alphas[:, 0], alphas[:, 1], threshold=0.2)
    assert stats.mean_alpha_t == 0.5
    assert stats.mean_alpha_i == 0.5
    assert abs(stats.std_alpha_t - 0.4) <= 1e-15
    assert abs(stats.std_alpha_i - 0.4) <= 1e-15
    assert stats.pct_text_dominant == 50.0
    assert stats.pct_image_dominant == 50.0
    assert stats.pct_balanced == 0.0
    assert stats.n_records == 2


def test_gate_stats_dominance_threshold_is_strict():
    # |0.7 - 0.5| == threshold exactly: counts as balanced, not dominant
    stats = gate_stats_from_alphas(np.array([0.7]), np.array([0.5]), threshold=0.2)
    assert stats.pct_balanced == 100.0
    stats = gate_stats_from_alphas(np.array([0.71]), np.array([0.5]), threshold=0.2)
    assert stats.pct_text_dominant == 100.0


def test_gate_stats_percentages_sum_to_hundred():
    rng = np.random.default_rng(23)
    alpha_t = rng.uniform(size=500)
    alpha_i = rng.uniform(size=500)
    stats = gate_stats_from_alphas(alpha_t, alpha_i, threshold=0.2)
    total = stats.pct_text_dominant + stats.pct_image_dominant + stats.pct_balanced
    assert abs(total - 100.0) <= 1e-9


def test_gate_stats_input_validation():
    with pytest.raises(InputError):
        gate_stats_from_alphas(np.array([]), np.array([]), threshold=0.2)
    with pytest.raises(InputError):
        gate_stats_from_alphas(np.array([0.5]), np.array([0.5, 0.5]), threshold=0.2)
    for threshold in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match=f"non-negative, got {threshold}"):
            gate_stats_from_alphas(np.array([0.5]), np.array([0.5]), threshold=threshold)
    gate_stats_from_alphas(np.array([0.5]), np.array([0.5]), threshold=0.0)  # zero is allowed
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match=rf"record 2: non-finite gate values 0.5, {bad}"):
            gate_stats_from_alphas(np.array([0.5, 0.5, 0.5, 0.5]), np.array([0.5, 0.5, bad, bad]))
        with pytest.raises(InputError, match=rf"record 1: non-finite gate values {bad}, 0.5"):
            gate_stats_from_alphas(np.array([0.5, bad]), np.array([0.5, 0.5]))


def test_collect_gate_weights_requires_gated_variant():
    ds = generate_synthetic(SyntheticSpec(n_samples=10, d_t=8, d_i=6, seed=24))
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    with pytest.raises(UsageError, match="has no gate"):
        collect_gate_weights(init_params(hyper), hyper, ds)


def test_empty_dataset_is_refused_by_feature_stacks():
    # evaluate and collect_gate_weights leave the check to feature_stacks
    ds = generate_synthetic(SyntheticSpec(n_samples=4, d_t=8, d_i=6, seed=24)).take([])
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(hyper)
    for score in (evaluate, collect_gate_weights, gate_stats):
        with pytest.raises(InputError, match="^a batch needs at least one record$"):
            score(params, hyper, ds)


def test_gate_stats_integration():
    ds = generate_synthetic(SyntheticSpec(n_samples=30, d_t=8, d_i=6, seed=25))
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    stats = gate_stats(init_params(hyper), hyper, ds, threshold=0.2)
    assert stats.n_records == 30
    assert 0.0 < stats.mean_alpha_t < 1.0
    assert 0.0 < stats.mean_alpha_i < 1.0


# -- perturbations ------------------------------------------------------------------


def one_record(text, image):
    return Dataset(("r-0",), [1], [0], np.asarray(text)[None], np.asarray(image)[None])


def test_missing_perturbations_zero_one_side():
    rng = np.random.default_rng(26)
    ds = one_record(rng.normal(size=(1, 8)), rng.normal(size=(1, 6)))
    text_before, image_before = ds.text.copy(), ds.image.copy()

    gone_text = perturb_dataset(ds, "text")
    assert np.array_equal(gone_text.text, np.zeros((1, 1, 8)))
    assert np.array_equal(gone_text.image, image_before)

    gone_image = perturb_dataset(ds, "image")
    assert np.array_equal(gone_image.image, np.zeros((1, 1, 6)))
    assert np.array_equal(gone_image.text, text_before)

    # the original dataset is untouched
    assert np.array_equal(ds.text, text_before)
    assert np.array_equal(ds.image, image_before)


def test_noise_perturbation_moments_and_determinism():
    ds = one_record(np.zeros((1, 10000)), np.zeros((1, 1)))
    noisy = perturb_dataset(ds, "text", 1.0, noise_seed=5)
    added = noisy.text[0, 0]
    assert abs(added.mean()) <= 0.05
    assert abs(added.std() - 1.0) <= 0.05
    assert np.array_equal(noisy.image, ds.image)

    again = perturb_dataset(ds, "text", 1.0, noise_seed=5)
    assert np.array_equal(noisy.text, again.text)

    different = perturb_dataset(ds, "text", 1.0, noise_seed=6)
    assert not np.array_equal(noisy.text, different.text)


def test_overflowing_noise_names_the_scenario():
    ds = one_record(np.zeros((1, 8)), np.zeros((1, 64)))  # some |z| > 1.8 overflows
    with np.errstate(over="ignore"), pytest.raises(
            InputError, match=r"^image-noise\(sigma=1e\+308\): record 0: non-finite feature values$"):
        perturb_dataset(ds, "image", 1e308, noise_seed=7)


def test_overflow_names_the_first_bad_record_and_the_copy_shares_the_other_side():
    text = np.zeros((3, 1, 8))
    text[2] = np.finfo(np.float64).max  # only this record overflows under sigma = 1e300
    ds = Dataset(("a", "b", "c"), [0, 1, 0], [1, 2, 3], text, np.ones((3, 2, 6)))
    with np.errstate(over="ignore"), pytest.raises(
            InputError, match=r"^text-noise\(sigma=1e\+300\): record 2: non-finite feature values$"):
        perturb_dataset(ds, "text", 1e300)
    noisy = perturb_dataset(ds.take([0, 1]), "text", 1e300)
    assert np.isfinite(noisy.text).all() and noisy.ids == ("a", "b")
    gone = perturb_dataset(ds, "image")
    assert gone.text is ds.text and gone.ids is ds.ids and gone.labels is ds.labels
    assert np.array_equal(gone.image, np.zeros((3, 2, 6)))


def test_noise_scales_with_sigma():
    ds = one_record(np.zeros((1, 4000)), np.zeros((1, 1)))
    small = perturb_dataset(ds, "text", 0.5, noise_seed=7)
    large = perturb_dataset(ds, "text", 1.0, noise_seed=7)
    # same seed: identical unit noise scaled by sigma
    assert np.allclose(large.text, 2.0 * small.text, rtol=0, atol=1e-15)


def one_stream_perturbation(ds, side, sigma, noise_seed):
    """The perturbation perturb_dataset promises, as an oracle: the records draw
    in order from one generator seeded with noise_seed, at the file's width."""
    stacks = {"text": ds.text.copy(), "image": ds.image.copy()}
    x = stacks[side]
    if sigma is None:
        x[...] = 0.0
    else:
        width = max(ds.l_t * ds.d_t, ds.l_i * ds.d_i)
        noise = np.random.default_rng(noise_seed).normal(0.0, sigma, (len(ds), width))
        x += noise[:, :x[0].size].reshape(x.shape)
    return stacks["text"], stacks["image"]


@pytest.mark.parametrize("l_t,l_i", [(1, 1), (3, 2)])
def test_perturb_dataset_matches_one_stream_oracle_bitwise(l_t, l_i):
    ds = generate_synthetic(SyntheticSpec(n_samples=40, d_t=8, d_i=6, l_t=l_t, l_i=l_i, seed=29))
    scenarios = [(side, None, 0) for side in ("text", "image")]
    scenarios += [(side, sigma, noise_seed)
                  for side in ("text", "image")
                  for sigma in (0.5, 1.7)
                  for noise_seed in (0, 2**64 - 3)]
    for side, sigma, noise_seed in scenarios:
        out = perturb_dataset(ds, side, sigma, noise_seed)
        text, image = one_stream_perturbation(ds, side, sigma, noise_seed)
        label = (perturbation_label(side, sigma), noise_seed)
        assert out.text.tobytes() == text.tobytes(), label
        assert out.image.tobytes() == image.tobytes(), label
        assert out.ids == ds.ids
        assert np.array_equal(out.labels, ds.labels) and np.array_equal(out.provenance, ds.provenance)


@pytest.mark.parametrize("l_t,l_i", [(1, 1), (1, 3)])  # text wider, then image wider
def test_a_records_noise_does_not_depend_on_the_file_size(l_t, l_i):
    k = 7
    ds = generate_synthetic(SyntheticSpec(n_samples=2049, d_t=8, d_i=6, l_t=l_t, l_i=l_i, seed=31))
    for side in ("text", "image"):
        first = [getattr(perturb_dataset(ds.take(np.arange(n)), side, 0.5, 11), side)[:k].tobytes()
                 for n in (k, k + 1, 2 * k + 3, 2049)]
        assert len(set(first)) == 1, side


def test_shared_noise_draw_is_read_only():
    z = _unit_noise(3, 5, 7)
    assert z.shape == (5, 7) and not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 1.0
    assert _unit_noise(3, 5, 7) is z


def test_perturb_dataset_guards_and_labels():
    ds = generate_synthetic(SyntheticSpec(n_samples=4, d_t=8, d_i=6, seed=27))
    for side in ("labels", "provenance", "Text", ""):  # a dataset field is not a side
        with pytest.raises(InputError, match=f"^perturbation side must be 'text' or 'image', "
                                             f"got {side!r}$"):
            perturb_dataset(ds, side)
    for sigma in (0.0, -0.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError, match=rf"^image-noise needs a finite sigma > 0, got {sigma}$"):
            perturb_dataset(ds, "image", sigma)
    assert perturbation_label("text", None) == "text-missing"
    assert perturbation_label("image", 0.5) == "image-noise(sigma=0.5)"
    assert perturbation_label("text", 1.0) == "text-noise(sigma=1)"
    assert perturbation_label("text", 1e-7) == "text-noise(sigma=1e-07)"


def test_perturb_dataset_is_deterministic_and_varies_per_record():
    ds = generate_synthetic(SyntheticSpec(n_samples=6, d_t=8, d_i=6, seed=27))
    out_a = perturb_dataset(ds, "image", 0.5, noise_seed=3)
    out_b = perturb_dataset(ds, "image", 0.5, noise_seed=3)
    assert np.array_equal(out_a.image, out_b.image)
    noise_rows = out_a.image - ds.image
    assert not np.array_equal(noise_rows[0], noise_rows[1])

    zeroed = perturb_dataset(ds, "text")
    assert not zeroed.text.any()
    assert zeroed.d_t == ds.d_t and len(zeroed) == len(ds)


# -- experiment drivers ----------------------------------------------------------------


def tiny_splits(seed=28, n=150):
    ds = generate_synthetic(SyntheticSpec(n_samples=n, d_t=8, d_i=6, seed=seed))
    return split(ds, (0.6, 0.2, 0.2), seed=seed)


def test_run_ablation_row_order_and_checkpoints():
    splits = tiny_splits()
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    config = TrainConfig(max_epochs=1, batch_size=32, seed=28)
    rows, checkpoints = run_ablation(splits, hyper, config)
    assert [variant for variant, _ in rows] == list(VARIANT_ORDER)
    assert set(checkpoints) == set(VARIANT_ORDER)
    for variant, report in rows:
        assert checkpoints[variant].hyper.variant is variant
        assert 0.0 <= report.f1 <= 1.0


def test_suite_rows_follow_the_eval_settings():
    _, _, test_ds = tiny_splits()
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    ckpt = Checkpoint(hyper, init_params(hyper), TrainConfig(), 0.5, 0)
    settings = EvalSettings()
    _unit_noise.cache_clear()
    rows = run_perturbation_suite(ckpt, test_ds, settings.sigmas, settings.noise_seed)
    info = _unit_noise.cache_info()
    assert (info.misses, info.hits) == (1, 3)  # one draw serves all four noise rows
    assert [label for label, _ in rows] == [
        "unperturbed",
        "text-missing",
        "image-missing",
        "text-noise(sigma=0.5)",
        "text-noise(sigma=1)",
        "image-noise(sigma=0.5)",
        "image-noise(sigma=1)",
    ]
    rows = run_perturbation_suite(ckpt, test_ds, (), settings.noise_seed)
    assert [label for label, _ in rows] == ["unperturbed", "text-missing", "image-missing"]


def test_perturbation_suite_rows():
    _, _, test_ds = tiny_splits()
    full_hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    full_ckpt = Checkpoint(full_hyper, init_params(full_hyper), TrainConfig(), 0.5, 0)

    text_hyper = HyperConfig(variant=Variant.TEXT_ONLY, **SMALL)
    image_hyper = HyperConfig(variant=Variant.IMAGE_ONLY, **SMALL)
    baselines = {
        Variant.TEXT_ONLY: Checkpoint(text_hyper, init_params(text_hyper), TrainConfig(), 0.5, 0),
        Variant.IMAGE_ONLY: Checkpoint(
            image_hyper, init_params(image_hyper), TrainConfig(), 0.5, 0
        ),
    }
    rows = run_perturbation_suite(full_ckpt, test_ds, (0.5,), 1, baselines=baselines)
    assert [label for label, _ in rows] == [
        "unperturbed",
        "text-missing",
        "image-missing",
        "text-noise(sigma=0.5)",
        "image-noise(sigma=0.5)",
        "baseline-text-only",
        "baseline-image-only",
    ]


def test_perturbation_suite_holds_one_perturbed_copy_at_a_time(monkeypatch):
    _, _, test_ds = tiny_splits()
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    ckpt = Checkpoint(hyper, init_params(hyper), TrainConfig(), 0.5, 0)
    copies, alive = [], []  # weak references to each perturbed stack; live copies at each call

    def perturb(dataset, *args):
        alive.append(sum(ref() is not None for ref in copies))
        out = perturb_dataset(dataset, *args)
        copies.extend(weakref.ref(getattr(out, side)) for side in ("text", "image")
                      if getattr(out, side) is not getattr(dataset, side))
        return out

    monkeypatch.setattr(mmfuse.experiments, "perturb_dataset", perturb)
    settings = EvalSettings()
    gc.disable()  # reference counting alone must free each copy
    try:
        run_perturbation_suite(ckpt, test_ds, settings.sigmas, settings.noise_seed)
    finally:
        gc.enable()
    assert alive == [0] * 6 and len(copies) == 6
    assert all(ref() is None for ref in copies)


def test_perturbation_suite_requires_full_variant():
    _, _, test_ds = tiny_splits()
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    ckpt = Checkpoint(hyper, init_params(hyper), TrainConfig(), 0.5, 0)
    with pytest.raises(InputError):
        run_perturbation_suite(ckpt, test_ds, (), 0)


def test_perturbation_suite_refuses_an_empty_split_and_a_fused_baseline():
    _, _, test_ds = tiny_splits()
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    ckpt = Checkpoint(hyper, init_params(hyper), TrainConfig(), 0.5, 0)
    with pytest.raises(InputError, match="^perturbation suite needs a non-empty test split$"):
        run_perturbation_suite(ckpt, test_ds.take([]), (), 0)
    with pytest.raises(InputError, match="^baselines must be single-modality variants, got 'full'$"):
        run_perturbation_suite(ckpt, test_ds, (), 0, baselines={Variant.FULL: ckpt})
