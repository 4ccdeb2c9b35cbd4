"""Tests for batch loss, AdamW, the training loop, and checkpoints."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from mmfuse.autodiff import Tape, finite_difference_check
from mmfuse.data import SyntheticSpec, generate_synthetic, split
from mmfuse.errors import (
    BadMagicError,
    FileFormatError,
    InputError,
    NumericsError,
    TruncatedFileError,
    VariantMismatchError,
    VersionMismatchError,
)
from mmfuse.evaluation import evaluate
from mmfuse.model import (
    HyperConfig,
    ModelParams,
    Variant,
    VARIANT_ORDER,
    forward,
    forward_batch,
    init_params,
    register_parameters,
)
from mmfuse.training import (
    Checkpoint,
    PRESETS,
    TrainConfig,
    adamw_step,
    apply_preset,
    batch_loss,
    init_optimizer_state,
    load_checkpoint,
    save_checkpoint,
    train,
)

SMALL = dict(d_t=8, d_i=6, d_c=4, gate_hidden=5, cls_hidden=6)


def small_dataset(n=24, seed=0, **kw):
    return generate_synthetic(SyntheticSpec(n_samples=n, d_t=8, d_i=6, seed=seed, **kw))


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return a.names == b.names and all(np.array_equal(a[n], b[n]) for n in a.names)


# -- batch loss -------------------------------------------------------------------


def test_loss_is_zero_for_saturated_correct_logits():
    config = HyperConfig(variant=Variant.TEXT_ONLY, **SMALL)
    params = init_params(config)
    params.set("cls_w1", np.zeros((4, 6)))
    params.set("cls_b2", [[100.0, -100.0]])  # always confidently "real"
    ds = small_dataset(seed=1)
    reals = [r for r in ds.records if r.label == 0][:8]
    loss = batch_loss(params, config, reals)
    assert loss.value[0, 0] == 0.0


def test_loss_starts_near_coin_flip():
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    loss = batch_loss(params, config, small_dataset(seed=2).records)
    assert abs(float(loss.value[0, 0]) - math.log(2.0)) < 0.2


def test_batched_loss_equals_mean_of_per_record_losses():
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    records = small_dataset(seed=3).records[:10]
    batched = float(batch_loss(params, config, records).value[0, 0])

    def record_loss(r):
        logits = forward(params, config, r).logits[0]
        z = logits - logits.max()
        return float(np.log(np.exp(z).sum()) - z[r.label])

    assert abs(batched - np.mean([record_loss(r) for r in records])) <= 1e-12


@pytest.mark.parametrize("l_t,l_i", [(1, 1), (3, 2)])
def test_batch_loss_gradient_matches_finite_differences(l_t, l_i):
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    records = generate_synthetic(
        SyntheticSpec(n_samples=3, d_t=8, d_i=6, l_t=l_t, l_i=l_i, seed=4)
    ).records

    tape = Tape()
    nodes = register_parameters(tape, params)
    loss = batch_loss(params, config, records, tape=tape, param_nodes=nodes)
    tape.backward(loss)
    analytic = {
        name: (node.grad if node.grad is not None else np.zeros_like(params[name]))
        for name, node in nodes.items()
    }

    def f(arrays):
        return float(batch_loss(params, config, records).value[0, 0])

    arrays = dict(params.items())
    assert finite_difference_check(f, arrays, analytic, step=1e-5) <= 1e-4


@pytest.mark.parametrize("l_t,l_i", [(3, 2), (1, 3)])
@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_batched_path_matches_batches_of_one(variant, l_t, l_i):
    """One graph over a (B, L, d) stack equals a loop over 1-record batches.

    At (1, 3) only the image queries, over the one text key, take the
    single-key identity; the text queries run a softmax over three keys.
    """
    hyper = HyperConfig(variant=variant, init_seed=5, **SMALL)
    params = init_params(hyper)
    records = generate_synthetic(
        SyntheticSpec(n_samples=7, d_t=8, d_i=6, l_t=l_t, l_i=l_i, seed=6)
    ).records

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    overrides = [None, (1.0, 1.0)] if variant is Variant.FULL else [None]
    for gate_override in overrides:
        out = forward_batch(params, hyper, records, gate_override=gate_override)
        singles = [forward_batch(params, hyper, [r], gate_override=gate_override) for r in records]
        assert_close(out.logits, np.concatenate([s.logits for s in singles]))
        if variant is Variant.FULL:
            assert_close(out.alpha_text, np.concatenate([s.alpha_text for s in singles]))
            assert_close(out.alpha_image, np.concatenate([s.alpha_image for s in singles]))

    def loss_and_grads(batch):
        tape = Tape()
        nodes = register_parameters(tape, params)
        loss = batch_loss(params, hyper, batch, tape=tape, param_nodes=nodes)
        tape.backward(loss)
        grads = {
            name: (node.grad if node.grad is not None else np.zeros_like(params[name]))
            for name, node in nodes.items()
        }
        return loss.value[0, 0], grads

    loss, grads = loss_and_grads(records)
    singles = [loss_and_grads([r]) for r in records]
    assert_close(loss, np.mean([value for value, _ in singles]))
    for name in params.names:
        assert_close(grads[name], sum(g[name] for _, g in singles) / len(records))


def test_batch_loss_rejects_empty_batch():
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    with pytest.raises(InputError):
        batch_loss(init_params(config), config, [])


# -- AdamW -----------------------------------------------------------------------


def reference_adamw(theta, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar reference recurrence, written independently of the optimizer."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * wd * theta
    return theta


def test_adamw_first_step_hand_value():
    config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    params = ModelParams([("w", np.array([[1.0]]))])
    state = init_optimizer_state(params)
    adamw_step(params, {"w": np.array([[1.0]])}, state, config)
    # bias correction makes m_hat = v_hat = 1 on step one
    assert abs(params["w"][0, 0] - (1.0 - 0.1 / (1.0 + 1e-8))) <= 1e-12
    assert state.step_count == 1


def test_adamw_matches_reference_recurrence_over_steps():
    config = TrainConfig(learning_rate=0.05, weight_decay=0.02)
    params = ModelParams([("w", np.array([[0.7]]))])
    state = init_optimizer_state(params)
    grads = [0.3, -1.1, 0.45, 2.0]
    for g in grads:
        adamw_step(params, {"w": np.array([[g]])}, state, config)
    expected = reference_adamw(0.7, grads, lr=0.05, wd=0.02)
    assert abs(params["w"][0, 0] - expected) <= 1e-12


def test_weight_decay_alone_shrinks_exactly():
    config = TrainConfig(learning_rate=0.1, weight_decay=0.1)
    params = ModelParams([("w", np.ones((2, 3)))])
    state = init_optimizer_state(params)
    adamw_step(params, {"w": np.zeros((2, 3))}, state, config)
    assert np.array_equal(params["w"], np.full((2, 3), 0.99))


def test_zero_grad_zero_decay_is_identity():
    config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    rng = np.random.default_rng(5)
    original = rng.normal(size=(3, 2))
    params = ModelParams([("w", original.copy())])
    state = init_optimizer_state(params)
    for _ in range(3):
        adamw_step(params, {"w": np.zeros((3, 2))}, state, config)
    assert np.array_equal(params["w"], original)


def test_adamw_requires_all_gradients():
    params = ModelParams([("w", np.ones((1, 1)))])
    with pytest.raises(InputError):
        adamw_step(params, {}, init_optimizer_state(params), TrainConfig())


def test_train_config_validation_and_preset():
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InputError):
        TrainConfig(beta1=1.0)
    with pytest.raises(InputError):
        TrainConfig(patience=-1)
    preset = apply_preset(TrainConfig(), "paper-protocol")
    assert preset.learning_rate == 1e-5
    assert preset.batch_size == 32
    assert preset.max_epochs == 10
    assert "paper-protocol" in PRESETS
    with pytest.raises(InputError):
        apply_preset(TrainConfig(), "nope")


# -- training loop ------------------------------------------------------------------


def default_splits(seed=0):
    ds = generate_synthetic(SyntheticSpec(seed=seed))
    return split(ds, (0.8, 0.1, 0.1), seed=seed)


def test_full_variant_learns_the_default_task():
    train_ds, val_ds, _ = default_splits(seed=7)
    hyper = HyperConfig(d_t=16, d_i=12, variant=Variant.FULL)
    checkpoint, history = train(train_ds, val_ds, hyper, TrainConfig(seed=7))
    assert len(history) <= 10
    assert checkpoint.best_val_f1 > 0.85
    train_f1 = evaluate(checkpoint.params, hyper, train_ds).f1
    assert train_f1 >= checkpoint.best_val_f1 - 0.1


def test_loss_drops_for_every_variant():
    train_ds, val_ds, _ = default_splits(seed=8)
    for variant in VARIANT_ORDER:
        hyper = HyperConfig(d_t=16, d_i=12, variant=variant)
        initial = float(batch_loss(init_params(hyper), hyper, train_ds.records).value[0, 0])
        _, history = train(train_ds, val_ds, hyper, TrainConfig(max_epochs=3, patience=3, seed=8))
        assert history[-1]["train_loss"] <= 0.7 * initial, variant


def test_early_stopping_patience_semantics():
    ds = generate_synthetic(SyntheticSpec(n_samples=200, d_t=8, d_i=6, seed=9))
    train_ds, val_ds, _ = split(ds, (0.6, 0.4, 0.0), seed=9)
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    # learning rate too small to change predictions: F1 never improves
    frozen = TrainConfig(learning_rate=1e-12, max_epochs=10, seed=9)

    _, history0 = train(train_ds, val_ds, hyper, replace_patience(frozen, 0))
    assert len(history0) == 2  # first epoch sets the best, second fails, stop
    _, history3 = train(train_ds, val_ds, hyper, replace_patience(frozen, 3))
    assert len(history3) == 4
    f1s = [h["val_f1"] for h in history3]
    assert max(f1s[1:]) <= f1s[0] + 1e-6


def replace_patience(config: TrainConfig, patience: int) -> TrainConfig:
    from dataclasses import replace

    return replace(config, patience=patience)


def test_checkpoint_holds_best_parameters():
    train_ds, val_ds, _ = default_splits(seed=10)
    hyper = HyperConfig(d_t=16, d_i=12, variant=Variant.CONCAT)
    checkpoint, history = train(train_ds, val_ds, hyper, TrainConfig(max_epochs=4, seed=10))
    best_seen = max(h["val_f1"] for h in history)
    assert checkpoint.best_val_f1 == best_seen
    assert evaluate(checkpoint.params, hyper, val_ds).f1 == checkpoint.best_val_f1
    assert history[checkpoint.best_epoch]["val_f1"] == best_seen


def test_training_is_deterministic():
    ds = generate_synthetic(SyntheticSpec(n_samples=300, d_t=8, d_i=6, seed=11))
    train_ds, val_ds, _ = split(ds, (0.7, 0.3, 0.0), seed=11)
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    config = TrainConfig(max_epochs=2, seed=11)
    ckpt_a, hist_a = train(train_ds, val_ds, hyper, config)
    ckpt_b, hist_b = train(train_ds, val_ds, hyper, config)
    assert hist_a == hist_b
    assert params_equal(ckpt_a.params, ckpt_b.params)

    from dataclasses import replace
    ckpt_c, _ = train(train_ds, val_ds, hyper, replace(config, seed=99))
    assert not params_equal(ckpt_a.params, ckpt_c.params)


def test_divergence_names_epoch_and_step():
    ds = generate_synthetic(SyntheticSpec(n_samples=100, d_t=8, d_i=6, seed=15))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=15)
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    # one step this large sends the weights past what the next forward can hold
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match=r"^loss diverged at epoch 0, step 1$"):
        train(train_ds, val_ds, hyper, TrainConfig(learning_rate=1e300, seed=15))


def test_train_validates_inputs():
    ds = generate_synthetic(SyntheticSpec(n_samples=50, d_t=8, d_i=6, seed=12))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=12)
    hyper_wrong = HyperConfig(d_t=16, d_i=12)
    with pytest.raises(InputError):
        train(train_ds, val_ds, hyper_wrong, TrainConfig())
    empty = type(train_ds)(8, 6, 1, 1, [])
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    with pytest.raises(InputError):
        train(empty, val_ds, hyper, TrainConfig())


# -- checkpoints -----------------------------------------------------------------------


def tiny_checkpoint(variant=Variant.FULL, seed=13):
    hyper = HyperConfig(variant=variant, init_seed=seed, **SMALL)
    return Checkpoint(hyper, init_params(hyper), TrainConfig(seed=seed), 0.875, 2)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    checkpoint = tiny_checkpoint()
    path = tmp_path / "model.mmck"
    save_checkpoint(checkpoint, path)
    loaded = load_checkpoint(path)
    assert loaded.hyper == checkpoint.hyper
    assert loaded.train_config == checkpoint.train_config
    assert loaded.best_val_f1 == checkpoint.best_val_f1
    assert loaded.best_epoch == checkpoint.best_epoch
    assert params_equal(loaded.params, checkpoint.params)

    record = generate_synthetic(SyntheticSpec(n_samples=1, d_t=8, d_i=6, seed=14)).records[0]
    before = forward(checkpoint.params, checkpoint.hyper, record).logits
    after = forward(loaded.params, loaded.hyper, record).logits
    assert np.array_equal(before, after)


def test_checkpoint_save_is_reproducible(tmp_path):
    checkpoint = tiny_checkpoint()
    a, b = tmp_path / "a.mmck", tmp_path / "b.mmck"
    save_checkpoint(checkpoint, a)
    save_checkpoint(checkpoint, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_load_errors(tmp_path):
    checkpoint = tiny_checkpoint()
    path = tmp_path / "ok.mmck"
    save_checkpoint(checkpoint, path)
    good = path.read_bytes()

    bad_magic = tmp_path / "magic.mmck"
    bad_magic.write_bytes(b"ZZZZ" + good[4:])
    with pytest.raises(BadMagicError):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.mmck"
    bad_version.write_bytes(good[:4] + struct.pack("<I", 3) + good[8:])
    with pytest.raises(VersionMismatchError):
        load_checkpoint(bad_version)

    truncated = tmp_path / "trunc.mmck"
    truncated.write_bytes(good[:-6])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(truncated)

    # corrupt the hyper-block length field so it points past the end
    corrupt_len = tmp_path / "len.mmck"
    corrupt_len.write_bytes(good[:8] + struct.pack("<I", 10 ** 6) + good[12:])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(corrupt_len)

    trailing = tmp_path / "trail.mmck"
    trailing.write_bytes(good + b"\x01")
    with pytest.raises(FileFormatError):
        load_checkpoint(trailing)


def test_checkpoint_variant_mismatch(tmp_path):
    path = tmp_path / "concat.mmck"
    save_checkpoint(tiny_checkpoint(variant=Variant.CONCAT), path)
    loaded = load_checkpoint(path, expected_variant=Variant.CONCAT)
    assert loaded.hyper.variant is Variant.CONCAT
    with pytest.raises(VariantMismatchError):
        load_checkpoint(path, expected_variant=Variant.FULL)


def test_checkpoint_rejects_inconsistent_params(tmp_path):
    full = tiny_checkpoint(variant=Variant.FULL)
    concat_hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    mismatched = Checkpoint(concat_hyper, full.params, TrainConfig(), 0.5, 0)
    path = tmp_path / "bad.mmck"
    save_checkpoint(mismatched, path)
    with pytest.raises(FileFormatError):
        load_checkpoint(path)
