"""Tests for batch loss, AdamW, the training loop, and checkpoints."""

from __future__ import annotations

import gc
import math
import struct
import weakref

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmfuse import experiments, training
from mmfuse.autodiff import Tape
from mmfuse.data import SyntheticSpec, batches, generate_synthetic, split
from mmfuse.errors import (FileFormatError, InputError, NumericsError, VariantMismatchError,
                           WidthMismatchError)
from mmfuse.evaluation import evaluate
from mmfuse.model import (
    HyperConfig,
    ModelParams,
    Variant,
    VARIANT_ORDER,
    forward_batch,
    init_params,
    lockstep_params,
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
    train_step,
)
import support
from support import (finite_difference_check, forward, loss_and_grads, loss_value, pin_gates,
                     set_param)

SMALL = dict(d_t=8, d_i=6, d_c=4, gate_hidden=5, cls_hidden=6)


def small_dataset(n=24, seed=0, **kw):
    return generate_synthetic(SyntheticSpec(n_samples=n, d_t=8, d_i=6, seed=seed, **kw))


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return a.names == b.names and all(np.array_equal(a[n], b[n]) for n in a.names)


# -- batch loss -------------------------------------------------------------------


def test_loss_is_zero_for_saturated_correct_logits():
    config = HyperConfig(variant=Variant.TEXT_ONLY, **SMALL)
    params = init_params(config)
    set_param(params, "cls_w1", np.zeros((4, 6)))
    set_param(params, "cls_b2", [[100.0, -100.0]])  # always confidently "real"
    ds = small_dataset(seed=1)
    reals = ds.take(np.flatnonzero(ds.labels == 0)[:8])
    loss = loss_value(params, config, reals)
    assert loss.value[0, 0] == 0.0


def test_loss_starts_near_coin_flip():
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    loss = loss_value(params, config, small_dataset(seed=2))
    assert abs(float(loss.value[0, 0]) - math.log(2.0)) < 0.2


def test_batched_loss_equals_mean_of_per_record_losses():
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    records = small_dataset(seed=3).take(range(10))
    batched = float(loss_value(params, config, records).value[0, 0])

    def record_loss(i):
        logits = forward(params, config, records.take([i])).logits[0]
        z = logits - logits.max()
        return float(np.log(np.exp(z).sum()) - z[records.labels[i]])

    assert abs(batched - np.mean([record_loss(i) for i in range(10)])) <= 1e-12


@pytest.mark.parametrize("l_t,l_i", [(1, 1), (3, 2)])
def test_batch_loss_gradient_matches_finite_differences(l_t, l_i):
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    records = generate_synthetic(
        SyntheticSpec(n_samples=3, d_t=8, d_i=6, l_t=l_t, l_i=l_i, seed=4)
    )

    _, analytic = loss_and_grads(params, config, records)

    def f(arrays):
        return float(loss_value(params, config, records).value[0, 0])

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
    )
    ones = [records.take([i]) for i in range(len(records))]

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for p in [params, pin_gates(params)] if variant is Variant.FULL else [params]:
        out = forward_batch(p, hyper, records)
        singles = [forward_batch(p, hyper, r) for r in ones]
        assert_close(out.logits, np.concatenate([s.logits for s in singles]))
        if variant is Variant.FULL:
            assert_close(out.alpha_text, np.concatenate([s.alpha_text for s in singles]))
            assert_close(out.alpha_image, np.concatenate([s.alpha_image for s in singles]))
    if variant is Variant.FULL:  # the last pass ran with pinned gates
        assert (out.alpha_text == 1.0).all() and (out.alpha_image == 1.0).all()

    loss, grads = loss_and_grads(params, hyper, records)
    singles = [loss_and_grads(params, hyper, r) for r in ones]
    assert_close(loss, np.mean([value for value, _ in singles]))
    for name in params.names:
        assert_close(grads[name], sum(g[name] for _, g in singles) / len(records))


@pytest.mark.parametrize("lengths", [(1, 1), (3, 2)], ids=["L1", "L3x2"])
@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_value_only_batch_loss_keeps_no_op_and_matches_a_recorded_step(variant, lengths,
                                                                       monkeypatch):
    hyper = HyperConfig(variant=variant, init_seed=7, **SMALL)
    params = init_params(hyper)
    records = small_dataset(n=9, seed=8, l_t=lengths[0], l_i=lengths[1])
    recorded, _ = loss_and_grads(params, hyper, records)
    made = []  # holds the fresh tape, which loss_value would free as it returns
    monkeypatch.setattr(support, "Tape", lambda: made.append(Tape()) or made[-1])
    loss = loss_value(params, hyper, records)
    (tape,) = made
    assert not tape._steps and loss.tape is tape and not loss.requires_grad
    assert loss.value[0, 0].tobytes() == recorded.tobytes()


def test_batch_loss_rejects_empty_batch():
    config = HyperConfig(variant=Variant.FULL, **SMALL)
    params = init_params(config)
    with pytest.raises(InputError):
        batch_loss(params, [config], small_dataset().take([]), tape=Tape(),
                   grad=np.zeros_like(params.flat))


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
    adamw_step(params, np.array([1.0]), state, config)
    # bias correction makes m_hat = v_hat = 1 on step one
    assert abs(params["w"][0, 0] - (1.0 - 0.1 / (1.0 + 1e-8))) <= 1e-12
    assert state.step_count == 1


def test_adamw_matches_reference_recurrence_over_steps():
    config = TrainConfig(learning_rate=0.05, weight_decay=0.02)
    params = ModelParams([("w", np.array([[0.7]]))])
    state = init_optimizer_state(params)
    grads = [0.3, -1.1, 0.45, 2.0]
    for g in grads:
        adamw_step(params, np.array([g]), state, config)
    expected = reference_adamw(0.7, grads, lr=0.05, wd=0.02)
    assert abs(params["w"][0, 0] - expected) <= 1e-12


def test_weight_decay_alone_shrinks_exactly():
    config = TrainConfig(learning_rate=0.1, weight_decay=0.1)
    params = ModelParams([("w", np.ones((2, 3)))])
    state = init_optimizer_state(params)
    adamw_step(params, np.zeros(6), state, config)
    assert np.array_equal(params["w"], np.full((2, 3), 0.99))


def test_zero_grad_zero_decay_is_identity():
    config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    rng = np.random.default_rng(5)
    original = rng.normal(size=(3, 2))
    params = ModelParams([("w", original.copy())])
    state = init_optimizer_state(params)
    for _ in range(3):
        adamw_step(params, np.zeros(6), state, config)
    assert np.array_equal(params["w"], original)


def test_adamw_rejects_gradient_of_wrong_length():
    params = ModelParams([("w", np.ones((1, 2)))])
    state = init_optimizer_state(params)
    for grad in (np.zeros(0), np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(InputError):
            adamw_step(params, grad, state, TrainConfig())
    assert state.step_count == 0 and params["w"].tolist() == [[1.0, 1.0]]


def per_parameter_adamw(arrays, grads, moments, step, config):
    """AdamW as one loop over named parameters, the form the flat update replaces."""
    bc1 = 1.0 - config.beta1 ** step
    bc2 = 1.0 - config.beta2 ** step
    for name, theta in arrays.items():
        g = grads[name]
        m, v = moments[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
        theta -= config.learning_rate * update + config.learning_rate * config.weight_decay * theta


def test_flat_adamw_matches_per_parameter_loop_bitwise():
    """Byte for byte, signed zeros included: after 10 steps a third of the
    gradient entries stay 0.0 or -0.0, and with beta1 = 0.01 their first
    moments underflow to signed zeros well before the last step."""
    params = init_params(HyperConfig(d_t=SyntheticSpec.d_t, d_i=SyntheticSpec.d_i,
                                     variant=Variant.FULL, init_seed=30))
    reference = {name: arr.copy() for name, arr in params.items()}
    moments = {name: (np.zeros_like(arr), np.zeros_like(arr)) for name, arr in reference.items()}
    state = init_optimizer_state(params)
    config = TrainConfig(learning_rate=0.01, weight_decay=0.05, beta1=0.01)
    rng = np.random.default_rng(30)
    zeroed = rng.random(params.flat.shape) < 1 / 3
    zeros = np.where(rng.random(zeroed.sum()) < 0.5, 0.0, -0.0)
    for step in range(1, 301):
        grad = rng.normal(size=params.flat.shape)
        if step > 10:
            grad[zeroed] = zeros
        adamw_step(params, grad, state, config)
        per_parameter_adamw(reference, params.views(grad), moments, step, config)

    def flat(index):
        return np.concatenate([mv[index].ravel() for mv in moments.values()])
    assert params.flat.tobytes() == np.concatenate([a.ravel() for a in reference.values()]).tobytes()
    assert state.first_moment.tobytes() == flat(0).tobytes()
    assert state.second_moment.tobytes() == flat(1).tobytes()
    m = state.first_moment[zeroed]
    assert (m == 0.0).all() and np.signbit(m).any() and not np.signbit(m).all()


def test_train_config_validation_and_preset():
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InputError):
        TrainConfig(beta1=1.0)
    with pytest.raises(InputError):
        TrainConfig(patience=-1)
    for name in ("learning_rate", "weight_decay", "epsilon"):  # refused before any step runs
        for value in (math.inf, math.nan):
            with pytest.raises(InputError, match=f"^{name} must be .* and finite, got {value}$"):
                TrainConfig(**{name: value})
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
    (checkpoint,), history = train(train_ds, val_ds, [hyper], TrainConfig(seed=7))
    assert len(history) <= 10
    assert checkpoint.best_val_f1 > 0.85
    train_f1 = evaluate(checkpoint.params, hyper, train_ds).f1
    assert train_f1 >= checkpoint.best_val_f1 - 0.1


def test_loss_drops_for_every_variant():
    train_ds, val_ds, _ = default_splits(seed=8)
    for variant in VARIANT_ORDER:
        hyper = HyperConfig(d_t=16, d_i=12, variant=variant)
        initial = float(loss_value(init_params(hyper), hyper, train_ds).value[0, 0])
        _, history = train(train_ds, val_ds, [hyper], TrainConfig(max_epochs=3, patience=3, seed=8))
        assert history[-1]["train_loss"] <= 0.7 * initial, variant


def test_early_stopping_patience_semantics():
    ds = generate_synthetic(SyntheticSpec(n_samples=200, d_t=8, d_i=6, seed=9))
    train_ds, val_ds, _ = split(ds, (0.6, 0.4, 0.0), seed=9)
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    # learning rate too small to change predictions: F1 never improves
    frozen = TrainConfig(learning_rate=1e-12, max_epochs=10, seed=9)

    _, history0 = train(train_ds, val_ds, [hyper], replace(frozen, patience=0))
    assert len(history0) == 2  # first epoch sets the best, second fails, stop
    _, history3 = train(train_ds, val_ds, [hyper], replace(frozen, patience=3))
    assert len(history3) == 4
    f1s = [h["val_f1"] for h in history3]
    assert max(f1s[1:]) <= f1s[0] + 1e-6


def test_checkpoint_holds_best_parameters():
    train_ds, val_ds, _ = default_splits(seed=10)
    hyper = HyperConfig(d_t=16, d_i=12, variant=Variant.CONCAT)
    (checkpoint,), history = train(train_ds, val_ds, [hyper], TrainConfig(max_epochs=4, seed=10))
    best_seen = max(h["val_f1"] for h in history)
    assert checkpoint.best_val_f1 == best_seen
    assert evaluate(checkpoint.params, hyper, val_ds).f1 == checkpoint.best_val_f1
    assert history[checkpoint.best_epoch]["val_f1"] == best_seen


def test_training_is_deterministic():
    ds = generate_synthetic(SyntheticSpec(n_samples=300, d_t=8, d_i=6, seed=11))
    train_ds, val_ds, _ = split(ds, (0.7, 0.3, 0.0), seed=11)
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    config = TrainConfig(max_epochs=2, seed=11)
    (ckpt_a,), hist_a = train(train_ds, val_ds, [hyper], config)
    (ckpt_b,), hist_b = train(train_ds, val_ds, [hyper], config)
    assert hist_a == hist_b
    assert params_equal(ckpt_a.params, ckpt_b.params)
    (ckpt_c,), _ = train(train_ds, val_ds, [hyper], replace(config, seed=99))
    assert not params_equal(ckpt_a.params, ckpt_c.params)


def test_divergence_names_epoch_and_step():
    ds = generate_synthetic(SyntheticSpec(n_samples=100, d_t=8, d_i=6, seed=15))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=15)
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    # one step this large sends the weights past what the next forward can hold
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError,
                          match=r"^variant concat: loss diverged at epoch 0, step 1; "
                                r"every parameter is finite$"):
        train(train_ds, val_ds, [hyper], TrainConfig(learning_rate=1e300, seed=15))


def test_divergence_names_the_first_non_finite_parameter(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(n_samples=100, d_t=8, d_i=6, seed=15))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=15)
    real_step, losses = training.train_step, []

    def corrupting_step(params, hypers, *args):
        losses.append(real_step(params, hypers, *args))
        if len(losses) < 2:
            return losses[-1]
        (model,) = lockstep_params(params.flat, hypers)  # train's one model, as it views it
        model["cls_b2"][0, 0] = np.nan  # later in the layout than cls_w2
        model["cls_w2"][4, 0] = np.inf  # later in cls_w2's rows than [3, 1]
        model["cls_w2"][3, 1] = -np.inf
        return [math.nan]

    monkeypatch.setattr(training, "train_step", corrupting_step)
    with pytest.raises(NumericsError, match=r"^variant full: loss diverged at epoch 0, step 1; "
                                            r"first non-finite parameter cls_w2\[3, 1\]$"):
        train(train_ds, val_ds, [HyperConfig(variant=Variant.FULL, **SMALL)], TrainConfig(seed=15))


def test_divergence_names_the_first_model_to_diverge():
    """A lockstep stops at the first step where any model diverges, and names
    the first such model in order, not the first model."""
    ds = generate_synthetic(SyntheticSpec(n_samples=100, d_t=8, d_i=6, seed=15))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=15)
    # weights this large overflow the first forward's logits
    hypers = [HyperConfig(variant=Variant.TEXT_ONLY, **SMALL)] + [
        HyperConfig(variant=v, init_scale=1e200, **SMALL) for v in (Variant.CONCAT, Variant.FULL)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match=r"^variant concat: loss diverged at epoch 0, "
                                               r"step 0; every parameter is finite$"):
        train(train_ds, val_ds, hypers, TrainConfig(seed=15))


def finite_loss_nan_gradient_params(hyper):
    """Full-variant parameters at which the loss is finite and gradients are
    not: both gates sit at exactly 0, so the sigmoid derivative multiplies
    infinite pooled features by 0."""
    params = init_params(hyper)
    for name, value in (("proj_text", 1e306), ("proj_image", 1e306), ("attn_v_text", 0.0),
                        ("attn_v_image", 0.0), ("gate_w1", 0.0), ("gate_w_text", 0.0),
                        ("gate_w_image", 0.0), ("gate_b1", 1.0), ("gate_b_text", -1e4),
                        ("gate_b_image", -1e4), ("cls_w1", 1e3), ("cls_b1", 1.0)):
        params[name][...] = value
    return params


def test_non_finite_gradient_behind_a_finite_loss_updates_nothing():
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    params = finite_loss_nan_gradient_params(hyper)
    ds = small_dataset(n=16, seed=48)
    rows = np.arange(16)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = loss_and_grads(params, hyper, ds.take(rows))
        assert math.isfinite(loss)
        assert not all(np.isfinite(g).all() for g in grads.values())
        before, state = params.copy(), init_optimizer_state(params)
        assert train_step(params, [hyper], ds, rows, state, TrainConfig()) is None
    assert params.flat.tobytes() == before.flat.tobytes() and state.step_count == 0
    assert not state.first_moment.any() and not state.second_moment.any()


def test_finite_gradient_whose_squares_overflow_still_updates():
    """The gradient check's quick sum of squares overflows on a large finite
    gradient; the full scan then finds it finite, and AdamW steps."""
    hyper = HyperConfig(variant=Variant.CONCAT, **SMALL)
    params = init_params(hyper)
    params["cls_w2"][:, 0] = 1e160  # d loss / d hidden ~ 1e160, so cls_w1's squares overflow
    ds, rows = small_dataset(n=16, seed=49), np.arange(16)
    state = init_optimizer_state(params)
    with np.errstate(over="ignore", invalid="ignore"):
        (loss,) = train_step(params, [hyper], ds, rows, state, TrainConfig())
        assert not math.isfinite(np.dot(state.grad, state.grad))
    assert math.isfinite(loss) and state.step_count == 1 and np.isfinite(state.grad).all()


def test_non_finite_gradient_names_model_epoch_step_and_entry(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(n_samples=100, d_t=8, d_i=6, seed=15))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=15)
    real_init = training.init_params
    monkeypatch.setattr(training, "init_params", lambda hyper: (
        finite_loss_nan_gradient_params(hyper) if hyper.variant is Variant.FULL
        else real_init(hyper)))
    hypers = [HyperConfig(variant=v, **SMALL) for v in (Variant.CONCAT, Variant.FULL)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match=r"^variant full: gradient not finite at epoch 0, "
                                               r"step 0; first non-finite gradient proj_text\[0, 0\]$"):
        train(train_ds, val_ds, hypers, TrainConfig(seed=15))


def test_train_step_loop_reproduces_one_epoch_of_train():
    ds = generate_synthetic(SyntheticSpec(n_samples=120, d_t=8, d_i=6, seed=16))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=16)
    hyper = HyperConfig(variant=Variant.FULL, init_seed=16, **SMALL)
    config = TrainConfig(max_epochs=1, batch_size=16, seed=16)
    (checkpoint,), history = train(train_ds, val_ds, [hyper], config)

    params = init_params(hyper)
    state = init_optimizer_state(params)
    epoch_seed = int(np.random.SeedSequence(config.seed).generate_state(1, np.uint64)[0])
    losses = [train_step(params, [hyper], train_ds, idx, state, config)[0]
              for idx in batches(train_ds, config.batch_size, epoch_seed)]
    assert params_equal(params, checkpoint.params)
    assert float(np.mean(losses)) == history[0]["train_loss"]


def test_train_step_skips_update_on_non_finite_loss():
    hyper = HyperConfig(variant=Variant.TEXT_ONLY, **SMALL)
    params = init_params(hyper)
    set_param(params, "cls_w1", np.zeros((4, 6)))
    set_param(params, "cls_b2", [[1e308, -1e308]])  # a fake record costs an infinite loss
    ds = small_dataset(seed=17)
    fakes = np.flatnonzero(ds.labels == 1)[:4]
    before = params.copy()
    state = init_optimizer_state(params)
    with np.errstate(over="ignore", invalid="ignore"):
        (value,) = train_step(params, [hyper], ds, fakes, state, TrainConfig())
    assert not math.isfinite(value)
    assert params_equal(params, before) and state.step_count == 0


@pytest.mark.parametrize("seq_len", [1, 3])
@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_replayed_train_step_matches_a_fresh_tape_bitwise(variant, seq_len):
    """train_step records its tape once per batch shape, a full batch and the
    short tail each, and replays it on rows gathered from any dataset of the
    recorded shapes (here two, in turn); every step equals a fresh eager tape
    followed by adamw_step, bit for bit."""
    hyper = HyperConfig(variant=variant, init_seed=40, **SMALL)
    sources = [generate_synthetic(SyntheticSpec(n_samples=40, d_t=8, d_i=6, l_t=seq_len,
                                                l_i=seq_len, seed=seed)) for seed in (40, 45)]
    params = init_params(hyper)
    reference = params.copy()
    state, ref_state = init_optimizer_state(params), init_optimizer_state(reference)
    config = TrainConfig(learning_rate=0.01, seed=40)
    recorded = {}
    for epoch in range(4):
        ds = sources[epoch % 2]
        for idx in batches(ds, 16, epoch):  # 16, 16, then a tail of 8
            (value,) = train_step(params, [hyper], ds, idx, state, config)
            ref_value, grads = loss_and_grads(reference, hyper, ds.take(idx))
            adamw_step(reference, np.concatenate([grads[n].ravel() for n in reference.names]),
                       ref_state, config)
            # bytes, not np.array_equal, which takes -0.0 for +0.0
            assert np.float64(value).tobytes() == ref_value.tobytes()
            assert params.flat.tobytes() == reference.flat.tobytes()
            assert state.first_moment.tobytes() == ref_state.first_moment.tobytes()
            assert state.second_moment.tobytes() == ref_state.second_moment.tobytes()
            tape = state.recordings[len(idx), ds.text.shape[1:], ds.image.shape[1:]].tape
            assert recorded.setdefault(len(idx), tape) is tape
    assert sorted(recorded) == [8, 16] and len(state.recordings) == 2


def test_train_step_records_again_at_another_sequence_length():
    """A batch of the recorded size whose sequences have another length is
    another shape: it records its own tape, equal to a fresh one, and the
    first recording still replays."""
    hyper = HyperConfig(variant=Variant.FULL, init_seed=46, **SMALL)
    short, long = (small_dataset(n=16, seed=46, l_t=length, l_i=2) for length in (1, 3))
    params = init_params(hyper)
    state = init_optimizer_state(params)
    config = TrainConfig(learning_rate=0.01)
    rows = np.arange(8)
    train_step(params, [hyper], short, rows, state, config)
    (first,) = state.recordings.values()
    expected, _ = loss_and_grads(params, hyper, long.take(rows))
    assert np.float64(train_step(params, [hyper], long, rows, state, config)[0]).tobytes() \
        == expected.tobytes()
    assert set(state.recordings) == {(8, (1, 8), (2, 6)), (8, (3, 8), (2, 6))}
    assert state.recordings[8, (3, 8), (2, 6)].tape is not first.tape
    train_step(params, [hyper], short, rows + 8, state, config)
    assert state.recordings[8, (1, 8), (2, 6)] is first


def test_train_step_records_again_for_other_params_or_hyper():
    """A recording serves only the parameter vector and hyper-config it was
    recorded from; one state passed other params, or another hyper-config,
    records again rather than replaying stale views."""
    hyper = HyperConfig(variant=Variant.FULL, init_seed=41, **SMALL)
    batch = small_dataset(n=16, seed=41)
    rows = np.arange(16)
    config = TrainConfig(learning_rate=0.01)
    first, second = init_params(hyper), init_params(replace(hyper, init_seed=42))
    state = init_optimizer_state(first)
    train_step(first, [hyper], batch, rows, state, config)
    (key, recording), = state.recordings.items()

    first_before, second_before = first.copy(), second.copy()
    expected, _ = loss_and_grads(second, hyper, batch)
    assert train_step(second, [hyper], batch, rows, state, config)[0] == expected
    assert params_equal(first, first_before) and not params_equal(second, second_before)
    assert state.recordings[key].tape is not recording.tape
    recording = state.recordings[key]

    other_hyper = replace(hyper, init_scale=2.0)  # the same graph, but not the recorded config
    tapes = []
    for _ in range(2):
        train_step(second, [other_hyper], batch, rows, state, config)
        tapes.append(state.recordings[key].tape)
    assert tapes[0] is not recording.tape and tapes[1] is tapes[0]


def test_train_step_records_again_for_another_set_of_live_models():
    """A recording serves only the set of live models it was recorded with: a
    step without a model records a tape in place of the old one, which later
    steps with that set replay. Each live model gets the bits it gets alone;
    the model that left gets zeros in the gradient vector."""
    hypers = tuple(HyperConfig(variant=v, init_seed=47, **SMALL)
                   for v in (Variant.FULL, Variant.CONCAT, Variant.TEXT_ONLY))
    alone = [init_params(h) for h in hypers]
    params = ModelParams([(str(k), p.flat[None]) for k, p in enumerate(alone)])
    models = lockstep_params(params.flat, hypers)
    state, states = init_optimizer_state(params), [init_optimizer_state(p) for p in alone]
    ds, config = small_dataset(n=40, seed=47), TrainConfig(learning_rate=0.01)
    tapes = {}
    for step, live in enumerate([(0, 1, 2), (0, 2), (0, 2), (0, 2)]):
        rows = np.arange(16) + 8 * step
        losses = train_step(params, hypers, ds, rows, state, config, list(live))
        for loss, k in zip(losses, live, strict=True):
            (expected,) = train_step(alone[k], [hypers[k]], ds, rows, states[k], config)
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
            assert models[k].flat.tobytes() == alone[k].flat.tobytes()
        recording = state.recordings[16, ds.text.shape[1:], ds.image.shape[1:]]
        assert recording.live == live and tapes.setdefault(live, recording.tape) is recording.tape
        if 1 not in live:
            assert not lockstep_params(state.grad, hypers)[1].flat.any()
    assert len(state.recordings) == 1 and len(tapes[0, 2]) < len(tapes[0, 1, 2])


def test_a_stopped_model_s_tape_is_freed_by_the_next_step_at_its_shape():
    """Once a model leaves the lockstep, each batch shape's next step records a
    tape without it in place of the one that held it: the state keeps one
    recording per batch shape, and reference counting alone frees the old tapes."""
    hypers = tuple(HyperConfig(variant=v, init_seed=48, **SMALL)
                   for v in (Variant.FULL, Variant.CONCAT, Variant.TEXT_ONLY))
    params = ModelParams([(str(k), init_params(h).flat[None]) for k, h in enumerate(hypers)])
    state, config = init_optimizer_state(params), TrainConfig(learning_rate=0.01)
    ds = small_dataset(n=40, seed=48)
    full, tail = np.arange(16), np.arange(16, 24)  # two batch shapes: 16 rows and 8
    gc.disable()
    try:
        for rows in (full, tail, full, tail):
            train_step(params, hypers, ds, rows, state, config)
        stopped = [weakref.ref(state.recordings[len(rows), (1, 8), (1, 6)].tape)
                   for rows in (full, tail)]
        train_step(params, hypers, ds, full, state, config, [0, 2])
        assert len(state.recordings) == 2 and stopped[0]() is None and stopped[1]() is not None
        train_step(params, hypers, ds, tail, state, config, [0, 2])
        assert len(state.recordings) == 2 and stopped[1]() is None
        assert all(r.live == (0, 2) for r in state.recordings.values())
    finally:
        gc.enable()


@pytest.mark.parametrize("lengths", [(1, 1), (3, 2)], ids=["L1", "L3x2"])
def test_ablation_in_lockstep_equals_five_one_model_trains_bytewise(lengths, monkeypatch):
    """run_ablation trains the five variants in one lockstep; each checkpoint
    and history row equals a one-model train's byte for byte, with a short
    tail batch and variants that stop early at different epochs."""
    ds = small_dataset(n=60, seed=20, l_t=lengths[0], l_i=lengths[1])
    splits = split(ds, (0.6, 0.2, 0.2), seed=20)
    assert len(splits[0]) % 16 != 0
    hyper = HyperConfig(init_seed=20, **SMALL)
    config = TrainConfig(batch_size=16, max_epochs=6, patience=1, learning_rate=0.01, seed=20)
    real_train, histories = experiments.train, []

    def keeping_history(*args):
        checkpoints, history = real_train(*args)
        histories.append(history)
        return checkpoints, history

    monkeypatch.setattr(experiments, "train", keeping_history)
    _, checkpoints = experiments.run_ablation(splits, hyper, config)
    (history_in_lockstep,) = histories
    expected_history, epochs = [], []
    for variant in VARIANT_ORDER:
        (alone,), history = train(splits[0], splits[1], [replace(hyper, variant=variant)], config)
        lockstep = checkpoints[variant]
        assert lockstep.params.flat.tobytes() == alone.params.flat.tobytes(), variant
        assert lockstep.params.names == alone.params.names
        assert (lockstep.best_epoch, np.float64(lockstep.best_val_f1).tobytes()) == \
            (alone.best_epoch, np.float64(alone.best_val_f1).tobytes())
        expected_history += history
        epochs.append(len(history))
    assert repr(history_in_lockstep) == repr(expected_history)  # repr tells -0.0 from 0.0
    assert len({n for n in epochs if n < config.max_epochs}) >= 2, epochs


@pytest.mark.parametrize("lengths", [(1, 1), (3, 2)], ids=["L1", "L3x2"])
@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_training_leaves_no_cyclic_garbage(variant, lengths):
    """Every step tape, with the buffers it recorded, is freed by reference
    counting when training ends or a step records again; a cycle would keep
    it until a full collection, once per model of an ablation or screen."""
    hyper = HyperConfig(variant=variant, **SMALL)
    ds = small_dataset(n=60, seed=43, l_t=lengths[0], l_i=lengths[1])
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=43)
    config = TrainConfig(max_epochs=2, batch_size=16, seed=43)
    first, second = init_params(hyper), init_params(replace(hyper, init_seed=44))
    gc.collect()
    gc.disable()
    try:
        train(train_ds, val_ds, [hyper], config)
        assert gc.collect() == 0
        state = init_optimizer_state(first)
        rows = np.arange(len(train_ds))
        train_step(first, [hyper], train_ds, rows, state, config)
        train_step(second, [hyper], train_ds, rows, state, config)  # records again: the first goes
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_train_validates_inputs():
    ds = generate_synthetic(SyntheticSpec(n_samples=50, d_t=8, d_i=6, seed=12))
    train_ds, val_ds, _ = split(ds, (0.8, 0.2, 0.0), seed=12)
    hyper_wrong = HyperConfig(d_t=16, d_i=12)
    with pytest.raises(WidthMismatchError, match=r"^train split widths \(d_t=8, d_i=6\) do not "
                       r"match the model \(d_t=16, d_i=12\)$"):
        train(train_ds, val_ds, [hyper_wrong], TrainConfig())
    wide = generate_synthetic(SyntheticSpec(n_samples=10, d_t=16, d_i=12, seed=12))
    with pytest.raises(WidthMismatchError, match=r"^validation split widths \(d_t=8, d_i=6\)"):
        train(wide, val_ds, [hyper_wrong], TrainConfig())
    empty = train_ds.take([])
    hyper = HyperConfig(variant=Variant.FULL, **SMALL)
    with pytest.raises(InputError):
        train(empty, val_ds, [hyper], TrainConfig())


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

    record = generate_synthetic(SyntheticSpec(n_samples=1, d_t=8, d_i=6, seed=14))
    before = forward(checkpoint.params, checkpoint.hyper, record).logits
    after = forward(loaded.params, loaded.hyper, record).logits
    assert np.array_equal(before, after)


def test_loaded_parameters_are_writable(tmp_path):
    checkpoint = tiny_checkpoint()
    path = tmp_path / "model.mmck"
    save_checkpoint(checkpoint, path)
    params = load_checkpoint(path).params
    assert params.flat.flags.writeable
    assert all(np.shares_memory(arr, params.flat) for _, arr in params.items())
    adamw_step(params, np.ones_like(params.flat), init_optimizer_state(params), TrainConfig())
    assert not np.array_equal(params.flat, checkpoint.params.flat)


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
    with pytest.raises(FileFormatError, match="^expected magic b'MMCK', got b'ZZZZ'$"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.mmck"
    bad_version.write_bytes(good[:4] + struct.pack("<I", 3) + good[8:])
    with pytest.raises(FileFormatError, match="^unsupported checkpoint version 3$"):
        load_checkpoint(bad_version)

    truncated = tmp_path / "trunc.mmck"
    for cut in range(len(good)):
        truncated.write_bytes(good[:cut])
        with pytest.raises(FileFormatError, match=f"^checkpoint ends at byte {cut} but "):
            load_checkpoint(truncated)

    # corrupt the hyper-block length field so it points past the end
    corrupt_len = tmp_path / "len.mmck"
    corrupt_len.write_bytes(good[:8] + struct.pack("<I", 10 ** 6) + good[12:])
    with pytest.raises(FileFormatError, match=f"^checkpoint ends at byte {len(good)} but "):
        load_checkpoint(corrupt_len)

    # a key the hyper-config block sets twice
    (hyper_len,) = struct.unpack_from("<I", good, 8)
    repeated = tmp_path / "repeated.mmck"
    block = good[12:12 + hyper_len] + b"\ninit_seed=7"
    repeated.write_bytes(good[:8] + struct.pack("<I", len(block)) + block + good[12 + hyper_len:])
    with pytest.raises(FileFormatError, match="init_seed"):
        load_checkpoint(repeated)

    trailing = tmp_path / "trail.mmck"
    trailing.write_bytes(good + b"\x01")
    with pytest.raises(FileFormatError):
        load_checkpoint(trailing)

    # config blocks get the INI's finite and range checks. The configs refuse a
    # non-finite float, so it is written into the saved text at the same length,
    # which keeps every length prefix valid
    for key, value, bad in (("learning_rate", "0.001", "  nan"), ("epsilon", "1e-08", "  nan"),
                            ("init_scale", "1.0", "inf")):
        line = f"{key}={value}".encode()
        assert good.count(line) == 1
        bad_config = tmp_path / f"{key}.mmck"
        bad_config.write_bytes(good.replace(line, f"{key}={bad}".encode()))
        with pytest.raises(FileFormatError, match=f"^bad value in checkpoint config: {key} "):
            load_checkpoint(bad_config)
    for seed in (-1, 2**64):
        bad_config = tmp_path / "init_seed.mmck"
        save_checkpoint(replace(checkpoint, hyper=replace(checkpoint.hyper, init_seed=seed)),
                        bad_config)
        with pytest.raises(FileFormatError, match="init_seed"):
            load_checkpoint(bad_config)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 10**6)))
def test_mutated_checkpoints_raise_only_format_errors(tmp_path, edits, cut):
    path = tmp_path / "model.mmck"
    save_checkpoint(tiny_checkpoint(variant=Variant.TEXT_ONLY), path)
    payload = bytearray(path.read_bytes())
    for at, value in edits:
        payload[at % len(payload)] = value
    if cut is not None:
        payload = payload[:cut % (len(payload) + 1)]
    path.write_bytes(bytes(payload))
    try:
        load_checkpoint(path)
    except FileFormatError:
        pass


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
