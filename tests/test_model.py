"""Tests for the fusion model: parameter init, stage math, variants, traces.

Stage outputs are checked against straight-line numpy re-computations and
explicit-loop oracles written independently of the graph builders.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mmfuse.autodiff import Tape, finite_difference_check
from mmfuse.data import FeatureRecord, SyntheticSpec, generate_synthetic
from mmfuse.errors import InputError, UsageError
from mmfuse.model import (
    HyperConfig,
    ModelParams,
    Variant,
    VARIANT_ORDER,
    _gate_alphas,
    check_params_match,
    cross_attend,
    forward,
    forward_batch,
    fuse_classify,
    gate,
    init_params,
    parameter_shapes,
    predict_labels,
    predict_proba,
    project,
    register_parameters,
    stack_batch,
)

SMALL = dict(d_t=8, d_i=6, d_c=4, gate_hidden=5, cls_hidden=6)


def config_for(variant, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return HyperConfig(variant=variant, **kwargs)


def random_params(config, seed=0):
    rng = np.random.default_rng(seed)
    return ModelParams(
        (name, rng.uniform(-0.6, 0.6, shape)) for name, shape in parameter_shapes(config).items()
    )


def random_record(config, seed=0, l_t=1, l_i=1):
    rng = np.random.default_rng(seed)
    return FeatureRecord(
        f"r{seed}", int(rng.integers(0, 2)),
        rng.normal(size=(l_t, config.d_t)), rng.normal(size=(l_i, config.d_i)),
    )


# -- initialization --------------------------------------------------------------


def test_init_is_deterministic_and_biases_zero():
    config = config_for(Variant.FULL, init_seed=3)
    a, b = init_params(config), init_params(config)
    assert a.names == b.names
    for name, arr in a.items():
        assert np.array_equal(arr, b[name])
    for name in ("gate_b1", "gate_b_text", "gate_b_image", "cls_b1", "cls_b2"):
        assert not a[name].any()


def test_init_scale_matches_uniform_std():
    config = HyperConfig(d_t=4, d_i=4, d_c=64, variant=Variant.FULL, init_seed=1)
    w = init_params(config)["attn_q_text"]
    assert w.shape == (64, 64)
    expected = (1.0 / math.sqrt(64)) / math.sqrt(3.0)  # uniform(-b, b) std = b/sqrt(3)
    assert abs(w.std() - expected) / expected < 0.2
    assert np.abs(w).max() <= 1.0 / math.sqrt(64)


@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_parameter_sets_per_variant(variant):
    config = config_for(variant)
    names = set(parameter_shapes(config))
    assert {"cls_w1", "cls_b1", "cls_w2", "cls_b2"} <= names
    assert ("proj_text" in names) == (variant is not Variant.IMAGE_ONLY)
    assert ("proj_image" in names) == (variant is not Variant.TEXT_ONLY)
    assert ("attn_q_text" in names) == (variant in (Variant.FIXED_ATTENTION, Variant.FULL))
    assert ("gate_w1" in names) == (variant is Variant.FULL)
    width = parameter_shapes(config)["cls_w1"][0]
    assert width == (4 if variant in (Variant.TEXT_ONLY, Variant.IMAGE_ONLY) else 8)


def test_hyper_config_validation():
    with pytest.raises(InputError):
        HyperConfig(d_t=0, d_i=4)
    with pytest.raises(InputError):
        HyperConfig(d_t=4, d_i=4, d_c=8, d_k=4)
    assert HyperConfig(d_t=4, d_i=4, d_c=8).d_k == 8
    with pytest.raises(InputError):
        HyperConfig(d_t=4, d_i=4, init_scale=0.0)
    assert HyperConfig(d_t=4, d_i=4, variant="concat").variant is Variant.CONCAT


def test_check_params_match_flags_wrong_variant():
    full = config_for(Variant.FULL)
    params = init_params(full)
    check_params_match(params, full)
    with pytest.raises(InputError):
        check_params_match(params, config_for(Variant.CONCAT))


# -- projections ------------------------------------------------------------------


def test_identity_projection_passes_features_through():
    config = config_for(Variant.CONCAT, d_t=4, d_c=4)
    params = random_params(config, seed=5)
    params.set("proj_text", np.eye(4))
    record = random_record(config, seed=1)
    h_t, _ = project(params, record)
    assert np.array_equal(h_t, record.text_features)


def test_projection_matches_triple_loop():
    config = config_for(Variant.CONCAT)
    params = random_params(config, seed=2)
    record = random_record(config, seed=3, l_t=2, l_i=3)
    h_t, h_i = project(params, record)
    for h, x, w in ((h_t, record.text_features, params["proj_text"]),
                    (h_i, record.image_features, params["proj_image"])):
        expected = np.zeros_like(h)
        for a in range(x.shape[0]):
            for c in range(w.shape[1]):
                for b in range(x.shape[1]):
                    expected[a, c] += x[a, b] * w[b, c]
        assert np.abs(h - expected).max() <= 1e-12


# -- cross-attention ----------------------------------------------------------------


def naive_cross_attend(p, h_t, h_i, d_k):
    """Explicit-loop scaled dot-product attention with residuals."""
    out = []
    for h_q, h_kv, w_q, w_k, w_v in (
        (h_t, h_i, p["attn_q_text"], p["attn_k_image"], p["attn_v_image"]),
        (h_i, h_t, p["attn_q_image"], p["attn_k_text"], p["attn_v_text"]),
    ):
        q, k, v = h_q @ w_q, h_kv @ w_k, h_kv @ w_v
        att = np.array(h_q, copy=True)
        for a in range(h_q.shape[0]):
            scores = [
                sum(q[a, x] * k[b, x] for x in range(q.shape[1])) / math.sqrt(d_k)
                for b in range(h_kv.shape[0])
            ]
            top = max(scores)
            weights = [math.exp(s - top) for s in scores]
            total = sum(weights)
            for b in range(h_kv.shape[0]):
                for c in range(v.shape[1]):
                    att[a, c] += weights[b] / total * v[b, c]
        out.append(att)
    return out[0], out[1]


def test_cross_attend_matches_loop_oracle():
    config = config_for(Variant.FULL)
    params = random_params(config, seed=7)
    rng = np.random.default_rng(8)
    # (1, 3) and (3, 1): one direction has a single key, the other a softmax
    for l_t, l_i in ((2, 3), (1, 3), (3, 1), (1, 1)):
        h_t, h_i = rng.normal(size=(l_t, 4)), rng.normal(size=(l_i, 4))
        att_t, att_i = cross_attend(params, h_t, h_i, config.d_k)
        exp_t, exp_i = naive_cross_attend(params, h_t, h_i, config.d_k)
        assert att_t.shape == (l_t, 4) and att_i.shape == (l_i, 4)
        assert np.abs(att_t - exp_t).max() <= 1e-10
        assert np.abs(att_i - exp_i).max() <= 1e-10


def test_cross_attend_single_step_closed_form():
    config = config_for(Variant.FULL)
    params = random_params(config, seed=9)
    rng = np.random.default_rng(10)
    h_t, h_i = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    att_t, att_i = cross_attend(params, h_t, h_i, config.d_k)
    assert np.abs(att_t - (h_i @ params["attn_v_image"] + h_t)).max() <= 1e-12
    assert np.abs(att_i - (h_t @ params["attn_v_text"] + h_i)).max() <= 1e-12


def test_cross_attend_zero_values_passes_residual():
    config = config_for(Variant.FULL)
    params = random_params(config, seed=11)
    params.set("attn_v_image", np.zeros((4, 4)))
    params.set("attn_v_text", np.zeros((4, 4)))
    rng = np.random.default_rng(12)
    h_t, h_i = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
    att_t, att_i = cross_attend(params, h_t, h_i, config.d_k)
    assert np.array_equal(att_t, h_t)
    assert np.array_equal(att_i, h_i)


# -- gating ---------------------------------------------------------------------------


def test_gate_is_half_with_zero_head():
    config = config_for(Variant.FULL)
    params = random_params(config, seed=13)
    params.set("gate_w_text", np.zeros((5, 1)))
    params.set("gate_b_text", np.zeros((1, 1)))
    alpha_t, alpha_i, pooled_t, pooled_i = gate(params, np.ones((2, 4)), np.ones((3, 4)))
    assert alpha_t == 0.5
    assert 0.0 < alpha_i < 1.0
    assert np.array_equal(pooled_t, np.ones((1, 4)))


def test_gate_outputs_stay_in_unit_interval():
    config = config_for(Variant.FULL)
    rng = np.random.default_rng(14)
    for seed in range(10):
        params = random_params(config, seed=seed)
        a_t, a_i, _, _ = gate(params, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        assert 0.0 < a_t < 1.0 and 0.0 < a_i < 1.0


def test_gate_gradient_matches_finite_differences():
    config = config_for(Variant.FULL)
    params = random_params(config, seed=15)
    rng = np.random.default_rng(16)
    pooled_t_arr, pooled_i_arr = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))

    def alpha_of(p):
        tape = Tape(grad=False)
        pn = register_parameters(tape, ModelParams(p.items()))
        a_t, _ = _gate_alphas(tape, pn, tape.constant(pooled_t_arr), tape.constant(pooled_i_arr))
        return float(a_t.value[0, 0])

    tape = Tape()
    pn = register_parameters(tape, params)
    alpha_t, _ = _gate_alphas(tape, pn, tape.constant(pooled_t_arr), tape.constant(pooled_i_arr))
    tape.backward(alpha_t)
    arrays = {"gate_w1": params["gate_w1"]}
    analytic = {"gate_w1": pn["gate_w1"].grad}

    def f(arrs):
        return alpha_of(params)

    assert finite_difference_check(f, arrays, analytic, step=1e-5) <= 1e-5


# -- fuse and classify ------------------------------------------------------------------


def naive_classifier(p, features):
    hidden = np.maximum(features @ p["cls_w1"] + p["cls_b1"], 0.0)
    return hidden @ p["cls_w2"] + p["cls_b2"]


def test_unit_gates_reduce_to_plain_concat():
    config = config_for(Variant.FULL)
    params = random_params(config, seed=17)
    rng = np.random.default_rng(18)
    pooled_t, pooled_i = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    logits = fuse_classify(params, 1.0, 1.0, pooled_t, pooled_i)
    expected = naive_classifier(params, np.concatenate([pooled_t, pooled_i], axis=1))
    assert np.array_equal(logits, expected)


def test_zero_gates_with_zero_biases_give_zero_logits():
    config = config_for(Variant.FULL)
    params = init_params(config)  # biases start at zero
    rng = np.random.default_rng(19)
    logits = fuse_classify(params, 0.0, 0.0, rng.normal(size=(1, 4)), rng.normal(size=(1, 4)))
    assert np.array_equal(logits, np.zeros((1, 2)))


def naive_full_forward(p, text, image, d_k):
    def soft(rows):
        z = rows - rows.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def logistic(x):
        return 1.0 / (1.0 + np.exp(-x))

    h_t, h_i = text @ p["proj_text"], image @ p["proj_image"]
    s_t = (h_t @ p["attn_q_text"]) @ (h_i @ p["attn_k_image"]).T / math.sqrt(d_k)
    att_t = soft(s_t) @ (h_i @ p["attn_v_image"]) + h_t
    s_i = (h_i @ p["attn_q_image"]) @ (h_t @ p["attn_k_text"]).T / math.sqrt(d_k)
    att_i = soft(s_i) @ (h_t @ p["attn_v_text"]) + h_i
    pooled_t = att_t.mean(axis=0, keepdims=True)
    pooled_i = att_i.mean(axis=0, keepdims=True)
    joint = np.concatenate([pooled_t, pooled_i], axis=1)
    hidden = np.maximum(joint @ p["gate_w1"] + p["gate_b1"], 0.0)
    a_t = logistic(hidden @ p["gate_w_text"] + p["gate_b_text"])
    a_i = logistic(hidden @ p["gate_w_image"] + p["gate_b_image"])
    fused = np.concatenate([a_t * pooled_t, a_i * pooled_i], axis=1)
    return naive_classifier(p, fused), float(a_t[0, 0]), float(a_i[0, 0])


@pytest.mark.parametrize("l_t,l_i", [(1, 1), (2, 3)])
def test_full_forward_matches_straight_line_oracle(l_t, l_i):
    config = config_for(Variant.FULL)
    params = random_params(config, seed=20)
    record = random_record(config, seed=21, l_t=l_t, l_i=l_i)
    trace = forward(params, config, record)
    logits, a_t, a_i = naive_full_forward(
        params, record.text_features, record.image_features, config.d_k
    )
    assert np.abs(trace.logits - logits).max() <= 1e-10
    assert abs(trace.alpha_text - a_t) <= 1e-10
    assert abs(trace.alpha_image - a_i) <= 1e-10


# -- variant wiring -------------------------------------------------------------------


def fixed_attention_subset(full_params, config):
    names = parameter_shapes(config_for(Variant.FIXED_ATTENTION, **{
        k: getattr(config, k) for k in ("d_t", "d_i", "d_c", "gate_hidden", "cls_hidden")
    }))
    return ModelParams((name, full_params[name]) for name in names)


def test_pinned_gates_equal_ungated_attention_bitwise():
    full_config = config_for(Variant.FULL)
    fixed_config = config_for(Variant.FIXED_ATTENTION)
    params = random_params(full_config, seed=22)
    fixed_params = fixed_attention_subset(params, full_config)
    for seed in range(5):
        record = random_record(full_config, seed=30 + seed)
        pinned = forward(params, full_config, record, gate_override=(1.0, 1.0))
        plain = forward(fixed_params, fixed_config, record)
        assert np.array_equal(pinned.logits, plain.logits)


def test_single_modal_variants_ignore_the_other_modality():
    config = config_for(Variant.TEXT_ONLY)
    params = init_params(config)
    rng = np.random.default_rng(23)
    text = rng.normal(size=(1, config.d_t))
    a = FeatureRecord("a", 0, text, rng.normal(size=(1, config.d_i)))
    b = FeatureRecord("b", 0, text, rng.normal(size=(1, config.d_i)))
    assert np.array_equal(forward(params, config, a).logits, forward(params, config, b).logits)


def test_trace_fields_follow_variant():
    record_config = config_for(Variant.FULL)
    record = random_record(record_config, seed=24)
    full = forward(init_params(record_config), record_config, record)
    assert full.alpha_text is not None and 0.0 < full.alpha_text < 1.0
    assert full.attended_text is not None and full.fused.shape == (1, 8)

    concat_config = config_for(Variant.CONCAT)
    concat = forward(init_params(concat_config), concat_config, record)
    assert concat.alpha_text is None and concat.attended_text is None
    assert concat.fused.shape == (1, 8)

    text_config = config_for(Variant.TEXT_ONLY)
    text = forward(init_params(text_config), text_config, record)
    assert text.projected_image is None and text.fused.shape == (1, 4)


def test_forward_rejects_mismatched_record():
    config = config_for(Variant.FULL)
    params = init_params(config)
    bad = FeatureRecord("bad", 0, np.zeros((1, 3)), np.zeros((1, config.d_i)))
    with pytest.raises(InputError):
        forward(params, config, bad)


def test_stage_wrappers_reject_wrong_variant():
    config = config_for(Variant.CONCAT)
    params = init_params(config)
    with pytest.raises(UsageError):
        gate(params, np.ones((1, 4)), np.ones((1, 4)))
    with pytest.raises(UsageError):
        cross_attend(params, np.ones((1, 4)), np.ones((1, 4)), config.d_k)


# -- batched forward ---------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_batched_forward_matches_per_record(variant):
    config = config_for(variant)
    params = init_params(config)
    ds = generate_synthetic(SyntheticSpec(n_samples=16, d_t=8, d_i=6, seed=25))
    out = forward_batch(params, config, ds.records)
    assert out.logits.shape == (16, 2)
    for i, record in enumerate(ds.records):
        trace = forward(params, config, record)
        assert np.abs(out.logits[i] - trace.logits[0]).max() <= 1e-10
        if variant is Variant.FULL:
            assert abs(out.alpha_text[i] - trace.alpha_text) <= 1e-10
            assert abs(out.alpha_image[i] - trace.alpha_image) <= 1e-10


@pytest.mark.parametrize("l_t,l_i", [(1, 1), (3, 2)])
def test_stack_batch_matches_records(l_t, l_i):
    config = config_for(Variant.FULL)
    ds = generate_synthetic(SyntheticSpec(n_samples=6, d_t=8, d_i=6, l_t=l_t, l_i=l_i, seed=1))
    text, image = stack_batch(config, ds.records)
    assert text.shape == (6, l_t, 8) and image.shape == (6, l_i, 6)
    for i, r in enumerate(ds.records):
        assert np.array_equal(text[i], r.text_features)
        assert np.array_equal(image[i], r.image_features)


def test_stack_batch_rejects_mixed_or_mismatched_shapes():
    config = config_for(Variant.FULL)
    short = random_record(config, seed=1, l_t=2, l_i=4)
    long = random_record(config, seed=2, l_t=4, l_i=2)  # same total rows, other split
    with pytest.raises(InputError):
        stack_batch(config, [short, long])
    with pytest.raises(InputError):
        stack_batch(config_for(Variant.FULL, d_i=5), [short])
    with pytest.raises(InputError):
        stack_batch(config, [])


def test_batched_forward_handles_longer_sequences():
    config = config_for(Variant.FULL)
    params = init_params(config)
    ds = generate_synthetic(SyntheticSpec(n_samples=5, d_t=8, d_i=6, l_t=3, l_i=2, seed=26))
    out = forward_batch(params, config, ds.records)
    for i, record in enumerate(ds.records):
        # one gemm over all records rounds differently from a batch of one
        single = forward(params, config, record).logits
        assert np.abs(out.logits[i:i + 1] - single).max() <= 1e-12 * np.abs(single).max()


def test_predict_proba_and_labels():
    config = config_for(Variant.FULL)
    params = init_params(config)
    record = random_record(config, seed=27)
    trace = forward(params, config, record)
    p_real, p_fake = predict_proba(trace)
    assert abs(p_real + p_fake - 1.0) <= 1e-12
    assert (p_fake > p_real) == (trace.logits[0, 1] > trace.logits[0, 0])
    out = forward_batch(params, config, [record])
    assert predict_labels(out)[0] == int(trace.logits[0, 1] > trace.logits[0, 0])
