"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import json

import pytest

from mmfuse.cli import main
from mmfuse.model import Variant, VARIANT_ORDER
from mmfuse.training import load_checkpoint

SMALL_INI = """\
[data]
n_samples = 300
d_t = 8
d_i = 6

[model]
d_c = 4
gate_hidden = 5
cls_hidden = 6

[train]
max_epochs = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated data file plus trained checkpoints shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "small.ini"
    config.write_text(SMALL_INI)
    assert main(["gen-data", "--config", str(config), "--out", str(root / "gen")]) == 0
    data = root / "gen" / "data.mmfn"
    assert main(["ablate", "--config", str(config), "--data", str(data),
                 "--out", str(root / "abl")]) == 0
    return {
        "root": root,
        "config": config,
        "data": data,
        "full": root / "abl" / "ablate-full.mmck",
        "concat": root / "abl" / "ablate-concat.mmck",
        "text": root / "abl" / "ablate-text-only.mmck",
        "image": root / "abl" / "ablate-image-only.mmck",
    }


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_rows(out):
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


# -- gen-data ---------------------------------------------------------------------


def test_gen_data_writes_file_and_echo(workspace, capsys):
    out = workspace["root"] / "gen-b"
    code, stdout, stderr = run(
        ["gen-data", "--config", str(workspace["config"]), "--out", str(out)], capsys
    )
    assert code == 0 and stderr == ""
    assert "wrote 300 records" in stdout and "d_t=8" in stdout
    assert (out / "data.mmfn").read_bytes() == workspace["data"].read_bytes()
    echoed = (out / "resolved-config.ini").read_text()
    assert "n_samples = 300" in echoed


def test_gen_data_rejects_bad_spec(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[data]\nn_samples = 0\n")
    code, _, stderr = run(
        ["gen-data", "--config", str(config), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("mmfuse: error:")
    assert "n_samples" in stderr
    assert not (tmp_path / "out" / "data.mmfn").exists()


def test_gen_data_master_seed_changes_data(tmp_path, capsys):
    args = ["gen-data", "--out", None, "--seed", "7"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(["gen-data", "--out", str(out), "--seed", "7"], capsys)
        assert code == 0
        outs.append((out / "data.mmfn").read_bytes())
    assert outs[0] == outs[1]
    out = tmp_path / "c"
    assert main(["gen-data", "--out", str(out), "--seed", "8"]) == 0
    capsys.readouterr()
    assert (out / "data.mmfn").read_bytes() != outs[0]


# -- train ------------------------------------------------------------------------


def test_train_outputs_and_rerun_identical(workspace, tmp_path, capsys):
    base = ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"])]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code, stdout, _ = run(base + ["--out", str(out_a)], capsys)
    assert code == 0
    rows = stdout_rows(stdout)
    assert len(rows) >= 1
    assert set(rows[0]) == {
        "epoch", "train_loss", "val_accuracy", "val_precision", "val_recall", "val_f1",
    }
    assert "saved checkpoint" in stdout
    assert main(base + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "model.mmck").read_bytes() == (out_b / "model.mmck").read_bytes()
    assert (out_a / "history.jsonl").read_bytes() == (out_b / "history.jsonl").read_bytes()


def test_train_variant_flag_overrides_config(workspace, tmp_path, capsys):
    out = tmp_path / "concat"
    code, _, _ = run(
        ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--variant", "concat", "--out", str(out)],
        capsys,
    )
    assert code == 0
    loaded = load_checkpoint(out / "model.mmck")
    assert loaded.hyper.variant is Variant.CONCAT
    assert "variant = concat" in (out / "resolved-config.ini").read_text()


def test_train_preset_pins_recipe(workspace, tmp_path, capsys):
    out = tmp_path / "preset"
    code, _, _ = run(
        ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--preset", "paper-protocol", "--out", str(out)],
        capsys,
    )
    assert code == 0
    echoed = (out / "resolved-config.ini").read_text()
    assert "learning_rate = 1e-05" in echoed
    assert "batch_size = 32" in echoed
    assert "max_epochs = 10" in echoed


def test_train_echo_reproduces_run(workspace, tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["train", "--config", str(workspace["config"]), "--data",
                 str(workspace["data"]), "--out", str(first)]) == 0
    second = tmp_path / "second"
    # the echo embeds the data path, so --data is no longer needed
    assert main(["train", "--config", str(first / "resolved-config.ini"),
                 "--out", str(second)]) == 0
    capsys.readouterr()
    assert (first / "model.mmck").read_bytes() == (second / "model.mmck").read_bytes()


def test_train_requires_some_data_source(workspace, tmp_path, capsys):
    code, _, stderr = run(
        ["train", "--config", str(workspace["config"]), "--out", str(tmp_path / "x")], capsys
    )
    assert code == 1
    assert "--data" in stderr


def test_train_corrupt_data_is_data_error(workspace, tmp_path, capsys):
    corrupt = tmp_path / "corrupt.mmfn"
    corrupt.write_bytes(workspace["data"].read_bytes()[:64])
    code, _, stderr = run(
        ["train", "--config", str(workspace["config"]), "--data", str(corrupt),
         "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 2
    assert stderr.startswith("mmfuse: error:")


# -- eval and gate-stats ------------------------------------------------------------


def test_eval_writes_metrics_row(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    code, stdout, _ = run(
        ["eval", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--checkpoint", str(workspace["full"]), "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = stdout_rows(stdout)
    assert len(rows) == 1
    assert rows[0]["tp"] + rows[0]["fp"] + rows[0]["tn"] + rows[0]["fn"] == 300
    on_disk = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert on_disk == rows


def test_eval_dim_mismatch_is_checkpoint_error(workspace, tmp_path, capsys):
    other = tmp_path / "wide.ini"
    other.write_text("[data]\nn_samples = 40\nd_t = 16\nd_i = 12\n")
    assert main(["gen-data", "--config", str(other), "--out", str(tmp_path / "wide")]) == 0
    capsys.readouterr()
    code, _, stderr = run(
        ["eval", "--data", str(tmp_path / "wide" / "data.mmfn"),
         "--checkpoint", str(workspace["full"]), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 3
    assert stderr.startswith("mmfuse: error:")


def test_eval_missing_checkpoint(workspace, tmp_path, capsys):
    code, _, stderr = run(
        ["eval", "--data", str(workspace["data"]),
         "--checkpoint", str(tmp_path / "absent.mmck"), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 3
    assert "checkpoint" in stderr


def test_gate_stats_row_and_threshold_override(workspace, tmp_path, capsys):
    out = tmp_path / "gates"
    code, stdout, _ = run(
        ["gate-stats", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--checkpoint", str(workspace["full"]), "--out", str(out)],
        capsys,
    )
    assert code == 0
    row = stdout_rows(stdout)[0]
    assert row["threshold"] == 0.2  # default when no flag given
    assert row["n_records"] == 300

    code, stdout, _ = run(
        ["gate-stats", "--data", str(workspace["data"]), "--checkpoint", str(workspace["full"]),
         "--threshold", "0.05", "--out", str(tmp_path / "g2")],
        capsys,
    )
    assert code == 0
    row = stdout_rows(stdout)[0]
    assert row["threshold"] == 0.05
    assert "threshold = 0.05" in (tmp_path / "g2" / "resolved-config.ini").read_text()


def test_gate_stats_on_ungated_variant(workspace, tmp_path, capsys):
    code, _, stderr = run(
        ["gate-stats", "--data", str(workspace["data"]), "--checkpoint",
         str(workspace["concat"]), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 3
    assert "has no gate" in stderr


# -- ablate and perturb ---------------------------------------------------------------


def test_ablation_report_five_rows_in_order(workspace):
    report = (workspace["root"] / "abl" / "ablation.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in report]
    assert [row["variant"] for row in rows] == [v.value for v in VARIANT_ORDER]
    for variant in VARIANT_ORDER:
        loaded = load_checkpoint(workspace["root"] / "abl" / f"ablate-{variant.value}.mmck")
        assert loaded.hyper.variant is variant


def test_perturb_rows_and_baselines(workspace, tmp_path, capsys):
    out = tmp_path / "pert"
    code, stdout, _ = run(
        ["perturb", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--checkpoint", str(workspace["full"]), "--baseline-text", str(workspace["text"]),
         "--baseline-image", str(workspace["image"]), "--out", str(out)],
        capsys,
    )
    assert code == 0
    labels = [row["scenario"] for row in stdout_rows(stdout)]
    assert labels == [
        "unperturbed",
        "text-missing",
        "image-missing",
        "text-noise(sigma=0.5)",
        "text-noise(sigma=1)",
        "image-noise(sigma=0.5)",
        "image-noise(sigma=1)",
        "baseline-text-only",
        "baseline-image-only",
    ]
    assert (out / "perturbation.jsonl").exists()


def test_perturb_requires_full_checkpoint(workspace, tmp_path, capsys):
    code, _, stderr = run(
        ["perturb", "--data", str(workspace["data"]), "--checkpoint",
         str(workspace["concat"]), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 3
    assert "variant" in stderr


def test_perturb_custom_sigmas(workspace, tmp_path, capsys):
    config = tmp_path / "sig.ini"
    config.write_text(SMALL_INI + "\n[eval]\nsigmas = 0.25\n")
    code, stdout, _ = run(
        ["perturb", "--config", str(config), "--data", str(workspace["data"]),
         "--checkpoint", str(workspace["full"]), "--out", str(tmp_path / "p")],
        capsys,
    )
    assert code == 0
    labels = [row["scenario"] for row in stdout_rows(stdout)]
    assert "text-noise(sigma=0.25)" in labels
    assert not any("sigma=0.5" in label for label in labels)


# -- top-level parser ----------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    code, _, stderr = run(["train"], capsys)  # --out missing
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("mmfuse: error:")

    code, _, stderr = run(["no-such-command", "--out", "x"], capsys)
    assert code == 1

    code, _, stderr = run(
        ["train", "--data", "d", "--out", "o", "--variant", "bogus"], capsys
    )
    assert code == 1
    assert "variant" in stderr


@pytest.mark.parametrize("section,key,value", [
    ("data", "train_frac", "nan"),
    ("model", "init_scale", "inf"),
    ("eval", "threshold", "nan"),
    ("train", "learning_rate", "nan"),
])
def test_non_finite_config_values_exit_one(tmp_path, capsys, section, key, value):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    code, _, stderr = run(["gen-data", "--config", str(ini), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and stderr.startswith("mmfuse: error:")
    assert f"{section}.{key}" in stderr


def test_non_finite_threshold_flag_exits_one(tmp_path, capsys):
    code, _, stderr = run(["gate-stats", "--out", str(tmp_path / "o"), "--data", "d",
                           "--checkpoint", "c", "--threshold", "nan"], capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and "threshold" in stderr


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    stdout = capsys.readouterr().out
    for command in ("gen-data", "train", "eval", "gate-stats", "ablate", "perturb"):
        assert command in stdout
    assert main(["train", "--help"]) == 0
    capsys.readouterr()


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(
        ["gen-data", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 1
    assert "cannot read config" in stderr
