"""End-to-end tests for the command-line interface (in-process, and in a child
process where a real file descriptor matters)."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmfuse.cli import build_parser, main
from mmfuse.config import apply_master_seed, load_config, render_config
from mmfuse.data import Dataset, load, save
from mmfuse.model import CHUNK, Variant, VARIANT_ORDER
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


@pytest.mark.parametrize("command,config,message", [
    ("gen-data", "[data]\nfeature_file = x.mmfn\n",
     "gen-data builds synthetic data; remove data.feature_file from the config"),
    ("train", "[train]\nweight_decay = -1\n", "weight_decay must be non-negative and finite, got -1.0"),
    ("ablate", "[data]\ntrain_frac = 0.9\ntest_frac = 0\n", "ablation needs a non-empty test split"),
], ids=["feature-file", "weight-decay", "no-test-split"])
def test_config_the_command_cannot_use_exits_one(command, config, message, workspace, tmp_path,
                                                 capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(config)
    argv = [command, "--config", str(ini), "--out", str(tmp_path / "o")]
    if command != "gen-data":
        argv += ["--data", str(workspace["data"])]
    assert run(argv, capsys) == (1, "", f"mmfuse: error: {message}\n")


@pytest.mark.parametrize("command,output", [
    ("gen-data", "resolved-config.ini"), ("gen-data", "data.mmfn"), ("train", "model.mmck"),
    ("eval", "metrics.jsonl"),
])
def test_output_path_taken_by_a_directory_exits_two(command, output, workspace, tmp_path, capsys):
    out = tmp_path / "o"
    (out / output).mkdir(parents=True)
    argv = [command, "--config", str(workspace["config"]), "--out", str(out)]
    if command != "gen-data":
        argv += ["--data", str(workspace["data"])]
    if command == "eval":
        argv += ["--checkpoint", str(workspace["full"])]
    code, _, stderr = run(argv, capsys)
    assert (code, stderr) == (2, f"mmfuse: error: cannot write {out / output}: Is a directory\n")
    assert not [path.name for path in out.iterdir() if path.name.startswith(".tmp-")]


def test_failing_stdout_exits_two(workspace, tmp_path, capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["gen-data", "--config", str(workspace["config"]), "--out", str(tmp_path / "o")])
    assert (code, capsys.readouterr().err) == (
        2, "mmfuse: error: cannot write to standard output: Broken pipe\n")


@pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
def test_closed_stdout_pipe_exits_two_with_one_line(command, workspace, tmp_path):
    """A real pipe whose read end is closed, in a child with default (block)
    buffering: the error is one line, and the exit flush adds none."""
    argv = [command, "--config", str(workspace["config"]), "--out", str(tmp_path / "o")]
    if command != "gen-data":
        argv += ["--data", str(workspace["data"])]
    if command == "eval":
        argv += ["--checkpoint", str(workspace["full"])]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mmfuse.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (
        2, "mmfuse: error: cannot write to standard output: Broken pipe\n")


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


def test_file_cut_inside_a_later_id_length_is_data_error(workspace, tmp_path, capsys):
    rows = load(workspace["data"]).take([0, 1])
    path = tmp_path / "cut.mmfn"
    save(Dataset(("r" * 200, "s"), rows.labels, rows.provenance, rows.text, rows.image), path)
    payload = path.read_bytes()  # ids of two lengths: the loader walks the records
    at = payload.rindex(struct.pack("<I", 1) + b"s")  # the second record's id length
    path.write_bytes(payload[:at + 2])
    code, _, stderr = run(["train", "--config", str(workspace["config"]), "--data", str(path),
                           "--out", str(tmp_path / "o")], capsys)
    assert (code, stderr) == (
        2, f"mmfuse: error: data file {path}: file ends at byte {at + 2} but {at + 4} bytes "
           f"are needed\n")


@pytest.mark.parametrize("label", [0, 1], ids=["all-real", "all-fake"])
def test_single_class_file_trains_and_ablates(label, workspace, tmp_path, capsys):
    dataset = load(workspace["data"])
    path = tmp_path / "one-class.mmfn"
    save(dataset.take(np.flatnonzero(dataset.labels == label)), path)
    for command in ("train", "ablate"):
        code, _, stderr = run([command, "--config", str(workspace["config"]), "--data", str(path),
                               "--out", str(tmp_path / command)], capsys)
        assert (code, stderr) == (0, "")
    history = stdout_rows((tmp_path / "train" / "history.jsonl").read_text())
    checkpoint = load_checkpoint(tmp_path / "train" / "model.mmck")
    if label == 0:  # no fake record to find: F1 is 0 in every epoch, and the first is kept
        assert [row["val_f1"] for row in history] == [0.0] * 3
        assert (checkpoint.best_val_f1, checkpoint.best_epoch) == (0.0, 0)
    else:
        assert checkpoint.best_val_f1 == max(row["val_f1"] for row in history) > 0.0


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


def assert_width_mismatch_exits_three(command, n_samples, workspace, tmp_path, capsys):
    """The module's narrow full checkpoint on a file of wider records."""
    other = tmp_path / "wide.ini"
    other.write_text(f"[data]\nn_samples = {n_samples}\nd_t = 16\nd_i = 12\n")
    assert main(["gen-data", "--config", str(other), "--out", str(tmp_path / "wide")]) == 0
    capsys.readouterr()
    code, _, stderr = run(
        [command, "--data", str(tmp_path / "wide" / "data.mmfn"),
         "--checkpoint", str(workspace["full"]), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 3
    assert stderr.startswith("mmfuse: error:") and "do not match the model" in stderr
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "gate-stats", "perturb"])
def test_dim_mismatch_is_checkpoint_error(command, workspace, tmp_path, capsys):
    assert_width_mismatch_exits_three(command, 40, workspace, tmp_path, capsys)


def test_dim_mismatch_over_one_scoring_chunk_exits_three(workspace, tmp_path, capsys):
    assert_width_mismatch_exits_three("eval", 2 * CHUNK + 1, workspace, tmp_path, capsys)


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
    assert "variant" in stderr


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


def test_default_section_in_config_exits_one(tmp_path, capsys):
    ini = tmp_path / "default.ini"
    ini.write_text("[DEFAULT]\nseed = 5\n[data]\n[train]\n")
    code, _, stderr = run(["gen-data", "--config", str(ini), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and stderr.startswith("mmfuse: error:")
    assert "DEFAULT" in stderr


def test_consecutive_calls_share_no_parser_state(tmp_path, capsys):
    assert build_parser() is build_parser()  # built once per process
    argv = ["gate-stats", "--out", "o", "--data", "d", "--checkpoint", "c"]
    first = build_parser().parse_args(argv + ["--threshold", "0.3", "--seed", "4"])
    second = build_parser().parse_args(argv)
    assert (first.threshold, first.seed) == (0.3, 4)
    assert (second.threshold, second.seed, second.config) == (None, None, None)

    ini = tmp_path / "small.ini"
    ini.write_text("[data]\nn_samples = 20\n")
    assert run(["gen-data", "--config", str(ini), "--seed", "3", "--out", str(tmp_path / "a")],
               capsys)[0] == 0
    assert run(["gen-data", "--config", str(ini), "--out", str(tmp_path / "b")], capsys)[0] == 0
    config = load_config(ini)
    assert (tmp_path / "a" / "resolved-config.ini").read_text() == \
        render_config(apply_master_seed(config, 3))
    assert (tmp_path / "b" / "resolved-config.ini").read_text() == render_config(config)


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


@pytest.mark.parametrize("command,section,key,value", [
    ("gen-data", "data", "n_samples", str(10**20)),
    ("train", "train", "max_epochs", str(10**20)),
    ("gen-data", "data", "seed", "-1"),
    ("gen-data", "eval", "noise_seed", str(2**64)),
])
def test_out_of_range_config_ints_exit_one(tmp_path, capsys, command, section, key, value):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    argv = [command, "--config", str(ini), "--out", str(tmp_path / "o")]
    if command == "train":
        argv += ["--data", str(tmp_path / "unused.mmfn")]
    code, _, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and stderr.startswith("mmfuse: error:")
    assert f"{section}.{key}" in stderr



@pytest.mark.parametrize("command,section,key", [
    ("gen-data", "data", "n_samples"),
    ("train", "model", "d_c"),
])
def test_sizes_no_host_can_allocate_exit_one(tmp_path, capsys, command, section, key):
    ini = tmp_path / "huge.ini"
    ini.write_text(f"[{section}]\n{key} = {2**62}\n")
    argv = [command, "--config", str(ini), "--out", str(tmp_path / "o")]
    if command == "train":
        argv += ["--data", str(tmp_path / "unused.mmfn")]
    code, _, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and stderr.startswith("mmfuse: error:")
    assert f"{key}={2**62}" in stderr


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr("mmfuse.cli.generate_synthetic", exhausted)
    code, _, stderr = run(["gen-data", "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert stderr == "mmfuse: error: Unable to allocate 8.00 EiB for an array\n"


def test_unforeseen_os_error_exits_two(tmp_path, capsys, monkeypatch):
    def failing(spec):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr("mmfuse.cli.generate_synthetic", failing)
    code, _, stderr = run(["gen-data", "--out", str(tmp_path / "o")], capsys)
    assert (code, stderr) == (2, "mmfuse: error: [Errno 5] Input/output error\n")


def test_bad_model_value_exits_one_on_every_command(workspace, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[model]\nd_c = 0\n")
    code, _, stderr = run(["eval", "--config", str(ini), "--data", str(workspace["data"]),
                           "--checkpoint", str(workspace["full"]), "--out", str(tmp_path / "o")],
                          capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and "model dimensions" in stderr


def test_eval_on_checkpoint_with_bad_config_value(workspace, tmp_path, capsys):
    # TrainConfig refuses a nan, so the nan is written into the saved text
    learning_rate = load_checkpoint(workspace["full"]).train_config.learning_rate
    path = tmp_path / "nan-lr.mmck"
    path.write_bytes(edit_checkpoint(workspace["full"].read_bytes(),
                                     f"learning_rate={learning_rate!r}".encode(), b"learning_rate=nan"))
    code, _, stderr = run(["eval", "--data", str(workspace["data"]), "--checkpoint", str(path),
                           "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert stderr.count("\n") == 1 and "learning_rate" in stderr


def edit_checkpoint(payload: bytes, old: bytes, new: bytes) -> bytes:
    """``payload`` with its one ``old`` replaced by ``new``; the config block
    that holds the edit gets its new length."""
    at = payload.index(old)
    edited = bytearray(payload[:at] + new + payload[at + len(old):])
    start = 8  # the hyper-config block's length field; the train-config block's follows it
    for _ in range(2):
        (size,) = struct.unpack_from("<I", edited, start)
        if start < at < start + 4 + size:
            struct.pack_into("<I", edited, start, size + len(new) - len(old))
        start += 4 + size
    return bytes(edited)


PROJ_TEXT = b"proj_text" + struct.pack("<II", 8, 4)  # name, rows, cols in the small config


@pytest.mark.parametrize("old,new,message", [
    (b"\ninit_seed=", b"\n\ninit_seed=", None),  # a blank line is skipped
    (b"\ninit_seed=0", b"", "checkpoint config block is missing keys ['init_seed']"),
    (b"weight_decay=0.01", b"weight_decay=-1.0",
     "checkpoint config is invalid: weight_decay must be non-negative and finite, got -1.0"),
    (PROJ_TEXT, b"proj_text" + struct.pack("<II", 0, 4),
     "parameter proj_text: shape (0, 4) is invalid"),
    (PROJ_TEXT, b"proj_text" + struct.pack("<II", 4, 8),
     "checkpoint parameters are inconsistent: parameter proj_text has shape (4, 8), "
     "expected (8, 4)"),
], ids=["blank-line", "missing-key", "invalid-value", "zero-rows", "wrong-shape"])
def test_edited_checkpoint_exits_three_or_loads(old, new, message, workspace, tmp_path, capsys):
    path = tmp_path / "edited.mmck"
    path.write_bytes(edit_checkpoint(workspace["full"].read_bytes(), old, new))
    argv = ["eval", "--data", str(workspace["data"]), "--out", str(tmp_path / "o")]
    code, stdout, stderr = run(argv + ["--checkpoint", str(path)], capsys)
    if message is None:
        assert (code, stdout, stderr) == run(argv + ["--checkpoint", str(workspace["full"])],
                                             capsys)
    else:
        assert (code, stdout, stderr) == (3, "", f"mmfuse: error: checkpoint {path}: {message}\n")


def test_non_utf8_config_exits_one(workspace, tmp_path, capsys):
    code, _, stderr = run(["gen-data", "--config", str(workspace["data"]),
                           "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and stderr.startswith("mmfuse: error:")
    assert str(workspace["data"]) in stderr and "utf-8" in stderr


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--config"), ("train", "--config"), ("train", "--data"), ("eval", "--data"),
    ("eval", "--checkpoint"), ("gate-stats", "--checkpoint"), ("perturb", "--checkpoint"),
    ("perturb", "--baseline-text"), ("perturb", "--baseline-image"),
])
def test_empty_path_flag_exits_one(command, flag, workspace, tmp_path, capsys):
    # an empty value is a bad flag, never the default config, data.feature_file or no baseline
    args = {"--config": str(workspace["config"]), "--out": str(tmp_path / "o")}
    if command != "gen-data":
        args["--data"] = str(workspace["data"])
    if command in ("eval", "gate-stats", "perturb"):
        args["--checkpoint"] = str(workspace["full"])
    args[flag] = ""
    code, stdout, stderr = run([command, *(item for pair in args.items() for item in pair)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"mmfuse: error: {flag} must name a file\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, report", [
    ("train", "history.jsonl"), ("eval", "metrics.jsonl"), ("gate-stats", "gate-stats.jsonl"),
    ("ablate", "ablation.jsonl"), ("perturb", "perturbation.jsonl"),
])
def test_stdout_rows_are_the_report_bytes(command, report, workspace, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [command, "--config", str(workspace["config"]), "--data", str(workspace["data"]),
            "--out", str(out)]
    if command in ("eval", "gate-stats", "perturb"):
        argv += ["--checkpoint", str(workspace["full"])]
    if command == "perturb":
        argv += ["--baseline-text", str(workspace["text"]),
                 "--baseline-image", str(workspace["image"])]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stderr) == (0, "")
    rows = [line for line in stdout.splitlines(keepends=True) if line.startswith("{")]
    assert rows == (out / report).read_bytes().decode("utf-8").splitlines(keepends=True)
    assert rows


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "gate-stats", "perturb"])
def test_empty_feature_file_is_data_error(command, workspace, tmp_path, capsys):
    empty = tmp_path / "empty.mmfn"
    save(Dataset((), [], [], np.zeros((0, 1, 8)), np.zeros((0, 1, 6))), empty)
    argv = [command, "--config", str(workspace["config"]), "--data", str(empty),
            "--out", str(tmp_path / "o")]
    if command in ("eval", "gate-stats", "perturb"):
        argv += ["--checkpoint", str(workspace["full"])]
    code, _, stderr = run(argv, capsys)
    assert code == 2
    assert stderr == f"mmfuse: error: data file {empty} has no records\n"


@pytest.mark.parametrize("command,extra,message", [
    ("perturb", "\n[eval]\nsigmas = 1e308\n",
     "text-noise(sigma=1e+308): record 1: non-finite feature values"),
    ("train", "learning_rate = 1e308\n", "loss diverged at epoch 0"),
    ("ablate", "learning_rate = 1e308\n", "mmfuse: error: variant text-only: loss diverged at epoch 0"),
])
def test_overflow_exits_one_with_one_line_and_no_warning(command, extra, message, workspace,
                                                         tmp_path, capsys):
    config = tmp_path / "overflow.ini"
    config.write_text(SMALL_INI + extra)
    argv = [command, "--config", str(config), "--data", str(workspace["data"]),
            "--out", str(tmp_path / "o")]
    if command == "perturb":
        argv += ["--checkpoint", str(workspace["full"])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.count("\n") == 1 and message in stderr
    assert caught == []


# -- argv fuzz: the input at fault sets the exit code -------------------------------

FUZZ_CONFIG = {
    "data": {"n_samples": "40", "d_t": "3", "d_i": "2"},
    "model": {"d_c": "2", "gate_hidden": "2", "cls_hidden": "2"},
    "train": {"max_epochs": "1"},
    "eval": {"sigmas": "0.5"},
}
EDGE = ("nan", "inf", "-1", str(2**64), "", "9" * 5000)
FLOAT_EDGE = tuple(v for v in EDGE if v != str(2**64))  # 2**64 is a fine float
BAD_CONFIG_VALUES = {
    ("data", "n_samples"): EDGE,
    ("data", "seed"): EDGE,
    ("model", "d_c"): EDGE,
    ("model", "variant"): EDGE,
    ("model", "init_scale"): FLOAT_EDGE,
    ("train", "batch_size"): EDGE,
    ("train", "learning_rate"): FLOAT_EDGE,
    ("eval", "threshold"): FLOAT_EDGE,
    ("eval", "noise_seed"): EDGE,
}
BAD_FLAG_VALUES = {
    "--seed": FLOAT_EDGE,  # any integer >= 0 is a master seed, 2**64 too
    "--threshold": FLOAT_EDGE,
    "--variant": EDGE,
    "--preset": EDGE,
}
EXIT_BY_FAULT = {None: 0, "flag": 1, "config": 1, "data": 2, "output": 2, "checkpoint": 3}


def render_ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A tiny data file, its checkpoints and a broken copy of each kind of file."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "tiny.ini").write_text(render_ini(FUZZ_CONFIG))
    assert main(["gen-data", "--config", str(root / "tiny.ini"), "--out", str(root)]) == 0
    assert main(["ablate", "--config", str(root / "tiny.ini"), "--data", str(root / "data.mmfn"),
                 "--out", str(root)]) == 0
    (root / "empty").write_bytes(b"")
    (root / "dir").mkdir()
    (root / "cut.mmfn").write_bytes((root / "data.mmfn").read_bytes()[:100])
    (root / "cut.mmck").write_bytes((root / "ablate-full.mmck").read_bytes()[:100])
    save(load(root / "data.mmfn").take([]), root / "none.mmfn")
    return root


def fuzz_case(draw, root, command, out):
    """The command's argv with at most one fault, and the exit code for its class."""
    files = {path.name: str(path) for path in root.iterdir()} | {"absent": str(root / "absent")}
    args = {"--config": files["tiny.ini"], "--out": out}
    if command != "gen-data":
        args["--data"] = files["data.mmfn"]
    if command in ("eval", "gate-stats", "perturb"):
        args["--checkpoint"] = files["ablate-full.mmck"]
    if command == "perturb":
        args["--baseline-text"] = files["ablate-text-only.mmck"]
        args["--baseline-image"] = files["ablate-image-only.mmck"]
    flags = ["--seed", *{"train": ["--variant", "--preset"],
                         "gate-stats": ["--threshold"]}.get(command, [])]
    faults = [None, "flag", "config", "output"]
    faults += ["data"] * ("--data" in args) + ["checkpoint"] * ("--checkpoint" in args)
    fault = draw(st.sampled_from(faults))
    tail = []
    if fault is None:
        if draw(st.booleans()):
            tail = ["--seed", str(draw(st.integers(0, 2**70)))]
    elif fault == "flag":
        empty = list(args)  # every flag set so far names a path
        how = draw(st.sampled_from([*flags, *empty, "unknown", "missing-out"]))
        if how in empty:
            args[how] = ""
        elif how == "unknown":
            tail = ["--no-such-flag"]
        elif how == "missing-out":
            del args["--out"]
        else:
            tail = [how, draw(st.sampled_from(BAD_FLAG_VALUES[how]))]
    elif fault == "config":
        how = draw(st.sampled_from([*BAD_CONFIG_VALUES, "data.mmfn", "dir", "absent"]))
        if isinstance(how, str):  # a config file that is binary, a directory or missing
            args["--config"] = files[how]
        else:
            section, key = how
            sections = {name: dict(keys) for name, keys in FUZZ_CONFIG.items()}
            sections.setdefault(section, {})[key] = draw(st.sampled_from(BAD_CONFIG_VALUES[how]))
            args["--config"] = out + ".ini"
            Path(args["--config"]).write_text(render_ini(sections))
    elif fault == "output":
        args["--out"] = draw(st.sampled_from([files["data.mmfn"], files["data.mmfn"] + "/sub"]))
    elif fault == "data":
        args["--data"] = files[draw(st.sampled_from(
            ["absent", "cut.mmfn", "ablate-full.mmck", "dir", "empty", "none.mmfn"]))]
    else:
        slots = ["--checkpoint"] + ["--baseline-text", "--baseline-image"] * (command == "perturb")
        slot = draw(st.sampled_from(slots))
        wrong = ["absent", "cut.mmck", "data.mmfn", "dir", "empty"]
        if command != "eval":  # gate-stats and perturb read only gated checkpoints here
            wrong.append("ablate-concat.mmck" if slot == "--checkpoint" else "ablate-full.mmck")
        args[slot] = files[draw(st.sampled_from(wrong))]
    argv = [command] + [item for pair in args.items() for item in pair] + tail
    return argv, EXIT_BY_FAULT[fault]


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_fuzz_exit_code_names_the_faulty_input(fuzz_root, tmp_path, monkeypatch, data):
    cwd = tmp_path / "cwd"
    cwd.mkdir(exist_ok=True)
    monkeypatch.chdir(cwd)
    command = data.draw(st.sampled_from(["gen-data", "train", "eval", "gate-stats", "ablate",
                                         "perturb"]))
    argv, expected = fuzz_case(data.draw, fuzz_root, command, str(tmp_path / "out"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    err = stderr.getvalue()
    assert code == expected, err
    if expected:
        assert err.count("\n") == 1 and err.startswith("mmfuse: error:")
        assert "Traceback" not in err
    else:
        assert err == ""
    assert caught == []
    assert list(cwd.iterdir()) == []  # nothing lands in the working directory
