"""Command-line interface for data generation, training, and evaluation.

Every command reads an optional INI config (``--config``), applies flag
overrides, writes its outputs plus a ``resolved-config.ini`` echo into
``--out``, and prints its report rows to standard output. Outputs are
written atomically and reruns with identical inputs produce byte-identical
files.

Exit codes name the input at fault: 0 success, 1 a flag or the config, 2 the
data file, an output or standard output, 3 a checkpoint. The helpers that
read or write these set the code themselves; every other error reaches
``main``, which maps it by class: a width mismatch between a checkpoint and
its input is 3, an ``OSError`` 2, and any other package error or
``MemoryError`` 1. A failure prints one ``mmfuse: error: ...`` line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_master_seed, default_config, load_config, render_config
from .data import Dataset, atomic_write_bytes, generate_synthetic, load, save, split
from .errors import MMFuseError, UsageError, WidthMismatchError
from .evaluation import evaluate, gate_stats
from .experiments import run_ablation, run_perturbation_suite
from .model import Variant
from .reports import metrics_row, render_report
from .training import PRESETS, Checkpoint, apply_preset, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECKPOINT = 3


class CommandError(Exception):
    """Carries an exit code and a one-line message to the top level."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; raise instead so usage
    # problems exit 1 with a single-line message, like every bad flag.
    def error(self, message):
        raise UsageError(message)


# -- shared plumbing ---------------------------------------------------------------

_PATH_FLAGS = ("config", "data", "checkpoint", "baseline_text", "baseline_image")


def _resolve_config(args) -> RunConfig:
    """The config file, or the defaults, with every override flag of the
    subcommand applied. An empty path value is a bad flag, not an absent one."""
    for name in _PATH_FLAGS:
        if getattr(args, name, None) == "":
            raise UsageError(f"--{name.replace('_', '-')} must name a file")
    config = default_config() if args.config is None else load_config(args.config)
    if args.seed is not None:
        config = apply_master_seed(config, args.seed)
    if getattr(args, "variant", None) is not None:
        config = replace(config, model=replace(config.model, variant=Variant(args.variant)))
    if getattr(args, "preset", None) is not None:
        config = replace(config, train=apply_preset(config.train, args.preset))
    if getattr(args, "threshold", None) is not None:
        config = replace(config, eval=replace(config.eval, threshold=args.threshold))
    return config


def _start(args, config: RunConfig) -> tuple[RunConfig, Path]:
    """Settle the data file, create ``--out`` and echo the config into it."""
    if hasattr(args, "data"):
        path = config.feature_file if args.data is None else args.data
        if not path:
            raise UsageError("no data file: pass --data or set data.feature_file in the config")
        config = replace(config, feature_file=path)
    elif config.feature_file:  # gen-data, whose data file is its output
        raise UsageError("gen-data builds synthetic data; remove data.feature_file from the config")
    if not args.out:  # Path("") is the working directory
        raise UsageError("--out must name a directory")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(
            EXIT_DATA, f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        ) from exc
    _write(out_dir / "resolved-config.ini", config)
    return config, out_dir


def _write(path: Path, payload) -> None:
    """Write one output atomically: a dataset, a checkpoint, the resolved
    config or report rows. Report rows are then printed as written."""
    rows = payload if isinstance(payload, list) else None
    try:
        if isinstance(payload, Dataset):
            save(payload, path)
        elif isinstance(payload, Checkpoint):
            save_checkpoint(payload, path)
        else:
            text = render_config(payload) if rows is None else render_report(rows)
            atomic_write_bytes(path, text.encode("utf-8"))
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot write {path}: {exc.strerror or exc}") from exc
    if rows is not None:  # outside the mapping: stdout failing is not the file's fault
        _say(text)


def _say(text: str) -> None:
    """Print ``text`` at once; a failing standard output is a data error."""
    try:
        print(text, end="", flush=True)
    except OSError as exc:
        # point the descriptor, if the stream has one, at the null device, so that the
        # interpreter's flush at exit of what stays buffered adds no second error
        with contextlib.suppress(OSError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise CommandError(
            EXIT_DATA, f"cannot write to standard output: {exc.strerror or exc}") from exc


def _read(load, path: str, code: int, what: str):
    """``load(path)``, with any failure blamed on ``path`` under exit ``code``."""
    try:
        return load(path)
    except MMFuseError as exc:
        raise CommandError(code, f"{what} {path}: {exc}") from exc
    except OSError as exc:
        raise CommandError(code, f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def _load_dataset(path: str) -> Dataset:
    dataset = _read(load, path, EXIT_DATA, "data file")
    if len(dataset) == 0:
        raise CommandError(EXIT_DATA, f"data file {path} has no records")
    return dataset


def _load_checkpoint(path: str, variant: Variant | None = None) -> Checkpoint:
    return _read(functools.partial(load_checkpoint, expected_variant=variant), path,
                 EXIT_CHECKPOINT, "checkpoint")


# -- commands: each gets the resolved config and the created --out ---------------


def cmd_gen_data(args, config: RunConfig, out_dir: Path) -> None:
    dataset = generate_synthetic(config.synthetic)
    path = out_dir / "data.mmfn"
    _write(path, dataset)
    _say(f"wrote {len(dataset)} records "
         f"(d_t={dataset.d_t}, d_i={dataset.d_i}, l_t={dataset.l_t}, l_i={dataset.l_i}) "
         f"to {path}\n")


def cmd_train(args, config: RunConfig, out_dir: Path) -> None:
    dataset = _load_dataset(config.feature_file)
    train_ds, val_ds, _ = split(dataset, config.fractions, seed=config.split_seed)
    hyper = replace(config.model, d_t=dataset.d_t, d_i=dataset.d_i)
    (checkpoint,), history = train(train_ds, val_ds, [hyper], config.train)

    checkpoint_path = out_dir / "model.mmck"
    _write(checkpoint_path, checkpoint)
    _write(out_dir / "history.jsonl", history)
    _say(f"saved checkpoint to {checkpoint_path} "
         f"(best val_f1={checkpoint.best_val_f1!r} at epoch {checkpoint.best_epoch})\n")


def cmd_eval(args, config: RunConfig, out_dir: Path) -> None:
    checkpoint = _load_checkpoint(args.checkpoint)
    dataset = _load_dataset(config.feature_file)
    report = evaluate(checkpoint.params, checkpoint.hyper, dataset)
    _write(out_dir / "metrics.jsonl", [metrics_row("dataset", config.feature_file, report)])


def cmd_gate_stats(args, config: RunConfig, out_dir: Path) -> None:
    checkpoint = _load_checkpoint(args.checkpoint, Variant.FULL)
    dataset = _load_dataset(config.feature_file)
    stats = gate_stats(checkpoint.params, checkpoint.hyper, dataset,
                       threshold=config.eval.threshold)
    _write(out_dir / "gate-stats.jsonl", [asdict(stats)])


def cmd_ablate(args, config: RunConfig, out_dir: Path) -> None:
    dataset = _load_dataset(config.feature_file)
    splits = split(dataset, config.fractions, seed=config.split_seed)
    hyper = replace(config.model, d_t=dataset.d_t, d_i=dataset.d_i)
    results, checkpoints = run_ablation(splits, hyper, config.train)

    for variant, checkpoint in checkpoints.items():
        _write(out_dir / f"ablate-{variant.value}.mmck", checkpoint)
    _write(out_dir / "ablation.jsonl",
           [metrics_row("variant", variant.value, report) for variant, report in results])


def cmd_perturb(args, config: RunConfig, out_dir: Path) -> None:
    full = _load_checkpoint(args.checkpoint, Variant.FULL)
    baselines = {variant: _load_checkpoint(path, variant)
                 for variant, path in ((Variant.TEXT_ONLY, args.baseline_text),
                                       (Variant.IMAGE_ONLY, args.baseline_image)) if path}
    dataset = _load_dataset(config.feature_file)
    results = run_perturbation_suite(full, dataset, config.eval.sigmas, config.eval.noise_seed,
                                     baselines)
    _write(out_dir / "perturbation.jsonl",
           [metrics_row("scenario", label, report) for label, report in results])


# -- parser -----------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI run configuration (defaults apply if omitted)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--seed",
        type=int,
        help="master seed; expands into data/split/init/train/noise seeds",
    )


@functools.cache  # parse_args keeps no state in the parser; handlers read globals per call
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mmfuse",
        description="Train and analyse a two-modality fake-vs-real classifier "
        "with cross-modal attention and dynamic gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("gen-data", help="generate a synthetic feature file")
    _add_common(p)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant and save a checkpoint")
    _add_common(p)
    p.add_argument("--data", help="feature file (overrides data.feature_file)")
    p.add_argument("--variant", choices=[v.value for v in Variant], help="model variant")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named training recipe")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    _add_common(p)
    p.add_argument("--data", help="feature file (overrides data.feature_file)")
    p.add_argument("--checkpoint", required=True, help="checkpoint to evaluate")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gate-stats", help="summarise gating weights over a feature file")
    _add_common(p)
    p.add_argument("--data", help="feature file (overrides data.feature_file)")
    p.add_argument("--checkpoint", required=True, help="gated (full-variant) checkpoint")
    p.add_argument("--threshold", type=float, help="dominance threshold (default from config)")
    p.set_defaults(handler=cmd_gate_stats)

    p = sub.add_parser("ablate", help="train and test all five variants")
    _add_common(p)
    p.add_argument("--data", help="feature file (overrides data.feature_file)")
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("perturb", help="evaluate a full checkpoint under input corruptions")
    _add_common(p)
    p.add_argument("--data", help="feature file (overrides data.feature_file)")
    p.add_argument("--checkpoint", required=True, help="full-variant checkpoint")
    p.add_argument("--baseline-text", help="text-only checkpoint for reference rows")
    p.add_argument("--baseline-image", help="image-only checkpoint for reference rows")
    p.set_defaults(handler=cmd_perturb)

    return parser


def _fail(message, code: int) -> int:
    """Print one single-line error and return its exit code."""
    sys.stderr.write(f"mmfuse: error: {' '.join(str(message).split())}\n")
    return code


def main(argv=None) -> int:
    try:
        # non-finite values are refused where they matter (the loss, Dataset),
        # so numpy's floating-point warnings would only add stderr lines
        with np.errstate(all="ignore"):
            args = build_parser().parse_args(argv)
            args.handler(args, *_start(args, _resolve_config(args)))
        return EXIT_OK
    except CommandError as err:
        return _fail(err.message, err.code)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except WidthMismatchError as err:  # the model does not fit its input
        return _fail(err, EXIT_CHECKPOINT)
    except OSError as err:
        return _fail(err, EXIT_DATA)
    except MMFuseError as err:
        return _fail(err, EXIT_USAGE)
    except MemoryError as err:  # a size within every bound that this host cannot allocate
        return _fail(str(err).strip() or "out of memory", EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
