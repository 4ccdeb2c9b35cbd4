"""Command-line interface for data generation, training, and evaluation.

Every command reads an optional INI config (``--config``), applies flag
overrides, writes its outputs plus a ``resolved-config.ini`` echo into
``--out``, and prints its report rows to standard output. Outputs are
written atomically and reruns with identical inputs produce byte-identical
files.

Exit codes name the input at fault: 0 success, 1 a flag or the config,
2 the data file or an output, 3 a checkpoint. The helpers that read the data
file or a checkpoint, or write an output, know which path failed and set the
code themselves; every other error reaches ``main``, which maps it by class:
a width or variant mismatch between a checkpoint and its input is 3, an
``OSError`` 2, and any other package error or ``MemoryError`` 1. A failure
prints a single ``mmfuse: error: ...`` line to standard error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_master_seed, default_config, load_config, render_config
from .data import Dataset, atomic_write_bytes, generate_synthetic, load, save, split
from .errors import MMFuseError, UsageError, VariantMismatchError, WidthMismatchError
from .evaluation import evaluate, gate_stats
from .experiments import default_scenarios, run_ablation, run_perturbation_suite
from .model import Variant
from .reports import gate_stats_row, metrics_row, report_line, write_report
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


def _resolve_config(args) -> RunConfig:
    if args.config == "":  # a bad flag, not an absent one
        raise UsageError("--config must name a file")
    config = default_config() if args.config is None else load_config(args.config)
    return config if args.seed is None else apply_master_seed(config, args.seed)


def _prepare_out(args) -> Path:
    if not args.out:  # Path("") is the working directory
        raise UsageError("--out must name a directory")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(
            EXIT_DATA, f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        ) from exc
    return out_dir


def _write(path: Path, payload) -> None:
    """Write one output atomically: a dataset, a checkpoint, the resolved
    config or report rows."""
    try:
        if isinstance(payload, Dataset):
            save(payload, path)
        elif isinstance(payload, Checkpoint):
            save_checkpoint(payload, path)
        elif isinstance(payload, RunConfig):
            atomic_write_bytes(path, render_config(payload).encode("utf-8"))
        else:
            write_report(path, payload)
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot write {path}: {exc.strerror or exc}") from exc


def _data_path(args, config: RunConfig) -> str:
    path = getattr(args, "data", None)
    if path == "":  # a bad flag, not an absent one
        raise UsageError("--data must name a file")
    path = config.feature_file if path is None else path
    if not path:
        raise UsageError("no data file: pass --data or set data.feature_file in the config")
    return str(path)


def _load_dataset(path: str) -> Dataset:
    try:
        dataset = load(path)
    except MMFuseError as exc:
        raise CommandError(EXIT_DATA, f"data file {path}: {exc}") from exc
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot read data file {path}: {exc.strerror or exc}") from exc
    if len(dataset) == 0:
        raise CommandError(EXIT_DATA, f"data file {path} has no records")
    return dataset


def _load_checkpoint(path: str, expected_variant: Variant | None = None):
    try:
        return load_checkpoint(path, expected_variant=expected_variant)
    except MMFuseError as exc:
        raise CommandError(EXIT_CHECKPOINT, f"checkpoint {path}: {exc}") from exc
    except OSError as exc:
        raise CommandError(
            EXIT_CHECKPOINT, f"cannot read checkpoint {path}: {exc.strerror or exc}"
        ) from exc


def _print_rows(rows) -> None:
    for row in rows:
        print(report_line(row))


# -- commands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = _resolve_config(args)
    if config.feature_file:
        raise UsageError("gen-data builds synthetic data; remove data.feature_file from the config")
    out_dir = _prepare_out(args)
    _write(out_dir / "resolved-config.ini", config)
    dataset = generate_synthetic(config.synthetic)
    path = out_dir / "data.mmfn"
    _write(path, dataset)
    print(
        f"wrote {len(dataset)} records "
        f"(d_t={dataset.d_t}, d_i={dataset.d_i}, l_t={dataset.l_t}, l_i={dataset.l_i}) "
        f"to {path}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    if args.variant is not None:
        config = replace(config, model=replace(config.model, variant=Variant(args.variant)))
    if args.preset is not None:
        config = replace(config, train=apply_preset(config.train, args.preset))
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _write(out_dir / "resolved-config.ini", config)

    dataset = _load_dataset(data_path)
    train_ds, val_ds, _ = split(dataset, config.fractions, seed=config.split_seed)
    hyper = replace(config.model, d_t=dataset.d_t, d_i=dataset.d_i)
    checkpoint, history = train(train_ds, val_ds, hyper, config.train)

    checkpoint_path = out_dir / "model.mmck"
    _write(checkpoint_path, checkpoint)
    _write(out_dir / "history.jsonl", history)
    _print_rows(history)
    print(
        f"saved checkpoint to {checkpoint_path} "
        f"(best val_f1={checkpoint.best_val_f1!r} at epoch {checkpoint.best_epoch})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _resolve_config(args)
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _write(out_dir / "resolved-config.ini", config)

    checkpoint = _load_checkpoint(args.checkpoint)
    dataset = _load_dataset(data_path)
    report = evaluate(checkpoint.params, checkpoint.hyper, dataset)
    rows = [metrics_row("dataset", data_path, report)]
    _write(out_dir / "metrics.jsonl", rows)
    _print_rows(rows)
    return EXIT_OK


def cmd_gate_stats(args) -> int:
    config = _resolve_config(args)
    if args.threshold is not None:
        config = replace(config, eval=replace(config.eval, threshold=args.threshold))
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _write(out_dir / "resolved-config.ini", config)

    checkpoint = _load_checkpoint(args.checkpoint, expected_variant=Variant.FULL)
    dataset = _load_dataset(data_path)
    stats = gate_stats(checkpoint.params, checkpoint.hyper, dataset, threshold=config.eval.threshold)
    rows = [gate_stats_row(stats)]
    _write(out_dir / "gate-stats.jsonl", rows)
    _print_rows(rows)
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _write(out_dir / "resolved-config.ini", config)

    dataset = _load_dataset(data_path)
    splits = split(dataset, config.fractions, seed=config.split_seed)
    hyper = replace(config.model, d_t=dataset.d_t, d_i=dataset.d_i)
    results, checkpoints = run_ablation(splits, hyper, config.train)

    rows = [metrics_row("variant", variant.value, report) for variant, report in results]
    _write(out_dir / "ablation.jsonl", rows)
    for variant, checkpoint in checkpoints.items():
        _write(out_dir / f"ablate-{variant.value}.mmck", checkpoint)
    _print_rows(rows)
    return EXIT_OK


def cmd_perturb(args) -> int:
    config = _resolve_config(args)
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _write(out_dir / "resolved-config.ini", config)

    full = _load_checkpoint(args.checkpoint, expected_variant=Variant.FULL)
    baselines = {}
    if args.baseline_text:
        baselines[Variant.TEXT_ONLY] = _load_checkpoint(
            args.baseline_text, expected_variant=Variant.TEXT_ONLY
        )
    if args.baseline_image:
        baselines[Variant.IMAGE_ONLY] = _load_checkpoint(
            args.baseline_image, expected_variant=Variant.IMAGE_ONLY
        )
    dataset = _load_dataset(data_path)
    scenarios = default_scenarios(config.eval.sigmas, config.eval.noise_seed)
    results = run_perturbation_suite(full, dataset, scenarios, baselines=baselines or None)

    rows = [metrics_row("scenario", label, report) for label, report in results]
    _write(out_dir / "perturbation.jsonl", rows)
    _print_rows(rows)
    return EXIT_OK


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
            return args.handler(args)
    except CommandError as err:
        return _fail(err.message, err.code)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except (WidthMismatchError, VariantMismatchError) as err:  # the model does not fit its input
        return _fail(err, EXIT_CHECKPOINT)
    except OSError as err:
        return _fail(err, EXIT_DATA)
    except MMFuseError as err:
        return _fail(err, EXIT_USAGE)
    except MemoryError as err:  # a size within every bound that this host cannot allocate
        return _fail(str(err).strip() or "out of memory", EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
