"""Command-line interface for data generation, training, and evaluation.

Every command reads an optional INI config (``--config``), applies flag
overrides, writes its outputs plus a ``resolved-config.ini`` echo into
``--out``, and prints its report rows to standard output. Outputs are
written atomically and reruns with identical inputs produce byte-identical
files.

Exit codes: 0 success, 1 usage or configuration error, 2 data-file error,
3 checkpoint error. Failures print a single ``mmfuse: error: ...`` line to
standard error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, apply_master_seed, default_config, load_config, render_config
from .data import Dataset, atomic_write_bytes, generate_synthetic, load, save, split
from .errors import (
    DimensionError,
    FileFormatError,
    InputError,
    MMFuseError,
    UsageError,
)
from .evaluation import evaluate, gate_stats
from .experiments import default_scenarios, run_ablation, run_perturbation_suite
from .model import Variant
from .reports import gate_stats_row, metrics_row, report_line, write_report
from .training import PRESETS, apply_preset, load_checkpoint, save_checkpoint, train

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


def _usage(message: str) -> CommandError:
    return CommandError(EXIT_USAGE, message)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through CommandError
    # instead so usage problems report exit code 1 with a single-line message.
    def error(self, message):
        raise _usage(message)


# -- shared plumbing ---------------------------------------------------------------


def _resolve_config(args) -> RunConfig:
    try:
        config = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            config = apply_master_seed(config, args.seed)
        return config
    except InputError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from exc


def _prepare_out(args) -> Path:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(
            EXIT_DATA, f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        ) from exc
    return out_dir


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    try:
        atomic_write_bytes(out_dir / "resolved-config.ini", render_config(config).encode("utf-8"))
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot write config echo: {exc.strerror or exc}") from exc


def _data_path(args, config: RunConfig) -> str:
    path = getattr(args, "data", None) or config.feature_file
    if not path:
        raise _usage("no data file: pass --data or set data.feature_file in the config")
    return str(path)


def _load_dataset(path: str) -> Dataset:
    try:
        return load(path)
    except (FileFormatError, InputError) as exc:
        raise CommandError(EXIT_DATA, f"data file {path}: {exc}") from exc
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot read data file {path}: {exc.strerror or exc}") from exc


def _load_checkpoint(path: str, expected_variant: Variant | None = None):
    try:
        return load_checkpoint(path, expected_variant=expected_variant)
    except MMFuseError as exc:
        raise CommandError(EXIT_CHECKPOINT, f"checkpoint {path}: {exc}") from exc
    except OSError as exc:
        raise CommandError(
            EXIT_CHECKPOINT, f"cannot read checkpoint {path}: {exc.strerror or exc}"
        ) from exc


def _split_dataset(dataset: Dataset, config: RunConfig):
    try:
        return split(dataset, config.fractions, seed=config.split_seed)
    except InputError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from exc


def _write_outputs(out_dir: Path, name: str, rows) -> None:
    try:
        write_report(out_dir / name, rows)
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot write {name}: {exc.strerror or exc}") from exc


def _print_rows(rows) -> None:
    for row in rows:
        print(report_line(row))


# -- commands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = _resolve_config(args)
    if config.feature_file:
        raise _usage("gen-data builds synthetic data; remove data.feature_file from the config")
    out_dir = _prepare_out(args)
    _echo_config(config, out_dir)
    try:
        dataset = generate_synthetic(config.synthetic)
    except InputError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from exc
    path = out_dir / "data.mmfn"
    try:
        save(dataset, path)
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot write {path}: {exc.strerror or exc}") from exc
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
        try:
            config = replace(config, train=apply_preset(config.train, args.preset))
        except InputError as exc:
            raise CommandError(EXIT_USAGE, str(exc)) from exc
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _echo_config(config, out_dir)

    dataset = _load_dataset(data_path)
    train_ds, val_ds, _ = _split_dataset(dataset, config)
    try:
        hyper = replace(config.model, d_t=dataset.d_t, d_i=dataset.d_i)
        checkpoint, history = train(train_ds, val_ds, hyper, config.train)
    except (InputError, DimensionError) as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from exc

    checkpoint_path = out_dir / "model.mmck"
    try:
        save_checkpoint(checkpoint, checkpoint_path)
    except OSError as exc:
        raise CommandError(EXIT_DATA, f"cannot write {checkpoint_path}: {exc.strerror or exc}") from exc
    _write_outputs(out_dir, "history.jsonl", history)
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
    _echo_config(config, out_dir)

    checkpoint = _load_checkpoint(args.checkpoint)
    dataset = _load_dataset(data_path)
    try:
        report = evaluate(checkpoint.params, checkpoint.hyper, dataset)
    except (DimensionError, InputError, UsageError) as exc:
        raise CommandError(EXIT_CHECKPOINT, str(exc)) from exc
    rows = [metrics_row("dataset", data_path, report)]
    _write_outputs(out_dir, "metrics.jsonl", rows)
    _print_rows(rows)
    return EXIT_OK


def cmd_gate_stats(args) -> int:
    config = _resolve_config(args)
    if args.threshold is not None:
        try:
            config = replace(config, eval=replace(config.eval, threshold=args.threshold))
        except InputError as exc:
            raise CommandError(EXIT_USAGE, str(exc)) from exc
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _echo_config(config, out_dir)

    checkpoint = _load_checkpoint(args.checkpoint)
    dataset = _load_dataset(data_path)
    try:
        stats = gate_stats(
            checkpoint.params, checkpoint.hyper, dataset, threshold=config.eval.threshold
        )
    except (DimensionError, InputError, UsageError) as exc:
        raise CommandError(EXIT_CHECKPOINT, str(exc)) from exc
    rows = [gate_stats_row(stats)]
    _write_outputs(out_dir, "gate-stats.jsonl", rows)
    _print_rows(rows)
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _echo_config(config, out_dir)

    dataset = _load_dataset(data_path)
    splits = _split_dataset(dataset, config)
    try:
        hyper = replace(config.model, d_t=dataset.d_t, d_i=dataset.d_i)
        results, checkpoints = run_ablation(splits, hyper, config.train)
    except (InputError, DimensionError) as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from exc

    rows = [metrics_row("variant", variant.value, report) for variant, report in results]
    _write_outputs(out_dir, "ablation.jsonl", rows)
    for variant, checkpoint in checkpoints.items():
        path = out_dir / f"ablate-{variant.value}.mmck"
        try:
            save_checkpoint(checkpoint, path)
        except OSError as exc:
            raise CommandError(EXIT_DATA, f"cannot write {path}: {exc.strerror or exc}") from exc
    _print_rows(rows)
    return EXIT_OK


def cmd_perturb(args) -> int:
    config = _resolve_config(args)
    data_path = _data_path(args, config)
    config = replace(config, feature_file=data_path)
    out_dir = _prepare_out(args)
    _echo_config(config, out_dir)

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
    try:
        results = run_perturbation_suite(full, dataset, scenarios, baselines=baselines or None)
    except DimensionError as exc:
        raise CommandError(EXIT_CHECKPOINT, str(exc)) from exc
    except InputError as exc:
        raise CommandError(EXIT_DATA, str(exc)) from exc

    rows = [metrics_row("scenario", label, report) for label, report in results]
    _write_outputs(out_dir, "perturbation.jsonl", rows)
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
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CommandError as err:
        return _fail(err.message, err.code)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except MMFuseError as err:
        return _fail(err, EXIT_USAGE)
    except OSError as err:
        return _fail(err, EXIT_DATA)
    except MemoryError as err:  # a size within every bound that this host cannot allocate
        return _fail(str(err).strip() or "out of memory", EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
