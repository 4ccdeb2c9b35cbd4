"""Spans around mmfuse's public functions, installed from outside the package.

``installed(tracer)`` replaces each function in ``TARGETS`` with a wrapper
that records a span, under every ``mmfuse`` module attribute that is bound
to it: ``from .x import f`` copies the binding, so patching only the
defining module would miss calls made through the copies. ``Tape.backward``
is patched on the class. Leaving the ``with`` block restores the original
objects; ``wrapped_bindings()`` lists any that are still wrapped.

Spans are kept in memory (name, start, end, parent id, exact counts) and
turned into per-layer metrics by ``layer_metrics``. A target the package no
longer defines, or whose counts cannot be read from its arguments and
result, reports 0 for the metrics that depend on it.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_MARK = "_perfbench_original"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in call order; span ids are list indices."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


# -- exact counts taken at the boundary ------------------------------------------


def _load_counts(args, kwargs, result):
    return {"records": len(result), "bytes": os.path.getsize(args[0])}


def _forward_batch_counts(args, kwargs, result):
    return {"records": len(args[2])}


def _batch_loss_counts(args, kwargs, result):
    # the loss node belongs to the tape the whole step was recorded on
    return {"records": len(args[2]), "nodes": len(result.tape)}


def _train_counts(args, kwargs, result):
    _, history = result
    return {"records": len(args[0]), "epochs": len(history)}


def _result_len_counts(args, kwargs, result):
    return {"records": len(result)}


def _ablation_counts(args, kwargs, result):
    return {"records": len(args[0][2])}  # the test split every variant is scored on


# (module, attribute, counts) for the public function of each layer; cli is
# timed by the benchmark's own span around each ``mmfuse.cli.main`` call
TARGETS = (
    ("data", "generate_synthetic", None),
    ("data", "save", None),
    ("data", "load", _load_counts),
    ("data", "split", None),
    ("autodiff", "Tape.backward", None),
    ("model", "forward_batch", _forward_batch_counts),
    ("training", "batch_loss", _batch_loss_counts),
    ("training", "adamw_step", None),
    ("training", "train", _train_counts),
    ("training", "save_checkpoint", None),
    ("training", "load_checkpoint", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "gate_stats", None),
    ("evaluation", "perturb_dataset", _result_len_counts),
    ("experiments", "run_ablation", _ablation_counts),
    ("experiments", "run_perturbation_suite", None),
)


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            try:
                span.counts = counts(args, kwargs, result)
            except (TypeError, AttributeError, ValueError, OSError):
                pass  # a changed signature costs its counts, never the call
        return result

    setattr(wrapper, _MARK, fn)
    return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mmfuse" or n.startswith("mmfuse."))]


def missing_targets() -> list[str]:
    """Targets the loaded package does not define (their metrics read 0)."""
    missing = []
    for module, attr, _ in TARGETS:
        owner = sys.modules.get(f"mmfuse.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    return missing


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    patches = []  # (owner, attribute, original)
    try:
        modules = _package_modules()
        for module, attr, counts in TARGETS:
            mod = sys.modules.get(f"mmfuse.{module}")
            *owner_path, leaf = attr.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, f"{module}.{attr}", original, counts)
            if owner_path:
                patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, name, original))
                        setattr(m, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def wrapped_bindings() -> list[str]:
    """Package attributes (and class methods) that still hold a wrapper."""
    found = []
    for m in _package_modules():
        for name, value in vars(m).items():
            if hasattr(value, _MARK):
                found.append(f"{m.__name__}.{name}")
            if isinstance(value, type):
                found += [f"{m.__name__}.{name}.{k}" for k, v in vars(value).items()
                          if hasattr(v, _MARK)]
    return found


# -- per-layer metrics -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def self_time_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name, largest self time first."""
    rows: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += own
    return sorted(((n, c, t, o) for n, (c, t, o) in rows.items()), key=lambda r: -r[3])


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def step_seconds(spans: list[Span]) -> list[float]:
    """Training step durations: from a batch_loss start to the next adamw_step end."""
    steps, started = [], None
    for s in spans:
        if s.name == "training.batch_loss":
            started = s.start
        elif s.name == "training.adamw_step" and started is not None:
            steps.append(s.end - started)
            started = None
    return steps


def layer_metrics(spans: list[Span], setup_spans: list[Span], commands) -> dict[str, float]:
    """Per-layer metrics of one traced command sequence.

    ``setup_spans`` supply the data-generation figures, which only set-up
    runs; ``commands`` are the command names the sequence may contain, each
    reported as ``cli.<command>_s`` (0 when the sequence does not run it).
    """
    def of(name, pool=spans):
        return [s for s in pool if s.name == name]

    def total(name, pool=spans):
        return sum(s.seconds for s in of(name, pool))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    def rate(records, seconds):
        return records / seconds if seconds > 0 else 0.0

    own = self_times(spans)
    batch_losses = of("training.batch_loss")
    steps = [1e3 * t for t in step_seconds(spans)]
    m = {
        "data.load_s": total("data.load"),
        "data.load_records_per_s": rate(count("data.load", "records"), total("data.load")),
        "data.bytes_read": count("data.load", "bytes"),
        "data.generate_s": total("data.generate_synthetic", setup_spans),
        "data.save_s": total("data.save", setup_spans),
        "evaluation.perturb_dataset_s": total("evaluation.perturb_dataset"),
        "evaluation.perturb_records_per_s": rate(count("evaluation.perturb_dataset", "records"),
                                                 total("evaluation.perturb_dataset")),
        "training.batch_loss_s": total("training.batch_loss"),
        "autodiff.backward_s": total("autodiff.Tape.backward"),
        "autodiff.nodes_per_step": (count("training.batch_loss", "nodes") / len(batch_losses)
                                    if batch_losses else 0.0),
        "training.adamw_s": total("training.adamw_step"),
        "training.steps": len(batch_losses),
        "training.epochs": count("training.train", "epochs"),
        "training.step_ms_p50": _percentile(steps, 50),
        "training.step_ms_p90": _percentile(steps, 90),
        "training.train_self_s": sum(o for s, o in zip(spans, own) if s.name == "training.train"),
        "training.checkpoint_io_s": total("training.save_checkpoint") + total("training.load_checkpoint"),
        "model.forward_batch_s": total("model.forward_batch"),
        "model.forward_records_per_s": rate(count("model.forward_batch", "records"),
                                            total("model.forward_batch")),
    }
    for command in commands:
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    m["cli.self_s"] = sum(o for s, o in zip(spans, own) if s.name.startswith("cli."))
    return m
