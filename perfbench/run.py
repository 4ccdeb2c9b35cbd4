"""End-to-end benchmark of the mmfuse CLI, with per-layer spans timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-l1 --seed 7 --seconds 20 --trace 0

The program is imported from ``src/`` and driven through its real entry
point, ``mmfuse.cli.main(argv)``, in this process; every file it writes
goes under ``.bench_work/<workload>/``. A run

1. runs the set-up commands once with spans installed (``tracing.py``);
2. repeats the set-up untraced, at least ``SETUP_REPS`` times and for
   ``SETUP_SECONDS``; ``setup_s`` is the median over repeats of
   ``import mmfuse.cli`` timed in a fresh interpreter plus the set-up
   commands' time;
3. runs the timed sequence once with spans installed. Steps 1 and 3 are the
   rehearsal: they warm caches and fix the reference output digests and
   the exact counts (training records x epochs) that untraced runs cannot
   see;
4. repeats the timed sequence until ``--seconds`` have passed. With
   ``--trace 0`` every iteration is untraced and the end-to-end metrics are
   medians over iterations. With ``--trace 1`` iterations alternate
   untraced and traced; the per-layer metrics are medians over the traced
   ones, and ``trace.overhead_s`` is the traced minus the untraced median
   wall time.

An operation is one CLI command. It fails if it raises, exits non-zero,
fails its output check (``workloads.check_outputs``) or writes artifacts
whose SHA-256 differs from the rehearsal's; the result's ``failed`` /
``attempted`` is the error rate. The last line of standard output is the
JSON result; the lines before it are a readable report.

Every time in the end-to-end metrics is scaled to a reference host speed
by ``hostspeed.Sampler``, which times a fixed probe of the benchmark's own
before, during and after each command; the host's speed swings too much
from minute to minute for raw times to compare. Raw times are in the report
and in ``result.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import tracing
import workloads
from workloads import COMMANDS, SCORE_COMMANDS, TRAIN_COMMANDS

# Fixed on every commit so BLAS speed-ups from threads never show as code changes.
BLAS_THREADS = 1
# set-up is repeated at least SETUP_REPS times and for at least SETUP_SECONDS
SETUP_REPS = 5
SETUP_SECONDS = 3.0
WORK_DIR = Path(".bench_work")
_ARTIFACTS = (".mmck", ".jsonl", ".mmfn")  # resolved-config.ini embeds paths, so it is left out

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_records_per_s": "1/s",
    "eval_records_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.load_s": "s",
    "data.load_records_per_s": "1/s",
    "data.bytes_read": "bytes",
    "data.generate_s": "s",
    "data.save_s": "s",
    "evaluation.perturb_dataset_s": "s",
    "evaluation.perturb_records_per_s": "1/s",
    "evaluation.records_scored": "count",
    "training.batch_loss_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.nodes_per_step": "count",
    "training.adamw_s": "s",
    "training.records": "count",
    "training.steps": "count",
    "training.epochs": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.train_self_s": "s",
    "training.checkpoint_io_s": "s",
    "model.forward_batch_s": "s",
    "model.forward_records_per_s": "1/s",
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    pass


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_program():
    """Import ``mmfuse.cli`` from ``src/`` of the current directory."""
    src = Path("src").resolve()
    if not (src / "mmfuse" / "cli.py").is_file():
        raise ProgramMissing(f"no mmfuse sources at {src / 'mmfuse'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import mmfuse.cli

    if Path(mmfuse.cli.__file__).resolve().parent != src / "mmfuse":
        raise ProgramMissing(f"imported mmfuse from {mmfuse.cli.__file__}, not from {src}")
    return mmfuse.cli


def time_import(sampler: hostspeed.Sampler) -> tuple[float, float]:
    """Raw and scaled seconds to ``import mmfuse.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mmfuse.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(Path("src").resolve())}
    with sampler.sampling(during=False):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return seconds, sampler.scale(seconds)


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.suffix in _ARTIFACTS):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


@dataclass
class CommandResult:
    label: str
    name: str
    seconds: float
    problems: list[str]
    digest: str = ""
    scored: int = 0  # records scored (tp + fp + tn + fn summed over the output rows)
    train_records: int = 0  # training records x epochs; known only when traced
    scaled: float = 0.0  # seconds at the reference host speed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, results: list[CommandResult], reference: list[CommandResult] | None) -> None:
        for i, r in enumerate(results):
            problems = list(r.problems)
            if reference is not None:
                if r.digest != reference[i].digest:
                    problems.append("artifacts differ from the rehearsal's")
                if r.scored != reference[i].scored:
                    problems.append(f"scored {r.scored} records, rehearsal {reference[i].scored}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.messages.append(f"{r.label}: {'; '.join(problems)}")


class Runner:
    """Runs a plan's commands through ``mmfuse.cli.main`` and checks their outputs."""

    def __init__(self, cli, plan: workloads.Plan):
        from mmfuse.config import default_config
        from mmfuse.model import VARIANT_ORDER

        self.cli = cli
        self.plan = plan
        self.variant_order = [v.value for v in VARIANT_ORDER]
        self.n_sigmas = len(default_config().eval.sigmas)
        self.sampler = hostspeed.Sampler()

    def run(self, commands, tracer: tracing.Tracer | None = None) -> list[CommandResult]:
        results = []
        for c in commands:
            shutil.rmtree(c.out_dir, ignore_errors=True)
            first_span = len(tracer.spans) if tracer else 0
            err = io.StringIO()
            # probes inside a traced command would land in its spans
            with self.sampler.sampling(during=tracer is None):
                start = time.perf_counter()
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(err):
                        if tracer is None:
                            code = self.cli.main(list(c.argv))
                        else:
                            with tracer.span(f"cli.{c.name}"):
                                code = self.cli.main(list(c.argv))
                except Exception:  # a crash is a failed operation, not the end of the run
                    code = traceback.format_exc().strip().splitlines()[-1]
                end = time.perf_counter()
            seconds = self.sampler.program_seconds(start, end)
            result = CommandResult(c.label, c.name, seconds, [], scaled=self.sampler.scale(seconds))
            if code != 0:
                result.problems.append(f"exit {code}: {err.getvalue().strip()}")
            else:
                result.problems, result.scored = workloads.check_outputs(
                    c, self.plan, self.variant_order, self.n_sigmas)
                result.digest = digest_dir(c.out_dir)
            if tracer is not None:
                spans = tracer.spans[first_span:]
                result.train_records = sum(s.counts.get("records", 0) * s.counts.get("epochs", 0)
                                           for s in spans if s.name == "training.train")
                test = sum(s.counts.get("records", 0) for s in spans
                           if s.name == "experiments.run_ablation")
                if test and result.scored != test * len(self.variant_order):
                    result.problems.append(f"ablation rows do not each score the {test} test records")
            results.append(result)
        return results


def _train_rate(results, reference) -> float:
    records = sum(ref.train_records for r, ref in zip(results, reference) if r.name in TRAIN_COMMANDS)
    seconds = sum(r.scaled for r in results if r.name in TRAIN_COMMANDS)
    return records / seconds


def _eval_rate(results) -> float:
    scoring = [r for r in results if r.name in SCORE_COMMANDS]
    return sum(r.scored for r in scoring) / sum(r.scaled for r in scoring)


def _git_rev() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git") / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        text = io.StringIO()
        with redirect_stdout(text):
            np.show_config()
        blas = text.getvalue()
    src = sorted(Path("src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_rev": _git_rev(),
        "source_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest(),
        "seed": seed,
    }


def _span_dicts(iteration, spans: list[tracing.Span]) -> list[dict]:
    return [{"iteration": iteration, "id": k, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "counts": s.counts} for k, s in enumerate(spans)]


@dataclass
class Outcome:
    """One benchmark run: the result line plus what the report prints."""

    result: dict
    digest: str
    iterations: int
    traced_iterations: int
    end_to_end: dict
    raw: dict  # unscaled medians and the mean host probe
    shares: list[tuple[str, int, float, float]]
    spans: list[dict]
    messages: list[str]


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> Outcome:
    root = WORK_DIR / workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    plan = workloads.plan(workload, seed, root.as_posix(), size)
    for path, text in plan.configs.items():
        Path(path).write_text(text)
    runner, tally = Runner(cli, plan), Tally()

    setup_tracer, rehearsal_tracer = tracing.Tracer(), tracing.Tracer()
    with tracing.installed(setup_tracer):
        ref_setup = runner.run(plan.setup, setup_tracer)
    tally.add(ref_setup, None)

    setup_s, raw_setup_s, setup_train_rates = [], [], []
    setup_start = time.perf_counter()
    while len(setup_s) < SETUP_REPS or time.perf_counter() - setup_start < SETUP_SECONDS:
        raw_import_s, import_s = time_import(runner.sampler)
        results = runner.run(plan.setup)
        tally.add(results, ref_setup)
        setup_s.append(import_s + sum(r.scaled for r in results))
        raw_setup_s.append(raw_import_s + sum(r.seconds for r in results))
        if any(r.name in TRAIN_COMMANDS for r in results):
            setup_train_rates.append(_train_rate(results, ref_setup))

    with tracing.installed(rehearsal_tracer):
        ref_timed = runner.run(plan.timed, rehearsal_tracer)
    tally.add(ref_timed, None)

    walls, raw_walls = {False: [], True: []}, []
    train_rates, eval_rates, per_layer_runs = [], [], []
    spans = _span_dicts("setup", setup_tracer.spans) + _span_dicts("rehearsal", rehearsal_tracer.spans)
    last_spans = rehearsal_tracer.spans
    start = time.perf_counter()
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        tracer = tracing.Tracer() if traced else None
        gc.collect()  # each iteration starts without the previous one's garbage
        if traced:
            with tracing.installed(tracer):
                results = runner.run(plan.timed, tracer)
        else:
            wrapped = tracing.wrapped_bindings()
            if wrapped:
                raise RuntimeError(f"untraced iteration would call wrappers: {wrapped}")
            results = runner.run(plan.timed)
        tally.add(results, ref_timed)
        walls[traced].append(sum(r.scaled for r in results))
        if not traced:
            raw_walls.append(sum(r.seconds for r in results))
            if any(r.name in TRAIN_COMMANDS for r in results):
                train_rates.append(_train_rate(results, ref_timed))
            eval_rates.append(_eval_rate(results))
        else:
            m = tracing.layer_metrics(tracer.spans, setup_tracer.spans, COMMANDS)
            m["evaluation.records_scored"] = sum(r.scored for r in results if r.name in SCORE_COMMANDS)
            m["training.records"] = sum(r.train_records for r in results)
            per_layer_runs.append(m)
            last_spans = tracer.spans
            spans += _span_dicts(i, tracer.spans)
        i += 1

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls[False]),
        # score-large trains only in set-up, so its figure is set-up training
        "train_records_per_s": statistics.median(train_rates or setup_train_rates),
        "eval_records_per_s": statistics.median(eval_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"setup_s": statistics.median(raw_setup_s), "wall_s": statistics.median(raw_walls),
           "probe_ms": 1e3 * runner.sampler.mean_probe()}
    if trace:
        metrics = {k: statistics.median(run[k] for run in per_layer_runs) for k in PER_LAYER
                   if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - end_to_end["wall_s"]
        units = PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    digest = hashlib.sha256("".join(r.digest for r in ref_setup + ref_timed).encode()).hexdigest()
    return Outcome(result, digest, i, len(walls[True]), end_to_end, raw,
                   tracing.self_time_table(last_spans), spans, tally.messages)


def _report(workload: str, outcome: Outcome, env: dict, trace: bool) -> None:
    r = outcome.result
    print(f"workload {workload}: {outcome.iterations} iterations "
          f"({outcome.traced_iterations} traced), digest {outcome.digest}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{'metric':34} {'value':>16}  unit")
    for name, value in outcome.end_to_end.items():
        print(f"{name:34} {value:16.6g}  {END_TO_END[name]}")
    print(f"unscaled: setup_s {outcome.raw['setup_s']:.6g} s, wall_s {outcome.raw['wall_s']:.6g} s; "
          f"mean host probe {outcome.raw['probe_ms']:.4g} ms (reference {1e3 * hostspeed.REFERENCE_PROBE_S:g} ms)")
    print(f"{'error_rate':34} {r['failed'] / r['attempted']:16.6g}  "
          f"1 ({r['failed']} of {r['attempted']} commands failed)")
    for message in outcome.messages:
        print(f"FAILED {message}")
    if not trace:
        return
    for target in tracing.missing_targets():
        print(f"not traced: {target} is not defined by this program")
    print(f"{'per-layer (median of traced)':34} {'value':>16}  unit")
    for name, unit in PER_LAYER.items():
        print(f"{name:34} {r['metrics'][name]['value']:16.6g}  {unit}")
    total = sum(t for name, _, t, _ in outcome.shares if name.startswith("cli."))
    print(f"self time, last traced iteration ({total:.4f} s in commands)")
    print(f"{'span':34} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self%':>7}")
    for name, calls, seconds, own in outcome.shares:
        print(f"{name:34} {calls:7d} {seconds:10.4f} {own:10.4f} {100 * own / total:7.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        cli = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    outcome = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    out = WORK_DIR / args.workload
    (out / "result.json").write_text(json.dumps(
        {**outcome.result, "digest": outcome.digest, "unscaled": outcome.raw, "environment": env},
        indent=1) + "\n")
    if args.trace:
        (out / "trace.json").write_text(json.dumps(outcome.spans) + "\n")
    _report(args.workload, outcome, env, bool(args.trace))
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
