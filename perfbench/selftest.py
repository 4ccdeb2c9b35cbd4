"""Self-test of the benchmark: every workload at tiny size, through ``run.run_workload``.

Run from the root of a checkout (it takes about half a minute):

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced runs and checks that
every end-to-end and per-layer metric of ``BENCHMARK.json`` appears with its
unit, that no operation fails, that the exact counts and the output digest
repeat (the untraced run probes host speed during commands, the traced
ones only around them, so this also shows that probing leaves outputs
alone), and that the wrappers are gone after a traced run. It checks that
the host-speed sampler probes during a block and takes its own time out of
the block's. Last, it checks
that the benchmark exits non-zero, printing no result, in a directory that
holds only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import run
import tracing
import workloads

EXACT_COUNTS = ("training.steps", "training.epochs", "training.records",
                "autodiff.nodes_per_step", "evaluation.records_scored", "data.bytes_read")
SEED = 3


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
            print(f"FAIL {message}")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer differs from run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WHY),
          "BENCHMARK.json workloads differ from workloads.WHY")

    run.pin_blas_threads()
    cli = run.load_program()
    check(not tracing.missing_targets(), f"targets missing: {tracing.missing_targets()}")
    sampler = hostspeed.Sampler()
    with sampler.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * hostspeed.INTERVAL_S:
            pass
        end = time.perf_counter()
    handled = end - start - sampler.program_seconds(start, end)
    check(len(sampler.samples) >= 2 + 5 and handled > 0,
          f"sampler took {len(sampler.samples)} probes in a block of "
          f"{10 * hostspeed.INTERVAL_S:g} s, and {handled:g} s of them inside it")
    for name in workloads.WHY:
        plain = run.run_workload(cli, name, SEED, 0, trace=False, size="tiny")
        traced = [run.run_workload(cli, name, SEED, 0, trace=True, size="tiny") for _ in range(2)]
        for outcome in (plain, *traced):
            check(outcome.result["correct"] and outcome.result["failed"] == 0,
                  f"{name}: operations failed: {outcome.messages}")
            check(outcome.digest == plain.digest, f"{name}: digests differ between runs")
        check({k: v["unit"] for k, v in plain.result["metrics"].items()} == run.END_TO_END,
              f"{name}: untraced metrics are not the end-to-end set")
        check(all(v["value"] > 0 for v in plain.result["metrics"].values()),
              f"{name}: an end-to-end metric is not positive")
        for outcome in traced:
            check({k: v["unit"] for k, v in outcome.result["metrics"].items()} == run.PER_LAYER,
                  f"{name}: traced metrics are not the per-layer set")
        first, second = (t.result["metrics"] for t in traced)
        for key in EXACT_COUNTS:
            check(first[key]["value"] == second[key]["value"],
                  f"{name}: {key} {first[key]['value']} != {second[key]['value']}")
        check(not tracing.wrapped_bindings(), f"{name}: wrappers left installed")
        print(f"ok {name}: digest {plain.digest[:16]}, counts "
              + ", ".join(f"{k}={first[k]['value']:g}" for k in EXACT_COUNTS))

    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree("perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-l1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
