"""Print the process's peak resident memory after each command of a perfbench workload.

perfbench reports one ``peak_rss_mb`` per run: the ``ru_maxrss`` of the one
process that ran every command. This replays a run's phases in one process
with perfbench's own ``Runner`` (which checks each command's outputs and
reads its artifacts for their digest) and prints ``ru_maxrss`` after each
command. The phases are those of ``run_workload``: the set-up once under a
tracer; the set-up untraced ``SETUP_REPS`` times and for ``SETUP_SECONDS``;
the timed sequence once under a tracer; then two untraced timed passes,
each after a garbage collection, where perfbench repeats them for
``--seconds``. Beside ``ru_maxrss`` it prints the process's anonymous and
file-backed resident memory now (``RssAnon`` and ``RssFile`` of
``/proc/self/status``) and malloc's in-use bytes (``mallinfo2``: allocated
chunks plus mmapped ones), each as ``-`` where the platform lacks it. The
import timing that perfbench runs in a child process is
left out, as it does not touch this process's memory. The readings sit a
few MB below perfbench's own, as the two processes' heaps differ: read them
for which command raises the peak, not for the figure. Run it from any
directory::

    python3 tools/peak_rss.py score-large

Its files go under ``.bench_work/peak-rss/WORKLOAD`` of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench's runner: BLAS pinning, program import, Runner)
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7  # perfbench's default workload seed


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def malloc_in_use_mb() -> float | None:
    """malloc's in-use bytes (allocated chunks plus mmapped ones), where glibc has ``mallinfo2``."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2  # glibc 2.33 and later
    except (AttributeError, OSError):
        return None
    mallinfo2.argtypes, mallinfo2.restype = [], MallInfo2
    info = mallinfo2()
    return (info.uordblks + info.hblkhd) / 2**20


def memory_now() -> str:
    """RssAnon, RssFile and malloc's in-use bytes, in MB, as one report column each."""
    status = {}
    try:
        with open("/proc/self/status") as f:
            status = dict(line.split(":", 1) for line in f if line.startswith("Rss"))
    except OSError:
        pass
    fields = [int(status[k].split()[0]) / 1024 if k in status else None for k in ("RssAnon", "RssFile")]
    fields.append(malloc_in_use_mb())
    return " ".join(f"{v:12.2f}" if v is not None else f"{'-':>12}" for v in fields)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WHY))
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    run.pin_blas_threads()
    cli = run.load_program()
    root = run.WORK_DIR / "peak-rss" / args.workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    plan = workloads.plan(args.workload, SEED, root.as_posix())
    for path, text in plan.configs.items():
        Path(path).write_text(text)
    runner = run.Runner(cli, plan)
    failed = 0

    def replay(phase: str, commands, traced: bool) -> None:
        nonlocal failed
        tracer = tracing.Tracer() if traced else None
        with tracing.installed(tracer) if traced else nullcontext():
            for c in commands:
                [result] = runner.run([c], tracer)
                print(f"{phase:10} {c.label:16} {peak_mb():12.1f} {memory_now()}", flush=True)
                if result.problems:
                    failed += 1
                    print(f"  {'; '.join(result.problems)}", file=sys.stderr)

    print(f"{'phase':10} {'command':16} {'ru_maxrss_mb':>12} {'rss_anon_mb':>12} {'rss_file_mb':>12} "
          f"{'malloc_mb':>12}")
    print(f"{'start':10} {'':16} {peak_mb():12.1f} {memory_now()}")
    replay("setup", plan.setup, traced=True)
    rep, start = 0, time.perf_counter()
    while rep < run.SETUP_REPS or time.perf_counter() - start < run.SETUP_SECONDS:
        rep += 1
        replay(f"setup-{rep}", plan.setup, traced=False)
    replay("rehearsal", plan.timed, traced=True)
    for k in (1, 2):
        gc.collect()
        replay(f"timed-{k}", plan.timed, traced=False)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
