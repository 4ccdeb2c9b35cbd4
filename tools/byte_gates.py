"""Run the CLI byte gates into OUT, so that two trees can be compared byte for byte.

For ``--seed 1..5``, at the default config, at ``l_t = 3``, ``l_i = 2`` and at
``l_t = 9``, ``l_i = 1`` (a softmax over nine keys beside a length-1 side),
this runs ``gen-data``, ``ablate``, ``train --variant full``, ``eval``,
``gate-stats`` and ``perturb`` (with both ablation baselines), plus two
``gen-data`` runs with ``--seed 1``: one of 80,000 records (the paper's
LMFND size), and one at ``l_t = 3``, ``l_i = 2`` where no text side is drawn
informative and every single-informative record is conflicted:
92 commands. Each runs in a fresh ``python -m mmfuse.cli`` on this tree's
``src/``, with BLAS on one thread, in OUT with paths relative to it, so that
no output names the tree. Each command's exit code, stdout and stderr are saved
beside its outputs. To compare a change with its parent::

    python3 tools/byte_gates.py /tmp/gates-change        # in the change's tree
    python3 tools/byte_gates.py /tmp/gates-parent        # in the parent's tree
    diff -r /tmp/gates-parent /tmp/gates-change

The 92 commands take about a minute on two cores; OUT must not exist yet.

``--manifest FILE`` runs the 18 commands of ``--seed 1`` at the three
configs in this one process, through ``mmfuse.cli.main``, in a temporary
directory laid out as OUT, and writes one ``sha256  path`` line per file
(outputs, configs, and each command's exit code, stdout and stderr) after
a ``#`` line naming the numpy and BLAS builds. Tier-1 compares such a run
with the committed ``tests/byte_manifest.txt``; a change that moves bytes
on purpose rewrites it with::

    python3 tools/byte_gates.py --manifest tests/byte_manifest.txt
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CONFIGS = {"L1": None,  # None: the default config
           "L3x2": "[data]\nl_t = 3\nl_i = 2\n", "L9x1": "[data]\nl_t = 9\nl_i = 1\n"}
SEEDS = range(1, 6)
GEN_ONLY = [("large", "[data]\nn_samples = 80000\n", 1),  # name, config, seed: gen-data alone
            ("conflict", "[data]\nl_t = 3\nl_i = 2\np_text_signal = 0.0\nconflict_rate = 1.0\n"
                         "noise_std = 0.3\nsignal_strength = 2.5\n", 1)]


def commands(run: str) -> list[tuple[str, list[str]]]:
    """The six commands of one config and seed, each writing under ``run/<name>``."""
    data, ablation = f"{run}/gen-data/data.mmfn", f"{run}/ablate"
    full = ["--checkpoint", f"{ablation}/ablate-full.mmck"]
    return [
        ("gen-data", []),
        ("ablate", ["--data", data]),
        ("train", ["--data", data, "--variant", "full"]),
        ("eval", ["--data", data, "--checkpoint", f"{run}/train/model.mmck"]),
        ("gate-stats", ["--data", data, *full]),
        ("perturb", ["--data", data, *full,
                     "--baseline-text", f"{ablation}/ablate-text-only.mmck",
                     "--baseline-image", f"{ablation}/ablate-image-only.mmck"]),
    ]


def fresh_process(argv: list[str], out: Path) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "mmfuse.cli", *argv], cwd=out,
                          env={**os.environ, "PYTHONPATH": str(SRC), **BLAS_ONE_THREAD},
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def this_process(argv: list[str], out: Path) -> tuple[int, str, str]:
    from mmfuse.cli import main as cli_main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue()


def run_gates(out: Path, runs, execute) -> int:
    """Run each (name, ini, seed, steps) under ``out``, saving every command's exit
    code, stdout and stderr beside its outputs; returns how many commands failed."""
    failed = 0
    for name, ini, seed, steps in runs:
        config = []
        if ini is not None:
            (out / f"{name}.ini").write_text(ini)
            config = ["--config", f"{name}.ini"]
        run = f"{name}/seed{seed}"
        (out / run).mkdir(parents=True)
        for command, args in steps:
            code, stdout, stderr = execute(
                [command, *config, "--seed", str(seed), "--out", f"{run}/{command}", *args], out)
            for suffix, text in (("exit", f"{code}\n"), ("stdout", stdout), ("stderr", stderr)):
                (out / run / f"{command}.{suffix}").write_text(text)
            failed += code != 0
            print(f"{run} {command}: exit {code}", flush=True)
    return failed


def blas_build() -> str:
    """numpy's version and its BLAS, with the library's own configuration string
    where it exposes one (it names the kernel picked for this CPU at run time)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            get = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                config = get().decode()
                break
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}: {' '.join(config.split())}"


def write_manifest(path: Path) -> int:
    """Run seed 1's commands at every config in this process and write their manifest."""
    os.environ.update(BLAS_ONE_THREAD)  # read once, when numpy is first imported below
    sys.path.insert(0, str(SRC))
    runs = [(name, ini, 1, commands(f"{name}/seed1")) for name, ini in CONFIGS.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        failed = run_gates(out, runs, this_process)
        lines = [f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.relative_to(out).as_posix()}"
                 for f in sorted(out.rglob("*")) if f.is_file()]
    path.write_text("".join(f"{line}\n" for line in [f"# {blas_build()}", *lines]))
    print(f"{failed} of {sum(len(steps) for *_, steps in runs)} commands failed; "
          f"{len(lines)} files in {path}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--manifest":
        return write_manifest(Path(argv[1]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(f"usage: {sys.argv[0]} OUT | --manifest FILE", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():
        print(f"{sys.argv[0]}: error: {out} already exists", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    runs = [(name, ini, seed, commands(f"{name}/seed{seed}"))
            for name, ini in CONFIGS.items() for seed in SEEDS]
    runs += [(name, ini, seed, commands(f"{name}/seed{seed}")[:1]) for name, ini, seed in GEN_ONLY]
    failed = run_gates(out, runs, fresh_process)
    print(f"{failed} of {sum(len(steps) for *_, steps in runs)} commands failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
