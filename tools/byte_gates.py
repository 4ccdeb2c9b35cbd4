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
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: {sys.argv[0]} OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():
        print(f"{sys.argv[0]}: error: {out} already exists", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    runs = [(name, ini, seed, commands(f"{name}/seed{seed}"))
            for name, ini in CONFIGS.items() for seed in SEEDS]
    runs += [(name, ini, seed, commands(f"{name}/seed{seed}")[:1]) for name, ini, seed in GEN_ONLY]
    failed = 0
    for name, ini, seed, steps in runs:
        config = []
        if ini is not None:
            (out / f"{name}.ini").write_text(ini)
            config = ["--config", f"{name}.ini"]
        run = f"{name}/seed{seed}"
        (out / run).mkdir(parents=True)
        for command, args in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "mmfuse.cli", command, *config, "--seed", str(seed),
                 "--out", f"{run}/{command}", *args],
                cwd=out, env=env, capture_output=True, text=True)
            for suffix, text in (("exit", f"{proc.returncode}\n"), ("stdout", proc.stdout),
                                 ("stderr", proc.stderr)):
                (out / run / f"{command}.{suffix}").write_text(text)
            failed += proc.returncode != 0
            print(f"{run} {command}: exit {proc.returncode}", flush=True)
    print(f"{failed} of {sum(len(steps) for *_, steps in runs)} commands failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
