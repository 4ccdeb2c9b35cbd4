"""The benchmark's workloads: the CLI commands each runs, and their output checks.

Every workload is a closed loop with one client: each command is a call to
``mmfuse.cli.main(argv)`` that starts only after the previous one returned.
A workload has set-up commands (building its inputs) and a timed sequence.
All paths are relative to the checkout root, so artifacts that embed a path
(the ``dataset`` field of ``metrics.jsonl``) are the same in every checkout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

TRAIN_COMMANDS = ("ablate", "train")
SCORE_COMMANDS = ("eval", "gate-stats", "perturb")
COMMANDS = ("ablate", "train", "eval", "gate-stats", "perturb")

# The full variant's F1 is >= 0.93 on seeds 0-13 at full size and >= 0.78
# at tiny size; a model predicting one class scores at most 0.67.
F1_FLOOR = {"full": 0.85, "tiny": 0.7}

WHY = {
    "pipeline-l1": "README quick start at L=1: ablate, perturb, gate-stats, eval; "
                   "training on the stacked closed form, where AdamW and tape overhead weigh",
    "train-seq": "train, eval, gate-stats on 1000 records at L=4; the per-record "
                 "L>1 path in batch_loss and forward_batch dominates",
    "score-large": "inference only on a 20000-record file: eval, gate-stats, perturb; "
                   "data load, perturb_dataset and large forward gemms, no training",
}

# records per generated file, (full size, tiny size used by the self-test)
_SIZES = {
    "pipeline-l1": {"full": 4000, "tiny": 600},
    "train-seq": {"full": 1000, "tiny": 200},
    "score-large": {"full": 20000, "tiny": 1200},
}
_SEQ_LEN = {"full": 4, "tiny": 2}

# Early stopping would make the epoch count, and so the work, depend on the
# seed; patience = max_epochs runs every seed for exactly EPOCHS epochs.
EPOCHS = 6


@dataclass(frozen=True)
class Command:
    label: str  # unique within a workload; the output directory's name
    argv: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def out_dir(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclass(frozen=True)
class Plan:
    setup: tuple[Command, ...]
    timed: tuple[Command, ...]
    configs: dict[str, str]  # INI path -> text, written before set-up
    scored_records: int  # records in the file the timed scoring commands read
    f1_floor: float


def _ini(**data) -> str:
    return ("[data]\n" + "".join(f"{k} = {v}\n" for k, v in data.items())
            + f"[train]\nmax_epochs = {EPOCHS}\npatience = {EPOCHS}\n")


def plan(workload: str, seed: int, root: str, size: str = "full") -> Plan:
    """Commands for one workload; ``root`` holds every file they write."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    n = _SIZES[workload][size]
    setup_dir, run_dir = f"{root}/setup", f"{root}/run"
    ini = f"{root}/config.ini"
    data = f"{setup_dir}/gen-data/data.mmfn"

    def cmd(label, phase_dir, *args, name=None, seed=seed, config=ini):
        return Command(label, (name or label, "--out", f"{phase_dir}/{label}", "--seed", str(seed),
                               "--config", config, *args))

    if workload == "pipeline-l1":
        ab = f"{run_dir}/ablate"
        full = ("--data", data, "--checkpoint", f"{ab}/ablate-full.mmck")
        return Plan(
            setup=(cmd("gen-data", setup_dir),),
            timed=(
                cmd("ablate", run_dir, "--data", data),
                cmd("perturb", run_dir, *full, "--baseline-text", f"{ab}/ablate-text-only.mmck",
                    "--baseline-image", f"{ab}/ablate-image-only.mmck"),
                cmd("gate-stats", run_dir, *full),
                cmd("eval", run_dir, *full),
            ),
            configs={ini: _ini(n_samples=n)}, scored_records=n, f1_floor=F1_FLOOR[size],
        )

    if workload == "train-seq":
        full = ("--data", data, "--checkpoint", f"{run_dir}/train/model.mmck")
        return Plan(
            setup=(cmd("gen-data", setup_dir),),
            timed=(
                cmd("train", run_dir, "--data", data, "--variant", "full"),
                cmd("eval", run_dir, *full),
                cmd("gate-stats", run_dir, *full),
            ),
            configs={ini: _ini(n_samples=n, l_t=_SEQ_LEN[size], l_i=_SEQ_LEN[size])},
            scored_records=n, f1_floor=F1_FLOOR[size],
        )

    # score-large: checkpoints come from a separate default-size training
    # file (seed s); the scored file is drawn from seed s + 1
    score_ini = f"{root}/score.ini"
    scored = f"{setup_dir}/gen-data-score/data.mmfn"
    ckpt = {v: f"{setup_dir}/train-{v}/model.mmck" for v in ("full", "text-only", "image-only")}
    full = ("--data", scored, "--checkpoint", ckpt["full"])
    return Plan(
        setup=(
            cmd("gen-data", setup_dir),
            cmd("gen-data-score", setup_dir, name="gen-data", seed=seed + 1, config=score_ini),
            *(cmd(f"train-{v}", setup_dir, "--data", data, "--variant", v, name="train")
              for v in ckpt),
        ),
        timed=(
            cmd("eval", run_dir, *full, config=score_ini),
            cmd("gate-stats", run_dir, *full, config=score_ini),
            cmd("perturb", run_dir, *full, "--baseline-text", ckpt["text-only"],
                "--baseline-image", ckpt["image-only"], config=score_ini),
        ),
        configs={ini: _ini(n_samples=_SIZES["pipeline-l1"][size]), score_ini: _ini(n_samples=n)},
        scored_records=n, f1_floor=F1_FLOOR[size],
    )


# -- output checks -------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _scored(row: dict) -> int:
    return row["tp"] + row["fp"] + row["tn"] + row["fn"]


def check_outputs(command: Command, plan: Plan, variant_order, n_sigmas: int) -> tuple[list[str], int]:
    """Problems found in a command's outputs, and the records it scored.

    ``variant_order`` and ``n_sigmas`` come from the program under test
    (``VARIANT_ORDER`` and the default perturbation sigmas).
    """
    out, n = command.out_dir, plan.scored_records
    problems: list[str] = []
    try:
        if command.name == "gen-data":
            if not (out / "data.mmfn").stat().st_size:
                problems.append("data.mmfn is empty")
            return problems, 0
        if command.name == "train":
            if not _rows(out / "history.jsonl") or not (out / "model.mmck").stat().st_size:
                problems.append("train wrote no history or an empty checkpoint")
            return problems, 0
        if command.name == "ablate":
            rows = _rows(out / "ablation.jsonl")
            if [r["variant"] for r in rows] != list(variant_order):
                problems.append(f"ablation rows {[r['variant'] for r in rows]} "
                                f"are not {list(variant_order)}")
            if len({_scored(r) for r in rows}) != 1 or _scored(rows[0]) < 1:
                problems.append("ablation rows scored different record counts")
            full = [r for r in rows if r["variant"] == "full"]
            if not full or not full[0]["f1"] >= plan.f1_floor:
                problems.append(f"full variant F1 below {plan.f1_floor}")
            return problems, sum(_scored(r) for r in rows)
        if command.name == "gate-stats":
            (row,) = _rows(out / "gate-stats.jsonl")
            shares = row["pct_text_dominant"] + row["pct_image_dominant"] + row["pct_balanced"]
            if not math.isclose(shares, 100.0, rel_tol=0.0, abs_tol=1e-9):
                problems.append(f"dominance shares sum to {shares!r}")
            if row["n_records"] != n:
                problems.append(f"gate-stats covered {row['n_records']} of {n} records")
            return problems, row["n_records"]
        rows = _rows(out / ("metrics.jsonl" if command.name == "eval" else "perturbation.jsonl"))
        expected = 1 if command.name == "eval" else 1 + 2 * n_sigmas + 2 + 2
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        bad = [r for r in rows if _scored(r) != n]
        if bad:
            problems.append(f"{len(bad)} rows did not score all {n} records")
        if not rows[0]["f1"] >= plan.f1_floor:
            problems.append(f"full variant F1 {rows[0]['f1']!r} below {plan.f1_floor}")
        return problems, sum(_scored(r) for r in rows)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], 0
