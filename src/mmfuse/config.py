"""Sectioned run configuration for the command-line tools.

A run is described by an INI-style document with four sections --
``[data]``, ``[model]``, ``[train]``, ``[eval]`` -- every key optional and
defaulted. Each section's keys are the fields of its dataclass, and each
value is read and written by ``fieldtext``, as in checkpoints. Unknown
sections or keys are rejected so typos fail loudly.
``render_config`` emits a canonical form (every key explicit, floats at
full precision) that re-parses to an identical configuration; commands
echo it next to their outputs so any run can be reproduced from the echo
alone.

A single master seed can be expanded into the five per-purpose seeds
(data generation, splitting, parameter init, training order, perturbation
noise) so one flag pins an entire experiment.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import SyntheticSpec
from .errors import InputError
from .evaluation import DOMINANCE_THRESHOLD
from .fieldtext import field_types, parse_value, render_value
from .model import HyperConfig
from .training import TrainConfig


@dataclass(frozen=True)
class EvalSettings:
    threshold: float = DOMINANCE_THRESHOLD
    sigmas: tuple[float, ...] = (0.5, 1.0)
    noise_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise InputError(f"eval.threshold must be finite and non-negative, got {self.threshold}")
        for sigma in self.sigmas:
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise InputError(f"eval.sigmas entries must be finite and positive, got {sigma}")


@dataclass(frozen=True)
class RunConfig:
    """A whole run. The model's widths d_t/d_i are always the ``[data]``
    widths; commands that read a feature file use the file's instead."""

    synthetic: SyntheticSpec = SyntheticSpec()
    feature_file: str | None = None
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    split_seed: int = 0
    model: HyperConfig = HyperConfig(d_t=SyntheticSpec.d_t, d_i=SyntheticSpec.d_i)
    train: TrainConfig = TrainConfig()
    eval: EvalSettings = EvalSettings()

    def __post_init__(self):
        d_t, d_i = self.synthetic.d_t, self.synthetic.d_i
        if (self.model.d_t, self.model.d_i) != (d_t, d_i):
            object.__setattr__(self, "model", replace(self.model, d_t=d_t, d_i=d_i))
        total = self.train_frac + self.val_frac + self.test_frac
        for name in ("train_frac", "val_frac", "test_frac"):
            if not getattr(self, name) >= 0.0:  # NaN fails both checks, as it must
                raise InputError(f"data.{name} must be non-negative, got {getattr(self, name)}")
        if not abs(total - 1.0) <= 1e-9:
            raise InputError(f"data split fractions must sum to 1, got {total}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


def default_config() -> RunConfig:
    return RunConfig()


def _keys(owner: str, cls, skip=()) -> dict[str, tuple[str, object]]:
    return {key: (owner, kind) for key, kind in field_types(cls).items() if key not in skip}


# section -> key -> (the part of a RunConfig holding the key, its type), all
# from the dataclass fields: [data] is the generator spec plus the run's own
# scalars, [model] the architecture minus the widths that [data] sets.
_PARTS = tuple(k for k, kind in field_types(RunConfig).items() if dataclasses.is_dataclass(kind))
_SECTIONS = {
    "data": {**_keys("synthetic", SyntheticSpec), **_keys("run", RunConfig, skip=_PARTS)},
    "model": _keys("model", HyperConfig, skip=("d_t", "d_i")),
    "train": _keys("train", TrainConfig),
    "eval": _keys("eval", EvalSettings),
}


def parse_config(text: str) -> RunConfig:
    # no default section, so a [DEFAULT] block is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InputError(f"malformed config: {exc}") from None

    values: dict[str, dict[str, object]] = {"run": {}, **{part: {} for part in _PARTS}}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InputError(f"unknown config section {section!r}")
        keys = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise InputError(f"unknown config key '{section}.{key}'")
            owner, kind = keys[key]
            values[owner][key] = parse_value(f"{section}.{key}", kind, raw)

    # every value has its field's type, so the constructors raise InputError alone
    synthetic = SyntheticSpec(**values["synthetic"])  # checked first: its widths size the model
    return RunConfig(
        synthetic=synthetic,
        model=HyperConfig(d_t=synthetic.d_t, d_i=synthetic.d_i, **values["model"]),
        train=TrainConfig(**values["train"]),
        eval=EvalSettings(**values["eval"]),
        **values["run"],
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"config file {path} is not utf-8 text") from None
    return parse_config(text)


def render_config(config: RunConfig) -> str:
    """Canonical text form: every key explicit, fixed order, full precision."""
    blocks = []
    for section, keys in _SECTIONS.items():
        lines = [f"[{section}]\n"]
        for key, (owner, kind) in keys.items():
            part = config if owner == "run" else getattr(config, owner)
            lines.append(f"{key} = {render_value(kind, getattr(part, key))}\n")
        blocks.append("".join(lines))
    return "\n".join(blocks)


def apply_master_seed(config: RunConfig, master_seed: int) -> RunConfig:
    """Expand one seed into the five per-purpose seeds, fixing the whole run."""
    if master_seed < 0:
        raise InputError(f"seed must be non-negative, got {master_seed}")
    derived = np.random.SeedSequence(master_seed).generate_state(5, dtype=np.uint64)
    data_seed, split_seed, init_seed, train_seed, noise_seed = (int(s) for s in derived)
    return replace(
        config,
        synthetic=replace(config.synthetic, seed=data_seed),
        split_seed=split_seed,
        model=replace(config.model, init_seed=init_seed),
        train=replace(config.train, seed=train_seed),
        eval=replace(config.eval, noise_seed=noise_seed),
    )
