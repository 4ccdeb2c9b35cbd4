"""Sectioned run configuration for the command-line tools.

A run is described by an INI-style document with four sections --
``[data]``, ``[model]``, ``[train]``, ``[eval]`` -- every key optional and
defaulted. Unknown sections or keys are rejected so typos fail loudly.
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
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import SyntheticSpec
from .errors import InputError
from .model import HyperConfig, Variant
from .training import TrainConfig


@dataclass(frozen=True)
class ModelSettings:
    """HyperConfig fields that do not depend on the dataset dims."""

    d_c: int = 8
    d_k: int | None = None
    gate_hidden: int = 16
    cls_hidden: int = 32
    variant: Variant = Variant.FULL
    init_scale: float = 1.0
    init_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        if self.d_k is None:
            object.__setattr__(self, "d_k", self.d_c)

    def hyper(self, d_t: int, d_i: int) -> HyperConfig:
        return HyperConfig(
            d_t=d_t,
            d_i=d_i,
            d_c=self.d_c,
            d_k=self.d_k,
            gate_hidden=self.gate_hidden,
            cls_hidden=self.cls_hidden,
            variant=self.variant,
            init_scale=self.init_scale,
            init_seed=self.init_seed,
        )


@dataclass(frozen=True)
class EvalSettings:
    threshold: float = 0.2
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
    synthetic: SyntheticSpec = SyntheticSpec()
    feature_file: str | None = None
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    split_seed: int = 0
    model: ModelSettings = ModelSettings()
    train: TrainConfig = TrainConfig()
    eval: EvalSettings = EvalSettings()

    def __post_init__(self):
        self.synthetic.validate()
        total = self.train_frac + self.val_frac + self.test_frac
        for name in ("train_frac", "val_frac", "test_frac"):
            if getattr(self, name) < 0.0:
                raise InputError(f"data.{name} must be non-negative")
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"data split fractions must sum to 1, got {total}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


def default_config() -> RunConfig:
    return RunConfig()


# Key tables drive parsing, validation, and rendering so the three cannot
# drift apart. Each entry maps a key to (type tag, default supplier).
_SYNTHETIC_KEYS = {f.name: f.type for f in dataclasses.fields(SyntheticSpec)}
_TRAIN_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}

_DATA_EXTRA = {
    "feature_file": "str",
    "train_frac": "float",
    "val_frac": "float",
    "test_frac": "float",
    "split_seed": "int",
}
_MODEL_KEYS = {
    "d_c": "int",
    "d_k": "int",
    "gate_hidden": "int",
    "cls_hidden": "int",
    "variant": "str",
    "init_scale": "float",
    "init_seed": "int",
}
_EVAL_KEYS = {"threshold": "float", "sigmas": "str", "noise_seed": "int"}

_SECTIONS = {
    "data": {**_SYNTHETIC_KEYS, **_DATA_EXTRA},
    "model": _MODEL_KEYS,
    "train": _TRAIN_KEYS,
    "eval": _EVAL_KEYS,
}


# Seeds span the uint64 range that apply_master_seed derives; every other
# integer is a count or a size, bounded to int64 before numpy sees it.
_SEED_KEYS = frozenset({"seed", "split_seed", "init_seed", "noise_seed"})


def _coerce(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    where = f"{section}.{key}"
    if kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"{where} must be an integer, got {raw!r}") from None
        low, high = (0, 2**64 - 1) if key in _SEED_KEYS else (-2**63, 2**63 - 1)
        if not low <= value <= high:
            raise InputError(f"{where} must be in [{low}, {high}], got {raw!r}")
        return value
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"{where} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{where} must be a finite number, got {raw!r}")
        return value
    return raw


def _parse_sigmas(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise InputError(f"eval.sigmas must be comma-separated numbers, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InputError(f"malformed config: {exc}") from None

    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InputError(f"unknown config section {section!r}")
        table = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in table:
                raise InputError(f"unknown config key '{section}.{key}'")
            values[section][key] = _coerce(section, key, table[key], raw)

    data = values["data"]
    synthetic = SyntheticSpec(**{k: v for k, v in data.items() if k in _SYNTHETIC_KEYS})
    feature_file = data.get("feature_file") or None

    model_kw = dict(values["model"])
    if "variant" in model_kw:
        try:
            model_kw["variant"] = Variant(model_kw["variant"])
        except ValueError:
            names = ", ".join(v.value for v in Variant)
            raise InputError(
                f"model.variant must be one of {names}; got {model_kw['variant']!r}"
            ) from None

    eval_kw = dict(values["eval"])
    if "sigmas" in eval_kw:
        eval_kw["sigmas"] = _parse_sigmas(str(eval_kw["sigmas"]))

    split_kw = {
        k: data[k]
        for k in ("train_frac", "val_frac", "test_frac", "split_seed")
        if k in data
    }
    try:
        return RunConfig(
            synthetic=synthetic,
            feature_file=feature_file,
            model=ModelSettings(**model_kw),
            train=TrainConfig(**values["train"]),
            eval=EvalSettings(**eval_kw),
            **split_kw,
        )
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid config: {exc}") from None


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    return parse_config(text)


def _render_value(value) -> str:
    if isinstance(value, Variant):
        return value.value
    if isinstance(value, float):
        return repr(value)  # shortest digits that parse back to the same float
    return str(value)


def render_config(config: RunConfig) -> str:
    """Canonical text form: every key explicit, fixed order, full precision."""
    model = config.model
    rows: list[tuple[str, list[tuple[str, object]]]] = [
        (
            "data",
            [(k, getattr(config.synthetic, k)) for k in _SYNTHETIC_KEYS]
            + [
                ("feature_file", config.feature_file or ""),
                ("train_frac", config.train_frac),
                ("val_frac", config.val_frac),
                ("test_frac", config.test_frac),
                ("split_seed", config.split_seed),
            ],
        ),
        (
            "model",
            [
                ("d_c", model.d_c),
                ("d_k", model.d_k),
                ("gate_hidden", model.gate_hidden),
                ("cls_hidden", model.cls_hidden),
                ("variant", model.variant),
                ("init_scale", model.init_scale),
                ("init_seed", model.init_seed),
            ],
        ),
        ("train", [(k, getattr(config.train, k)) for k in _TRAIN_KEYS]),
        (
            "eval",
            [
                ("threshold", config.eval.threshold),
                ("sigmas", ",".join(repr(s) for s in config.eval.sigmas)),
                ("noise_seed", config.eval.noise_seed),
            ],
        ),
    ]
    out = io.StringIO()
    for index, (section, pairs) in enumerate(rows):
        if index:
            out.write("\n")
        out.write(f"[{section}]\n")
        for key, value in pairs:
            out.write(f"{key} = {_render_value(value)}\n")
    return out.getvalue()


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
