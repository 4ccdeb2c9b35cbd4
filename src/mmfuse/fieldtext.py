"""The text form of configuration values.

The INI run configuration and the config blocks inside checkpoints both
store dataclass fields as text. One parse/render pair, chosen by the
field's type, serves both, so they accept exactly the same values: floats
are finite, integers named ``*seed`` span the uint64 range that master-seed
expansion derives and every other integer the int64 range, enums are
written by value, ``tuple[float, ...]`` is comma-separated, an empty
value is ``None`` for an ``X | None`` field, and no value spans two lines
(the INI echo could not read it back).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from enum import Enum

from .errors import InputError


@functools.cache  # resolving the annotations costs about 0.1 ms a class
def field_types(cls) -> dict[str, object]:
    """Field name -> resolved type of a dataclass, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@functools.cache
def _form(kind) -> tuple[object, object, bool]:
    """(base type, item type if the base is a tuple, whether empty text is None)."""
    args = typing.get_args(kind)
    if type(None) in args:
        return (*_form(args[0])[:2], True)
    if typing.get_origin(kind) is tuple:
        return tuple, args[0], False
    return kind, None, False


def parse_value(name: str, kind, raw: str):
    """The value of field ``name`` from its text; InputError names the field."""
    raw = raw.strip()
    kind, item, optional = _form(kind)
    if optional and not raw:
        return None
    if "\n" in raw:
        raise InputError(f"{name} must be a single line, got {raw!r}")
    if item is not None:
        return tuple(parse_value(name, item, part) for part in raw.split(",") if part.strip())
    if isinstance(kind, type) and issubclass(kind, Enum):
        try:
            return kind(raw)
        except ValueError:
            names = ", ".join(member.value for member in kind)
            raise InputError(f"{name} must be one of {names}; got {raw!r}") from None
    if kind is int:
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"{name} must be an integer, got {raw!r}") from None
        low, high = (0, 2**64 - 1) if name.endswith("seed") else (-2**63, 2**63 - 1)
        if not low <= value <= high:
            raise InputError(f"{name} must be in [{low}, {high}], got {raw!r}")
        return value
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"{name} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{name} must be a finite number, got {raw!r}")
        return value
    if kind is str:
        return raw
    raise TypeError(f"{name}: no text form for type {kind!r}")


def render_value(kind, value) -> str:
    """The text of a field value; parse_value reads it back unchanged."""
    kind, item, _ = _form(kind)
    if value is None:
        return ""
    if item is not None:
        return ",".join(render_value(item, part) for part in value)
    if isinstance(value, Enum):
        return value.value
    if kind is float:
        return repr(float(value))  # shortest digits that parse back to the same float
    return str(value)
