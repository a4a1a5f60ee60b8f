"""Settings resolution: parse flag values and config files, validate.

The settings, with their defaults, bounds and the commands that read them,
are the fields of ``estimators.Hyper``.  ``parse_override`` reads a flag's
value and ``load_config_file`` a ``--config`` file, both into the field's
type; flags override the file, which overrides the defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

from .errors import ConfigError, InvalidArgumentError
from .estimators import Hyper

__all__ = ["comma_list", "load_config_file", "parse_override",
           "validate_config", "config_json"]

# Each field's annotation, as written in Hyper: "int", "float", "str",
# "list[int]", "list[int] | None" or "list[str]".
_FIELD_TYPES = {f.name: f.type for f in fields(Hyper)}
_SCALAR = {"int": int, "float": float, "str": str}


def comma_list(flag: str, text: str) -> list[str]:
    """The comma-separated entries of a flag's value, each stripped; an empty
    value is the empty list, and an empty entry is rejected."""
    text = text.strip()
    tokens = [tok.strip() for tok in text.split(",")] if text else []
    if "" in tokens:
        raise InvalidArgumentError(f"{flag} has an empty entry in {text!r}")
    return tokens


def parse_override(name: str, text: str) -> object:
    """Parse one flag value into the field's type; a list is a ``comma_list``
    and a scalar is stripped."""
    if name not in _FIELD_TYPES:
        raise InvalidArgumentError(f"unknown config field {name!r}")
    kind = _FIELD_TYPES[name]
    is_list = kind.startswith("list[")
    tokens = (comma_list("--" + name.replace("_", "-"), text) if is_list
              else [text.strip()])
    convert = _SCALAR[kind[5:kind.index("]")] if is_list else kind]
    try:
        values = [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad value for {name}: {exc}")
    return values if is_list else values[0]


def load_config_file(path: str) -> dict:
    """The settings of a JSON config file, each of its field's type; unknown
    keys are rejected, and a null value is left to the default."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:        # a JSONDecodeError, or an int too long
            raise InvalidArgumentError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"config file {path} must hold a JSON object")
    for key in raw:
        if key not in _FIELD_TYPES:
            raise InvalidArgumentError(f"config file {path} has unknown key {key!r}")
    return {key: _typed(key, value) for key, value in raw.items() if value is not None}


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _typed(name: str, value: object) -> object:
    """``value`` if it has the field's type (ints that a float can hold pass
    as floats), else a parse error; bools are not numbers here."""
    kind = _FIELD_TYPES[name]
    is_list = kind.startswith("list[")
    item = kind[5:kind.index("]")] if is_list else kind
    wanted = f"config field {name} wants {kind}, got {value!r}"
    if (is_list and type(value) is not list) or not all(
            type(v) in _JSON_TYPES[item] for v in (value if is_list else [value])):
        raise InvalidArgumentError(wanted)
    try:
        return float(value) if kind == "float" else value
    except OverflowError:                # an int beyond every float
        raise InvalidArgumentError(wanted) from None


def _allowed(bounds: str | tuple, value) -> bool:
    """Whether ``value`` is one of a tuple of names or in an interval "[0, 1)"."""
    if isinstance(bounds, tuple):
        return value in bounds
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    return ((lo < value) if bounds[0] == "(" else (lo <= value)) and (
        (value < hi) if bounds[-1] == ")" else (value <= hi))


def validate_config(cfg: Hyper) -> None:
    """Raise ``ConfigError``, naming the field, for a setting (or list entry)
    outside its declared bounds, or a clip pair or ``v_cols`` that clashes."""
    for f in fields(cfg):
        value, bounds = getattr(cfg, f.name), f.metadata["bounds"]
        entries = value if isinstance(value, list) else [value]
        if None not in (bounds, value) and not all(_allowed(bounds, v) for v in entries):
            rule = f"in {bounds}" if isinstance(bounds, str) else f"one of {bounds}"
            raise ConfigError(f"{f.name} must be {rule}, got {value!r}")
    if not (cfg.clip_lo < cfg.clip_hi and 1.0 / cfg.clip_lo < math.inf):
        raise ConfigError(f"clip bounds must satisfy 0 < lo < hi < 1 with 1/lo "
                          f"finite, got ({cfg.clip_lo}, {cfg.clip_hi})")
    if cfg.v_cols == []:
        raise ConfigError("v_cols must name at least one column")
    if cfg.v_cols is not None and len(set(cfg.v_cols)) < len(cfg.v_cols):
        raise ConfigError(f"v_cols names a column twice: {cfg.v_cols}")


def config_json(cfg: Hyper) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
