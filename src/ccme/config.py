"""Settings resolution: parse flag values and config files, validate.

The settings themselves, with their defaults, are the fields of
``estimators.Hyper``.  A flag's value is read by ``parse_override`` and a
``--config`` file by ``load_config_file``; both return values of the field's
type, and flags override the file, which overrides the defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

from .errors import ConfigError, InvalidArgumentError
from .estimators import Hyper, METHODS, VARIANTS
from .kernels import usable_bandwidth

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


# The smallest value of each int setting, and of every entry of a list.
_INT_MIN = {"seed": 0, "net_seed": 0, "eval_seed": 0, "seeds": 0, "threads": 1,
            "n": 4, "n_list": 2, "test_points": 1, "grid_points": 1,
            "n_feats": 1, "hidden": 1, "epochs_df1": 0, "epochs_df2": 0,
            "epochs_nk1": 0, "epochs_nk2": 0}


def validate_config(cfg: Hyper) -> None:
    """Raise ``ConfigError``, naming the field, for a setting out of range."""
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {cfg.variant!r}")
    for m in cfg.methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in methods")
    for v in cfg.variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r} in variants")
    if cfg.propensity not in ("auto", "forest", "logistic", "oracle"):
        raise ConfigError(f"unknown propensity setting {cfg.propensity!r}")
    if not (0.0 < cfg.clip_lo < cfg.clip_hi < 1.0 and 1.0 / cfg.clip_lo < math.inf):
        raise ConfigError(f"clip bounds must satisfy 0 < lo < hi < 1 with 1/lo "
                          f"finite, got ({cfg.clip_lo}, {cfg.clip_hi})")
    for name in ("bandwidth_x", "bandwidth_v", "bandwidth_y"):
        if not usable_bandwidth(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite and positive, with 2 {name}^2 "
                              f"a normal float, got {getattr(cfg, name)}")
    for name in ("ridge0", "ridge1", "lr_df", "lr_nk"):
        if not (0 < getattr(cfg, name) < math.inf):
            raise ConfigError(f"{name} must be finite and positive, "
                              f"got {getattr(cfg, name)}")
    if not 0 <= cfg.grid_pad < math.inf:
        raise ConfigError(f"grid_pad must be finite and >= 0, got {cfg.grid_pad}")
    if not 0 <= cfg.momentum < 1:
        raise ConfigError(f"momentum must be in [0, 1), got {cfg.momentum}")
    for name, low in _INT_MIN.items():
        value = getattr(cfg, name)
        if any(v < low for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    if cfg.v_cols == []:
        raise ConfigError("v_cols must name at least one column")


def config_json(cfg: Hyper) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
