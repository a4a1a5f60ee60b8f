"""Versioned on-disk container for fitted models.

Models are stored as a single .npz archive whose ``__meta__`` entry is a JSON
document carrying a ``schema_version`` plus the model's scalar settings, the
outcome bandwidth among them.  The other entries are the arrays of the
stage-two head's ``to_arrays``: its inputs or net (with an rr head's input
bandwidth), its map to basis weights and its outcome basis, whose grid has
no more points than the data have distinct outcomes.  Every array
round-trips bit-exactly.  Loading checks that the arrays agree with each
other and with the meta and that every value is finite.  Writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from typing import Any, Callable, IO

import numpy as np

from .errors import InvalidArgumentError
from .estimators import VARIANTS, CcmeModel, head_from_arrays
from .kernels import KernelSpec

__all__ = ["SCHEMA_VERSION", "atomic_write", "save_model", "load_model"]

# 4: bandwidths in place of kernel specs, and the head's arrays unprefixed;
# 3 stored the kernels as specs and the arrays under a "second." prefix; 2
# held both stages' heads and their n x n factors
SCHEMA_VERSION = 4


def atomic_write(path: str, data: str | Callable[[IO[bytes]], Any]) -> None:
    """Write ``data`` (text, or a function that writes to a binary file) to
    ``path`` through a temp file in its directory and an atomic rename."""
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: CcmeModel, path: str) -> None:
    """Write the model to ``path`` as an .npz archive (atomic replace)."""
    arrays = model.second.to_arrays()
    meta: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "variant": model.variant,
        "bandwidth_y": float(model.bandwidth_y),
        "y_lo": model.y_lo,
        "y_hi": model.y_hi,
        "v_cols": [int(i) for i in model.v_cols],
    }
    arrays["__meta__"] = np.array(json.dumps(meta))
    atomic_write(path, lambda fh: np.savez(fh, **arrays))


def load_model(path: str) -> CcmeModel:
    """Read a model written by save_model, verifying the schema version and
    the consistency of its arrays.  A file that is no such archive raises
    ``InvalidArgumentError`` naming ``path``."""
    try:
        return _read_model(path)
    except InvalidArgumentError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"cannot read model {path}: {exc}") from exc


def _read_model(path: str) -> CcmeModel:
    with np.load(path, allow_pickle=False) as npz:
        try:
            meta = json.loads(str(npz["__meta__"][()]))
        except KeyError:
            raise InvalidArgumentError(f"{path} is not a model archive")
        version = meta.get("schema_version") if isinstance(meta, dict) else None
        if version != SCHEMA_VERSION:
            raise InvalidArgumentError(
                f"unsupported model schema version {version!r}; "
                f"this build reads version {SCHEMA_VERSION}")
        arrays = {key: npz[key] for key in npz.files if key != "__meta__"}
    for key, value in arrays.items():
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise InvalidArgumentError(f"{path}: {key} holds NaN or inf values")
    second = head_from_arrays(arrays)
    try:
        bandwidth_y = meta["bandwidth_y"]
        if meta["variant"] not in VARIANTS or type(bandwidth_y) not in (int, float):
            raise TypeError(f"variant {meta['variant']!r}, bandwidth_y {bandwidth_y!r}")
        bandwidth_y = KernelSpec(float(bandwidth_y)).bandwidth    # checks it
        v_cols = meta["v_cols"]
        if type(v_cols) is not list or any(type(i) is not int or i < 0 for i in v_cols):
            raise TypeError(f"v_cols {v_cols!r}")
        y_lo, y_hi = float(meta["y_lo"]), float(meta["y_hi"])
    except (KeyError, TypeError, OverflowError, InvalidArgumentError) as exc:
        raise InvalidArgumentError(f"{path}: malformed model settings: {exc}")
    if len(v_cols) != second.in_dim:
        raise InvalidArgumentError(
            f"{path}: {len(v_cols)} v_cols for a head of input dimension "
            f"{second.in_dim}")
    if not (np.isfinite(y_lo) and np.isfinite(y_hi)):
        raise InvalidArgumentError(f"{path}: the outcome range is not finite")
    return CcmeModel(meta["variant"], bandwidth_y, second, y_lo, y_hi, v_cols)
