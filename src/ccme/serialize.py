"""Versioned on-disk container for fitted models.

Models are stored as a single .npz archive whose ``__meta__`` entry is a JSON
document carrying a ``schema_version`` plus the model's scalar settings.
Each stage's regression head is stored as the arrays of its ``to_arrays``
under a ``first.`` or ``second.`` prefix; every array (network weights,
cached Gram matrices, pseudo-weights, head scalars as 0-d arrays)
round-trips bit-exactly.  Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

import numpy as np

from .errors import InvalidArgumentError
from .estimators import CcmeModel, FirstStage, head_from_arrays
from .kernels import KernelSpec

__all__ = ["SCHEMA_VERSION", "save_model", "load_model"]

# 2: one array set per regression head, replacing the per-method layout of 1
SCHEMA_VERSION = 2


def _kernel_meta(spec: KernelSpec) -> dict[str, Any]:
    return {"family": spec.family, "bandwidth": spec.bandwidth,
            "normalized": spec.normalized}


def _kernel_from(meta: dict[str, Any]) -> KernelSpec:
    return KernelSpec(meta["family"], meta["bandwidth"], meta["normalized"])


def _load_head(prefix: str, npz: Any):
    start = prefix + "."
    return head_from_arrays({key[len(start):]: npz[key] for key in npz.files
                             if key.startswith(start)})


def save_model(model: CcmeModel, path: str) -> None:
    """Write the model to ``path`` as an .npz archive (atomic replace)."""
    arrays: dict[str, np.ndarray] = {"a": model.a, "c": model.c}
    if model.omega is not None:
        arrays["omega"] = model.omega
    if model.cross_cache is not None:
        arrays["cross_cache"] = model.cross_cache
    stages = [("second", model.second)]
    if model.first is not None:
        stages.append(("first", model.first.head))
    for prefix, head in stages:
        for key, value in head.to_arrays().items():
            arrays[f"{prefix}.{key}"] = value
    meta: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "variant": model.variant,
        "kernel_y": _kernel_meta(model.kernel_y),
        "y_lo": model.y_lo,
        "y_hi": model.y_hi,
        "v_cols": [int(i) for i in model.v_cols],
        "x_cols": None if model.first is None else model.first.x_cols,
    }
    arrays["__meta__"] = np.array(json.dumps(meta))
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> CcmeModel:
    """Read a model written by save_model, verifying the schema version."""
    with np.load(path, allow_pickle=False) as npz:
        try:
            meta = json.loads(str(npz["__meta__"][()]))
        except KeyError:
            raise InvalidArgumentError(f"{path} is not a model archive")
        version = meta.get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidArgumentError(
                f"unsupported model schema version {version!r}; "
                f"this build reads version {SCHEMA_VERSION}")

        def optional(key: str) -> np.ndarray | None:
            return npz[key] if key in npz.files else None

        first = None
        if "first.kind" in npz.files:
            x_cols = meta["x_cols"]
            first = FirstStage(_load_head("first", npz),
                               None if x_cols is None else [int(i) for i in x_cols])
        return CcmeModel(
            meta["variant"], _kernel_from(meta["kernel_y"]), npz["a"], npz["c"],
            optional("omega"), first, _load_head("second", npz),
            float(meta["y_lo"]), float(meta["y_hi"]), optional("cross_cache"),
            [int(i) for i in meta["v_cols"]])
