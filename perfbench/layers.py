"""The traced functions of each ``ccme`` layer and the counts taken at them.

Layers are the package modules.  Only the functions named here are wrapped:
wrapping the per-epoch helpers (``mlp_forward``, ``sgd_step``) as well would
move their time out of ``nets.train_mlp.self_s``, which is meant to hold the
forward, backward and SGD cost of the training loops.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import numpy as np

from tracer import Span, Target, layer_times


def _generate_key(bound, result, counts: Counter) -> None:
    cfg = bound.arguments["cfg"]
    counts[("generate.key", cfg.scenario, cfg.n, cfg.seed)] += 1


def _propensity_key(bound, result, counts: Counter) -> None:
    args = bound.arguments
    digest = hashlib.blake2b(np.ascontiguousarray(args["X"]).tobytes(),
                             digest_size=16)
    digest.update(np.ascontiguousarray(args["A"]).tobytes())
    counts[("propensity.key", digest.hexdigest(), args.get("seed"))] += 1


def _stage1_unused(bound, result, counts: Counter) -> None:
    args = bound.arguments
    if args["variant"] == "ipw" and args["first"] is not None:
        counts["estimators.stage1_unused"] += 1


def _nbytes(metric: str):
    def hook(bound, result, counts: Counter) -> None:
        counts[metric] += int(np.asarray(result).nbytes)
    return hook


def _epochs(bound, result, counts: Counter) -> None:
    counts["nets.epochs"] += int(bound.arguments["epochs"])


def _chol_flops(bound, result, counts: Counter) -> None:
    factor = result if result is not None else bound.arguments["self"]
    counts["kernels.chol_flops"] += factor.matrix.shape[0] ** 3 // 3


def _csv_bytes(bound, result, counts: Counter) -> None:
    counts["density.curves_to_csv.bytes"] += len(result.encode("utf-8"))


def _archive_bytes(bound, result, counts: Counter) -> None:
    counts["serialize.archive_bytes"] += os.path.getsize(bound.arguments["path"])


TARGETS = [
    Target("ccme.synthbench", "run_cell", root=True),
    Target("ccme.synthbench", "generate", _generate_key),
    Target("ccme.synthbench", "mse"),
    Target("ccme.data", "split_data"),
    Target("ccme.data", "compute_omega"),
    Target("ccme.data", "load_dataset"),
    Target("ccme.propensity", "fit_forest", _propensity_key),
    Target("ccme.propensity", "fit_logistic", _propensity_key),
    Target("ccme.estimators", "fit_first_stage"),
    Target("ccme.estimators", "fit_second_stage", _stage1_unused),
    Target("ccme.estimators", "build_k_xi", _nbytes("estimators.build_k_xi.bytes")),
    Target("ccme.estimators", "df_trace_loss"),
    Target("ccme.estimators", "nk_loss_grad"),
    Target("ccme.nets", "train_mlp", _epochs),
    Target("ccme.kernels", "gram", _nbytes("kernels.gram.bytes")),
    Target("ccme.kernels", "SpdFactor", _chol_flops, methods=("from_regularized",)),
    Target("ccme.density", "density_matrix"),
    Target("ccme.density", "density_curves"),
    Target("ccme.density", "curves_to_csv", _csv_bytes),
    Target("ccme.serialize", "save_model", _archive_bytes),
    Target("ccme.serialize", "load_model"),
    Target("ccme.cli", "main", root=True),
]

# Extra counts, each a whole number that repeats exactly for a given seed.
EXTRA_COUNTS = [
    "synthbench.generate.refits", "propensity.refits",
    "estimators.stage1_unused", "estimators.build_k_xi.bytes", "nets.epochs",
    "kernels.gram.bytes", "kernels.chol_flops", "density.curves_to_csv.bytes",
    "serialize.archive_bytes",
]


def extra_counts(counts: Counter, calls: dict[str, int]) -> dict[str, int]:
    """Resolve the key tallies kept by the hooks into the named counts."""
    gen_keys = sum(1 for k in counts if isinstance(k, tuple) and k[0] == "generate.key")
    prop_keys = sum(1 for k in counts if isinstance(k, tuple) and k[0] == "propensity.key")
    out = {name: int(counts.get(name, 0)) for name in EXTRA_COUNTS}
    out["synthbench.generate.refits"] = calls.get("synthbench.generate", 0) - gen_keys
    out["propensity.refits"] = (calls.get("propensity.fit_forest", 0)
                                + calls.get("propensity.fit_logistic", 0) - prop_keys)
    return out


def layer_table(spans: list[Span], targets: list[Target]) -> dict[str, dict]:
    """Calls, inclusive and self seconds per target; zeros for a target that
    never ran or could not be found."""
    times = layer_times(spans)
    return {t.name: times.get(t.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for t in targets}
