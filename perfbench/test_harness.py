"""Tests of the benchmark harness itself: patching, restoring, self time."""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ccme.cli  # noqa: E402,F401  - load every module the targets name
from ccme import density, estimators, kernels, synthbench  # noqa: E402
from ccme.kernels import KernelSpec, SpdFactor  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer, covered, layer_times  # noqa: E402


def test_wrapper_catches_names_imported_into_other_modules():
    original = kernels.gram
    assert estimators.gram is original and density.gram is original
    tracer = Tracer()
    with tracer.traced([Target("ccme.kernels", "gram")]):
        assert estimators.gram is kernels.gram is density.gram
        assert estimators.gram is not original
        y = np.linspace(0.0, 1.0, 6)
        estimators.build_k_xi(KernelSpec(bandwidth=1.0), y, np.ones(6), np.zeros(6))
        density.gram(KernelSpec(), y)
    assert [s[0] for s in tracer.spans] == ["kernels.gram", "kernels.gram"]


def test_originals_are_restored_even_when_the_block_raises():
    gram, init = kernels.gram, SpdFactor.__dict__["__init__"]
    from_reg = SpdFactor.__dict__["from_regularized"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced(layers.TARGETS):
            assert SpdFactor.__dict__["__init__"] is not init
            raise RuntimeError("stop")
    assert kernels.gram is gram and estimators.gram is gram
    assert SpdFactor.__dict__["__init__"] is init
    assert SpdFactor.__dict__["from_regularized"] is from_reg
    assert synthbench.run_cell.__module__ == "ccme.synthbench"
    assert not hasattr(synthbench.run_cell, "__wrapped__")


def test_class_target_records_both_constructors_and_counts_flops():
    tracer = Tracer()
    target = next(t for t in layers.TARGETS if t.attr == "SpdFactor")
    with tracer.traced([target]):
        f = SpdFactor(np.eye(3), 1.0)
        SpdFactor.from_regularized(f.matrix, 1.0)
    assert [s[0] for s in tracer.spans] == ["kernels.SpdFactor"] * 2
    assert tracer.counts["kernels.chol_flops"] == 2 * (27 // 3)


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        ("parent", 1, 1, 0, 0.0, 10.0),
        ("child", 1, 2, 1, 1.0, 3.0),
        ("child", 1, 3, 1, 2.0, 4.0),    # overlaps the first child
        ("child", 1, 4, 1, 8.0, 12.0),   # runs past the parent's end
        ("grandchild", 1, 5, 2, 1.5, 2.5),
    ]
    table = layer_times(spans)
    assert table["parent"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 5.0}
    assert table["child"]["calls"] == 3
    assert table["child"]["self_s"] == pytest.approx(2.0 - 1.0 + 2.0 + 4.0)
    assert covered(0.0, 1.0, []) == 0.0


def test_live_nesting_gives_parent_and_trace_ids():
    tracer = Tracer()
    targets = [Target("ccme.estimators", "build_k_xi"),
               Target("ccme.kernels", "gram")]
    with tracer.traced(targets):
        y = np.linspace(0.0, 1.0, 4)
        for _ in range(2):
            estimators.build_k_xi(KernelSpec(), y, np.ones(4), np.zeros(4))
    by_id = {s[2]: s for s in tracer.spans}
    grams = [s for s in tracer.spans if s[0] == "kernels.gram"]
    assert len(grams) == 2
    for g in grams:
        parent = by_id[g[3]]
        assert parent[0] == "estimators.build_k_xi" and g[1] == parent[1]
        assert parent[4] <= g[4] <= g[5] <= parent[5]
    assert len({s[1] for s in tracer.spans}) == 2   # one trace per top call
    table = layer_times(tracer.spans)
    row = table["estimators.build_k_xi"]
    assert row["self_s"] == pytest.approx(row["s"] - table["kernels.gram"]["s"])


def test_missing_target_degrades_to_zero_calls_with_a_warning():
    tracer = Tracer()
    targets = [Target("ccme.kernels", "no_such_function"),
               Target("ccme.no_such_module", "f"), Target("ccme.kernels", "gram")]
    with pytest.warns(RuntimeWarning, match="not found"):
        with tracer.traced(targets):
            kernels.gram(KernelSpec(), np.zeros(2))
    assert tracer.missing == ["kernels.no_such_function", "no_such_module.f"]
    table = layers.layer_table(tracer.spans, targets)
    assert table["kernels.no_such_function"] == {"calls": 0, "s": 0.0, "self_s": 0.0}
    assert table["kernels.gram"]["calls"] == 1


def test_every_target_resolves():
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with tracer.traced(layers.TARGETS):
            pass
    assert tracer.missing == []


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
