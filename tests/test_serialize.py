"""Model archive round-trips and schema validation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ccme.density import default_grid, density_curves, density_matrix
from ccme.errors import InvalidArgumentError
from ccme.estimators import Hyper, fit_ccme
from ccme.serialize import SCHEMA_VERSION, load_model, save_model

from conftest import make_split


def fit_model(method, variant="dr", n=20, seed=7, hyper=None):
    split = make_split(n=n, seed=seed)
    h = hyper if hyper is not None else Hyper()
    return fit_ccme(split, replace(h, method=method, variant=variant,
                                   propensity="logistic")), split


def assert_same_heads(back, model):
    """Every array of the stage-two head came back bit for bit, with the same
    layout."""
    got, want = back.second, model.second
    assert type(got) is type(want)
    got_arrays, want_arrays = got.to_arrays(), want.to_arrays()
    assert got_arrays.keys() == want_arrays.keys()
    for key, value in want_arrays.items():
        assert np.array_equal(got_arrays[key], value,
                              equal_nan=value.dtype.kind == "f"), key
        assert got_arrays[key].strides == value.strides, key


def saved_arrays(model, tmp_path):
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    with np.load(path, allow_pickle=False) as npz:
        return {k: npz[k] for k in npz.files}


def write_arrays(arrays, path):
    np.savez(path, **arrays)
    return str(path)


@pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
class TestRoundTrip:
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_curves_bitwise_identical(self, method, tmp_path, tiny_hyper):
        h = Hyper() if method == "rr" else tiny_hyper
        model, split = fit_model(method, hyper=h)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        back = load_model(path)
        assert_same_heads(back, model)
        vq = split.v1[:3]
        grid = default_grid(model, 40)
        assert np.array_equal(density_matrix(model, vq, grid),
                              density_matrix(back, vq, grid))

    @pytest.mark.parametrize("method,variant", [
        ("rr", "ipw"), ("rr", "pi"), ("rr", "onestep"), ("nk", "onestep"),
        ("df", "ipw"), ("nk", "ipw"), ("df", "pi"), ("df", "onestep"),
        ("nk", "pi"),
    ])
    def test_variants_round_trip(self, method, variant, tmp_path, tiny_hyper):
        h = Hyper() if method == "rr" else tiny_hyper
        model, split = fit_model(method, variant, hyper=h)
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        back = load_model(path)
        assert back.method == model.method
        assert back.variant == model.variant
        assert_same_heads(back, model)
        vq = split.v1[:2]
        grid = default_grid(model, 25)
        assert np.array_equal(density_matrix(model, vq, grid),
                              density_matrix(back, vq, grid))

    def test_fields_preserved(self, tmp_path):
        model, _ = fit_model("rr")
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        back = load_model(path)
        assert back.kernel_y == model.kernel_y
        assert back.second.kernel == model.second.kernel
        assert np.array_equal(back.second.points, model.second.points)
        assert np.array_equal(back.second.coef, model.second.coef)
        assert np.array_equal(back.second.basis.grid, model.second.basis.grid)
        assert np.array_equal(back.second.basis.proj, model.second.basis.proj)
        assert back.y_lo == model.y_lo and back.y_hi == model.y_hi
        assert back.v_cols == model.v_cols

    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_no_array_grows_with_the_square_of_the_rows(self, method, tmp_path,
                                                        tiny_hyper):
        h = Hyper() if method == "rr" else tiny_hyper
        model, split = fit_model(method, n=60, hyper=h)
        arrays = saved_arrays(model, tmp_path)
        assert max(a.size for a in arrays.values()) < split.n ** 2
        assert not {"a", "c", "omega", "cross_cache"} & set(arrays)
        assert not any(k.startswith("first.") for k in arrays)

    def test_overwrite_in_place(self, tmp_path):
        model, split = fit_model("rr")
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        save_model(model, path)
        back = load_model(path)
        curve = density_curves(back, split.v1[:1], default_grid(back, 10))[0]
        assert np.all(np.isfinite(curve.values))


class TestSchemaChecks:
    def test_version_mismatch_rejected(self, tmp_path):
        model, _ = fit_model("rr")
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        with np.load(path, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["schema_version"] = SCHEMA_VERSION + 1
        arrays["__meta__"] = np.array(json.dumps(meta))
        bad = str(tmp_path / "future.npz")
        np.savez(bad, **arrays)
        with pytest.raises(InvalidArgumentError, match="schema version"):
            load_model(bad)

    def test_version_two_archive_rejected(self, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["schema_version"] = 2
        arrays["__meta__"] = np.array(json.dumps(meta))
        with pytest.raises(InvalidArgumentError, match="version 2"):
            load_model(write_arrays(arrays, tmp_path / "v2.npz"))

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method,key", [
        ("rr", "second.points"), ("rr", "second.coef"),
        ("rr", "second.basis.grid"),
        ("rr", "second.basis.proj"), ("df", "second.coef"),
        ("df", "second.net.w1"), ("df", "second.net.b0"),
        ("nk", "second.basis.grid"), ("nk", "second.net.w1"),
    ])
    def test_arrays_that_disagree_rejected(self, method, key, tmp_path,
                                           tiny_hyper):
        h = Hyper() if method == "rr" else tiny_hyper
        model, _ = fit_model(method, hyper=h)
        arrays = saved_arrays(model, tmp_path)
        arrays[key] = arrays[key][3:]
        with pytest.raises(InvalidArgumentError):
            load_model(write_arrays(arrays, tmp_path / "cut.npz"))

    def test_v_cols_checked_against_the_head(self, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["v_cols"] = meta["v_cols"][:-1]
        arrays["__meta__"] = np.array(json.dumps(meta))
        with pytest.raises(InvalidArgumentError, match="v_cols"):
            load_model(write_arrays(arrays, tmp_path / "cols.npz"))

    @pytest.mark.parametrize("key,value", [
        ("v_cols", 5), ("variant", 7), ("kernel_y", {"family": "gaussian"}),
        ("kernel_y", {"family": "gaussian", "bandwidth": "x", "normalized": True}),
        ("y_lo", None),
    ])
    def test_malformed_settings_rejected(self, key, value, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        meta = json.loads(str(arrays["__meta__"][()]))
        meta[key] = value
        arrays["__meta__"] = np.array(json.dumps(meta))
        with pytest.raises(InvalidArgumentError, match="malformed model settings"):
            load_model(write_arrays(arrays, tmp_path / "meta.npz"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        arrays["second.coef"] = arrays["second.coef"].copy()
        arrays["second.coef"][1, 2] = bad
        with pytest.raises(InvalidArgumentError, match="NaN or inf"):
            load_model(write_arrays(arrays, tmp_path / "nan.npz"))

    def test_plain_npz_rejected(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        np.savez(path, x=np.arange(3))
        with pytest.raises(InvalidArgumentError, match="not a model archive"):
            load_model(path)
