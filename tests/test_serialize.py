"""Model archive round-trips and schema validation."""

import json

import numpy as np
import pytest

from ccme.density import default_grid, density_curves, density_matrix
from ccme.errors import InvalidArgumentError
from ccme.estimators import Hyper, fit_ccme, fit_second_stage
from ccme.propensity import fit_logistic
from ccme.serialize import SCHEMA_VERSION, load_model, save_model

from conftest import make_split


def fit_model(method, variant="dr", n=20, seed=7, hyper=None):
    split = make_split(n=n, seed=seed)
    h = hyper if hyper is not None else Hyper()
    if variant == "onestep":
        return fit_second_stage(split, method, variant, None, None, h), split
    prop = fit_logistic(split.d0.X, split.d0.A)
    return fit_ccme(split, method, variant, prop, h), split


def assert_same_heads(back, model):
    """Every array of both stages' heads and the cached design came back
    bit for bit, with the same layout."""
    pairs = [(back.second, model.second)]
    assert (back.first is None) == (model.first is None)
    if model.first is not None:
        pairs.append((back.first.head, model.first.head))
        assert back.first.x_cols == model.first.x_cols
    for got, want in pairs:
        assert type(got) is type(want)
        got_arrays, want_arrays = got.to_arrays(), want.to_arrays()
        assert got_arrays.keys() == want_arrays.keys()
        for key, value in want_arrays.items():
            assert np.array_equal(got_arrays[key], value,
                                  equal_nan=value.dtype.kind == "f"), key
    if model.cross_cache is None:
        assert back.cross_cache is None
    else:
        assert np.array_equal(back.cross_cache, model.cross_cache)
        assert back.cross_cache.strides == model.cross_cache.strides


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
        assert np.array_equal(back.a, model.a)
        assert np.array_equal(back.c, model.c)
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
        assert back.second.factor.ridge == model.second.factor.ridge
        assert np.array_equal(back.second.points, model.second.points)
        assert back.y_lo == model.y_lo and back.y_hi == model.y_hi
        assert back.v_cols == model.v_cols
        assert np.array_equal(back.omega, model.omega)
        assert np.array_equal(back.cross_cache, model.cross_cache)
        assert back.first.x_cols == model.first.x_cols
        assert np.array_equal(back.first.head.outcomes, model.first.head.outcomes)

    def test_overwrite_in_place(self, tmp_path):
        model, split = fit_model("rr")
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        save_model(model, path)
        back = load_model(path)
        curve = density_curves(back, split.v1[:1], n_points=10)[0]
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

    def test_plain_npz_rejected(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        np.savez(path, x=np.arange(3))
        with pytest.raises(InvalidArgumentError, match="not a model archive"):
            load_model(path)
