"""Model archive round-trips and schema validation."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from ccme.cli import main
from ccme.density import default_grid, density_curves, density_matrix
from ccme.errors import InvalidArgumentError
from ccme.estimators import Hyper, fit_ccme
from ccme.serialize import SCHEMA_VERSION, atomic_write, load_model, save_model

from conftest import make_split


MISSING = object()                      # a meta key that is left out


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

    @pytest.mark.parametrize("method", ["df", "nk"])
    def test_a_head_that_trained_no_epoch_round_trips(self, method, tmp_path,
                                                      tiny_hyper):
        """A stage two of 0 epochs stores final_loss NaN, and the archive
        loads bit for bit."""
        model, split = fit_model(method, hyper=replace(tiny_hyper, epochs_df2=0,
                                                       epochs_nk2=0))
        assert np.isnan(model.second.final_loss)
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        back = load_model(path)
        assert_same_heads(back, model)
        vq, grid = split.v1[:2], default_grid(model, 25)
        assert np.array_equal(density_matrix(model, vq, grid),
                              density_matrix(back, vq, grid))

    def test_fields_preserved(self, tmp_path):
        model, _ = fit_model("rr")
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        back = load_model(path)
        assert back.bandwidth_y == model.bandwidth_y
        assert back.second.kernel == model.second.kernel
        assert np.array_equal(back.second.points, model.second.points)
        assert np.array_equal(back.second.coef, model.second.coef)
        assert np.array_equal(back.second.basis.grid, model.second.basis.grid)
        assert np.array_equal(back.second.basis.proj, model.second.basis.proj)
        assert back.y_lo == model.y_lo and back.y_hi == model.y_hi
        assert back.v_cols == model.v_cols

    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_archive_is_the_settings_and_the_head_arrays(self, method, tmp_path,
                                                         tiny_hyper):
        """Schema 4: the outcome bandwidth is a meta number, and the arrays
        are the head's own, unprefixed; an rr head stores its bandwidth."""
        h = Hyper() if method == "rr" else tiny_hyper
        model, _ = fit_model(method, hyper=h)
        arrays = saved_arrays(model, tmp_path)
        meta = json.loads(str(arrays.pop("__meta__")[()]))
        assert list(meta) == ["schema_version", "variant", "bandwidth_y",
                              "y_lo", "y_hi", "v_cols"]
        assert meta["schema_version"] == 4 and meta["bandwidth_y"] == h.bandwidth_y
        assert arrays.keys() == model.second.to_arrays().keys()
        assert ("bandwidth" in arrays) == (method == "rr")
        if method == "rr":
            assert arrays["bandwidth"][()] == h.bandwidth_v

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
        values, _ = density_curves(back, split.v1[:1], default_grid(back, 10))
        assert np.all(np.isfinite(values))


    def test_a_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "m.npz"
        target.write_bytes(b"kept")

        def writer(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(str(target), writer)
        assert target.read_bytes() == b"kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]


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
        ("rr", "points"), ("rr", "coef"), ("rr", "basis.grid"),
        ("rr", "basis.proj"), ("df", "coef"), ("df", "net.w1"), ("df", "net.b0"),
        ("nk", "basis.grid"), ("nk", "net.w1"),
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
        ("v_cols", 5), ("v_cols", ["0", 1, 2, 3, 4]), ("v_cols", [0, 1.9, 2, 3, 4]),
        ("v_cols", [0, True, 2, 3, 4]), ("v_cols", [-1, 1, 2, 3, 4]), ("variant", 7), ("bandwidth_y", "x"), ("bandwidth_y", -1),
        ("bandwidth_y", 1e-300), ("bandwidth_y", True),
        pytest.param("bandwidth_y", 10 ** 400, id="bandwidth_y-int-1e400"),
        pytest.param("bandwidth_y", MISSING, id="bandwidth_y-missing"),
        ("y_lo", None),
    ])
    def test_malformed_settings_rejected(self, key, value, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        meta = json.loads(str(arrays["__meta__"][()]))
        if value is MISSING:
            del meta[key]
        else:
            meta[key] = value
        arrays["__meta__"] = np.array(json.dumps(meta))
        with pytest.raises(InvalidArgumentError, match="malformed model settings"):
            load_model(write_arrays(arrays, tmp_path / "meta.npz"))

    @pytest.mark.parametrize("key,value", [("y_hi", np.inf), ("y_lo", -np.inf)])
    def test_an_infinite_end_of_the_outcome_range_rejected(self, key, value, tmp_path):
        """The meta holds JSON ``Infinity`` at one end of the range and a
        finite value at the other."""
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        meta = json.loads(str(arrays["__meta__"][()]))
        meta[key] = value
        arrays["__meta__"] = np.array(json.dumps(meta))
        assert "Infinity" in str(arrays["__meta__"][()])
        with pytest.raises(InvalidArgumentError, match="the outcome range is not finite"):
            load_model(write_arrays(arrays, tmp_path / "range.npz"))

    @pytest.mark.parametrize("bad", [[2.0, 2.0], -1.0])
    def test_stored_input_bandwidth_checked(self, bad, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        arrays["bandwidth"] = np.array(bad)
        with pytest.raises(InvalidArgumentError):
            load_model(write_arrays(arrays, tmp_path / "bw.npz"))

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("key", ["final_loss", "net.sizes"])
    def test_arrays_of_another_rank_rejected(self, key, tmp_path, tiny_hyper):
        model, _ = fit_model("df", hyper=tiny_hyper)
        arrays = saved_arrays(model, tmp_path)
        arrays[key] = np.stack([arrays[key], arrays[key]])
        with pytest.raises(InvalidArgumentError, match="cannot read model"):
            load_model(write_arrays(arrays, tmp_path / "rank.npz"))

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["df", "nk"])
    @pytest.mark.parametrize("sizes", [[], [5]])
    def test_nets_with_fewer_than_two_layer_sizes_rejected(self, method, sizes,
                                                          tmp_path, tiny_hyper):
        model, _ = fit_model(method, hyper=tiny_hyper)
        arrays = {k: v for k, v in saved_arrays(model, tmp_path).items()
                  if not re.fullmatch(r"net\.[wb]\d+", k)}
        arrays["net.sizes"] = np.array(sizes, dtype=np.int64)
        with pytest.raises(InvalidArgumentError, match="at least 2"):
            load_model(write_arrays(arrays, tmp_path / "sizes.npz"))

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_arrays_of_another_dtype_rejected(self, method, tmp_path, tiny_hyper):
        """Each array must have the dtype save_model writes: a string kind,
        int64 net sizes and float64 elsewhere."""
        h = Hyper() if method == "rr" else tiny_hyper
        model, _ = fit_model(method, hyper=h)
        arrays = saved_arrays(model, tmp_path)
        keys = sorted(arrays.keys() - {"__meta__"})
        for key in keys:
            others = [np.array(method.encode())] if key == "kind" else [
                arrays[key].astype(dtype) for dtype in
                (np.float64, np.float32, np.int64, np.int8, np.bool_)
                if dtype != arrays[key].dtype]
            for other in others:
                path = write_arrays({**arrays, key: other}, tmp_path / "dtype.npz")
                with pytest.raises(InvalidArgumentError,
                                   match=f"{re.escape(key)} has dtype {other.dtype}"):
                    load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad, tmp_path):
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        arrays["coef"] = arrays["coef"].copy()
        arrays["coef"][1, 2] = bad
        with pytest.raises(InvalidArgumentError, match="NaN or inf"):
            load_model(write_arrays(arrays, tmp_path / "nan.npz"))

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_an_infinite_final_loss_is_rejected(self, bad, tmp_path, tiny_hyper,
                                                capsys):
        """final_loss may be NaN (no epoch trained), never inf: ccme density
        exits 3 with one line."""
        model, _ = fit_model("df", hyper=tiny_hyper)
        arrays = saved_arrays(model, tmp_path)
        arrays["final_loss"] = np.array(bad)
        path = write_arrays(arrays, tmp_path / "inf.npz")
        capsys.readouterr()
        assert main(["density", path, "--v", "0,0,0",
                     "--out", str(tmp_path / "d.csv")]) == 3
        assert capsys.readouterr().err == (
            f"parse failure: {path}: final_loss holds NaN or inf values\n")

    def test_unreadable_files_rejected_naming_the_path(self, tmp_path):
        """A file that is no archive, and an archive without one of the
        head's arrays, raise InvalidArgumentError, not ValueError/KeyError."""
        garbage = tmp_path / "garbage.npz"
        garbage.write_text("this is not a zip archive")
        model, _ = fit_model("rr")
        arrays = saved_arrays(model, tmp_path)
        del arrays["coef"]
        missing = write_arrays(arrays, tmp_path / "missing.npz")
        for path in (str(garbage), missing):
            with pytest.raises(InvalidArgumentError,
                               match=re.escape(f"cannot read model {path}")):
                load_model(path)

    def test_plain_npz_rejected(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        np.savez(path, x=np.arange(3))
        with pytest.raises(InvalidArgumentError, match="not a model archive"):
            load_model(path)
