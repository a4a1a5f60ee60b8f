"""Config resolution and the ccme command-line interface."""

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccme
from ccme.cli import main
from ccme.config import (config_json, load_config_file, parse_override,
                         validate_config)
from ccme.data import Dataset, dataset_to_csv, load_dataset
from ccme.estimators import METHODS, VARIANTS, Hyper
from ccme.errors import ConfigError, InvalidArgumentError
from ccme.serialize import load_model

# The directory that holds the imported ccme package; in a checkout this is
# src/, and the project's pyproject.toml sits one level above it.
PACKAGE_PARENT = Path(ccme.__file__).resolve().parent.parent
PYPROJECT = PACKAGE_PARENT.parent / "pyproject.toml"


class TestConfig:
    def test_defaults_are_benchmark_settings(self):
        cfg = Hyper()
        assert (cfg.method, cfg.variant, cfg.scenario) == ("rr", "dr", "a")
        assert cfg.bandwidth_x == cfg.bandwidth_v == cfg.bandwidth_y == 2.0
        assert cfg.ridge0 == cfg.ridge1 == 20.0
        assert cfg.n_feats == 20 and cfg.hidden == [20, 20]
        assert cfg.momentum == 0.9
        assert (cfg.lr_df, cfg.lr_nk) == (2e-4, 4e-4)
        assert (cfg.epochs_df1, cfg.epochs_df2) == (6000, 1000)
        assert (cfg.epochs_nk1, cfg.epochs_nk2) == (16000, 500)
        assert cfg.n_list == [200, 500, 2000, 5000]
        assert cfg.seeds == [0, 1, 2, 3, 4]
        assert cfg.test_points == 500 and cfg.grid_points == 1000
        assert (cfg.clip_lo, cfg.clip_hi) == (0.01, 0.99)

    def test_merge_precedence(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 300, "seed": 7}))
        assert load_config_file(str(path)) == {"n": 300, "seed": 7}
        assert main(["--config", str(path), "--n", "400", "--print-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["n"] == 400 and cfg["seed"] == 7

    def test_parse_override_types(self):
        assert parse_override("n", "250") == 250
        assert parse_override("ridge0", "1.5") == 1.5
        assert parse_override("hidden", "12,8") == [12, 8]
        assert parse_override("methods", "rr,nk") == ["rr", "nk"]
        with pytest.raises(InvalidArgumentError):
            parse_override("n", "abc")
        with pytest.raises(InvalidArgumentError):
            parse_override("no_such_field", "1")

    def test_parse_override_strips_a_scalar_as_a_list_entry(self):
        for scalar, listed, value in (("scenario", "scenarios", "a"),
                                      ("method", "methods", "nk"),
                                      ("variant", "variants", "ipw")):
            for padded in (f" {value}", f"{value} ", f"\t{value} "):
                assert parse_override(scalar, padded) == value
                assert parse_override(listed, padded) == [value]
        assert parse_override("n", " 250 ") == 250
        assert parse_override("hidden", " 12 , 8 ") == [12, 8]
        # an empty value is still the empty list
        assert parse_override("methods", "") == parse_override("hidden", " ") == []

    @pytest.mark.parametrize("name,text", [
        ("scenarios", "a,,b"), ("scenarios", "a,"), ("methods", ",rr"),
        ("variants", "dr, ,pi"), ("hidden", "12,,8"), ("n_list", "200,")])
    def test_parse_override_rejects_an_empty_list_entry(self, name, text):
        flag = "--" + name.replace("_", "-")
        with pytest.raises(InvalidArgumentError, match=f"^{flag} has an empty entry"):
            parse_override(name, text)

    def test_validate_rejections(self):
        for bad in (Hyper(method="xx"), Hyper(variant="xx"),
                    Hyper(propensity="xx"), Hyper(clip_lo=0.9, clip_hi=0.1),
                    Hyper(clip_lo=1e-320), Hyper(threads=0), Hyper(n=3), Hyper(ridge0=0.0),
                    Hyper(methods=["rr", "zz"]), Hyper(bandwidth_y=1e-300),
                    Hyper(bandwidth_x=float("inf")), Hyper(bandwidth_v=1e155),
                    Hyper(bandwidth_y=float("nan")), Hyper(ridge1=float("inf"))):
            with pytest.raises(ConfigError):
                validate_config(bad)


def _floats(lo=None, hi=None):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     exclude_min=lo is not None, exclude_max=hi is not None)


# A valid value for every setting, so that validation passes.
_SETTINGS = {
    "method": st.sampled_from(METHODS), "variant": st.sampled_from(VARIANTS),
    "scenario": st.sampled_from("abc"),
    "propensity": st.sampled_from(["auto", "forest", "logistic", "oracle"]),
    "seed": st.integers(0, 2**32), "net_seed": st.integers(0, 2**32),
    "threads": st.integers(1, 64),
    # bandwidths whose 2 bandwidth^2 is a normal float
    "bandwidth_x": _floats(1e-150, 1e150), "bandwidth_v": _floats(1e-150, 1e150),
    "bandwidth_y": _floats(1e-150, 1e150), "ridge0": _floats(0.0),
    "ridge1": _floats(0.0),
    "n_feats": st.integers(1, 500),
    "hidden": st.lists(st.integers(1, 500), min_size=1),
    "momentum": st.floats(0.0, 1.0, exclude_max=True), "lr_df": _floats(0.0),
    "lr_nk": _floats(0.0),
    "epochs_df1": st.integers(0, 10**6), "epochs_df2": st.integers(0, 10**6),
    "epochs_nk1": st.integers(0, 10**6), "epochs_nk2": st.integers(0, 10**6),
    "grid_pad": st.floats(0.0, allow_infinity=False), "clip_lo": _floats(0.0, 0.5).filter(lambda lo: 1.0 / lo < float("inf")),
    "clip_hi": _floats(0.5, 1.0), "n": st.integers(4, 10**7),
    "v_cols": st.none() | st.lists(st.integers(0, 30), min_size=1),
    "methods": st.lists(st.sampled_from(METHODS), min_size=1),
    "variants": st.lists(st.sampled_from(VARIANTS), min_size=1),
    "scenarios": st.lists(st.sampled_from("abc"), min_size=1),
    "n_list": st.lists(st.integers(2, 10**6), min_size=1),
    "seeds": st.lists(st.integers(0, 10**6), min_size=1),
    "test_points": st.integers(1, 10**5), "grid_points": st.integers(1, 10**5),
    "eval_seed": st.integers(0, 2**32),
}
_HYPERS = st.fixed_dictionaries(_SETTINGS).map(lambda values: Hyper(**values))


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


# (flag, a value out of range, the in-range edge) for each bound of a
# setting: every out-of-range value is a configuration error naming it.
_BOUNDS = [
    ("seed", "-1", "0"), ("net-seed", "-1", "0"), ("eval-seed", "-1", "0"),
    ("seeds", "0,-1", "0"), ("test-points", "-3", "1"),
    ("grid-points", "0", "1"), ("n-list", "1", "2"), ("n-list", "200,0", "2"),
    ("epochs-df1", "-1", "0"), ("epochs-df2", "-1", "0"),
    ("epochs-nk1", "-1", "0"), ("epochs-nk2", "-1", "0"),
    ("lr-df", "nan", "1e-300"), ("lr-df", "0", "1e-300"),
    ("lr-nk", "inf", "1e300"), ("lr-nk", "-1", "1e-300"),
    ("momentum", "1.5", "0"), ("momentum", "1", "0.999"),
    ("momentum", "-0.1", "0"), ("n-feats", "0", "1"), ("hidden", "20,0", "1"),
    ("grid-pad", "-1", "0"), ("grid-pad", "inf", "0"), ("grid-pad", "nan", "0"),
    ("v-cols", "", "0"), ("threads", "0", "1"), ("n", "3", "4"),
]


class TestSettingBounds:
    @pytest.mark.parametrize("flag, bad, edge", _BOUNDS,
                             ids=[f"{f}={b}" for f, b, _ in _BOUNDS])
    def test_out_of_range_setting_exits_4(self, flag, bad, edge, capsys):
        capsys.readouterr()
        assert main([f"--{flag}", bad, "--print-config"]) == 4
        std = capsys.readouterr()
        err = std.err.strip().splitlines()
        assert std.out == "" and len(err) == 1, std.err
        assert flag.replace("-", "_") in err[0]
        assert main([f"--{flag}", edge, "--print-config"]) == 0


class TestConfigRoundTrip:
    def test_every_setting_has_a_strategy(self):
        assert set(_SETTINGS) == {f.name for f in fields(Hyper)}

    @settings(max_examples=60, deadline=None)
    @given(_HYPERS)
    def test_json_file_round_trip(self, hyper):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_json(hyper))
            assert Hyper(**load_config_file(path)) == hyper

    @settings(max_examples=60, deadline=None)
    @given(_HYPERS)
    def test_printed_values_parse_back_through_their_flags(self, hyper):
        printed = json.loads(config_json(hyper))
        argv = ["--print-config"]
        for name, value in printed.items():
            if value is not None:
                argv.append(f"--{name.replace('_', '-')}={_flag_text(value)}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert json.loads(out.getvalue()) == printed


def _well_typed(kind, value) -> bool:
    """Whether a JSON value fits a Hyper annotation; ints count as floats."""
    if kind in ("int", "float", "str"):
        allowed = {"int": (int,), "float": (int, float), "str": (str,)}[kind]
        return type(value) in allowed
    item = str if kind == "list[str]" else int
    return type(value) is list and all(type(v) is item for v in value)


_JSON = st.recursive(
    st.booleans() | st.integers() | _floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
_FIELD_KINDS = {f.name: f.type for f in fields(Hyper)}


class TestConfigTypes:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_FIELD_KINDS)).flatmap(
        lambda name: st.tuples(st.just(name), _JSON.filter(
            lambda v: not _well_typed(_FIELD_KINDS[name], v)))))
    def test_wrongly_typed_value_rejected(self, case):
        name, value = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({name: value}, fh)
            with pytest.raises(InvalidArgumentError, match=name):
                load_config_file(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["--config", path, "--print-config"]) == 3
            assert len(err.getvalue().strip().splitlines()) == 1

    def test_ints_are_accepted_for_floats(self, tmp_path, capsys):
        """And a null leaves the setting to its default."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ridge0": 3, "hidden": [4, 5], "v_cols": None}))
        values = load_config_file(str(path))
        assert values == {"ridge0": 3.0, "hidden": [4, 5]}
        assert type(values["ridge0"]) is float
        assert main(["--config", str(path), "--print-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["ridge0"] == 3.0 and cfg["hidden"] == [4, 5] and cfg["v_cols"] is None

    @pytest.mark.parametrize("text", [
        '{"ridge0": 1' + "0" * 400 + "}",          # an int beyond every float
        '{"n": 1' + "0" * 5000 + "}",              # an int too long to parse
    ])
    def test_oversized_ints_exit_3(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["--config", str(path), "--print-config"]) == 3
        std = capsys.readouterr()
        assert std.out == "" and std.err.count("\n") == 1, std.err
        assert std.err.startswith("parse failure: config")

    def test_reported_cases_exit_3(self, tmp_path, capsys):
        threads = tmp_path / "threads.json"
        threads.write_text(json.dumps({"threads": "4"}))
        assert main(["--config", str(threads), "--print-config"]) == 3
        hidden = tmp_path / "hidden.json"
        hidden.write_text(json.dumps({"hidden": 20}))
        assert main(["fit", str(tmp_path / "unread.csv"), "--method", "df",
                     "--config", str(hidden)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("parse failure" in line for line in err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A simulate -> fit pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    sim = str(root / "sim.csv")
    model = str(root / "model.npz")
    assert main(["simulate", "--n", "200", "--seed", "3", "--out", sim]) == 0
    assert main(["fit", sim, "--model-out", model, "--seed", "5"]) == 0
    return {"root": root, "sim": sim, "model": model}


class TestSimulate:
    def test_row_count_and_columns(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["simulate", "--n", "50", "--seed", "1", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 51
        assert lines[0].split(",") == [f"x{i}" for i in range(1, 11)] + ["a", "y"]
        a_vals = {row.split(",")[10] for row in lines[1:]}
        assert a_vals <= {"0", "1"}

    def test_rerun_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--n", "40", "--seed", "9", "--out", p1])
        main(["simulate", "--n", "40", "--seed", "9", "--out", p2])
        assert open(p1, "rb").read() == open(p2, "rb").read()
        # overwriting in place leaves the same bytes too
        main(["simulate", "--n", "40", "--seed", "9", "--out", p1])
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]   # no sidecar


class TestFit:
    def test_model_round_trips_through_density(self, workdir, tmp_path):
        out = str(tmp_path / "dens.csv")
        code = main(["density", workdir["model"], "--v", "2.2,-0.2,2.2,-0.2,2.2",
                     "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "v_id,y,density"
        assert len(lines) == 1 + 1000

    def test_zero_treated_rows_degenerate(self, tmp_path):
        rows = ["x1,x2,x3,a,y"] + [f"{i * 0.1},0.2,0.3,0,{i * 0.5}"
                                   for i in range(12)]
        data = tmp_path / "all_control.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(data), "--model-out",
                     str(tmp_path / "m.npz")]) == 4

    def test_fit_reads_no_scenario(self, workdir, tmp_path, capsys):
        """Scenarios are sweep rules: a fit under b or c exits 4 in one line
        that names the flag to use, whatever the data, before reading it."""
        model = tmp_path / "m.npz"
        for data in (workdir["sim"], str(tmp_path / "nope.csv")):
            for scenario in ("b", "c"):
                capsys.readouterr()
                assert main(["fit", data, "--scenario", scenario,
                             "--model-out", str(model)]) == 4
                err = capsys.readouterr().err.strip().splitlines()
                assert len(err) == 1 and "--propensity logistic" in err[0]
        assert not model.exists()
        assert main(["fit", workdir["sim"], "--seed", "5", "--scenario", "a",
                     "--model-out", str(model)]) == 0
        assert model.read_bytes() == Path(workdir["model"]).read_bytes()

    def test_fit_fits_no_oracle_propensity(self, tmp_path, capsys):
        """The oracle is the benchmark's true propensity, which only sweeps
        pass: a fit that reads omega rejects it, one that does not fits."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        A, y = (rng.random(40) < 0.5).astype(int), rng.normal(size=40)
        rows = ["x1,x2,x3,x4,x5,a,y"] + [
            ",".join(f"{v:.6f}" for v in X[i]) + f",{A[i]},{y[i]:.6f}"
            for i in range(40)]
        data = tmp_path / "five.csv"
        data.write_text("\n".join(rows) + "\n")
        for variant, code in (("dr", 4), ("ipw", 4), ("pi", 0), ("onestep", 0)):
            capsys.readouterr()
            assert main(["fit", str(data), "--propensity", "oracle", "--variant",
                         variant, "--model-out", str(tmp_path / "m.npz")]) == code
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and ("'oracle'" in err[0]) == (code == 4)

    def test_vector_outcome_csv_rejected(self, tmp_path, capsys):
        rows = ["x1,x2,x3,x4,x5,x6,a,y1,y2"] + [
            f"{i * 0.1},0.2,0.3,0.4,0.5,0.6,{i % 2},{i * 0.5},{i * 0.25}"
            for i in range(12)]
        data = tmp_path / "vector_y.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(data), "--model-out",
                     str(tmp_path / "m.npz")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "one scalar outcome column" in err[0]
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_rejected(self, bad, tmp_path, capsys):
        sim = tmp_path / "s.csv"
        assert main(["simulate", "--n", "100", "--seed", "2", "--out",
                     str(sim)]) == 0
        lines = sim.read_text().splitlines()
        row = lines[5].split(",")
        row[0] = bad                                 # x1 of one row
        lines[5] = ",".join(row)
        sim.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        model = tmp_path / "m.npz"
        assert main(["fit", str(sim), "--method", "rr",
                     "--model-out", str(model)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "NaN or inf" in err[0]
        assert not model.exists()

    def test_diverging_df_fit_is_numeric(self, workdir, tmp_path, capsys):
        capsys.readouterr()
        assert main(["fit", workdir["sim"], "--method", "df", "--lr-df", "1e3",
                     "--epochs-df1", "200", "--epochs-df2", "50",
                     "--model-out", str(tmp_path / "m.npz")]) == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure")

    def test_missing_data_file_io_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 2

    def test_nk_onestep_end_to_end(self, tmp_path):
        sim = str(tmp_path / "s.csv")
        model = str(tmp_path / "m.npz")
        out = str(tmp_path / "d.csv")
        main(["simulate", "--n", "60", "--seed", "4", "--out", sim])
        code = main(["fit", sim, "--model-out", model, "--method", "nk",
                     "--variant", "onestep", "--n-feats", "8",
                     "--hidden", "8", "--epochs-nk1", "300",
                     "--epochs-nk2", "100"])
        assert code == 0
        assert main(["density", model, "--v", "1,1,1,1,1", "--grid-points",
                     "50", "--out", out]) == 0
        vals = np.loadtxt(out, delimiter=",", skiprows=1)
        assert vals.shape == (50, 3)
        assert np.isfinite(vals[:, 2]).all()

    def test_pi_fits_no_propensity(self, workdir, tmp_path, monkeypatch):
        from ccme import propensity

        def refuse(*args, **kwargs):
            raise AssertionError("pi fitted a propensity model")

        monkeypatch.setattr(propensity, "fit_forest", refuse)
        monkeypatch.setattr(propensity, "fit_logistic", refuse)
        for name in ("auto", "forest", "logistic", "oracle"):
            assert main(["fit", workdir["sim"], "--variant", "pi", "--propensity", name,
                         "--model-out", str(tmp_path / f"{name}.npz")]) == 0

    def test_clip_reaches_the_default_propensity(self, workdir, tmp_path,
                                                 monkeypatch):
        """--propensity auto on the benchmark layout honours --clip-lo."""
        from ccme import estimators
        real, omega_max = estimators.compute_omega, []

        def spy(d1, pi_hat, clip):
            omega = real(d1, pi_hat, clip)
            omega_max.append(float(omega.max()))
            return omega

        monkeypatch.setattr(estimators, "compute_omega", spy)
        for lo in ("0.01", "0.3"):
            assert main(["fit", workdir["sim"], "--seed", "5", "--clip-lo", lo,
                         "--model-out", str(tmp_path / f"m{lo}.npz")]) == 0
        assert omega_max[0] > 1.0 / 0.3
        assert omega_max[1] <= 1.0 / 0.3

    @pytest.mark.parametrize("method", ["rr", "df"])
    @pytest.mark.parametrize("spread,flags", [
        (300.0, []),                               # outcomes spanning ~10,000
        (1.0, ["--bandwidth-y", "0.01"]),          # a tiny outcome bandwidth
    ])
    def test_sparse_outcomes_fit_in_bounded_size(self, method, spread, flags,
                                                 tmp_path):
        """Outcomes sparse against the outcome bandwidth keep the basis, and
        so every archive array, below n^2 entries."""
        n = 200
        sim = tmp_path / "s.csv"
        assert main(["simulate", "--n", str(n), "--seed", "6", "--out", str(sim)]) == 0
        lines = sim.read_text().splitlines()
        rows = [line.rsplit(",", 1) for line in lines[1:]]
        sim.write_text("\n".join([lines[0]] + [f"{head},{float(y) * spread!r}"
                                               for head, y in rows]) + "\n")
        model, out = str(tmp_path / "m.npz"), str(tmp_path / "d.csv")
        nets = ["--n-feats", "4", "--hidden", "8", "--epochs-df1", "50",
                "--epochs-df2", "20"]
        assert main(["fit", str(sim), "--method", method, "--model-out", model,
                     *flags, *nets]) == 0
        with np.load(model, allow_pickle=False) as npz:
            assert max(npz[key].size for key in npz.files) < n * n
        assert main(["density", model, "--v", "1,1,1,1,1", "--grid-points",
                     "50", "--out", out]) == 0
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


class TestDensity:
    def test_two_query_rows(self, workdir, tmp_path):
        vfile = tmp_path / "v.csv"
        vfile.write_text("2.2,-0.2,2.2,-0.2,2.2\n-0.2,2.2,-0.2,2.2,-0.2\n")
        out = str(tmp_path / "d.csv")
        assert main(["density", workdir["model"], "--v-file", str(vfile),
                     "--grid-points", "40", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + 2 * 40
        ids = {ln.split(",")[0] for ln in lines[1:]}
        assert ids == {"0", "1"}

    @pytest.mark.parametrize("header", ["", "v1,v2,v3,v4,v5\n"])
    def test_every_query_row_kept(self, header, workdir, tmp_path):
        """Only a first line none of whose fields parses as a number is a
        header: a row written with an exponent is data."""
        vfile = tmp_path / "v.csv"
        vfile.write_text(header + "1e-05,0.2,0.3,0.1,0.4\n2.2,-0.2,2.2,-0.2,2.2\n")
        out = tmp_path / "d.csv"
        assert main(["density", workdir["model"], "--v-file", str(vfile),
                     "--grid-points", "3", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], [0, 0, 0, 1, 1, 1])

    def test_a_first_line_with_a_number_is_data(self, workdir, tmp_path, capsys):
        """A mistyped first row is a malformed row, not a header."""
        vfile = tmp_path / "v.csv"
        vfile.write_text("1,1,1,1,1x\n0,0,0,0,0\n")
        capsys.readouterr()
        assert main(["density", workdir["model"], "--v-file", str(vfile),
                     "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"parse failure: malformed query file {vfile}"), err
        assert not (tmp_path / "d.csv").exists()

    def test_non_finite_first_query_row_rejected(self, workdir, tmp_path, capsys):
        vfile = tmp_path / "v.csv"
        vfile.write_text("nan,0.2,0.3,0.1,0.4\n2.2,-0.2,2.2,-0.2,2.2\n")
        capsys.readouterr()
        assert main(["density", workdir["model"], "--v-file", str(vfile),
                     "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "NaN or inf" in err[0]
        assert not (tmp_path / "d.csv").exists()

    def test_explicit_grid_single_point(self, workdir, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--grid-lo", "10", "--grid-hi", "30",
                     "--grid-points", "1", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "10"

    def test_default_grid_single_point(self, workdir, tmp_path):
        """One grid point and no range: one row per query, at y_lo - grid_pad."""
        vfile = tmp_path / "v.csv"
        vfile.write_text("2.2,-0.2,2.2,-0.2,2.2\n-0.2,2.2,-0.2,2.2,-0.2\n")
        out = str(tmp_path / "d.csv")
        assert main(["density", workdir["model"], "--v-file", str(vfile),
                     "--grid-points", "1", "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        y_lo = load_model(workdir["model"]).y_lo
        assert np.array_equal(rows[:, :2], [[0, y_lo - Hyper().grid_pad],
                                            [1, y_lo - Hyper().grid_pad]])

    def test_grid_flags_validated(self, workdir):
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--grid-lo", "5"]) == 3
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--grid-lo", "5", "--grid-hi", "5"]) == 3

    def test_query_flags_validated(self, workdir, tmp_path, capsys):
        assert main(["density", workdir["model"]]) == 3
        assert main(["density", workdir["model"], "--v", "a,b"]) == 3
        vfile = tmp_path / "v.csv"
        vfile.write_text("2.2,-0.2,2.2,-0.2,2.2\n")
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--v-file", str(vfile)]) == 3
        assert main(["density", workdir["model"], "--v", "1,2"]) == 3
        capsys.readouterr()
        for v in ("1,,1,1,1,1", "1,1,1,1,1,"):
            assert main(["density", workdir["model"], "--v", v,
                         "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("--v has an empty entry in" in line
                                     for line in err)
        assert not (tmp_path / "d.csv").exists()

    def test_version_one_model_rejected(self, workdir, tmp_path, capsys):
        """And a schema-3 archive, with its outcome kernel spec and its
        arrays under a "second." prefix: each exits 3 with one line."""
        with np.load(workdir["model"], allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
            meta = json.loads(str(npz["__meta__"][()]))
        v1 = {**meta, "schema_version": 1}
        v3 = {**meta, "schema_version": 3, "kernel_y": {
            "family": "gaussian", "bandwidth": meta.pop("bandwidth_y"),
            "normalized": True}}
        capsys.readouterr()
        for version, old_meta, old_arrays in (
                (1, v1, arrays), (3, v3, {f"second.{k}": a for k, a in arrays.items()})):
            old = str(tmp_path / f"v{version}.npz")
            np.savez(old, __meta__=np.array(json.dumps(old_meta)), **old_arrays)
            assert main(["density", old, "--v", "1,1,1,1,1",
                         "--out", str(tmp_path / "d.csv")]) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"parse failure: unsupported model schema version "
                           f"{version}; this build reads version 4"]
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_query_rejected(self, bad, workdir, tmp_path, capsys):
        capsys.readouterr()
        assert main(["density", workdir["model"], "--v", f"1,1,{bad},1,1",
                     "--out", str(tmp_path / "d.csv")]) == 3
        vfile = tmp_path / "v.csv"
        vfile.write_text(f"1,1,1,1,1\n2,2,2,2,{bad}\n")
        assert main(["density", workdir["model"], "--v-file", str(vfile),
                     "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("NaN or inf" in line for line in err)
        assert not (tmp_path / "d.csv").exists()

    def test_version_two_and_cut_archives_rejected(self, workdir, tmp_path,
                                                   capsys):
        with np.load(workdir["model"], allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["schema_version"] = 2
        old = str(tmp_path / "v2.npz")
        np.savez(old, **{**arrays, "__meta__": np.array(json.dumps(meta))})
        cut = str(tmp_path / "cut.npz")
        np.savez(cut, **{**arrays, "coef": arrays["coef"][3:]})
        capsys.readouterr()
        for path in (old, cut):
            assert main(["density", path, "--v", "1,1,1,1,1",
                         "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("parse failure" in line for line in err)

    def test_garbage_model_file(self, workdir, tmp_path):
        bad = tmp_path / "model.npz"
        bad.write_text("this is not a zip archive")
        assert main(["density", str(bad), "--v", "1,1"]) == 3
        with np.load(workdir["model"], allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "coef"}
        np.savez(tmp_path / "no_coef.npz", **arrays)
        assert main(["density", str(tmp_path / "no_coef.npz"),
                     "--v", "1,1,1,1,1"]) == 3


class TestSweepCommand:
    def test_small_sweep_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--methods", "rr", "--variants", "dr,pi",
                     "--scenarios", "a", "--n-list", "30", "--seeds", "0",
                     "--test-points", "10", "--grid-points", "30",
                     "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "method,variant,scenario,n,seed,mse,seconds,error"
        assert len(lines) == 3
        for row in lines[1:]:
            parts = row.split(",")
            assert parts[0] == "rr" and float(parts[5]) > 0

        capsys.readouterr()
        assert main(["report", out]) == 0
        table = capsys.readouterr().out
        assert "median_mse" in table
        assert "rr" in table and "pi" in table

    def test_sweeps_honour_the_propensity(self, tmp_path):
        def mse(propensity):
            out = tmp_path / f"{propensity}.csv"
            assert main(["sweep", "--methods", "rr", "--variants", "dr",
                         "--scenarios", "a", "--n-list", "30", "--seeds", "0",
                         "--test-points", "5", "--grid-points", "20",
                         "--propensity", propensity, "--out", str(out)]) == 0
            return float(out.read_text().splitlines()[1].split(",")[5]).hex()

        auto = mse("auto")
        assert auto == "0x1.8d5719947f112p-11"     # as before sweeps read it
        assert mse("forest") == auto                # auto is a forest in a
        assert mse("logistic") != auto
        assert mse("oracle") not in (auto, mse("logistic"))

    def test_sweeps_reject_v_cols(self, tmp_path, capsys):
        base = ["sweep", "--n-list", "30", "--seeds", "0", "--test-points", "5",
                "--grid-points", "20", "--out", str(tmp_path / "s.csv")]
        capsys.readouterr()
        assert main(base + ["--v-cols", "0,1"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("degenerate data or configuration")
        assert "v_cols [0, 1]" in err[0]
        assert not (tmp_path / "s.csv").exists()
        assert main(base + ["--v-cols", "0,1,2,3,4"]) == 0

    @pytest.mark.parametrize("flag", ["--seed", "--net-seed"])
    def test_sweeps_reject_seed_and_net_seed(self, flag, tmp_path, capsys):
        """Each group derives its seeds from (n, seed) in --seeds, so a sweep
        rejects these, in one line before its status line, as it does v_cols."""
        name = flag[2:].replace("-", "_")
        base = ["sweep", "--n-list", "30", "--seeds", "0", "--test-points", "5",
                "--grid-points", "20", "--out", str(tmp_path / "s.csv")]
        capsys.readouterr()
        assert main(base + [flag, "5"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("degenerate data or configuration")
        assert f"{name} 5" in err[0]
        assert not (tmp_path / "s.csv").exists()
        assert main(base + [flag, "0"]) == 0

    def test_rr_cap_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--methods", "rr", "--n-list", "20001",
                     "--seeds", "0", "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert "20000 cap" in err[0]
        assert not out.exists()

    def test_filters(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--methods", "rr", "--variants", "pi",
                     "--n-list", "30", "--seeds", "0", "--test-points", "5",
                     "--grid-points", "20", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2 and ",pi," in lines[1]

    def test_filter_validation(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--methods", "", "--n-list", "30", "--seeds", "0",
                     "--out", str(out)]) == 4
        assert "plans no cells" in capsys.readouterr().err
        assert not out.exists()
        assert main(["sweep", "--filter", "method=rr"]) == 3     # no such flag

    def test_all_cells_failing_exit_5(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-list", "2", "--seeds", "0,1",
                     "--test-points", "5", "--grid-points", "20",
                     "--out", out])
        assert code == 5
        lines = open(out).read().splitlines()
        assert len(lines) == 3
        assert all("Error" in row for row in lines[1:])

    def test_threads_flag(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-list", "2", "--seeds", "0,1",
                     "--test-points", "5", "--grid-points", "20",
                     "--threads", "2", "--out", out])
        assert code == 5
        assert len(open(out).read().splitlines()) == 3


def write_sweep_csv(path, rows):
    header = "method,variant,scenario,n,seed,mse,seconds,error"
    path.write_text("\n".join([header] + rows) + "\n")


class TestReport:
    def test_exact_slope_from_power_law(self, tmp_path, capsys):
        rows = []
        for n in (100, 200, 400):
            for seed in (0, 1):
                rows.append(f"rr,dr,a,{n},{seed},{2.0 / n:.17g},0.1,")
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "log-log slope" in out
        assert "-1.000" in out

    def test_failed_rows_excluded(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [
            "rr,dr,a,100,0,0.5,0.1,",
            "rr,dr,a,100,1,nan,0.1,NumericError: blew up",
            "rr,dr,a,100,2,0.7,0.1,",
        ])
        assert main(["report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "excluded 1 failed rows" in captured.err
        assert "0.6" in captured.out  # median of 0.5 and 0.7

    def test_medians_csv_out(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ["rr,dr,a,100,0,0.5,0.1,",
                               "rr,dr,a,100,1,0.3,0.1,"])
        out = tmp_path / "medians.csv"
        assert main(["report", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,variant,scenario,n,cells,median_mse"
        assert lines[1] == "rr,dr,a,100,2,0.40000000000000002"

    def test_outputs_are_pinned(self, tmp_path, capsys):
        """Both outputs on a fixed CSV with a failed row and keys with fewer
        than three n's, which get no slope."""
        path, out = tmp_path / "sweep.csv", tmp_path / "medians.csv"
        write_sweep_csv(path, [
            "rr,dr,a,100,0,0.5,0.1,", "rr,dr,a,100,1,0.25,0.1,",
            "rr,dr,a,200,0,0.2,0.1,", "rr,dr,a,400,0,0.125,0.2,",
            "rr,dr,a,400,1,nan,0.1,NumericError: blew up",
            "rr,pi,c,100,0,0.3,0.1,", "rr,pi,c,200,0,0.29,0.1,",
            "df,ipw,b,100,0,1e-3,0.1,", "df,ipw,b,200,0,5e-4,0.1,",
            "df,ipw,b,400,0,2.5e-4,0.1,", "df,ipw,b,400,1,3e-4,0.1,"])
        capsys.readouterr()
        assert main(["report", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "method  variant  scenario        n  cells  median_mse  \n"
            "df      ipw      b             100      1  0.001       \n"
            "df      ipw      b             200      1  0.0005      \n"
            "df      ipw      b             400      2  0.000275    \n"
            "rr      dr       a             100      2  0.375       \n"
            "rr      dr       a             200      1  0.2         \n"
            "rr      dr       a             400      1  0.125       \n"
            "rr      pi       c             100      1  0.3         \n"
            "rr      pi       c             200      1  0.29        \n"
            "\n"
            "log-log slope of median mse vs n:\n"
            "df      ipw      b           -0.931\n"
            "rr      dr       a           -0.792\n")
        assert out.read_text() == (
            "method,variant,scenario,n,cells,median_mse\n"
            "df,ipw,b,100,1,0.001\n"
            "df,ipw,b,200,1,0.00050000000000000001\n"
            "df,ipw,b,400,2,0.00027499999999999996\n"
            "rr,dr,a,100,2,0.375\n"
            "rr,dr,a,200,1,0.20000000000000001\n"
            "rr,dr,a,400,1,0.125\n"
            "rr,pi,c,100,1,0.29999999999999999\n"
            "rr,pi,c,200,1,0.28999999999999998\n")

    def test_no_successful_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ["rr,dr,a,100,0,nan,0.1,ValueError: x"])
        assert main(["report", str(path)]) == 4

    def test_header_and_row_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["report", str(bad)]) == 3
        mangled = tmp_path / "mangled.csv"
        write_sweep_csv(mangled, ["rr,dr,a,abc,0,0.5,0.1,"])
        assert main(["report", str(mangled)]) == 3
        for name, row in (("short", "rr,dr,a,200,0,0.001,1.0"),
                          ("long", "rr,dr,a,200,0,0.001,1.0,,extra")):
            path = tmp_path / f"{name}.csv"
            write_sweep_csv(path, [row])
            capsys.readouterr()
            assert main(["report", str(path)]) == 3
            std = capsys.readouterr()
            assert std.out == ""
            assert std.err == f"parse failure: {path}:2: wrong field count\n"
        assert main(["report", str(tmp_path / "missing.csv")]) == 2


# The settings a sweep does not read, as README lists them: its cells set
# the estimator, scenario and rows; threads only schedules the groups.
SWEEP_UNREAD = {"method", "variant", "scenario", "n", "threads"}

# A tiny rr/df/nk sweep, and a new value for every other setting.
SWEEP_BASE = dict(methods=["rr", "df", "nk"], variants=["dr"], scenarios=["a"],
                  n_list=[30], seeds=[0], test_points=5, grid_points=20,
                  n_feats=4, hidden=[8], epochs_df1=30, epochs_df2=20,
                  epochs_nk1=30, epochs_nk2=20)
SWEEP_CHANGES = {
    "propensity": "logistic", "bandwidth_x": 1.0, "bandwidth_v": 1.0,
    "bandwidth_y": 1.0, "ridge0": 5.0, "ridge1": 5.0, "n_feats": 5,
    "hidden": [6], "momentum": 0.5, "lr_df": 1e-4, "lr_nk": 1e-4,
    "epochs_df1": 20, "epochs_df2": 10, "epochs_nk1": 20, "epochs_nk2": 10,
    "grid_pad": 1.0, "clip_lo": 0.2, "clip_hi": 0.6, "v_cols": [0, 1],
    "methods": ["rr"], "variants": ["pi"], "scenarios": ["c"], "n_list": [25],
    "seeds": [1], "test_points": 4, "grid_points": 15, "eval_seed": 1,
    "seed": 1, "net_seed": 1,
}


class TestSweepSettings:
    """No setting is silently ignored by a sweep."""

    @staticmethod
    def sweep(tmp_path, **changes):
        """(exit code, records without their seconds, stderr) of a sweep."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SWEEP_BASE, **changes}))
        out = tmp_path / "sweep.csv"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["sweep", "--config", str(config), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()] if code == 0 else []
        return code, [row[:6] + row[7:] for row in rows], err.getvalue()

    def test_every_setting_is_classified(self):
        names = {f.name for f in fields(Hyper)}
        assert SWEEP_UNREAD | set(SWEEP_CHANGES) == names
        assert not SWEEP_UNREAD & set(SWEEP_CHANGES)

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        code, records, _ = self.sweep(tmp_path_factory.mktemp("base"))
        assert code == 0 and len(records) == 4
        assert all(row[-1] == "" for row in records[1:])
        return records

    @pytest.mark.parametrize("name", sorted(SWEEP_CHANGES))
    def test_a_sweep_honours_or_rejects_the_setting(self, name, base, tmp_path):
        value = SWEEP_CHANGES[name]
        assert value != SWEEP_BASE.get(name, getattr(Hyper(), name))
        code, records, err = self.sweep(tmp_path, **{name: value})
        assert (code == 0 and records != base) or (code == 4 and name in err)


class TestExitCodes:
    """Every failure exits with its documented code and one stderr line."""

    CASES = {
        "missing-csv": (2, ["fit", "{missing}"]),
        "nan-in-csv": (3, ["fit", "{nan}"]),
        "bandwidth-y-1e-300": (4, ["fit", "{sim}", "--bandwidth-y", "1e-300"]),
        "bandwidth-x-inf": (4, ["fit", "{sim}", "--bandwidth-x", "inf"]),
        "ridge1-inf": (4, ["fit", "{sim}", "--ridge1", "inf"]),
        "clip-lo-1e-320": (4, ["fit", "{sim}", "--clip-lo", "1e-320"]),
        "diverging-df-fit": (5, ["fit", "{sim}", "--method", "df", "--lr-df", "1e3",
                                 "--epochs-df1", "200", "--epochs-df2", "50"]),
        "nk-grid-pad-1e308": (4, ["fit", "{sim}", "--method", "nk",
                                  "--grid-pad", "1e308"]),
        "density-grid-hi-inf": (3, ["density", "{model}", "--v", "1,1,1,1,1",
                                    "--grid-lo", "0", "--grid-hi", "inf"]),
        "header-only-csv": (3, ["fit", "{header}"]),
        "header-only-query-file": (3, ["density", "{model}", "--v-file", "{vhead}"]),
        "blank-query-file": (3, ["density", "{model}", "--v-file", "{vblank}"]),
        "csv-not-utf8": (3, ["fit", "{latin1}"]),
        "command-raises": (6, ["simulate"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_failure_exits_with_its_code(self, case, workdir, tmp_path, capsys,
                                         monkeypatch):
        from ccme import cli

        def raises(cfg, args):
            raise RuntimeError("injected\nover two lines")

        monkeypatch.setitem(cli._COMMANDS, "simulate", raises)
        lines = Path(workdir["sim"]).read_text().splitlines()
        lines[5] = "nan" + lines[5][lines[5].index(","):]       # x1 of one row
        (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "header.csv").write_text(lines[0] + "\n")
        (tmp_path / "vhead.csv").write_text("v1,v2,v3,v4,v5\n")
        (tmp_path / "vblank.csv").write_text("\n \n")
        (tmp_path / "latin1.csv").write_bytes(lines[0].encode() + b"\n\xff,1,2\n")
        paths = {"sim": workdir["sim"], "model": workdir["model"],
                 "nan": str(tmp_path / "nan.csv"),
                 "header": str(tmp_path / "header.csv"),
                 "vhead": str(tmp_path / "vhead.csv"),
                 "vblank": str(tmp_path / "vblank.csv"),
                 "latin1": str(tmp_path / "latin1.csv"),
                 "missing": str(tmp_path / "nope.csv")}
        code, argv = self.CASES[case]
        out = str(tmp_path / "out")
        argv = [arg.format(**paths) for arg in argv] + [
            "--model-out" if argv[0] == "fit" else "--out", out]
        capsys.readouterr()
        assert main(argv) == code
        std = capsys.readouterr()
        assert len(std.err.strip().splitlines()) == 1, std.err
        assert "Traceback" not in std.err + std.out
        assert not os.path.exists(out)

    @pytest.fixture(scope="class")
    def degenerate(self, tmp_path_factory):
        """A 12-row simulate CSV, and a 400-row one whose only treated row
        is its first: at --seed 0 that row lands in D0, at --seed 3 in D1."""
        root = tmp_path_factory.mktemp("degenerate")
        tiny, one = root / "tiny.csv", root / "one_treated.csv"
        assert main(["simulate", "--n", "12", "--seed", "0", "--out", str(tiny)]) == 0
        assert main(["simulate", "--n", "400", "--seed", "0", "--out", str(one)]) == 0
        ds = load_dataset(one.read_text())
        A = np.zeros_like(ds.A)
        A[np.argmax(ds.A)] = 1.0
        one.write_text(dataset_to_csv(Dataset(ds.X, A, ds.Y)))
        return {"tiny": str(tiny), "one": str(one)}

    @pytest.mark.parametrize("data,flags,message", [
        ("tiny", [], "forest fitting needs n >= 10 rows, got 6"),
        ("one", ["--variant", "onestep", "--seed", "0"],
         "one-step variant needs treated D1 rows"),
    ])
    def test_degenerate_csv_exits_4(self, data, flags, message, degenerate,
                                    tmp_path, capsys):
        """A CSV that parses but cannot support the fit is degenerate data,
        not a parse failure."""
        capsys.readouterr()
        assert main(["fit", degenerate[data], *flags,
                     "--model-out", str(tmp_path / "m.npz")]) == 4
        std = capsys.readouterr()
        assert std.err.strip().splitlines() == [
            f"degenerate data or configuration: {message}"]
        assert "Traceback" not in std.err + std.out

    @pytest.mark.parametrize("variant,code", [
        ("onestep", 0), ("ipw", 0), ("dr", 4), ("pi", 4)])
    def test_only_a_first_stage_needs_a_treated_d0_row(self, variant, code,
                                                        degenerate, tmp_path,
                                                        capsys):
        capsys.readouterr()
        assert main(["fit", degenerate["one"], "--variant", variant, "--seed", "3",
                     "--model-out", str(tmp_path / "m.npz")]) == code
        err = capsys.readouterr().err
        assert ("cannot fit a first stage" in err) == (code == 4)


class TestMainDispatch:
    def test_settings_precedence(self, tmp_path, capsys):
        """Defaults, then the --config file, then flags."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"threads": 4}))

        def threads(*argv):
            assert main(["--print-config", *argv]) == 0
            return json.loads(capsys.readouterr().out)["threads"]

        assert threads() == 1
        assert threads("--config", str(cfg_file)) == 4
        assert threads("--config", str(cfg_file), "--threads", "3") == 3

    def test_environment_sets_no_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("CCME_THREADS", "2")
        assert main(["--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 1

    def test_flags_before_the_command_are_honoured(self, tmp_path, capsys):
        """A settings flag counts wherever it stands; given on both sides of
        the command, the one after it wins."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 7}))

        def printed(*argv):
            assert main(list(argv)) == 0
            return json.loads(capsys.readouterr().out)

        cfg = printed("--ridge1", "7", "--config", str(cfg_file), "fit", "d.csv",
                      "--print-config")
        assert (cfg["ridge1"], cfg["seed"]) == (7.0, 7)
        assert printed("--ridge1", "7", "fit", "d.csv", "--ridge1", "9",
                       "--print-config")["ridge1"] == 9.0
        # --print-config before the command prints and fits nothing
        assert printed("--ridge1", "7", "--print-config", "fit",
                       str(tmp_path / "absent.csv"))["ridge1"] == 7.0

    def test_print_config_keys_are_the_settings(self, capsys):
        assert main(["--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(json.dumps(asdict(Hyper())))
        assert main(["--nk-grid-m", "20", "--print-config"]) == 3

    def test_print_config_resolution(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 300, "seed": 7}))
        assert main(["--config", str(cfg_file), "--n", "400",
                     "--print-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["n"] == 400 and cfg["seed"] == 7
        assert cfg["grid_points"] == 1000

    def test_config_file_validation(self, tmp_path):
        bad_key = tmp_path / "bad.json"
        bad_key.write_text(json.dumps({"wavelength": 3}))
        assert main(["--config", str(bad_key), "--print-config"]) == 3
        not_json = tmp_path / "broken.json"
        not_json.write_text("{not json")
        assert main(["--config", str(not_json), "--print-config"]) == 3
        not_obj = tmp_path / "list.json"
        not_obj.write_text("[1,2]")
        assert main(["--config", str(not_obj), "--print-config"]) == 3

    def test_command_required_and_flag_errors(self, tmp_path, monkeypatch):
        assert main([]) == 3
        assert main(["--no-such-flag"]) == 3
        assert main(["simulate", "--n", "abc"]) == 3
        assert main(["--method", "xx", "--print-config"]) == 4
        # only the documented scenario names: no alias or case
        monkeypatch.chdir(tmp_path)
        bad = [(flag, alias) for flag in ("--scenario", "--scenarios")
               for alias in ("BothCorrect", "A")]
        for command in (["simulate"], ["fit", "d.csv"], ["density", "m.npz"],
                        ["sweep"], ["report", "s.csv"], ["--print-config"]):
            for flag, alias in bad:
                assert main([*command, flag, alias]) == 3
        assert os.listdir(tmp_path) == []

    def test_padding_is_stripped_from_scalar_and_list_flags(self, tmp_path,
                                                             monkeypatch, capsys):
        """A padded value means the same through a scalar flag and its list
        twin; an empty list entry exits 3 with one line naming the flag."""
        def printed(*argv):
            assert main([*argv, "--print-config"]) == 0
            return json.loads(capsys.readouterr().out)

        cfg = printed("--scenario", " c", "--scenarios", " b ,c ", "--method", "nk ")
        assert (cfg["scenario"], cfg["scenarios"], cfg["method"]) == ("c", ["b", "c"], "nk")
        for argv in (["--scenarios", "a,,b"], ["--scenarios", "a,"],
                     ["--methods", "rr, ,nk"], ["--variants", ",dr"]):
            assert main([*argv, "--print-config"]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{argv[0]} has an empty entry" in err
        monkeypatch.chdir(tmp_path)
        for command in (["simulate"], ["sweep"]):
            assert main([*command, "--scenarios", "a,,b"]) == 3
        assert os.listdir(tmp_path) == []

    def test_python_dash_m(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(PACKAGE_PARENT), env.get("PYTHONPATH", "")])
        for argv, code in ((["--help"], 0), (["--no-such-flag"], 3)):
            proc = subprocess.run([sys.executable, "-m", "ccme", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == code, proc.stderr
            assert ("usage: ccme" in proc.stdout) == (code == 0)

    @pytest.mark.skipif(PACKAGE_PARENT.name != "src" or not PYPROJECT.is_file(),
                        reason="ccme is not imported from a src/ checkout "
                               "with its pyproject.toml")
    def test_installed_entry_point(self, tmp_path):
        """The declared console script runs main() as its own process.

        Installs the launcher that pip generates for the ``ccme`` entry in
        ``[project.scripts]`` into a temp bin directory, then runs it by its
        bare name: arguments must come from sys.argv and main()'s return value
        must become the process exit code.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["ccme"]
        module, attr = entry.split(":")
        assert getattr(importlib.import_module(module), attr) is main, entry

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "ccme"
        script.write_text(f"#!{sys.executable}\n"
                          "import sys\n"
                          f"from {module} import {attr}\n"
                          f"sys.exit({attr}())\n")
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            [str(PACKAGE_PARENT), env.get("PYTHONPATH", "")])

        run_console_simulate(tmp_path, env)
        proc = subprocess.run(["ccme", "--no-such-flag"], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr

    @pytest.mark.skipif(not PYPROJECT.is_file(),
                        reason="no pyproject.toml beside the imported package")
    def test_pyproject_names_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["name"] == "ccme"
        assert project["version"] == ccme.__version__

    @pytest.mark.skipif(shutil.which("ccme") is None,
                        reason="ccme console script not installed")
    def test_installed_console_script(self, tmp_path):
        run_console_simulate(tmp_path, None)


def run_console_simulate(tmp_path, env):
    """Run ``ccme simulate`` as found on PATH and check its CSV."""
    out = str(tmp_path / "sim.csv")
    proc = subprocess.run(
        ["ccme", "simulate", "--n", "10", "--seed", "1", "--out", out],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(open(out).read().splitlines()) == 11
