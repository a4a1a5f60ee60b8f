"""Config resolution and the ccme command-line interface."""

import contextlib
import importlib
import io
import itertools
import json
import os
import re
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
from ccme.cli import CSV_ROWS, main
from ccme.config import (config_json, load_config_file, parse_override,
                         validate_config)
from ccme.data import Dataset, dataset_to_csv, load_dataset
from ccme.density import curves_to_csv, default_grid, density_curves
from ccme.estimators import METHODS, READS, VARIANTS, Hyper
from ccme.errors import ConfigError, InvalidArgumentError
from ccme.serialize import load_model
from ccme.synthbench import eval_points

from conftest import traced_memory

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
    "v_cols": st.none() | st.lists(st.integers(0, 30), min_size=1, unique=True),
    "methods": st.lists(st.sampled_from(METHODS), min_size=1, unique=True),
    "variants": st.lists(st.sampled_from(VARIANTS), min_size=1, unique=True),
    "scenarios": st.lists(st.sampled_from("abc"), min_size=1, unique=True),
    "n_list": st.lists(st.integers(2, 10**6), min_size=1, unique=True),
    "seeds": st.lists(st.integers(0, 10**6), min_size=1, unique=True),
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
    ("v-cols", "", "0"), ("v-cols", "0,0,0", "0,1,2"), ("v-cols", "2,-1", "2,0"),
    ("threads", "0", "1"),
    ("n", "3", "4"),
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

    def test_every_setting_declares_what_reads_it(self):
        """A field's ``heads`` are methods and its ``needs`` a nuisance that
        ``READS`` names, and some (method, variant) pair reads each setting
        that fit declares."""
        nuisances = {name for row in READS.values() for name in row}
        for f in fields(Hyper):
            assert set(f.metadata["heads"]) <= set(METHODS), f.name
            assert f.metadata["needs"] in (None, *nuisances), f.name
        read = set().union(*(Hyper(method=method, variant=variant).reads("fit")
                             for method in METHODS for variant in VARIANTS))
        assert read == {f.name for f in fields(Hyper) if "fit" in f.metadata["reads"]}

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
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].split(",") == [f"x{i}" for i in range(1, 11)] + ["a", "y"]
        a_vals = {row.split(",")[10] for row in lines[1:]}
        assert a_vals <= {"0", "1"}

    def test_rerun_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--n", "40", "--seed", "9", "--out", p1])
        main(["simulate", "--n", "40", "--seed", "9", "--out", p2])
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        # overwriting in place leaves the same bytes too
        main(["simulate", "--n", "40", "--seed", "9", "--out", p1])
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]   # no sidecar


class TestFit:
    def test_model_round_trips_through_density(self, workdir, tmp_path):
        out = str(tmp_path / "dens.csv")
        code = main(["density", workdir["model"], "--v", "2.2,-0.2,2.2,-0.2,2.2",
                     "--out", out])
        assert code == 0
        lines = Path(out).read_text().splitlines()
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
        """Scenarios are sweep rules: --scenario is a flag fit does not read,
        so a fit given one exits 4 in one line naming it, whatever the data,
        before reading it."""
        model = tmp_path / "m.npz"
        for data in (workdir["sim"], str(tmp_path / "nope.csv")):
            for scenario in ("a", "b", "c"):
                capsys.readouterr()
                assert main(["fit", data, "--scenario", scenario,
                             "--model-out", str(model)]) == 4
                err = capsys.readouterr().err.strip().splitlines()
                assert err == ["degenerate data or configuration: "
                               "fit does not read --scenario"]
        assert not model.exists()
        assert main(["fit", workdir["sim"], "--seed", "5",
                     "--model-out", str(model)]) == 0
        assert model.read_bytes() == Path(workdir["model"]).read_bytes()

    def test_fit_fits_no_oracle_propensity(self, tmp_path, capsys):
        """The oracle is the benchmark's true propensity, which only sweeps
        pass: a fit that reads omega rejects it.  One that does not rejects
        the flag unread and, given it in a --config file, warns and fits."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        A, y = (rng.random(40) < 0.5).astype(int), rng.normal(size=40)
        rows = ["x1,x2,x3,x4,x5,a,y"] + [
            ",".join(f"{v:.6f}" for v in X[i]) + f",{A[i]},{y[i]:.6f}"
            for i in range(40)]
        data = tmp_path / "five.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "oracle.json"
        config.write_text(json.dumps({"propensity": "oracle"}))
        for variant, code in (("dr", 4), ("ipw", 4), ("pi", 0), ("onestep", 0)):
            capsys.readouterr()
            assert main(["fit", str(data), "--config", str(config), "--variant",
                         variant, "--model-out", str(tmp_path / "m.npz")]) == code
            err = capsys.readouterr().err.strip().splitlines()
            if code == 0:                  # the warning, then the status line
                assert err.pop(0) == (f"warning: fit with --method rr --variant "
                                      f"{variant} does not read propensity from {config}")
            assert len(err) == 1 and ("'oracle'" in err[0]) == (code == 4)
            assert main(["fit", str(data), "--propensity", "oracle", "--variant",
                         variant, "--model-out", str(tmp_path / "m.npz")]) == 4
            assert capsys.readouterr().err.count("\n") == 1

    def test_each_warning_is_one_stderr_line(self, tmp_path, capsys):
        """Both stages of a df fit on 6 training rows for 40 features warn,
        each in one line of its own."""
        data, model = str(tmp_path / "d.csv"), str(tmp_path / "m.npz")
        assert main(["simulate", "--n", "60", "--seed", "1", "--out", data]) == 0
        capsys.readouterr()
        assert main(["fit", data, "--method", "df", "--n-feats", "40",
                     "--epochs-df1", "5", "--epochs-df2", "5",
                     "--model-out", model]) == 0
        err = capsys.readouterr().err.splitlines()
        warned = [ln for ln in err if ln.startswith("warning: ")]
        assert len(warned) == 2 and len(err) == 3
        assert all("training rows for 40 features" in ln for ln in warned)

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
                     "--hidden", "8", "--epochs-nk2", "100"])
        assert code == 0
        assert main(["density", model, "--v", "1,1,1,1,1", "--grid-points",
                     "50", "--out", out]) == 0
        vals = np.loadtxt(out, delimiter=",", skiprows=1)
        assert vals.shape == (50, 3)
        assert np.isfinite(vals[:, 2]).all()

    @pytest.mark.parametrize("method", ["df", "nk"])
    def test_a_stage_two_of_zero_epochs_fits_and_loads(self, method, tmp_path):
        """0 epochs trains nothing: the archive stores final_loss NaN, and
        ccme density reads it."""
        sim, model = str(tmp_path / "d.csv"), str(tmp_path / "m.npz")
        out = str(tmp_path / "dens.csv")
        assert main(["simulate", "--n", "200", "--seed", "1", "--out", sim]) == 0
        assert main(["fit", sim, "--method", method, f"--epochs-{method}1", "5",
                     f"--epochs-{method}2", "0", "--model-out", model]) == 0
        assert main(["density", model, "--v", "1,1,1,1,1", "--grid-points", "50",
                     "--out", out]) == 0
        vals = np.loadtxt(out, delimiter=",", skiprows=1)
        assert vals.shape == (50, 3) and np.isfinite(vals).all()

    def test_pi_fits_no_propensity(self, workdir, tmp_path, monkeypatch):
        from ccme import propensity

        def refuse(*args, **kwargs):
            raise AssertionError("pi fitted a propensity model")

        monkeypatch.setattr(propensity, "fit_forest", refuse)
        monkeypatch.setattr(propensity, "fit_logistic", refuse)
        config = tmp_path / "propensity.json"
        for name in ("auto", "forest", "logistic", "oracle"):
            config.write_text(json.dumps({"propensity": name}))
            assert main(["fit", workdir["sim"], "--variant", "pi", "--config", str(config),
                         "--model-out", str(tmp_path / f"{name}.npz")]) == 0
            assert main(["fit", workdir["sim"], "--variant", "pi", "--propensity", name,
                         "--model-out", str(tmp_path / f"{name}.npz")]) == 4

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
                "--epochs-df2", "20"] if method == "df" else []   # rr reads none
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
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 1 + 2 * 40
        ids = {ln.split(",")[0] for ln in lines[1:]}
        assert ids == {"0", "1"}

    @staticmethod
    def query_file(path, T):
        vq = eval_points(T, 2)
        path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                                for row in vq))
        return vq

    @pytest.mark.parametrize("T", [1, CSV_ROWS, CSV_ROWS + 1])
    def test_the_file_is_the_csv_of_the_whole_matrix(self, T, workdir, tmp_path):
        """Written ``CSV_ROWS`` queries at a time, the file holds the bytes
        of ``curves_to_csv`` on the whole (T, G) matrix: for one query, one
        block, and one block plus a query."""
        vq = self.query_file(tmp_path / "v.csv", T)
        out = tmp_path / "d.csv"
        assert main(["density", workdir["model"], "--v-file", str(tmp_path / "v.csv"),
                     "--grid-points", "30", "--out", str(out)]) == 0
        model = load_model(workdir["model"])
        grid = default_grid(model, 30, Hyper().grid_pad)
        values, _ = density_curves(model, vq, grid)
        assert out.read_bytes() == curves_to_csv(grid, values).encode("utf-8")

    def test_the_file_is_never_held_whole(self, workdir, tmp_path):
        """tracemalloc's peak over the command at 200 queries x 1,000 grid
        points: 3.5 MB measured (2-core x86-64, numpy 2.4.6), of which the
        (200, 1000) densities are 1.6 MB, for an 8.9 MB file; 19.8 MB with
        the file made as one string.  The bound is half the file."""
        self.query_file(tmp_path / "v.csv", 200)
        argv = ["density", workdir["model"], "--v-file", str(tmp_path / "v.csv"),
                "--grid-points", "1000", "--out", str(tmp_path / "d.csv")]
        assert main(argv[:2] + ["--v", "1,1,1,1,1", "--out",
                                str(tmp_path / "warm.csv")]) == 0
        code, peak, _ = traced_memory(lambda: main(argv))
        assert code == 0
        assert peak <= (tmp_path / "d.csv").stat().st_size / 2

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
        lines = Path(out).read_text().splitlines()
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

    @pytest.mark.parametrize("flags,code", [
        (["--v", "-1,1,1,1,1"], 0),
        (["--v", "-1.5,1,1,1,1"], 0),
        (["--v", "-.5,1,-1,1,1"], 0),
        (["--v", "1,1,1,1,1", "--grid-lo", "-1e1", "--grid-hi", "5"], 0),
        (["--v", "1,1,1,1,1", "--grid-pad", "-1e-3"], 4),
    ])
    def test_negative_values_follow_their_flags(self, flags, code, workdir, tmp_path):
        """A value that starts with a minus sign and a digit is a value, and
        gives what its ``--flag=value`` form gives."""
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        glued = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
        assert main(["density", workdir["model"], *flags, "--out", str(spaced)]) == code
        assert main(["density", workdir["model"], *glued, "--out", str(joined)]) == code
        if code == 0:
            assert spaced.read_bytes() == joined.read_bytes()
        else:
            assert not spaced.exists() and not joined.exists()

    def test_an_explicit_grid_reads_no_grid_pad(self, workdir, tmp_path, capsys):
        """--grid-pad pads only the default grid: with --grid-lo and --grid-hi
        it exits 4 in one line, before or after the command, and writes
        nothing; a config file's grid_pad is named in a warning."""
        out = tmp_path / "d.csv"
        window = ["--v", "1,1,1,1,1", "--grid-lo", "0", "--grid-hi", "5",
                  "--out", str(out)]
        for argv in (["density", workdir["model"], *window, "--grid-pad", "5"],
                     ["--grid-pad", "5", "density", workdir["model"], *window]):
            capsys.readouterr()
            assert main(argv) == 4
            assert capsys.readouterr().err == (
                "degenerate data or configuration: density with --grid-lo and "
                "--grid-hi does not read --grid-pad\n")
        assert not out.exists()
        assert main(["density", workdir["model"], *window]) == 0
        plain = out.read_bytes()
        config = tmp_path / "pad.json"
        config.write_text(json.dumps({"grid_pad": 5.0}))
        capsys.readouterr()
        assert main(["density", workdir["model"], *window, "--config", str(config)]) == 0
        assert capsys.readouterr().err.splitlines()[0] == (
            "warning: density with --grid-lo and --grid-hi does not read "
            f"grid_pad from {config}")
        assert out.read_bytes() == plain

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
        assert main(["density", workdir["model"], "--v", "",
                     "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--v is empty" in err[0]
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
        lines = Path(out).read_text().splitlines()
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
        """The true densities condition on the first five covariates, so a
        sweep does not read --v-cols, even naming those five."""
        base = ["sweep", "--n-list", "30", "--seeds", "0", "--test-points", "5",
                "--grid-points", "20", "--out", str(tmp_path / "s.csv")]
        for value in ("0,1", "0,1,2,3,4"):
            capsys.readouterr()
            assert main(base + ["--v-cols", value]) == 4
            assert capsys.readouterr().err == (
                "degenerate data or configuration: sweep does not read --v-cols\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--net-seed"])
    def test_sweeps_reject_seed_and_net_seed(self, flag, tmp_path, capsys):
        """Each group derives its seeds from (n, seed) in --seeds, so a sweep
        does not read these, even at the default 0; a --config file's value is
        named in a warning and left at the default."""
        name = flag[2:].replace("-", "_")
        out = tmp_path / "s.csv"
        base = ["sweep", "--n-list", "30", "--seeds", "0", "--test-points", "5",
                "--grid-points", "20", "--out", str(out)]
        for value in ("5", "0"):
            capsys.readouterr()
            assert main(base + [flag, value]) == 4
            assert capsys.readouterr().err == (
                f"degenerate data or configuration: sweep does not read {flag}\n")
        assert not out.exists()
        assert main(base) == 0
        plain = out.read_text().splitlines()
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({name: 5}))
        capsys.readouterr()
        assert main(base + ["--config", str(config)]) == 0
        assert capsys.readouterr().err.splitlines()[0] == (
            f"warning: sweep does not read {name} from {config}")
        assert [row.split(",")[:6] for row in out.read_text().splitlines()] == [
            row.split(",")[:6] for row in plain]

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
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 2 and ",pi," in lines[1]

    def test_filter_validation(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--methods", "", "--n-list", "30", "--seeds", "0",
                     "--out", str(out)]) == 4
        assert "plans no cells" in capsys.readouterr().err
        assert not out.exists()
        assert main(["sweep", "--filter", "method=rr"]) == 3     # no such flag

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--scenarios", "z"], "unknown scenario 'z'"),
        (["sweep", "--scenarios", "a,z"], "unknown scenario 'z'"),
        (["fit", "d.csv", "--scenario", "z"], "fit does not read --scenario"),
        (["fit", "d.csv", "--method", "zz", "--n-feats", "5"],
         "method must be one of ('rr', 'df', 'nk'), got 'zz'"),
        (["sweep", "--variants", "q", "--propensity", "logistic"],
         "variants must be one of ('dr', 'ipw', 'pi', 'onestep'), got ['q']"),
    ])
    def test_an_unknown_name_exits_4_in_one_line(self, argv, message, tmp_path,
                                                 monkeypatch, capsys):
        """An unknown scenario is a setting out of range, as an unknown method
        or variant is, and a fit reads no scenario, whatever its value; an
        unknown method or variant is named before any flag it would not read."""
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(argv) == 4
        assert capsys.readouterr().err == f"degenerate data or configuration: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,value", [
        ("--methods", "rr,rr"), ("--variants", "dr,pi,dr"), ("--scenarios", "a,a"),
        ("--n-list", "30,30"), ("--seeds", "0,0")])
    def test_a_repeated_entry_exits_4_in_one_line(self, flag, value, tmp_path, capsys):
        """A repeated entry would run its cells twice and count each twice in
        the report's medians; --hidden 20,20 is two layers, not a repeat."""
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", flag, value, "--out", str(out)]) == 4
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            "degenerate data or configuration: "
            f"{name} names an entry twice: {parse_override(name, value)}\n")
        assert not out.exists()
        assert main(["sweep", "--methods", "df", "--hidden", "20,20", "--print-config"]) == 0

    def test_all_cells_failing_exit_5(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-list", "2", "--seeds", "0,1",
                     "--test-points", "5", "--grid-points", "20",
                     "--out", out])
        assert code == 5
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 3
        assert all("Error" in row for row in lines[1:])

    def test_threads_flag(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-list", "2", "--seeds", "0,1",
                     "--test-points", "5", "--grid-points", "20",
                     "--threads", "2", "--out", out])
        assert code == 5
        assert len(Path(out).read_text().splitlines()) == 3


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

    def test_no_successful_rows(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ["rr,dr,a,100,0,nan,0.1,ValueError: x"])
        capsys.readouterr()
        assert main(["report", str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["degenerate data or configuration: "
                       "no successful rows to report (1 failed)"]

    def test_padded_fields_read_as_unpadded(self, tmp_path, capsys):
        """Spaces around a header name or a field, and blank rows, change
        nothing: each field is read stripped, as dataset headers are."""
        rows = ["rr,dr,a,100,0,0.5,0.1,", "rr,dr,a,200,0,0.2,0.1,",
                "rr,dr,a,400,0,0.125,0.2,", "rr,pi,c,100,0,0.3,0.1,",
                "rr,dr,a,400,1,nan,0.1,NumericError: blew up"]
        plain, header, every = (tmp_path / f"{name}.csv"
                                for name in ("plain", "header", "every"))
        write_sweep_csv(plain, rows)
        text = plain.read_text()
        first, rest = text.split("\n", 1)
        header.write_text(first.replace(",", ", ") + "\n" + rest)
        every.write_text("\n" + text.replace(",", " , ").replace("\n", " \n\n"))
        outputs = []
        for path in (plain, header, every):
            capsys.readouterr()
            assert main(["report", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out.count("\n") == 8           # 4 groups, 1 slope
        assert outputs[0].err == "excluded 1 failed rows\n"
        assert all(o == outputs[0] for o in outputs[1:])

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

    @pytest.mark.parametrize("row,message", [
        ("rr,dr,a,0,0,0.5,0.1,", "n must be >= 1, got 0"),
        ("rr,dr,a,-3,1,nan,0.1,NumericError: blew up", "n must be >= 1, got -3"),
        ("rr,dr,a,100,1,-0.5,0.1,", "mse must be >= 0, got -0.5"),
        ("rr,dr,a,100,1,-inf,0.1,", "mse must be >= 0, got -inf"),
    ])
    def test_rows_out_of_range_rejected_where_read(self, row, message, tmp_path, capsys):
        """A row count below 1 would reach the log-log slope, and a negative
        mse would be printed as a median: each fails at its line."""
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ["rr,dr,a,100,0,0.5,0.1,", row, "rr,dr,a,200,0,0.2,0.1,"])
        capsys.readouterr()
        assert main(["report", str(path)]) == 3
        std = capsys.readouterr()
        assert std.out == ""
        assert std.err == f"parse failure: {path}:3: {message}\n"


COMMANDS = ["simulate", "fit", "density", "sweep", "report"]

# A sweep reads no seed, net_seed or v_cols: each group derives its seeds from
# its (n, seed) in --seeds, and the true densities condition on V = the first
# five covariates.
SWEEP_UNREAD = {"seed", "net_seed", "v_cols"}

# A tiny rr/df/nk sweep, and a new value for every setting a sweep reads but
# threads, which changes no record, and for each of SWEEP_UNREAD.
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

# What a fit reads, as measured per (method, variant) pair: a setting outside
# its pair's set changed no archive byte before fits rejected it.
EVERY_FIT = {"method", "variant", "seed", "v_cols", "bandwidth_y"}
OMEGA_READS = {"propensity", "clip_lo", "clip_hi"}       # with dr and ipw
HEAD_READS = {  # method: (read with every variant, read with dr and pi)
    "rr": ({"bandwidth_v", "ridge1"}, {"bandwidth_x", "ridge0"}),
    "df": ({"net_seed", "n_feats", "hidden", "momentum", "lr_df", "ridge1",
            "epochs_df2"}, {"ridge0", "epochs_df1"}),
    "nk": ({"net_seed", "n_feats", "hidden", "momentum", "lr_nk", "epochs_nk2",
            "grid_pad"}, {"epochs_nk1"}),
}
PAIRS = [(method, variant) for method in METHODS for variant in VARIANTS]


def fit_reads(method, variant):
    always, with_first = HEAD_READS[method]
    return (EVERY_FIT | always | (OMEGA_READS if variant in ("dr", "ipw") else set())
            | (with_first if variant in ("dr", "pi") else set()))


# Each command's base settings, as a --config file (a fit's are those of its
# method's that its pair reads), and a new value for every setting it reads
# (for fit, with a method that reads it and the variant dr).
NET_BASE = {"n_feats": 4, "hidden": [8]}
FIT_BASE = {"rr": {}, "df": {**NET_BASE, "epochs_df1": 30, "epochs_df2": 20},
            "nk": {**NET_BASE, "epochs_nk1": 30, "epochs_nk2": 20}}
COMMAND_BASE = {
    "simulate": {"n": 30}, "density": {"grid_points": 20}, "sweep": SWEEP_BASE,
    "report": {},
}
READ_CHANGES = {
    "simulate": {"n": 31, "seed": 1},
    "fit": {
        "method": ("df", "rr"), "variant": ("pi", "rr"), "propensity": ("logistic", "rr"),
        "seed": (1, "rr"), "bandwidth_x": (1.0, "rr"), "bandwidth_v": (1.0, "rr"),
        "bandwidth_y": (1.0, "rr"), "ridge0": (5.0, "rr"), "ridge1": (5.0, "rr"),
        "clip_lo": (0.5, "rr"), "clip_hi": (0.6, "rr"), "v_cols": ([0, 1], "rr"),
        "net_seed": (1, "df"), "n_feats": (5, "df"), "hidden": ([6], "df"),
        "momentum": (0.5, "df"), "lr_df": (1e-4, "df"), "epochs_df1": (20, "df"),
        "epochs_df2": (10, "df"), "lr_nk": (1e-4, "nk"), "epochs_nk1": (20, "nk"),
        "epochs_nk2": (10, "nk"), "grid_pad": (1.0, "nk"),
    },
    "density": {"grid_points": 15, "grid_pad": 1.0},
    "sweep": {**{key: value for key, value in SWEEP_CHANGES.items()
                 if key not in SWEEP_UNREAD}, "threads": 2},
    "report": {},
}


def base_config(command, method="rr", variant="dr"):
    if command != "fit":
        return COMMAND_BASE[command]
    return {key: value for key, value in FIT_BASE[method].items()
            if key in fit_reads(method, variant)}


def _reads(command):
    return {f.name for f in fields(Hyper) if command in f.metadata["reads"]}


@pytest.fixture(scope="module")
def setting_inputs(tmp_path_factory):
    """A dataset, an rr model fitted on it and a one-row sweep CSV."""
    root = tmp_path_factory.mktemp("inputs")
    data, model, swept = root / "d.csv", root / "m.npz", root / "s.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["simulate", "--n", "60", "--seed", "3", "--out", str(data)]) == 0
        assert main(["fit", str(data), "--model-out", str(model)]) == 0
    write_sweep_csv(swept, ["rr,dr,a,100,0,0.5,0.1,"])
    return {"data": str(data), "model": str(model), "sweep": str(swept)}


def run_command(command, inputs, tmp_path, flags=(), config=None):
    """(exit code, output, stderr) of a command on its base settings, or on
    ``config``: the bytes it writes, and for a sweep its records without
    their seconds."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(command) if config is None else config))
    out = tmp_path / "out"
    argv = {"simulate": ["--out"], "fit": [inputs["data"], "--model-out"],
            "density": [inputs["model"], "--v", "1,1,1,1,1", "--out"],
            "sweep": ["--out"], "report": [inputs["sweep"], "--out"]}[command]
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), *flags, *argv, str(out)])
    output = out.read_bytes() if code == 0 else None
    if command == "sweep" and code == 0:
        output = [row[:6] + row[7:] for row in
                  (line.split(",") for line in output.decode().splitlines())]
    return code, output, err.getvalue()


@pytest.fixture(scope="module")
def setting_base(setting_inputs, tmp_path_factory):
    """The output of each command, and of a fit with each method, on its
    base settings."""
    outputs = {}
    for command, method in [("simulate", None), ("density", None), ("sweep", None),
                            ("fit", "rr"), ("fit", "df"), ("fit", "nk")]:
        flags = ["--method", method] if method else []
        code, output, err = run_command(
            command, setting_inputs, tmp_path_factory.mktemp(command), flags,
            base_config(command, method) if method else None)
        assert code == 0 and "warning" not in err, err
        outputs[command, method] = output
    records = outputs["sweep", None]
    assert len(records) == 4 and all(row[-1] == "" for row in records[1:])
    return outputs


def check_read_setting(command, name, inputs, base, tmp_path):
    """A new value of a setting the command reads changes its output, or
    exits 4 naming the setting."""
    value, method = READ_CHANGES[command][name], None
    if command == "fit":
        value, method = value
    fitted = value if name == "method" else method     # the method that runs
    config = base_config(command, fitted) if fitted else None
    assert value != base_config(command, method).get(name, getattr(Hyper(), name))
    flags = [f"--{name.replace('_', '-')}={_flag_text(value)}"]
    if method and name != "method":
        flags += ["--method", method]
    code, output, err = run_command(command, inputs, tmp_path, flags, config)
    assert (code == 0 and output != base[command, method]) or (
        code == 4 and name in err), err


def check_pair_settings(command, pair_flags, changes, reads, base, inputs, tmp_path):
    """Each new value in ``changes`` changes the output of ``command`` run with
    ``pair_flags`` on ``base`` if ``reads`` holds its setting, and otherwise
    exits 4 in one line naming the setting, before any input is read (a fit's
    dataset is missing then) and with nothing written."""
    context = " ".join([command, "with", *pair_flags])
    code, plain, err = run_command(command, inputs, tmp_path, pair_flags, base)
    assert code == 0 and "warning" not in err, err
    for name, value in changes.items():
        flag = "--" + name.replace("_", "-")
        argv = [*pair_flags, f"{flag}={_flag_text(value)}"]
        if name in reads:
            code, output, err = run_command(command, inputs, tmp_path, argv, base)
            assert code == 0 and output != plain, (name, err)
            continue
        missing = {**inputs, "data": str(tmp_path / "missing.csv")}
        for path in tmp_path.iterdir():
            path.unlink()
        code, output, err = run_command(command, missing, tmp_path, argv, base)
        where = context if command in Hyper.__dataclass_fields__[name].metadata[
            "reads"] else command
        assert (code, err) == (4, "degenerate data or configuration: "
                                  f"{where} does not read {flag}\n"), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# A new value for every setting a fit reads for some pair but its method and
# variant, whose changes TestCommandSettings makes once.
FIT_CHANGES = {name: value for name, (value, _) in READ_CHANGES["fit"].items()
               if name not in ("method", "variant")}


class TestCommandSettings:
    """Every command honours or rejects every setting it reads, and rejects
    the flag of every setting it does not read.  TestSweepSettings runs the
    first check for sweeps, whose records must change."""

    def test_each_command_reads_the_settings_it_declares(self):
        assert {command: set(READ_CHANGES[command]) for command in COMMANDS} == {
            command: _reads(command) for command in COMMANDS}
        assert sum(len(_reads(command)) for command in COMMANDS) == 54
        assert all(f.metadata["reads"] for f in fields(Hyper) if f.name != "scenario")

    def test_each_fit_reads_what_its_method_and_variant_read(self):
        """152 of the 12 x 23 (method, variant, setting) triples."""
        assert {pair: Hyper(method=pair[0], variant=pair[1]).reads("fit")
                for pair in PAIRS} == {pair: fit_reads(*pair) for pair in PAIRS}
        assert sum(len(fit_reads(*pair)) for pair in PAIRS) == 152

    @pytest.mark.parametrize("command,name", [
        (command, name) for command in COMMANDS if command != "sweep"
        for name in sorted(READ_CHANGES[command])])
    def test_a_read_setting_changes_the_output_or_exits_4(
            self, command, name, setting_inputs, setting_base, tmp_path):
        check_read_setting(command, name, setting_inputs, setting_base, tmp_path)

    @pytest.mark.parametrize("method,variant", PAIRS)
    def test_each_pair_honours_or_rejects_every_setting(
            self, method, variant, setting_inputs, tmp_path):
        """A fit with --method and --variant honours each setting its pair
        reads and rejects every other one's flag, naming the pair."""
        check_pair_settings("fit", ["--method", method, "--variant", variant],
                            FIT_CHANGES, fit_reads(method, variant),
                            base_config("fit", method, variant), setting_inputs, tmp_path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_unread_flag_exits_4_before_or_after_the_command(
            self, command, tmp_path, monkeypatch, capsys):
        """However valid its value, and before anything is read or written."""
        monkeypatch.chdir(tmp_path)
        positional = {"fit": ["d.csv"], "density": ["m.npz"], "report": ["s.csv"]}
        unread = sorted({f.name for f in fields(Hyper)} - _reads(command))
        for name in unread:
            value = getattr(Hyper(), name)
            flag = ["--" + name.replace("_", "-"),
                    _flag_text([0, 1, 2, 3, 4] if value is None else value)]
            command_args = [command, *positional.get(command, [])]
            for argv in ([*flag, *command_args], [*command_args, *flag]):
                capsys.readouterr()
                assert main(argv) == 4, argv
                assert capsys.readouterr().err == (
                    "degenerate data or configuration: "
                    f"{command} does not read {flag[0]}\n"), argv
        assert len(unread) == 34 - len(READ_CHANGES[command])
        assert os.listdir(tmp_path) == []


class TestSweepSettings:
    """No setting is silently ignored by a sweep: a new value of one it reads
    changes its records, and the flag of one it does not read exits 4."""

    def test_every_setting_is_classified(self):
        assert _reads("sweep") == {f.name for f in fields(Hyper)} - SWEEP_UNREAD - {
            "method", "variant", "scenario", "n"}
        assert set(SWEEP_CHANGES) == _reads("sweep") - {"threads"} | SWEEP_UNREAD

    @pytest.mark.parametrize("name", sorted(SWEEP_CHANGES))
    def test_a_sweep_honours_or_rejects_the_setting(self, name, setting_inputs,
                                                    setting_base, tmp_path):
        flag = "--" + name.replace("_", "-")
        code, records, err = run_command(
            "sweep", setting_inputs, tmp_path, [f"{flag}={_flag_text(SWEEP_CHANGES[name])}"])
        if name in SWEEP_UNREAD:
            assert (code, err) == (4, "degenerate data or configuration: "
                                      f"sweep does not read {flag}\n")
        else:
            assert code == 0 and records != setting_base["sweep", None], err

    def test_a_sweep_reads_what_some_planned_pair_reads(self):
        """For every plan of methods and variants, the empty one included: the
        settings only sweeps read, and of those fits read, the ones some pair
        of the plan reads or, with no pair, every fit reads."""
        def subsets(names):
            return [list(kept) for size in range(len(names) + 1)
                    for kept in itertools.combinations(names, size)]

        for methods in subsets(METHODS):
            for variants in subsets(VARIANTS):
                read = set().union(EVERY_FIT, *(fit_reads(m, v) for m in methods
                                                for v in variants))
                assert Hyper(methods=methods, variants=variants).reads("sweep") == (
                    _reads("sweep") - _reads("fit") | _reads("sweep") & read)

    def test_an_rr_pi_sweep_honours_or_rejects_every_setting(self, setting_inputs,
                                                             tmp_path):
        """A sweep of rr and pi honours the bandwidths and ridges its fits read
        and every setting only sweeps read, and rejects every other flag."""
        base = {key: value for key, value in SWEEP_BASE.items()
                if key in _reads("sweep") - _reads("fit")}
        reads = {"bandwidth_x", "bandwidth_v", "bandwidth_y", "ridge0", "ridge1",
                 "scenarios", "n_list", "seeds", "test_points", "grid_points",
                 "eval_seed"}
        check_pair_settings("sweep", ["--methods", "rr", "--variants", "pi"],
                            {name: value for name, value in SWEEP_CHANGES.items()
                             if name not in ("methods", "variants")},
                            reads, base, setting_inputs, tmp_path)

    def test_threads_change_no_record(self, setting_inputs, setting_base, tmp_path):
        """--threads 2 runs the group on a worker process: the same records,
        and the status line names the thread count."""
        code, records, err = run_command("sweep", setting_inputs, tmp_path,
                                         ["--threads=2"])
        assert code == 0 and records == setting_base["sweep", None], err
        assert err.splitlines()[0].endswith(", threads=2)")


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
        "header-names-x1-twice": (3, ["fit", "{twice}"]),
        "archive-int8-points": (3, ["density", "{int8}", "--v", "1,1,1,1,1"]),
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
        (tmp_path / "twice.csv").write_text(
            "\n".join([lines[0].replace("x2,", "x1,", 1), *lines[1:]]) + "\n")
        with np.load(workdir["model"]) as npz:
            arrays = {key: npz[key] for key in npz.files}
        np.savez(tmp_path / "int8.npz",
                 **{**arrays, "points": arrays["points"].astype(np.int8)})
        paths = {"sim": workdir["sim"], "model": workdir["model"],
                 "nan": str(tmp_path / "nan.csv"),
                 "header": str(tmp_path / "header.csv"),
                 "vhead": str(tmp_path / "vhead.csv"),
                 "vblank": str(tmp_path / "vblank.csv"),
                 "latin1": str(tmp_path / "latin1.csv"),
                 "twice": str(tmp_path / "twice.csv"),
                 "int8": str(tmp_path / "int8.npz"),
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


class TestOutOfMemory:
    """A setting too large for memory exits 4 in one line that names the
    allocation numpy refused (each message is the one numpy gave for these
    flags), or says "out of memory" for a MemoryError without a message.
    The allocating call is patched to raise, so nothing is allocated."""

    CASES = {
        "simulate": ("generate", ["simulate", "--n", "1000000000000"],
                     "72.8 TiB for an array with shape (1000000000000, 10)"),
        "fit": ("fit_ccme", ["fit", "{sim}", "--method", "nk", "--n-feats", "100000"],
                "74.5 GiB for an array with shape (100000, 100000)"),
        "density": ("density_curves", ["density", "{model}", "--v", "1,1,1,1,1",
                                       "--grid-points", "100000000"],
                    "50.7 GiB for an array with shape (68, 100000000)"),
        "no-message": ("generate", ["simulate"], None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_memory_error_exits_4(self, case, workdir, tmp_path, monkeypatch, capsys):
        from ccme import cli

        target, argv, size = self.CASES[case]
        message = f"Unable to allocate {size} and data type float64" if size else ""

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, refuse)
        out = tmp_path / "out"
        argv = [arg.format(**workdir) for arg in argv] + [
            "--model-out" if argv[0] == "fit" else "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 4
        std = capsys.readouterr()
        assert std.err == ("degenerate data or configuration: "
                           f"{message or 'out of memory'}\n")
        assert std.out == "" and not out.exists()


class TestHelp:
    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_and_readme_list_the_settings_the_command_reads(self, command,
                                                                 capsys):
        """Each with its default; README's per-command table names the same
        flags, and the top-level help (for --print-config) all of them."""
        reads = {f.name for f in fields(Hyper)} if command is None else _reads(command)
        flags = {"--" + name.replace("_", "-") for name in reads}
        with pytest.raises(SystemExit) as done:
            main([command, "--help"] if command else ["--help"])
        assert done.value.code == 0
        text = capsys.readouterr().out
        section = text.partition("\nsettings:\n")[2]
        listed = re.findall(r"^  (--[a-z0-9-]+) V +default \S", section, re.M)
        assert sorted(listed) == sorted(flags)
        assert len(re.findall(r"^  --", section, re.M)) == len(flags)
        readme = PYPROJECT.parent / "README.md"
        if command is not None and readme.is_file():
            rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme.read_text(), re.M))
            assert set(re.findall(r"`(--[a-z0-9-]+)`", rows[command])) == flags


    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_help_and_readme_name_the_fits_that_read_a_setting(self, command, capsys):
        """For each setting only some fits read, fit's and sweep's help note
        the methods and variants that read it, and README's table groups
        fit's settings by the same notes."""
        def note(name):
            methods = [m for m in METHODS if any(name in fit_reads(m, v) for v in VARIANTS)]
            variants = [v for v in VARIANTS if any(name in fit_reads(m, v) for m in METHODS)]
            return ((", ".join(methods) + " ") * (methods != list(METHODS)) + "fits"
                    + (" with " + ", ".join(variants)) * (variants != list(VARIANTS)))

        def grouped(flags):
            groups = {}
            for flag, by in flags:
                groups.setdefault(by, set()).add(flag)
            return groups

        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        noted = re.findall(r"^  (--[a-z0-9-]+) V +default \S+; read by (.+)$", text, re.M)
        want = [("--" + name.replace("_", "-"), note(name))
                for name in sorted(_reads(command) & _reads("fit"))
                if note(name) != "fits"]
        assert grouped(noted) == grouped(want) and len(noted) == len(want)
        readme = PYPROJECT.parent / "README.md"
        if command == "fit" and readme.is_file():
            rows = re.findall(r"^\| ((?:[a-z, ]+ )?fits(?: with [a-z, ]+)?) \| (.*) \|$",
                              readme.read_text(), re.M)
            assert {by: set(re.findall(r"`(--[a-z0-9-]+)`", flags)) for by, flags in rows} == (
                grouped(want))


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

    def test_an_unread_config_key_is_a_warning_and_unchecked(self, tmp_path, capsys):
        """One file may serve several commands: a key of a setting the command
        does not read is named in one warning, and that setting keeps its
        default unchecked; a command that reads it checks its bounds."""
        config = tmp_path / "shared.json"
        config.write_text(json.dumps({"n_list": [1], "ridge1": 5.0}))
        assert main(["fit", "d.csv", "--config", str(config), "--print-config"]) == 0
        std = capsys.readouterr()
        assert std.err == f"warning: fit does not read n_list from {config}\n"
        printed = json.loads(std.out)
        assert (printed["n_list"], printed["ridge1"]) == (Hyper().n_list, 5.0)
        assert main(["sweep", "--config", str(config), "--print-config"]) == 4
        assert capsys.readouterr().err == ("degenerate data or configuration: "
                                           "n_list must be in [2, inf), got [1]\n")

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
                assert main([*command, flag, alias]) == 4
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
    assert len(Path(out).read_text().splitlines()) == 11
