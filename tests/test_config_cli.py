"""Config resolution and the ccme command-line interface."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccme
from ccme.cli import main
from ccme.config import (RunConfig, merge_config, parse_override, to_hyper,
                         validate_config)
from ccme.errors import ConfigError, InvalidArgumentError

# The directory that holds the imported ccme package; in a checkout this is
# src/, and the project's pyproject.toml sits one level above it.
PACKAGE_PARENT = Path(ccme.__file__).resolve().parent.parent
PYPROJECT = PACKAGE_PARENT.parent / "pyproject.toml"


class TestConfig:
    def test_defaults_are_benchmark_settings(self):
        cfg = RunConfig()
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

    def test_to_hyper_mirrors_config(self):
        h = to_hyper(RunConfig(bandwidth_y=1.5, ridge1=7.0, n_feats=12,
                               hidden=[10], epochs_nk1=100, epochs_nk2=50))
        assert h.bandwidth_y == 1.5 and h.ridge1 == 7.0
        assert h.n_feats == 12 and h.hidden == (10,)
        assert h.epochs_nk == (100, 50)

    def test_merge_precedence(self):
        cfg = merge_config({"n": 300, "seed": 7}, {"n": 400})
        assert cfg.n == 400 and cfg.seed == 7

    def test_parse_override_types(self):
        assert parse_override("n", "250") == 250
        assert parse_override("ridge0", "1.5") == 1.5
        assert parse_override("hidden", "12,8") == [12, 8]
        assert parse_override("methods", "rr,nk") == ["rr", "nk"]
        with pytest.raises(InvalidArgumentError):
            parse_override("n", "abc")
        with pytest.raises(InvalidArgumentError):
            parse_override("no_such_field", "1")

    def test_validate_rejections(self):
        for bad in (RunConfig(method="xx"), RunConfig(variant="xx"),
                    RunConfig(propensity="xx"), RunConfig(clip_lo=0.9, clip_hi=0.1),
                    RunConfig(nk_grid_m=10), RunConfig(threads=0),
                    RunConfig(n=3), RunConfig(ridge0=0.0),
                    RunConfig(methods=["rr", "zz"])):
            with pytest.raises(ConfigError):
                validate_config(bad)
        ok = RunConfig(nk_grid_m=20, scenario="BothCorrect")
        validate_config(ok)
        assert ok.scenario == "a"


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

    def test_meta_sidecar(self, tmp_path):
        out = str(tmp_path / "d.csv")
        main(["simulate", "--n", "20", "--seed", "2", "--out", out])
        meta = json.load(open(out + ".meta.json"))
        assert meta == {"command": "simulate", "n": 20, "seed": 2,
                        "scenario": "a"}


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

    def test_scenario_wiring_needs_benchmark_layout(self, tmp_path):
        rows = ["x1,x2,x3,a,y"] + [f"{i * 0.1},0.2,{i * 0.3},{i % 2},{i * 0.5}"
                                   for i in range(12)]
        data = tmp_path / "small.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(data), "--scenario", "c",
                     "--model-out", str(tmp_path / "m.npz")]) == 4
        assert main(["fit", str(data), "--propensity", "oracle",
                     "--model-out", str(tmp_path / "m.npz")]) == 4

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

    def test_nk_grid_override_mismatch(self, tmp_path):
        sim = str(tmp_path / "s.csv")
        main(["simulate", "--n", "40", "--seed", "4", "--out", sim])
        assert main(["fit", sim, "--method", "nk", "--nk-grid-m", "10",
                     "--model-out", str(tmp_path / "m.npz")]) == 4


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

    def test_explicit_grid_single_point(self, workdir, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--grid-lo", "10", "--grid-hi", "30",
                     "--grid-points", "1", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "10"

    def test_grid_flags_validated(self, workdir):
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--grid-lo", "5"]) == 3
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--grid-lo", "5", "--grid-hi", "5"]) == 3

    def test_query_flags_validated(self, workdir, tmp_path):
        assert main(["density", workdir["model"]]) == 3
        assert main(["density", workdir["model"], "--v", "a,b"]) == 3
        vfile = tmp_path / "v.csv"
        vfile.write_text("2.2,-0.2,2.2,-0.2,2.2\n")
        assert main(["density", workdir["model"], "--v", "1,1,1,1,1",
                     "--v-file", str(vfile)]) == 3
        assert main(["density", workdir["model"], "--v", "1,2"]) == 3

    def test_version_one_model_rejected(self, workdir, tmp_path):
        with np.load(workdir["model"], allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["schema_version"] = 1
        arrays["__meta__"] = np.array(json.dumps(meta))
        old = str(tmp_path / "v1.npz")
        np.savez(old, **arrays)
        assert main(["density", old, "--v", "1,1,1,1,1"]) == 3

    def test_garbage_model_file(self, tmp_path):
        bad = tmp_path / "model.npz"
        bad.write_text("this is not a zip archive")
        assert main(["density", str(bad), "--v", "1,1"]) == 3


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

    def test_filters(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--methods", "rr", "--variants", "dr,pi",
                     "--n-list", "30", "--seeds", "0", "--test-points", "5",
                     "--grid-points", "20", "--filter", "variant=PI",
                     "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2 and ",pi," in lines[1]

    def test_filter_validation(self, tmp_path):
        base = ["sweep", "--n-list", "30", "--seeds", "0",
                "--out", str(tmp_path / "s.csv")]
        assert main(base + ["--filter", "color=red"]) == 3
        assert main(base + ["--filter", "method"]) == 3
        assert main(base + ["--filter", "n=abc"]) == 3
        assert main(base + ["--filter", "method=nk"]) == 4  # nothing left

    def test_all_cells_failing_exit_5(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-list", "2", "--seeds", "0,1",
                     "--test-points", "5", "--grid-points", "20",
                     "--out", out])
        assert code == 5
        lines = open(out).read().splitlines()
        assert len(lines) == 3
        assert all("Error" in row for row in lines[1:])

    def test_threads_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCME_THREADS", "2")
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-list", "2", "--seeds", "0,1",
                     "--test-points", "5", "--grid-points", "20",
                     "--out", out])
        assert code == 5
        assert len(open(out).read().splitlines()) == 3
        monkeypatch.setenv("CCME_THREADS", "zebra")
        assert main(["sweep", "--n-list", "2", "--seeds", "0",
                     "--out", str(tmp_path / "s2.csv")]) == 3


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

    def test_no_successful_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ["rr,dr,a,100,0,nan,0.1,ValueError: x"])
        assert main(["report", str(path)]) == 4

    def test_header_and_row_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["report", str(bad)]) == 3
        mangled = tmp_path / "mangled.csv"
        write_sweep_csv(mangled, ["rr,dr,a,abc,0,0.5,0.1,"])
        assert main(["report", str(mangled)]) == 3
        assert main(["report", str(tmp_path / "missing.csv")]) == 2


class TestMainDispatch:
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

    def test_command_required_and_flag_errors(self):
        assert main([]) == 3
        assert main(["--no-such-flag"]) == 3
        assert main(["simulate", "--n", "abc"]) == 3
        assert main(["--method", "xx", "--print-config"]) == 4

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
