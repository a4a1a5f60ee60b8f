"""The package's exports: every name in an ``__all__`` resolves, the
library imports nothing from the benchmark, only fits that factor or take
large Grams load scipy, and the README's library example runs."""

import ast
import contextlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ccme
from ccme.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = sorted(m.name for m in pkgutil.iter_modules(ccme.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", ["ccme", *(f"ccme.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from ccme import *", namespace)
    assert set(ccme.__all__) <= set(namespace)


# The library: fits, densities and archives.  Scenarios and the true
# propensity are benchmark rules, so none of these may import synthbench.
LIBRARY = ["estimators", "config", "data", "propensity", "density", "serialize",
           "kernels", "nets", "blas"]


def every_import(name: str) -> list[str]:
    """What module ``name`` imports, read from source, at module level and
    inside functions alike: each ``import m`` as m, each ``from m import x``
    as m.x."""
    path = Path(ccme.__file__).with_name(f"{name}.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return imported


@pytest.mark.parametrize("name", LIBRARY)
def test_the_library_imports_nothing_from_the_benchmark(name):
    """Read from source: the package's ``__init__`` imports synthbench, so
    importing a module and inspecting ``sys.modules`` would show nothing."""
    assert [m for m in every_import(name) if "synthbench" in m.split(".")] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy_special(name):
    """The logistic is numpy's (``propensity.logistic``): scipy loads only
    for LAPACK and large Grams."""
    assert [m for m in every_import(name) if m.split(".")[:2] == ["scipy", "special"]] == []


def module_level_imports(tree: ast.AST) -> list[str]:
    """Modules imported by the statements that run at import: everything
    outside function bodies, class bodies included."""
    found, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy_at_module_level(name):
    """scipy is imported inside the functions that need it, so that importing
    the package, and the commands that fit nothing, do without it."""
    tree = ast.parse(Path(ccme.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    assert [m for m in module_level_imports(tree) if m.split(".")[0] == "scipy"] == []


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A dataset, a model fitted on it and a sweep CSV, in one directory."""
    root = tmp_path_factory.mktemp("cli")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["simulate", "--n", "200", "--seed", "3",
                     "--out", str(root / "sim.csv")]) == 0
        assert main(["fit", str(root / "sim.csv"), "--model-out",
                     str(root / "model.npz")]) == 0
        assert main(["sweep", "--methods", "rr", "--variants", "dr", "--n-list", "40",
                     "--seeds", "1", "--test-points", "5", "--grid-points", "20",
                     "--out", str(root / "sweep.csv")]) == 0
    return root


# Whether a process pool is loaded: run_sweep imports one where it starts it.
LOADS_POOL = ("any(m.split('.')[0] == 'multiprocessing' "
              "or m == 'concurrent.futures.process' for m in sys.modules)")


def run_fresh(script: str, *argv: str, cwd=None) -> list[str]:
    """The stdout lines of ``script`` run in a fresh interpreter that imports
    this package, with ``argv`` as its arguments."""
    src = str(Path(ccme.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("argv,loads_scipy", [
    (["simulate", "--n", "50", "--out", "new.csv"], False),
    (["density", "model.npz", "--v", "0.1,0.2,0.3,0.4,0.5", "--out", "d.csv"], False),
    (["report", "sweep.csv"], False),
    (["--print-config"], False),
    (["fit", "sim.csv", "--model-out", "refit.npz"], True),
    (["fit", "sim.csv", "--method", "nk", "--propensity", "logistic", "--epochs-nk1",
      "5", "--epochs-nk2", "5", "--model-out", "nk.npz"], False),
])
def test_only_fitting_commands_load_scipy(argv, loads_scipy, cli_inputs):
    """Each command in a fresh interpreter, where nothing else has loaded
    scipy: an rr fit must load it, so the lazy imports are reached, and an
    nk fit, whose Grams are small and which factors nothing, must not.  No
    command but a sweep on several processes loads a process pool."""
    script = ("import sys\n"
              "from ccme.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules), "
              f"{LOADS_POOL})\n")
    assert run_fresh(script, *argv, cwd=cli_inputs)[-1:] == [f"0 {loads_scipy} False"]


def test_importing_the_cli_loads_no_process_pool():
    """multiprocessing takes about 20 ms to import, which every command
    would pay at start."""
    assert run_fresh(f"import sys, ccme.cli\nprint({LOADS_POOL})") == ["False"]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The python block under "## Library" runs as written, on a CSV that
    ``ccme simulate`` wrote under the name it reads."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "200", "--seed", "3", "--out", "sim.csv"]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip() != ""
