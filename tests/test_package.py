"""The package's exports: every name in an ``__all__`` resolves, the
library imports nothing from the benchmark, and the README's library example
runs."""

import ast
import contextlib
import importlib
import io
import pkgutil
import re
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


@pytest.mark.parametrize("name", LIBRARY)
def test_the_library_imports_nothing_from_the_benchmark(name):
    """Read from source, at module level and inside functions alike: the
    package's ``__init__`` imports synthbench, so importing a module and
    inspecting ``sys.modules`` would show nothing."""
    path = Path(ccme.__file__).with_name(f"{name}.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert [m for m in imported if "synthbench" in m.split(".")] == []


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
