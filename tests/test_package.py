"""The package's exports: every name in an ``__all__`` resolves, the
library imports nothing from the benchmark, each command loads only the
compiled scipy module it calls and no second OpenBLAS, and the README's
library example runs."""

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
from ccme import blas
from ccme.cli import main
from ccme.estimators import VARIANTS

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
    """The logistic is numpy's (``propensity.logistic``): of scipy only
    cdist's kernel loads."""
    assert [m for m in every_import(name) if m.split(".")[:2] == ["scipy", "special"]] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy_at_module_level(name):
    """No ``import scipy...`` statement anywhere in the module: at module
    level or inside a function body, the whole tree is scanned.  All scipy
    access goes through ``blas.compiled``, which loads the compiled modules
    the library calls from their files, so that importing the
    package, and every command, does without scipy's packages."""
    assert [m for m in every_import(name) if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("name", MODULES)
def test_only_blas_loads_native_code(name):
    """``blas`` alone imports ``ctypes`` or ``importlib``: it binds the
    LAPACK and BLAS routines, loads scipy's compiled modules and sets the
    thread count of numpy's OpenBLAS."""
    native = [m for m in every_import(name) if m.split(".")[0] in ("ctypes", "importlib")]
    assert bool(native) == (name == "blas")


def test_blas_binds_five_routines():
    """The native surface: ``kernels._packed`` writes RFP storage, so no
    packing routine (dtrttf) is bound."""
    assert blas.Routines._fields == ("pftrf", "pftrs", "potrf", "potri", "symm")


# Where the library's LAPACK and BLAS could come from other than ``blas``:
# scipy's modules, and the names of the five routines and of dtrttf, which
# no module binds, in any spelling.
LAPACK_NAMES = ("_flapack", "_fblas", "dtrttf", "dpftrf", "dpftrs", "dpotrf", "dpotri",
                "dsymm")


def lapack_names(name: str) -> list[tuple[int, str]]:
    """(line, text) of each identifier, attribute, import or string
    constant of module ``name``, docstrings aside, that holds one of
    ``LAPACK_NAMES``."""
    tree = ast.parse(Path(ccme.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, ast.alias):
            text = node.name
        elif isinstance(node, ast.ImportFrom):
            text = node.module or ""
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            text = node.value
        else:
            continue
        if any(word in text for word in LAPACK_NAMES):
            found.append((getattr(node, "lineno", 0), text))
    return found


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_only_blas_names_lapack(name):
    """One OpenBLAS copy: ``blas`` binds the five routines from numpy's and is
    the one module that names them, or scipy's LAPACK modules, in code; the
    others call what ``blas.lapack`` returns."""
    found = lapack_names(name)
    if name == "blas":
        assert found
    else:
        assert found == []


def variant_names(name: str) -> tuple[list[str], list[tuple[int, str]]]:
    """The variant names module ``name`` spells out as string constants: those
    that are keys of the ``READS`` literal or defaults of ``Hyper``'s fields
    (the first argument of ``_setting``), and, as (line, name), all others."""
    path = Path(ccme.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    declared: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["READS"]):
            declared |= {id(key) for key in node.value.keys}
        elif isinstance(node, ast.ClassDef) and node.name == "Hyper":
            declared |= {id(const) for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                         for const in ast.walk(stmt.value.args[0])}
    named = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and node.value in VARIANTS]
    return ([node.value for node in named if id(node) in declared],
            [(node.lineno, node.value) for node in named if id(node) not in declared])


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_only_reads_names_a_variant(name):
    """A variant is its row of ``estimators.READS``: no module compares
    against, branches on or keys by a variant's name, so what a variant does
    follows from the nuisances it reads.  ``Hyper``'s defaults name one."""
    declared, others = variant_names(name)
    assert others == []
    if name == "estimators":
        assert sorted(declared) == sorted([*VARIANTS, "dr", "dr"])


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


# The compiled scipy module the library loads: cdist's kernel, at the first
# Gram; and scipy's LAPACK modules, which it does not load, as LAPACK and
# BLAS come from numpy's OpenBLAS.
CDIST = "scipy.spatial._distance_pybind"
LAPACK = ("scipy.linalg._flapack", "scipy.linalg._fblas")

# Whether scipy's OpenBLAS is mapped into the process, found without loading
# it; None where that cannot be told: no copy beside scipy, as a wheel puts
# it, or no RTLD_NOLOAD.
SCIPY_OPENBLAS = """
import ctypes, glob, importlib.util, os

def scipy_openblas_loaded():
    top = importlib.util.find_spec("scipy").submodule_search_locations[0]
    paths = glob.glob(os.path.join(top, os.pardir, "scipy.libs", "*openblas*"))
    if not paths or not hasattr(os, "RTLD_NOLOAD"):
        return None
    for path in paths:
        try:
            ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            return True
        except OSError:
            pass
    return False
"""


@pytest.mark.parametrize("argv,factors", [
    (["simulate", "--n", "50", "--out", "new.csv"], False),
    (["density", "model.npz", "--v", "0.1,0.2,0.3,0.4,0.5", "--out", "d.csv"], False),
    (["report", "sweep.csv"], False),
    (["--print-config"], False),
    (["fit", "sim.csv", "--model-out", "refit.npz"], True),
    (["fit", "sim.csv", "--method", "nk", "--propensity", "logistic", "--epochs-nk1",
      "5", "--epochs-nk2", "5", "--model-out", "nk.npz"], False),
    (["fit", "sim.csv", "--method", "df", "--propensity", "logistic", "--epochs-df1",
      "5", "--epochs-df2", "5", "--model-out", "df.npz"], True),
])
def test_only_fitting_commands_load_scipy(argv, factors, cli_inputs):
    """Each command in a fresh interpreter, where nothing else has loaded
    scipy, loads exactly the compiled scipy module it calls and no scipy
    package, and never scipy's OpenBLAS.  ``factors`` says whether the
    command binds the LAPACK routines, as rr and df fits do: they come from
    numpy's OpenBLAS, so no command loads ``scipy.linalg._flapack`` or
    ``_fblas``.  Commands that make Grams (``fit`` and ``density``) load
    cdist's kernel, ``scipy.spatial._distance_pybind``, and ``simulate``,
    ``report`` and ``--print-config`` load no scipy module.  No command but
    a sweep on several processes loads a process pool."""
    script = SCIPY_OPENBLAS + (
        "import sys\n"
        "from ccme import blas\n"
        "from ccme.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(repr((code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        f"scipy_openblas_loaded(), {LOADS_POOL}, blas.lapack.cache_info().currsize)))\n")
    code, modules, openblas, pool, bound = ast.literal_eval(
        run_fresh(script, *argv, cwd=cli_inputs)[-1])
    grams = [CDIST] if argv[0] in ("fit", "density") else []
    assert (code, modules, pool, bound) == (0, grams, False, int(factors))
    assert openblas in (None, False)


# A factorization and a Gram through the library, then scipy's packages
# imported: whether the library loaded scipy's LAPACK modules, whether
# scipy.spatial hands out the module the library called, and whether cdist
# gives gram's bytes.  The loader finds the module's file ("by_file"),
# finds none ("no_file"), or finds a file whose load raises ImportError, as
# a missing shared library makes it ("failing_load"); in the last two it
# imports the module in the ordinary way.
SHARED_MODULES = f"""
import importlib.util, sys
import numpy as np
from ccme import blas, kernels
lookup = sys.argv[1]

class FailingLoader:
    def create_module(self, spec):
        raise ImportError("DLL load failed while importing " + spec.name)
    def exec_module(self, module):
        pass

if lookup == "no_file":
    blas._scipy_file = lambda name: None
elif lookup == "failing_load":
    blas._scipy_file = lambda name: importlib.util.spec_from_loader(name, FailingLoader())
rng = np.random.default_rng(0)
a, b = rng.normal(size=(40, 3)), rng.normal(size=(7, 3))
spec = kernels.KernelSpec(0.9)
got = kernels.gram(spec, a, b)
kernels.SpdFactor(kernels.gram(spec, a), 1.0).solve(np.ones(40))
packages = "scipy.spatial" in sys.modules
lapack = [m for m in {LAPACK!r} if m in sys.modules]
pybind = blas.compiled("scipy.spatial._distance_pybind")
import scipy.linalg, scipy.spatial.distance
from scipy.spatial import _distance_pybind
want = spec.at(scipy.spatial.distance.cdist(a, b, "sqeuclidean"), 3)
print(repr((packages, lapack, _distance_pybind is pybind, got.tobytes() == want.tobytes())))
"""


@pytest.mark.parametrize("lookup", ["by_file", "no_file", "failing_load"])
def test_a_later_import_of_scipy_shares_the_loaded_modules(lookup):
    """After the library's loads, ``import scipy.linalg,
    scipy.spatial.distance`` finds the module it loaded, and cdist gives
    ``gram``'s bytes.  Where the file lookup finds nothing, or the file
    fails to load, the ordinary import gives the same module, and loads
    scipy's packages before any import of the caller's.  A factorization
    loads none of scipy's LAPACK modules, though scipy's packages may."""
    packages, lapack, same, cdist = ast.literal_eval(run_fresh(SHARED_MODULES, lookup)[-1])
    assert (packages, same, cdist) == (lookup != "by_file", True, True)
    if lookup == "by_file":
        assert lapack == []


@pytest.mark.parametrize("argv", [
    ["density", "model.npz", "--v", "0.1,0.2,0.3,0.4,0.5", "--out", "d.csv"],
    ["report", "sweep.csv"],
])
def test_commands_that_draw_nothing_load_no_openssl(argv, cli_inputs):
    """``_hashlib`` loads OpenSSL, about 3.6 MB of a process's memory; only
    numpy.random loads it, through ``secrets``, for the commands that draw."""
    script = ("import sys\nfrom ccme.cli import main\ncode = main(sys.argv[1:])\n"
              "print(repr((code, '_hashlib' in sys.modules)))\n")
    assert ast.literal_eval(run_fresh(script, *argv, cwd=cli_inputs)[-1]) == (0, False)


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
