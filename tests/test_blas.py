"""The library's BLAS thread policy: fits and density evaluations on one
thread, factorizations from ``kernels.WIDE_ORDER`` on the counts the pin
replaced."""

import ast
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccme import blas, density, estimators, kernels, synthbench
from ccme.density import density_curves, density_mass, density_matrix, default_grid
from ccme.data import compute_omega, split_data
from ccme.errors import NumericError
from ccme.estimators import Hyper, fit_ccme, fit_first_stage, fit_second_stage
from ccme.kernels import SpdFactor
from ccme.propensity import fit_propensity
from ccme.synthbench import SweepCell, run_sweep

from conftest import (_OPENBLAS_PROBES, make_split, openblas_counts, openblas_functions,
                      openblas_threads)


def ones():
    return [1] * len(openblas_counts())


def twos():
    return [2] * len(openblas_counts())


def spy_on(monkeypatch, owner, name):
    """Replace ``owner.name`` by a pass-through that records the OpenBLAS
    thread counts at each call; returns the list of records."""
    real, seen = getattr(owner, name), []

    def spy(*args, **kwargs):
        seen.append(openblas_counts())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


@pytest.mark.usefixtures("two_blas_threads")
class TestPinAndWide:
    def test_nested_pin_changes_nothing(self):
        with blas.single_thread():
            with blas.single_thread():
                assert openblas_counts() == ones()
                with blas.wide():
                    assert openblas_counts() == twos()
                assert openblas_counts() == ones()
            assert openblas_counts() == ones()
        assert openblas_counts() == twos()

    def test_wide_outside_a_pin_changes_nothing(self):
        with blas.wide():
            assert openblas_counts() == twos()
            with blas.single_thread():
                assert openblas_counts() == ones()
        assert openblas_counts() == twos()

    def test_a_pin_inside_wide_changes_nothing(self):
        with blas.single_thread(), blas.wide():
            with blas.single_thread():
                assert openblas_counts() == twos()
            assert openblas_counts() == twos()

    def test_wide_goes_back_to_one_thread_when_it_raises(self):
        with blas.single_thread():
            with pytest.raises(RuntimeError), blas.wide():
                raise RuntimeError("in the wide region")
            assert openblas_counts() == ones()
        assert openblas_counts() == twos()


@pytest.mark.usefixtures("two_blas_threads")
class TestSpdFactorThreads:
    @pytest.fixture
    def spies(self, monkeypatch):
        monkeypatch.setattr(kernels, "WIDE_ORDER", 4)
        return (spy_on(monkeypatch, kernels, "_rfp_cholesky"),
                spy_on(monkeypatch, kernels, "_rfp_solve"))

    @staticmethod
    def factor_and_solve(order):
        pts = np.arange(order, dtype=np.float64)
        fac = SpdFactor(kernels.gram(kernels.KernelSpec(), pts), 1.0)
        return fac.solve(np.ones(order))

    def test_from_the_order_on_it_runs_on_the_saved_counts(self, spies):
        with blas.single_thread():
            self.factor_and_solve(4)
            assert openblas_counts() == ones()
            self.factor_and_solve(3)
        assert spies == ([twos(), ones()], [twos(), ones()])
        assert openblas_counts() == twos()

    def test_unpinned_it_keeps_the_counts(self, spies):
        self.factor_and_solve(4)
        self.factor_and_solve(3)
        assert spies == ([twos(), twos()], [twos(), twos()])

    def test_same_solution_either_side_of_the_order(self, monkeypatch):
        rng = np.random.default_rng(2)
        pts, rhs = rng.normal(size=(40, 2)), rng.normal(size=(40, 3))
        got = []
        for order in (40, 41):
            monkeypatch.setattr(kernels, "WIDE_ORDER", order)
            with blas.single_thread():
                fac = SpdFactor(kernels.gram(kernels.KernelSpec(), pts), 0.5)
                got.append(fac.solve(rhs))
        assert np.allclose(got[0], got[1], rtol=1e-12, atol=1e-12)


@pytest.mark.usefixtures("two_blas_threads")
class TestFitAndDensityThreads:
    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("head", ["KernelHead", "FeatureHead", "GridHead"])
    def test_heads_fit_on_one_thread(self, head, tiny_hyper, monkeypatch):
        seen = spy_on(monkeypatch, getattr(estimators, head), "fit")
        method = getattr(estimators, head).method
        fit_ccme(make_split(n=24, seed=3), replace(tiny_hyper, method=method,
                                                   propensity="logistic"))
        assert seen == [ones(), ones()]          # stage one, then stage two
        assert openblas_counts() == twos()

    def test_a_diverging_fit_restores_the_counts(self):
        data = synthbench.generate(Hyper(n=200, seed=3))[0]
        hyper = Hyper(method="df", propensity="logistic", lr_df=1e3,
                      epochs_df1=200, epochs_df2=50)
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            fit_ccme(split_data(data, 1), hyper)
        assert openblas_counts() == twos()

    def test_large_factors_run_wide_inside_a_fit(self, tiny_hyper, monkeypatch):
        monkeypatch.setattr(kernels, "WIDE_ORDER", 5)
        seen = spy_on(monkeypatch, kernels, "_rfp_cholesky")
        split = make_split(n=24, seed=3)
        fit_ccme(split, replace(tiny_hyper, propensity="logistic"))
        want = [twos() if len(rows) >= 5 else ones()
                for rows in (split.x0_treated(), split.v1)]
        assert seen == want
        assert openblas_counts() == twos()

    @pytest.mark.parametrize("method", ["rr", "df"])
    def test_stages_run_one_at_a_time_give_the_fits_bits(self, method, tiny_hyper):
        """README's stage-by-stage path pins each stage as ``fit_ccme`` pins
        the whole fit; unpinned, rr's stage-two ``coef`` differed in the
        last bits at 400 rows on two threads."""
        split = split_data(synthbench.generate(Hyper(n=400, seed=5))[0], 1)
        hyper = replace(tiny_hyper, method=method)
        pi_hat = fit_propensity("logistic", split.d0.X, split.d0.A, 0)
        whole = fit_ccme(split, hyper, pi_hat=pi_hat)
        first = fit_first_stage(split, method, hyper)
        omega = compute_omega(split.d1, pi_hat, hyper.clip())
        staged = fit_second_stage(split, method, hyper.variant, first, omega, hyper)
        assert ({k: v.tobytes() for k, v in staged.second.to_arrays().items()}
                == {k: v.tobytes() for k, v in whole.second.to_arrays().items()})
        assert openblas_counts() == twos()

    def test_density_functions_evaluate_on_one_thread(self, tiny_hyper,
                                                      monkeypatch):
        split = make_split(n=24, seed=3)
        model = fit_ccme(split, replace(tiny_hyper, propensity="logistic"))
        vq, grid = split.v1[:3], default_grid(model, 20)
        heads = spy_on(monkeypatch, model.second, "embedding")
        grams = spy_on(monkeypatch, density, "gram")
        density_matrix(model, vq, grid)
        density_mass(model, vq)
        density_curves(model, vq, grid)
        assert heads == [ones()] * 3
        assert grams == [ones()] * 2
        assert openblas_counts() == twos()


@pytest.mark.usefixtures("two_blas_threads")
def test_sweep_workers_factor_on_their_core_share(monkeypatch):
    """With four usable cores, each of two workers gets two BLAS threads;
    the parent runs three, so only the share can give two."""
    monkeypatch.setattr(synthbench, "_usable_cores", lambda: 4)
    monkeypatch.setattr(kernels, "WIDE_ORDER", 1)
    seen = spy_on(monkeypatch, kernels, "_rfp_cholesky")
    real_cell = synthbench.run_cell

    def cell_reporting_counts(*args, **kwargs):
        record = real_cell(*args, **kwargs)
        assert record.error == ""
        return replace(record, error=repr(seen))

    monkeypatch.setattr(synthbench, "run_cell", cell_reporting_counts)
    monkeypatch.setattr(blas, "_share", None)
    blas.set_threads(3)
    records = run_sweep([SweepCell("rr", "dr", "a", 20, s) for s in (1, 2)],
                        test_points=5, grid_points=20, threads=2)
    assert openblas_counts() == [3] * len(openblas_counts())
    for record in records:
        counts = ast.literal_eval(record.error)
        assert counts and all(c == twos() for c in counts)


def test_a_large_rr_fit_agrees_across_thread_counts():
    """Stage two's factor is of order ``kernels.WIDE_ORDER`` and runs on the
    counts the pin replaced, here one and two threads, where OpenBLAS's
    Cholesky gives other last bits.  The fits agree within 1e-12 of the
    largest entry, in ``coef`` and in the densities; measured, they differed
    by 9e-17 and 3e-15.  About 1 s of tier-1 on a 2-core x86-64 box, and 2 s
    when the box is busy."""
    split = split_data(synthbench.generate(Hyper(n=6000, seed=0))[0], 1)
    assert len(split.d1) >= kernels.WIDE_ORDER
    got = []
    for threads in (1, 2):
        with openblas_threads(threads):
            model = fit_ccme(split, Hyper(propensity="logistic"))
            got.append((model.second.coef,
                        density_matrix(model, split.v1[:5], default_grid(model, 50))))
    for one, two in zip(*got):
        assert np.abs(one - two).max() <= 1e-12 * np.abs(one).max()


# The preamble of each script below: ``counts()`` reads the thread count of
# numpy's and of scipy's copy, None for one not loaded, and loads nothing;
# ``spy_after(owner, name)`` records the counts as each call returns, which
# for ``kernels._rfp_cholesky`` are those it factored on; ``own`` is the
# count a fresh copy starts on.
FRESH_PREAMBLE = f"""
import ctypes, os, sys
import numpy as np

def probe(module, verb):
    if module not in sys.modules:
        return None
    lib = ctypes.CDLL(sys.modules[module].__file__, mode=os.RTLD_NOLOAD)
    return getattr(lib, symbol[module].format(verb))

symbol = dict({_OPENBLAS_PROBES!r})

def counts():
    return [None if probe(m, "get") is None else int(probe(m, "get")())
            for m in symbol]

def spy_after(owner, name, seen):
    real = getattr(owner, name)
    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(counts())
        return out
    setattr(owner, name, spy)

from ccme import blas, kernels, synthbench
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
own = counts()[0]
probe(next(iter(symbol)), "set")(3)
"""


def run_fresh(script: str) -> dict:
    """Run the preamble and ``script`` in a fresh interpreter, whose copies
    start on two threads but numpy's, which the preamble gives three, and
    return the dict the script prints last."""
    if len(openblas_functions()) < 2 or not hasattr(os, "RTLD_NOLOAD"):
        pytest.skip("needs numpy's and scipy's OpenBLAS copies, found by RTLD_NOLOAD")
    src = str(Path(blas.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH_PREAMBLE + textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    if out.pop("own") != 2:
        pytest.skip("a fresh copy starts on fewer than two threads here")
    return out


def test_a_copy_loaded_elsewhere_is_left_alone_until_the_first_factor():
    """The caller loads scipy's copy and sets its count; the library sets it
    only once it calls LAPACK, and then as one it had taken in before."""
    got = run_fresh("""
        import scipy.linalg
        probe("scipy.linalg._fblas", "set")(3)
        seen = []
        spy_after(kernels, "_rfp_cholesky", seen)
        with blas.single_thread():
            kernels.gram(kernels.KernelSpec(), np.arange(5.0))
            unfactored = counts()
        between = counts()
        with blas.single_thread():
            kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(5.0)), 1.0)
        print(dict(unfactored=unfactored, between=between, seen=seen, after=counts(),
                   own=own))
    """)
    assert got == {"unfactored": [1, 3], "between": [3, 3], "seen": [[1, 1]],
                   "after": [3, 3]}


class TestCopiesLoadedLater:
    """scipy's copy loads at the first factorization, after the package and
    possibly inside a pin: it is pinned as if loaded before, gets its own
    count in a ``wide`` region and back when the pin ends.  pytest's process
    has scipy loaded, so each case runs in a fresh interpreter."""

    def test_first_factor_inside_a_pin(self):
        got = run_fresh("""
            seen = []
            spy_after(kernels, "_rfp_cholesky", seen)
            with blas.single_thread():
                kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(5.0)), 1.0)
                inside = counts()
            print(dict(seen=seen, inside=inside, after=counts(), own=own))
        """)
        assert got == {"seen": [[1, 1]], "inside": [1, 1], "after": [3, 2]}

    def test_first_factor_inside_wide(self):
        got = run_fresh("""
            seen = []
            spy_after(kernels, "_rfp_cholesky", seen)
            kernels.WIDE_ORDER = 5
            with blas.single_thread():
                kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(5.0)), 1.0)
                inside = counts()
                kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(4.0)), 1.0)
            print(dict(seen=seen, inside=inside, after=counts(), own=own))
        """)
        assert got == {"seen": [[3, 2], [1, 1]], "inside": [1, 1], "after": [3, 2]}

    def test_sweep_workers_started_without_scipy_factor_on_their_share(self):
        """Two workers on eight usable cores get four threads each; a fresh
        copy starts on two and the parent runs numpy's on three, so only the
        share gives four, and scipy's copy loads in the workers alone."""
        got = run_fresh("""
            from dataclasses import replace
            seen = []
            spy_after(kernels, "_rfp_cholesky", seen)
            kernels.WIDE_ORDER = 1
            synthbench._usable_cores = lambda: 8
            real_cell = synthbench.run_cell

            def cell_reporting_counts(*args, **kwargs):
                record = real_cell(*args, **kwargs)
                return replace(record, error=record.error or repr(seen))

            synthbench.run_cell = cell_reporting_counts
            records = synthbench.run_sweep(
                [synthbench.SweepCell("rr", "dr", "a", 20, s) for s in (1, 2)],
                test_points=5, grid_points=20, threads=2)
            print(dict(cells=[r.error for r in records], parent=counts(), own=own))
        """)
        assert got["parent"] == [3, None]
        for error in got["cells"]:
            seen = ast.literal_eval(error)
            assert seen and all(c == [4, 4] for c in seen)
