"""The library's LAPACK and BLAS routines, bound from numpy's OpenBLAS, and
its thread policy: fits and density evaluations on one thread,
factorizations from ``kernels.WIDE_ORDER`` on the count the pin replaced."""

import ast
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas as scipy_blas
from scipy.linalg import lapack as scipy_lapack

from ccme import blas, density, estimators, kernels, synthbench
from ccme.density import density_curves, density_mass, density_matrix, default_grid
from ccme.data import compute_omega, split_data
from ccme.errors import NumericError
from ccme.estimators import Hyper, fit_ccme, fit_first_stage, fit_second_stage
from ccme.kernels import GramInverse, SpdFactor
from ccme.propensity import fit_propensity
from ccme.synthbench import SweepCell, run_sweep

from conftest import (NUMPY_OPENBLAS, SCIPY_OPENBLAS, make_split, openblas_counts,
                      openblas_functions, openblas_threads, packed_input)


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


# How far a factor, inverse, product or solution from numpy's OpenBLAS may
# be from scipy's, relative to the largest entry.  Measured: 9.6e-15 for
# dpftrs at order 2,500 on one thread, 3.1e-15 at order 5,000 on two, and at
# most 1.5e-15 for the others.  Packing only moves entries; the library's
# packer gives scipy's dtrttf's bits.
ROUTINE_RTOL = 1e-13


def close(got, want):
    return np.abs(got - want).max() <= ROUTINE_RTOL * np.abs(want).max()


def spd(order):
    """K + I for the Gram of ``order`` points in R^3, exactly symmetric and
    C-ordered, as the library's matrices are."""
    points = np.random.default_rng(order).normal(size=(order, 3))
    return kernels.gram(kernels.KernelSpec(), points) + np.eye(order)


@pytest.fixture
def numpy_routines():
    """The routines bound from numpy's OpenBLAS; skips where they are not."""
    if blas._numpy_routines(blas._numpy_library()) is None:
        pytest.skip("numpy's LAPACK symbols are not reachable here")
    return blas.lapack()


class TestRoutines:
    """Each routine bound from numpy's OpenBLAS against scipy.linalg.lapack's
    or .blas's, both copies on one thread, and at order 5,000 on two."""

    @pytest.fixture(autouse=True)
    def one_thread(self):
        with openblas_threads(1, (NUMPY_OPENBLAS, SCIPY_OPENBLAS)):
            yield

    @staticmethod
    def packed_factor_and_solve(routines, order, rhs):
        """(packed, factor, solution) from numpy's routines and from scipy's.
        The library's packer packs ``spd(order)`` from the array, against
        scipy's dtrttf, or, at orders where that is too large to hold twice,
        from its points alone."""
        if order > 2500:
            points = np.random.default_rng(order).normal(size=(order, 3))
            arf = want_arf = packed_input(
                lambda: SpdFactor((kernels.KernelSpec(), points), 1.0))
        else:
            a = spd(order)
            arf = packed_input(lambda: SpdFactor.from_regularized(a, 1.0))
            want_arf = scipy_lapack.dtrttf(a.T, transr="N", uplo="L")[0]
        factor = arf.copy()
        assert routines.pftrf(order, factor)() == 0
        x = np.array(rhs, order="F")
        routines.pftrs(order, factor, x)()
        want_factor, info = scipy_lapack.dpftrf(order, want_arf, transr="N", uplo="L")
        assert info == 0
        want_x = scipy_lapack.dpftrs(order, want_factor, rhs, transr="N", uplo="L")[0]
        return (arf, factor, x), (want_arf, want_factor, want_x)

    @pytest.mark.parametrize("order", [20, 200, 1318, 2500])
    def test_packing_factor_and_solve_in_rfp(self, order, numpy_routines):
        rhs = np.random.default_rng(1).normal(size=(order, 3))
        got, want = self.packed_factor_and_solve(numpy_routines, order, rhs)
        assert got[0].tobytes() == want[0].tobytes()
        assert close(got[1], want[1]) and close(got[2], want[2])

    @pytest.mark.parametrize("order", [20, 200, 1318, 2500])
    def test_dense_factor_inverse_and_product(self, order, numpy_routines):
        a, b = spd(order), np.asfortranarray(np.random.default_rng(2).normal(size=(order, 5)))
        c = a.copy()
        assert numpy_routines.potrf(c)() == 0
        want_c, info = scipy_lapack.dpotrf(a.T, lower=1, clean=0)
        assert info == 0 and close(np.tril(c.T), np.tril(want_c))
        numpy_routines.potri(c)()
        want_c = scipy_lapack.dpotri(want_c, lower=1)[0]
        assert close(np.tril(c.T), np.tril(want_c))
        y = np.empty(b.shape, order="F")
        numpy_routines.symm(c, b, y)()
        assert close(y, scipy_blas.dsymm(1.0, c.T, b, lower=1))

    def test_order_5000_in_a_wide_region(self, numpy_routines):
        """Inside a pin's ``wide`` region numpy's copy runs on the count the
        pin replaced, two threads, as scipy's copy does here."""
        rhs = np.random.default_rng(3).normal(size=(5000, 69))
        with openblas_threads(2, (NUMPY_OPENBLAS, SCIPY_OPENBLAS)), blas.single_thread():
            with blas.wide():
                assert openblas_counts() == [2]
                got, want = self.packed_factor_and_solve(numpy_routines, 5000, rhs)
        assert close(got[1], want[1]) and close(got[2], want[2])


@pytest.fixture(params=["numpy", "scipy"])
def routines_from(request):
    """Each source of the routines in turn: numpy's OpenBLAS, and scipy's
    modules as ``without_posix_calls`` forces them."""
    if request.param == "scipy":
        request.getfixturevalue("without_posix_calls")
        assert blas._numpy_library() is None
    return request.param


class TestNumericErrors:
    """Both sources of the routines report NaN input and a failing pivot
    alike, for RFP and dense factors."""

    def test_nan_input(self, routines_from):
        with pytest.raises(NumericError, match=r"^factorization of \(K \+ 1.0 I\) "
                           "failed: it holds NaN or inf$"):
            SpdFactor(np.diag([1.0, np.nan, 1.0]), 1.0)
        inverse = GramInverse(3, 2)
        inverse.gram[...] = np.diag([1.0, np.nan, 1.0])
        with pytest.raises(NumericError, match="^factorization of S failed: it holds "
                           "NaN or inf$"):
            inverse.factor("S")

    def test_not_positive_definite(self, routines_from):
        with pytest.raises(NumericError, match="leading minor 2 is not positive "
                           "definite") as rfp:
            SpdFactor(np.diag([1.0, -3.0, 1.0]), 1.0)
        inverse = GramInverse(3, 2)
        inverse.gram[...] = np.diag([1.0, -3.0, 1.0])
        with pytest.raises(NumericError, match="^factorization of S failed: leading "
                           "minor 2 is not positive definite$") as dense:
            inverse.factor("S")
        assert rfp.value.pivot == dense.value.pivot == 1


@pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
@pytest.mark.parametrize("method", ["rr", "df"])
def test_fits_run_on_routines_from_scipy(method, tiny_hyper, request):
    """With the routines from scipy's modules, as where numpy's cannot be
    bound, rr and df fits run and agree with numpy's within 1e-12 of each
    array's largest entry; measured, they were bit for bit the same."""
    split = make_split(n=60, seed=3)
    hyper = replace(tiny_hyper, method=method, propensity="logistic")
    default = fit_ccme(split, hyper).second.to_arrays()
    request.getfixturevalue("without_posix_calls")
    assert blas._numpy_library() is None
    fallback = fit_ccme(split, hyper).second.to_arrays()
    assert default.keys() == fallback.keys()
    for key, want in default.items():
        if want.dtype.kind == "f":
            assert np.abs(fallback[key] - want).max() <= 1e-12 * np.abs(want).max(), key
        else:
            assert np.array_equal(fallback[key], want), key


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
# ``lapack()`` says which of scipy's LAPACK modules are loaded;
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

symbol = dict({[NUMPY_OPENBLAS, SCIPY_OPENBLAS]!r})

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

def lapack():
    return sorted(m for m in sys.modules if m in ("scipy.linalg._flapack", "scipy.linalg._fblas"))

from ccme import blas, kernels, synthbench
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
own = counts()[0]
probe(next(iter(symbol)), "set")(3)
"""


def run_fresh(script: str) -> dict:
    """Run the preamble and ``script`` in a fresh interpreter, whose copies
    start on two threads but numpy's, which the preamble gives three, and
    return the dict the script prints last."""
    if not openblas_functions() or not hasattr(os, "RTLD_NOLOAD"):
        pytest.skip("needs numpy's OpenBLAS copy, found by RTLD_NOLOAD")
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


def test_a_copy_loaded_elsewhere_is_left_alone():
    """The caller loads scipy's copy and sets its count; the library pins,
    factors on and restores numpy's copy alone, and loads no LAPACK module
    of scipy's beyond the caller's."""
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
    assert got == {"unfactored": [1, 3], "between": [3, 3], "seen": [[1, 3]],
                   "after": [3, 3]}


class TestCopiesLoadedLater:
    """A fresh process's first factorization, after the package and
    possibly inside a pin, runs on numpy's copy: on one thread in the pin,
    on the count the pin replaced in a ``wide`` region, and loads neither
    scipy's LAPACK modules nor its OpenBLAS.  pytest's process has scipy
    loaded, so each case runs in a fresh interpreter."""

    def test_first_factor_inside_a_pin(self):
        got = run_fresh("""
            seen = []
            spy_after(kernels, "_rfp_cholesky", seen)
            with blas.single_thread():
                kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(5.0)), 1.0)
                inside = counts()
            print(dict(seen=seen, inside=inside, after=counts(), lapack=lapack(), own=own))
        """)
        assert got == {"seen": [[1, None]], "inside": [1, None], "after": [3, None],
                       "lapack": []}

    def test_first_factor_inside_wide(self):
        got = run_fresh("""
            seen = []
            spy_after(kernels, "_rfp_cholesky", seen)
            kernels.WIDE_ORDER = 5
            with blas.single_thread():
                kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(5.0)), 1.0)
                inside = counts()
                kernels.SpdFactor(kernels.gram(kernels.KernelSpec(), np.arange(4.0)), 1.0)
            print(dict(seen=seen, inside=inside, after=counts(), lapack=lapack(), own=own))
        """)
        assert got == {"seen": [[3, None], [1, None]], "inside": [1, None],
                       "after": [3, None], "lapack": []}

    def test_sweep_workers_started_without_scipy_factor_on_their_share(self):
        """Two workers on eight usable cores get four threads each; a fresh
        copy starts on two and the parent runs numpy's on three, so only the
        share gives four, and no process loads scipy's copy."""
        got = run_fresh("""
            from dataclasses import replace
            seen = []
            spy_after(kernels, "_rfp_cholesky", seen)
            kernels.WIDE_ORDER = 1
            synthbench._usable_cores = lambda: 8
            real_cell = synthbench.run_cell

            def cell_reporting_counts(*args, **kwargs):
                record = real_cell(*args, **kwargs)
                return replace(record, error=record.error or repr((seen, lapack())))

            synthbench.run_cell = cell_reporting_counts
            records = synthbench.run_sweep(
                [synthbench.SweepCell("rr", "dr", "a", 20, s) for s in (1, 2)],
                test_points=5, grid_points=20, threads=2)
            print(dict(cells=[r.error for r in records], parent=counts(), own=own))
        """)
        assert got["parent"] == [3, None]
        for error in got["cells"]:
            seen, loaded = ast.literal_eval(error)
            assert seen and all(c == [4, None] for c in seen)
            assert loaded == []
