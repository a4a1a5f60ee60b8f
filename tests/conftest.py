"""Shared fixtures and helpers for the test suite."""

import ctypes
import importlib
import os
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from ccme import blas, kernels
from ccme.data import Dataset, split_data
from ccme.estimators import Hyper


def make_dataset(n, seed=0, d_x=3, treat_prob=0.6):
    """A small random dataset with both treatment groups present."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, size=(n, d_x))
    A = (rng.uniform(size=n) < treat_prob).astype(np.float64)
    if A.sum() == 0:
        A[0] = 1.0
    if A.sum() == n:
        A[-1] = 0.0
    Y = X @ rng.normal(size=d_x) + 0.3 * rng.normal(size=n)
    return Dataset(X=X, A=A, Y=Y)


def make_split(n=24, seed=0, d_x=3, split_seed=1):
    return split_data(make_dataset(n, seed=seed, d_x=d_x), split_seed)


def packed_input(make):
    """The packed matrix that the ``SpdFactor`` ``make()`` builds factors: its
    RFP buffer, with dpftrf and its checks skipped."""
    with mock.patch.object(kernels, "_rfp_cholesky", lambda packed, n, what: packed):
        return make()._factor


@pytest.fixture
def small_split():
    return make_split()


@pytest.fixture
def tiny_hyper():
    """Light training budgets so net-based fits stay fast in unit tests."""
    return Hyper(n_feats=4, hidden=[8], epochs_df1=300, epochs_df2=100,
                 epochs_nk1=500, epochs_nk2=100, lr_df=2e-4, lr_nk=4e-4)


# numpy's OpenBLAS copy, the one the library calls and pins, looked up here
# apart from ccme.blas so that tests of the thread pin do not read counts
# through the code under test; and scipy's, which the library leaves alone.
NUMPY_OPENBLAS = ("numpy._core._multiarray_umath", "scipy_openblas_{}_num_threads64_")
SCIPY_OPENBLAS = ("scipy.linalg._fblas", "scipy_openblas_{}_num_threads")


def openblas_functions(probes=(NUMPY_OPENBLAS,)):
    """(get, set) pairs for each copy of ``probes`` found, numpy's by
    default; empty if none is."""
    pairs = []
    noload = getattr(os, "RTLD_NOLOAD", None)
    for module, symbol in probes:
        if noload is None:
            break
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__,
                              mode=noload)
        except (ImportError, OSError):
            continue
        get = getattr(lib, symbol.format("get"), None)
        put = getattr(lib, symbol.format("set"), None)
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        pairs.append((get, put))
    return pairs


def openblas_counts():
    """Current thread count of numpy's OpenBLAS copy, if found."""
    return [int(get()) for get, _ in openblas_functions()]


def traced_memory(fn):
    """(result, peak, held) of ``fn()``: tracemalloc's peak during the call
    and what is still held after it, in bytes beyond what was held before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base, held - base


@contextmanager
def openblas_threads(n, probes=(NUMPY_OPENBLAS,)):
    """The copies of ``probes`` found, numpy's by default, on ``n`` threads
    inside the block; the old counts come back afterwards.  Skips the test
    where none is found."""
    pairs = openblas_functions(probes)
    if not pairs:
        pytest.skip("no OpenBLAS copy found")
    before = [int(get()) for get, _ in pairs]
    for _, put in pairs:
        put(n)
    try:
        yield
    finally:
        for (_, put), count in zip(pairs, before):
            put(count)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS copy on two threads for the test, so that a pin to
    one thread and its undoing both show."""
    with openblas_threads(2):
        yield


@pytest.fixture
def without_posix_calls(monkeypatch):
    """Hides os.RTLD_NOLOAD and os.sched_getaffinity, as on Windows and
    macOS, and starts ccme.blas over with no copy found and its routines
    not yet bound, so that during the test it finds no copy and binds the
    routines from scipy's modules; numpy's routines and copy come back after
    the test."""
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(blas, "_copy", None)
    blas.lapack.cache_clear()
    yield
    blas.lapack.cache_clear()
