"""Shared fixtures and helpers for the test suite."""

import ctypes
import importlib
import os
from contextlib import contextmanager

import numpy as np
import pytest

from ccme import blas
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


@pytest.fixture
def small_split():
    return make_split()


@pytest.fixture
def tiny_hyper():
    """Light training budgets so net-based fits stay fast in unit tests."""
    return Hyper(n_feats=4, hidden=[8], epochs_df1=300, epochs_df2=100,
                 epochs_nk1=500, epochs_nk2=100, lr_df=2e-4, lr_nk=4e-4)


# numpy's and scipy's OpenBLAS copies, looked up here apart from ccme.blas so
# that tests of the thread pin do not read counts through the code under test.
_OPENBLAS_PROBES = (
    ("numpy._core._multiarray_umath", "scipy_openblas_{}_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_{}_num_threads"),
)


def openblas_functions():
    """(get, set) pairs for each OpenBLAS copy found; empty if none is."""
    pairs = []
    noload = getattr(os, "RTLD_NOLOAD", None)
    for module, symbol in _OPENBLAS_PROBES:
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
    """Current thread count of each OpenBLAS copy found."""
    return [int(get()) for get, _ in openblas_functions()]


@contextmanager
def openblas_threads(n):
    """Every OpenBLAS copy on ``n`` threads inside the block; the old counts
    come back afterwards.  Skips the test where no OpenBLAS copy is found."""
    pairs = openblas_functions()
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
    """Every OpenBLAS copy on two threads for the test, so that a pin to one
    thread and its undoing both show."""
    with openblas_threads(2):
        yield


@pytest.fixture
def without_posix_calls(monkeypatch):
    """Hides os.RTLD_NOLOAD and os.sched_getaffinity, as on Windows and
    macOS, and makes ccme.blas look its OpenBLAS copies up again both now and
    after the test."""
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    blas._copies.cache_clear()
    yield
    blas._copies.cache_clear()
