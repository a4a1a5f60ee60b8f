"""Thread counts of the OpenBLAS copies that numpy and scipy load.

numpy and scipy wheels each bundle their own OpenBLAS, and each copy keeps
its own thread count.  The copies are found through the extension modules
that link them, the first time a count is read or set, and cached; with no
OpenBLAS loaded every call here does nothing.  A copy's count is global to
the process, so two Python threads setting it at once override each other.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["thread_counts", "set_threads", "single_thread"]

# Extension modules whose shared objects link numpy's and scipy's copies;
# numpy.linalg._umath_linalg has that name in numpy 1.x and 2.x alike.
_LINKERS = ("numpy.linalg._umath_linalg", "scipy.linalg._fblas")
_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _lookup(lib: ctypes.CDLL, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


@functools.cache
def _copies() -> tuple[tuple, ...]:
    """(get, set) function pairs, one per distinct loaded OpenBLAS copy."""
    noload = getattr(os, "RTLD_NOLOAD", None)  # absent on Windows
    if noload is None:
        return ()
    found: dict[int | None, tuple] = {}
    for name in _LINKERS:
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__,
                              mode=noload)
        except (ImportError, OSError):
            continue
        get, put = _lookup(lib, "get"), _lookup(lib, "set")
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        found.setdefault(ctypes.cast(get, ctypes.c_void_p).value, (get, put))
    return tuple(found.values())


def thread_counts() -> list[int]:
    """Current thread count of each loaded copy; empty without OpenBLAS."""
    return [int(get()) for get, _ in _copies()]


def set_threads(n: int) -> None:
    """Give every loaded copy ``n`` threads."""
    for _, put in _copies():
        put(int(n))


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block with every copy on one thread, then restore each copy's
    own count, also when the block raises."""
    before = thread_counts()
    set_threads(1)
    try:
        yield
    finally:
        for (_, put), n in zip(_copies(), before):
            put(n)
