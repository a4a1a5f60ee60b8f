"""Thread counts of the OpenBLAS copies that numpy and scipy load.

numpy and scipy wheels each bundle their own OpenBLAS, and each copy keeps
its own thread count.  The copies are found through the extension modules
that link them, the first time a count is read or set, and cached; with no
OpenBLAS loaded every call here does nothing.  A copy's count is global to
the process, so two Python threads setting it at once override each other.

The library's policy: fits and density evaluations, whose products and
solves are small, run under ``single_thread``, and the large
factorizations inside them open a ``wide`` region, which runs on the
counts the pin replaced (the process's defaults, or a sweep worker's share
of the cores).
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["thread_counts", "set_threads", "single_thread", "wide"]

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


def _put_counts(counts: list[int]) -> None:
    for (_, put), n in zip(_copies(), counts):
        put(n)


# The counts the outermost open ``single_thread`` replaced; None outside one
# and inside a ``wide`` region.  Global to the process, as the counts are.
_saved: list[int] | None = None


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block with every copy on one thread, then restore each copy's
    own count, also when the block raises.  Inside another pin it changes
    nothing, so a ``wide`` region anywhere in the block still finds the
    counts the outermost pin replaced."""
    global _saved
    if _saved is not None:
        yield
        return
    before = thread_counts()
    set_threads(1)
    _saved = before
    try:
        yield
    finally:
        _saved = None
        _put_counts(before)


@contextmanager
def wide() -> Iterator[None]:
    """Inside ``single_thread``, run the block on the counts the pin
    replaced, and go back to one thread after it, also when it raises;
    elsewhere, change nothing."""
    global _saved
    saved = _saved
    if saved is None:
        yield
        return
    _saved = None
    _put_counts(saved)
    try:
        yield
    finally:
        set_threads(1)
        _saved = saved
