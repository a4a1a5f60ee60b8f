"""Thread counts of the OpenBLAS copies that numpy and scipy load.

numpy and scipy wheels each bundle their own OpenBLAS, and each copy keeps
its own thread count.  A copy is found through an extension module that
links it, once that module has loaded; nothing here imports one.  scipy's
copy loads with ``scipy.linalg._flapack`` and ``_fblas`` at the library's
first factorization (``kernels._linalg``), and not with the cdist module its
Grams load, so the lookup is made again whenever another linking module has
loaded.
With no OpenBLAS loaded every call here does nothing.  A copy's count is
global to the process, so two Python threads setting it at once override
each other.

The library's policy: fits and density evaluations, whose products and
solves are small, run under ``single_thread``, and the large
factorizations inside them open a ``wide`` region, which runs on the
counts the pin replaced (the process's defaults, or a sweep worker's share
of the cores).  A copy that loads inside a pin is taken in as if it had
loaded before it: it runs on one thread, on its own count in a ``wide``
region, and on that count again when the pin ends.  Its own count is the
one ``set_threads`` last gave, if any.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["set_threads", "single_thread", "wide", "refresh"]

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
def _find(linkers: tuple[str, ...]) -> tuple[tuple, ...]:
    """(key, get, set) per distinct OpenBLAS copy the loaded modules
    ``linkers`` link, keyed by the address of its get function."""
    noload = getattr(os, "RTLD_NOLOAD", None)  # absent on Windows
    if noload is None:
        return ()
    found: dict[int | None, tuple] = {}
    for name in linkers:
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path, mode=noload)
        except OSError:
            continue
        get, put = _lookup(lib, "get"), _lookup(lib, "set")
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        key = ctypes.cast(get, ctypes.c_void_p).value
        found.setdefault(key, (key, get, put))
    return tuple(found.values())


# The count ``set_threads`` last gave, which a copy loaded later gets too;
# None before any call.
_share: int | None = None
# The counts each open ``single_thread`` replaced, keyed by copy, outermost
# first, and whether the copies run on one thread now (inside a pin and
# outside its ``wide`` regions).  Global to the process, as the counts are.
_replaced: list[dict[int, int]] = []
_one = False
# The copies ``_copies`` has seen, by key.
_taken: set[int] = set()


def _copies() -> tuple[tuple, ...]:
    """(key, get, set) per loaded copy; a copy seen for the first time takes
    the ``set_threads`` share, if any, as its own count, which every open pin
    will give back, and runs on one thread if a pin is in force."""
    found = _find(tuple(name for name in _LINKERS if name in sys.modules))
    for key, get, put in found:
        if key in _taken:
            continue
        _taken.add(key)
        if _share is not None:
            put(_share)
        own = int(get())
        for counts in _replaced:
            counts[key] = own
        if _one:
            put(1)
    return found


def refresh() -> None:
    """Take in the copies loaded since the last call into this module; the
    library calls it right after each scipy module it loads."""
    _copies()


def _put_all(n: int) -> None:
    for _, _, put in _copies():
        put(n)


def set_threads(n: int) -> None:
    """Give every loaded copy ``n`` threads, and each copy that loads later
    ``n`` as its own count."""
    global _share
    _share = int(n)
    _put_all(_share)


def _put_counts(counts: dict[int, int]) -> None:
    for key, _, put in _copies():
        if key in counts:
            put(counts[key])


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block with every copy on one thread, then restore each copy's
    own count, also when the block raises.  Inside another pin it changes
    nothing, so a ``wide`` region anywhere in the block still finds the
    counts the outermost pin replaced."""
    global _one
    if _one:
        yield
        return
    before = {key: int(get()) for key, get, _ in _copies()}
    _replaced.append(before)
    _put_all(1)
    _one = True
    try:
        yield
    finally:
        _one = False
        _replaced.pop()
        _put_counts(before)


@contextmanager
def wide() -> Iterator[None]:
    """Inside ``single_thread``, run the block on the counts the pin
    replaced, and go back to one thread after it, also when it raises;
    elsewhere, change nothing."""
    global _one
    if not _one:
        yield
        return
    _one = False
    _put_counts(_replaced[-1])
    try:
        yield
    finally:
        _put_all(1)
        _one = True
