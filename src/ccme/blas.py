"""Native code: scipy's compiled modules, and the thread counts of the
OpenBLAS copies the library calls.

Of scipy only compiled modules load, each by ``compiled`` from its file and
without scipy's packages: ``scipy.linalg._flapack`` and ``_fblas`` through
``lapack`` at the first factorization, and cdist's kernel at the first Gram.
So importing the package loads no scipy.

numpy and scipy wheels each bundle their own OpenBLAS, and each copy keeps
its own thread count, global to the process.  A copy is taken in through an
extension module that links it: numpy's through
``numpy.linalg._umath_linalg`` when this module loads, scipy's through
``_fblas`` at the first call of ``lapack``, the library's one way to it, so
a scipy copy that other code loaded is left alone until then.  With no
OpenBLAS found every call here does nothing.

The library's policy: fits and density evaluations, whose products and
solves are small, run under ``single_thread``, and the large
factorizations inside them open a ``wide`` region, which runs on the
counts the pin replaced (the process's defaults, or a sweep worker's share
of the cores).  A copy taken in inside a pin is treated as if it had been
taken in before: it runs on one thread, on its own count in a ``wide``
region, and on that count again when the pin ends.  Its own count is the
one ``set_threads`` last gave, if any.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager

from numpy.linalg import _umath_linalg

__all__ = ["compiled", "lapack", "set_threads", "single_thread", "wide"]

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def compiled(name: str):
    """scipy's compiled module ``name``, loaded from its file without
    running scipy's ``__init__`` files and kept in ``sys.modules`` under its
    name, so that a later import of scipy shares it (``from scipy.linalg
    import _flapack`` finds it; the package gets no ``_flapack`` attribute).
    A module already loaded is returned as it is.  Where the file is not in
    scipy's directory (an editable install, say), or fails to load with an
    ImportError (a library that scipy's ``__init__`` would have put on the
    search path first, as on Windows), ``name`` is imported in the ordinary
    way."""
    if name in sys.modules:
        return sys.modules[name]
    spec = _scipy_file(name)
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)   # an extension loads here
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
        except BaseException as exc:
            sys.modules.pop(name, None)
            if not isinstance(exc, ImportError):
                raise
    return importlib.import_module(name)


def _scipy_file(name: str):
    """The spec of scipy's module ``name`` from the file in its package's
    directory, or None; finding the directory runs nothing of scipy."""
    top = importlib.util.find_spec("scipy")
    if top is None or not top.submodule_search_locations:
        return None
    package = name.split(".")[1:-1]
    return importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, *package) for root in top.submodule_search_locations])


@functools.cache
def lapack():
    """scipy's LAPACK and BLAS wrappers, the modules whose functions
    ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` hand out.  The first
    call takes in the OpenBLAS copy they link."""
    flapack, fblas = compiled("scipy.linalg._flapack"), compiled("scipy.linalg._fblas")
    _take(fblas)
    return flapack, fblas


def _lookup(lib: ctypes.CDLL, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


# The copies taken in: (get, set) keyed by the address of the get function.
_copies: dict[int | None, tuple] = {}
# The count ``set_threads`` last gave, which a copy taken in later gets too;
# None before any call.
_share: int | None = None
# (set, count) per copy, the counts the open ``single_thread`` replaced, or
# None outside a pin; and whether the copies run on one thread now (inside
# the pin and outside its ``wide`` regions).  Global to the process, as the
# counts are.
_saved: list[tuple] | None = None
_one = False


def _take(module) -> None:
    """Take in the OpenBLAS copy the loaded extension ``module`` links, if
    it is found and new: it gets the ``set_threads`` share, if any, as its
    own count, which the open pin will give back, and runs on one thread if
    the pin is in force."""
    noload = getattr(os, "RTLD_NOLOAD", None)  # absent on Windows
    if noload is None:
        return
    try:
        lib = ctypes.CDLL(module.__file__, mode=noload)
    except OSError:
        return
    get, put = _lookup(lib, "get"), _lookup(lib, "set")
    if get is None or put is None:
        return
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    key = ctypes.cast(get, ctypes.c_void_p).value
    if key in _copies:
        return
    _copies[key] = get, put
    if _share is not None:
        put(_share)
    if _saved is not None:
        _saved.append((put, int(get())))
    if _one:
        put(1)


def _put_all(n: int) -> None:
    for _, put in _copies.values():
        put(n)


def _put_saved() -> None:
    for put, count in _saved:
        put(count)


def set_threads(n: int) -> None:
    """Give every copy taken in ``n`` threads, and each copy taken in later
    ``n`` as its own count."""
    global _share
    _share = int(n)
    _put_all(_share)


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block with every copy on one thread, then restore each copy's
    own count, also when the block raises.  Inside another pin, its ``wide``
    regions included, it changes nothing."""
    global _saved, _one
    if _saved is not None:
        yield
        return
    _saved = [(put, int(get())) for get, put in _copies.values()]
    _put_all(1)
    _one = True
    try:
        yield
    finally:
        _one = False
        _put_saved()
        _saved = None


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
    _put_saved()
    try:
        yield
    finally:
        _put_all(1)
        _one = True


_take(_umath_linalg)
