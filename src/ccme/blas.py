"""Native code: the LAPACK and BLAS routines the library calls, scipy's
compiled modules, and the thread count of the OpenBLAS copy they run on.

``lapack`` binds the five routines (dpftrf, dpftrs, dpotrf, dpotri, dsymm)
through ctypes, by their ILP64 symbols, from the OpenBLAS in numpy's
wheels that ``numpy.linalg._umath_linalg`` links, so a process maps one
OpenBLAS.  Where those symbols cannot be reached (no ``os.RTLD_NOLOAD``, as
on Windows, or a numpy on another BLAS, as macOS's Accelerate wheels are)
the five come from ``scipy.linalg._flapack`` and ``_fblas`` behind the same
calls, and their copy keeps its own thread count.  Of scipy only compiled
modules load, by ``compiled``: cdist's kernel at the first Gram, and the
LAPACK modules only where numpy's routines cannot be bound.

The library's policy: fits and density evaluations, whose products and
solves are small, run numpy's copy under ``single_thread``, and the large
factorizations inside them open a ``wide`` region, which runs on the count
the pin replaced (the process's default, or a sweep worker's share of the
cores).  With no OpenBLAS found every thread call here does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from contextlib import contextmanager

from numpy.linalg import _umath_linalg

__all__ = ["compiled", "lapack", "set_threads", "single_thread", "wide"]


def compiled(name: str):
    """scipy's compiled module ``name``, loaded from its file without
    running scipy's ``__init__`` files and kept in ``sys.modules`` under its
    name, so that a later import of scipy shares it (its package gets no
    such attribute).  A module already loaded is returned as it is.  Where
    the file is not in scipy's directory (an editable install, say), or
    fails to load with an ImportError (as on Windows, where scipy's
    ``__init__`` puts its libraries on the search path), ``name`` is
    imported in the ordinary way."""
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


# The routines as binders: each takes the contiguous float64 arrays a call
# works on, makes every argument, and returns a function of no arguments that
# runs the routine in those arrays (pftrf's and potrf's return LAPACK's info),
# so a loop binds once.  A symmetric ``a`` is C-ordered and used as the lower
# triangle of its transpose; RFP storage, which ``kernels`` writes, has
# transr 'N', uplo 'L'.  ``pftrf(n, arf)`` and ``potrf(a)`` factor;
# ``pftrs(n, arf, x)`` solves for the Fortran-ordered ``x``, a vector or n
# rows; ``potri(a)`` inverts a factor; ``symm(a, b, c)`` writes a b into
# ``c``, ``b`` and ``c`` Fortran-ordered.
Routines = namedtuple("Routines", "pftrf pftrs potrf potri symm")

_Dbl = ctypes.POINTER(ctypes.c_double)
_Buf = ctypes.c_char * 1     # from_buffer(array) passes its first byte's address
_N, _L = ctypes.c_char_p(b"N"), ctypes.c_char_p(b"L")
_LEN = ctypes.c_size_t(1)    # the hidden length of a Fortran flag
_ONE, _ZERO = _Dbl(ctypes.c_double(1.0)), _Dbl(ctypes.c_double(0.0))
_INFO = object()             # where a routine's info goes


def _symbol(lib: ctypes.CDLL | None, names: list[str]):
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


def _numpy_routines(lib: ctypes.CDLL | None) -> Routines | None:
    """The routines from the ILP64 OpenBLAS that ``lib`` links, or None if
    one is missing or ``lib`` is.  Each argument is made as an instance of
    its C type, so a call converts nothing: declared argument types cost
    about 0.1 us an argument on every call, 1.4 us on a 20 x 64 dsymm."""
    fn = {name: _symbol(lib, [f"scipy_{name}_64_", f"{name}_64_"])
          for name in ("dpftrf", "dpftrs", "dpotrf", "dpotri", "dsymm")}
    if None in fn.values():
        return None
    buf = _Buf.from_buffer

    def bind(name: str, *args):
        f, info = fn[name], ctypes.c_int64()
        f.restype = None
        args = [ctypes.byref(info) if a is _INFO
                else ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int) else a
                for a in args]

        def run() -> int:
            f(*args)
            return info.value
        return run

    return Routines(
        lambda n, arf: bind("dpftrf", _N, _L, n, buf(arf), _INFO, _LEN, _LEN),
        lambda n, arf, x: bind("dpftrs", _N, _L, n, x.size // n, buf(arf), buf(x.T), n,
                               _INFO, _LEN, _LEN),
        lambda a: bind("dpotrf", _L, len(a), buf(a), len(a), _INFO, _LEN),
        lambda a: bind("dpotri", _L, len(a), buf(a), len(a), _INFO, _LEN),
        lambda a, b, c: bind("dsymm", _L, _L, len(b), b.shape[1], _ONE, buf(a), len(b),
                             buf(b.T), len(b), _ZERO, buf(c.T), len(b), _LEN, _LEN))


def _scipy_routines() -> Routines:
    """The routines from scipy's LAPACK and BLAS modules, which work in the
    contiguous arrays they are given where overwriting is allowed."""
    flapack, fblas = compiled("scipy.linalg._flapack"), compiled("scipy.linalg._fblas")
    return Routines(
        lambda n, arf: lambda: flapack.dpftrf(n, arf, transr="N", uplo="L", overwrite_a=1)[1],
        lambda n, arf, x: lambda: flapack.dpftrs(n, arf, x, transr="N", uplo="L",
                                                 overwrite_b=1),
        lambda a: lambda: flapack.dpotrf(a.T, lower=1, clean=0, overwrite_a=1)[1],
        lambda a: lambda: flapack.dpotri(a.T, lower=1, overwrite_c=1),
        lambda a, b, c: lambda: fblas.dsymm(1.0, a.T, b, c=c, lower=1, overwrite_c=1))


def _numpy_library() -> ctypes.CDLL | None:
    """numpy's loaded ``_umath_linalg``, with the libraries it links, or None."""
    noload = getattr(os, "RTLD_NOLOAD", None)  # absent on Windows
    if noload is None:
        return None
    try:
        return ctypes.CDLL(_umath_linalg.__file__, mode=noload)
    except OSError:
        return None


@functools.cache
def lapack() -> Routines:
    """The library's LAPACK and BLAS routines: numpy's OpenBLAS's where
    their symbols are found, else scipy's, whose modules load here."""
    return _numpy_routines(_numpy_library()) or _scipy_routines()


def _thread_functions(lib: ctypes.CDLL | None) -> tuple | None:
    """(get, set) of the thread count of the OpenBLAS that ``lib`` links,
    or None."""
    get, put = (_symbol(lib, [f"{prefix}{verb}_num_threads{suffix}"
                              for prefix in ("scipy_openblas_", "openblas_")
                              for suffix in ("64_", "")]) for verb in ("get", "set"))
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# numpy's copy's (get, set), or None where it is not found.
_copy = _thread_functions(_numpy_library())
# The count the open ``single_thread`` replaced, or None outside a pin; and
# whether the copy runs on one thread now (inside the pin and outside its
# ``wide`` regions).  Global to the process, as the count is.
_saved: int | None = None
_one = False


def set_threads(n: int) -> None:
    """Give numpy's copy ``n`` threads."""
    if _copy is not None:
        _copy[1](int(n))


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block with numpy's copy on one thread, then restore its
    count, also when the block raises.  Inside another pin, its ``wide``
    regions included, it changes nothing."""
    global _saved, _one
    if _saved is not None or _copy is None:
        yield
        return
    _saved = int(_copy[0]())
    _copy[1](1)
    _one = True
    try:
        yield
    finally:
        _one = False
        _copy[1](_saved)
        _saved = None


@contextmanager
def wide() -> Iterator[None]:
    """Inside ``single_thread``, run the block on the count the pin
    replaced, and go back to one thread after it, also when it raises;
    elsewhere, change nothing."""
    global _one
    if not _one:
        yield
        return
    _one = False
    _copy[1](_saved)
    try:
        yield
    finally:
        _copy[1](1)
        _one = True
