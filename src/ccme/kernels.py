"""Gaussian kernels, Gram matrices, regularized symmetric solves, and the
outcome basis.

Every kernel is a Gaussian; its role fixes the rest.  The input kernels on
covariates and conditioning variables are unnormalized, k(u, u) = 1, and the
outcome kernel is normalized, so each of its bumps is a density.

Everything downstream (the two-stage estimators, the density formulas, the
benchmark) is written against the primitives in this module: ``gram`` for
dense pairwise blocks, ``SpdFactor`` for systems (K + ridge I) x = rhs,
``GramInverse`` for a training run's small feature systems, and
``OutcomeBasis`` for finite coordinates of the outcome kernel's features.

An n x n regularized Gram is the largest thing a fit holds, so it is never
made whole: ``SpdFactor`` writes K + ridge I straight into rectangular full
packed storage, n(n+1)/2 entries, a block of columns at a time, and factors
it there.  One function, ``_packed``, writes that storage, from the blocks
of a Gram's kernel and points or of an array alike.  ``gram`` computes a
dense block's kernel over the squared distances, in their buffer.

The native routines come through ``blas`` alone: LAPACK and BLAS (dpftrf,
dpftrs, dpotrf, dpotri, dsymm) as ``blas.lapack`` binds them from numpy's
OpenBLAS, and cdist's "sqeuclidean" kernel from
``scipy.spatial._distance_pybind``.

The ridge argument is always the full quantity added to the diagonal; callers
decide how it relates to sample size.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import blas
from .errors import InvalidArgumentError, NumericError

__all__ = ["KernelSpec", "BANDWIDTHS", "gram", "SpdFactor", "GramInverse",
           "OutcomeBasis", "outcome_basis"]


# [lo, hi): where 2 bandwidth^2, ``KernelSpec.at``'s divisor, is a positive normal
# float; below lo it is subnormal or 0 (NaN Gram diagonals), from hi it overflows.
BANDWIDTHS = (1.0547686614863e-154, 9.480751908109177e+153)


@dataclass(frozen=True)
class KernelSpec:
    """A Gaussian kernel of bandwidth sigma, normalized or not.

    With ``normalized=False`` the kernel is exp(-||u-v||^2 / (2 sigma^2)), so
    k(u, u) = 1.  With ``normalized=True`` it is additionally scaled by
    (sqrt(2 pi) sigma)^(-d) and integrates to one over R^d, which is what
    density evaluation requires on the outcome space.
    """

    bandwidth: float = 2.0
    normalized: bool = False

    def __post_init__(self) -> None:
        if not BANDWIDTHS[0] <= self.bandwidth < BANDWIDTHS[1]:   # NaN neither
            raise InvalidArgumentError(
                "bandwidth must be finite and positive, with 2 bandwidth^2 a "
                f"normal float, got {self.bandwidth}")

    def norm_const(self, dim: int) -> float:
        """The normalization factor (sqrt(2 pi) sigma)^(-dim), or 1.0 if unnormalized."""
        if not self.normalized:
            return 1.0
        return float((np.sqrt(2.0 * np.pi) * self.bandwidth) ** (-dim))

    def at(self, sq: NDArray[np.float64], dim: int) -> NDArray[np.float64]:
        """Kernel values at squared distances ``sq`` between points of R^dim,
        computed in ``sq``'s buffer, which is returned: ``sq`` is consumed,
        so callers pass a fresh float64 array."""
        K = np.divide(sq, -2.0 * self.bandwidth * self.bandwidth, out=sq)
        np.exp(K, out=K)
        c = self.norm_const(dim)
        if c != 1.0:
            K *= c
        return K


def _as_points(arr: object, name: str) -> NDArray[np.float64]:
    """Coerce to an (n, d) point array; 1-d input is read as n points in R^1."""
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    elif pts.ndim != 2:
        raise InvalidArgumentError(f"{name} must be at most 2-dimensional")
    if pts.shape[0] == 0:
        raise InvalidArgumentError(f"{name} is empty")
    return pts


def gram(spec: KernelSpec, points_a: object,
         points_b: object | None = None) -> NDArray[np.float64]:
    """Dense kernel matrix with entry (i, j) = k(a_i, b_j).

    Omitting ``points_b`` gives the square Gram of ``points_a``.  Squared
    distances are accumulated coordinatewise (no dot-product rearrangement),
    which makes the square case exactly symmetric: entries (i, j) and (j, i)
    perform identical floating-point operations.  They come from the kernel
    scipy's ``cdist(a, b, "sqeuclidean")`` calls after its checks, so the
    bits are cdist's.
    """
    pa = _as_points(points_a, "points_a")
    pb = pa if points_b is None else _as_points(points_b, "points_b")
    if pa.shape[1] != pb.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    return _kernel(spec, pa, pb)


def _kernel(spec: KernelSpec, pa: NDArray[np.float64],
            pb: NDArray[np.float64]) -> NDArray[np.float64]:
    """``gram`` of checked point arrays: the kernel over cdist's squared
    distances, in their buffer."""
    sq = blas.compiled("scipy.spatial._distance_pybind").cdist_sqeuclidean(pa, pb)
    return spec.at(sq, pa.shape[1])


# The columns of a packed matrix written at once, whose temporaries are this
# many rows of at most n doubles: within 0.05 n^2 from order 1300 on.  At
# order 5000 on a 2-core x86-64 box, packing a Gram with widths from 16 to
# 256 all took 0.10-0.13 s, against 0.20-0.29 s for the full Gram.
PACK_COLUMNS = 64


def _packed(block, n: int, shift: float) -> NDArray[np.float64]:
    """A + shift I in rectangular full packed storage (RFP, transr 'N', uplo
    'L'), with the bits of LAPACK's dtrttf packing of the full matrix, for
    the exactly symmetric order-n A that ``block(rows, cols)`` gives as a new
    array A[rows, cols]; a 1-d array of n(n+1)/2 entries, written
    ``PACK_COLUMNS`` columns at a time, so no n x n array is made.

    With n = 2k + s, s = n mod 2 and n1 = k + s, the storage is a Fortran
    array of n1 columns of n + 1 - s entries.  Column j holds A[n1..k+j,
    k+j], the trailing block's upper triangle (nothing for j = 0 at odd n),
    then A[j.., j]; ``cols`` is its C-ordered transpose, a row per column.
    """
    k, s = divmod(n, 2)
    n1 = k + s
    buf = np.empty(n1 * (n + 1 - s))
    cols = buf.reshape(n1, n + 1 - s)
    for j0 in range(0, n1, PACK_COLUMNS):
        j1 = min(j0 + PACK_COLUMNS, n1)
        # the trailing part of columns j0..j1-1 on rows up to j1 - s; rows
        # past each column's own part are overwritten by its leading part
        cols[j0:j1, :j1 - s] = block(slice(k + j0, k + j1), slice(n1, n1 + j1 - s))
        lead = block(slice(j0, j1), slice(j0, n))          # A[j0.., j0..j1-1]'
        w = j1 - j0
        np.copyto(cols[j0:j1, j0 + 1 - s:j1 + 1 - s], lead[:, :w],
                  where=np.tri(w, dtype=bool).T)            # from A[j, j] on
        cols[j0:j1, j1 + 1 - s:] = lead[:, w:]
        del lead                                            # before the next block's
    diag = np.arange(n1) * (n + 2 - s) - s                  # A[k+j, k+j], then A[j, j]
    buf[diag[s:]] += shift
    buf[diag + 1] += shift
    return buf


def _check_pivot(info: int, what: str) -> None:
    """Raise NumericError naming the failing pivot a Cholesky's info reports."""
    if info > 0:
        raise NumericError(f"factorization of {what} failed: leading minor {info} "
                           "is not positive definite", pivot=info - 1)


def _rfp_cholesky(packed: NDArray[np.float64], n: int,
                  what: str) -> NDArray[np.float64]:
    """Lower Cholesky factor of the order-n matrix that ``packed`` holds in
    ``_packed``'s storage, by LAPACK's dpftrf in its buffer.  A NaN or
    inf entry or a failing pivot raises NumericError; the pivot is named."""
    # min and max pass a NaN on and reach any inf, where isfinite would
    # make a mask of n(n+1)/2 bytes
    if not (np.isfinite(packed.min()) and np.isfinite(packed.max())):
        raise NumericError(f"factorization of {what} failed: it holds NaN or inf")
    _check_pivot(blas.lapack().pftrf(n, packed)(), what)
    return packed


def _rfp_solve(factor: NDArray[np.float64], n: int, rhs: NDArray) -> NDArray[np.float64]:
    """Solve with an ``_rfp_cholesky`` factor by dpftrs; x has rhs's shape."""
    x = np.array(rhs, dtype=np.float64, order="F")
    if x.size:
        blas.lapack().pftrs(n, factor, x)()
    return x


class GramInverse:
    """S^-1 P for an M x M S, symmetric positive definite, and an M x r P,
    in buffers made once and bound to the LAPACK calls, as a training run
    needs it every epoch.  The caller writes S, exactly symmetric, into
    ``gram``, which ``factor`` factors by dpotrf, then P' into ``rhs``;
    ``solve`` inverts S by dpotri and writes S^-1 P into ``out`` by dsymm,
    9 us at M = 20, r = 63 against dpotrs's 17 us (2-core x86-64)."""

    def __init__(self, m: int, r: int) -> None:
        self.gram, self.rhs = np.empty((m, m)), np.empty((r, m))
        self.out = np.empty((m, r), order="F")
        routines = blas.lapack()
        self._potrf = routines.potrf(self.gram)
        self._potri = routines.potri(self.gram)
        self._symm = routines.symm(self.gram, self.rhs.T, self.out)

    def factor(self, what: str) -> None:
        """Factor ``gram``; a NaN or inf entry or a failing pivot raises NumericError."""
        if not np.isfinite(self.gram).all():
            raise NumericError(f"factorization of {what} failed: it holds NaN or inf")
        _check_pivot(self._potrf(), what)

    def solve(self) -> NDArray[np.float64]:
        """``out``, from the factor and ``rhs``."""
        self._potri()
        self._symm()
        return self.out


# The order from which SpdFactor factors and solves in a ``blas.wide``
# region.  Timed on a 2-core x86-64 box (numpy 2.4.6, scipy 1.17.1), factor
# plus a 70-column solve inside ``blas.single_thread``, one thread against
# two: order 2000 took 0.10-0.12 s against 0.06-0.08 s, but in 1 of 20 fresh
# processes the first two-thread call stalled for 0.8 s; order 3000 took
# 0.27-0.33 s against 0.15-0.21 s, and 5000 1.19 s against 0.66 s (medians
# of 5), gains that outweigh such a stall.
WIDE_ORDER = 3000


def _array_source(K) -> tuple:
    """(block, n) for ``_packed`` over a C-ordered float64 copy of the square K."""
    K = np.array(K, dtype=np.float64, order="C")
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] == 0:
        raise InvalidArgumentError(f"K must be square and non-empty, got shape {K.shape}")
    return (lambda rows, cols: K[rows, cols].copy()), len(K)


class SpdFactor:
    """A cached Cholesky factorization of (K + ridge I) in rectangular full
    packed storage (Gustavson, Wasniewski, Dongarra & Langou 2010, ACM TOMS
    37(2)): n(n+1)/2 entries, factored and solved by LAPACK's level-3
    dpftrf and dpftrs.  Immutable, and thread-safe for solves.  From order
    ``WIDE_ORDER`` on, factorization and solves run on the BLAS thread
    counts an enclosing ``blas.single_thread`` replaced.

    ``SpdFactor(K, ridge)`` takes K as a pair (kernel, points), for the Gram
    K(points) under that ``KernelSpec``, or as an array, which must be
    exactly symmetric, as ``gram`` and ``F.T @ F`` are.  Either is written
    by ``_packed``, ridge included, straight into the packed buffer, a block
    of columns at a time, so a Gram is never made whole.  The factor keeps
    the kernel and the points, or its own copy of the array; the caller's K
    is left as it was."""

    def __init__(self, K, ridge: float) -> None:
        if not (0 < ridge < np.inf):
            raise InvalidArgumentError(f"ridge must be finite and > 0, got {ridge}")
        if isinstance(K, tuple):
            kernel, points = K
            points = _as_points(points, "points")
            source = (lambda rows, cols: _kernel(kernel, points[rows], points[cols]),
                      len(points))
        else:
            source = _array_source(K)
        self._factor_packed(*source, ridge, ridge, f"(K + {ridge} I)")

    @classmethod
    def from_regularized(cls, matrix: NDArray[np.float64], ridge: float) -> "SpdFactor":
        """Factor a copy of an already-regularized symmetric matrix."""
        obj = cls.__new__(cls)
        obj._factor_packed(*_array_source(matrix), 0.0, ridge, "stored matrix")
        return obj

    def _factor_packed(self, block, n: int, shift: float, ridge: float,
                       what: str) -> None:
        """Pack the source's matrix plus ``shift`` I and factor it."""
        self._block, self._n, self._shift = block, n, shift
        self.ridge = float(ridge)
        packed = _packed(block, n, shift)
        with self._threads():
            self._factor = _rfp_cholesky(packed, n, what)

    def _threads(self):
        return blas.wide() if self._n >= WIDE_ORDER else nullcontext()

    @property
    def matrix(self) -> NDArray[np.float64]:
        """K + ridge I, a new array on each read, rebuilt from the source: a
        Gram from its kernel and points, an array from the factor's copy."""
        everything = slice(0, self._n)
        out = self._block(everything, everything)
        out.ravel()[::self._n + 1] += self._shift
        return out

    def solve(self, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solve (K + ridge I) x = rhs for a vector rhs or a matrix of n
        rows; x has rhs's shape."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self._n:
            raise InvalidArgumentError(
                f"rhs must be a vector or a matrix of {self._n} rows, got shape "
                f"{rhs.shape}")
        if not np.isfinite(rhs).all():
            raise NumericError("right-hand side holds NaN or inf")
        with self._threads():
            return _rfp_solve(self._factor, self._n, rhs)


# Outcome basis: grid step and padding in outcome bandwidths, and the
# smallest eigenvalue of its Gram kept, relative to the largest.
BASIS_STEP = 0.375
BASIS_PAD = 3.0
BASIS_CUTOFF = 1e-12


@dataclass
class OutcomeBasis:
    """Finite weights for outcome embeddings over a grid z; an embedding with
    weights w evaluates to w'u(y), with u(y) from ``coords``.

    With ``proj`` = L^-1/2 V' from the eigenpairs (L, V) of K(z), the weights
    are whitened Nystrom coordinates (Williams & Seeger 2001): a bump at y
    has weights u(y) = proj k(z, y).  With ``root`` R, R R' = K(z), z holds
    outcomes and the bump at z_l has weights e_l on the sections k(z_l, .).
    With neither, u(y) = k(z, y) and targets are inner products with it.
    """

    grid: NDArray[np.float64]                 # (k, 1)
    proj: NDArray[np.float64] | None = None   # (r, k)
    root: NDArray[np.float64] | None = None   # (k, r)

    @property
    def size(self) -> int:
        """r, the number of weights."""
        return int((self.grid if self.proj is None else self.proj).shape[0])

    def coords(self, sections: NDArray[np.float64]) -> NDArray[np.float64]:
        """u at the outcomes whose kernel sections k(z, y) are the columns
        of ``sections``; shape (r, G)."""
        return sections if self.proj is None else self.proj @ sections

    def bumps(self, kernel: KernelSpec, y: NDArray[np.float64]) -> NDArray[np.float64]:
        """Targets for the bumps at the outcomes y, shape (r, n)."""
        y = np.asarray(y, dtype=np.float64).ravel()
        if self.root is None:
            return self.coords(gram(kernel, self.grid, y))
        out = (self.grid == y).astype(np.float64)
        if not out.any(axis=0).all():
            raise InvalidArgumentError("outcomes missing from the basis grid")
        return out

    def embed(self, kernel: KernelSpec,
              weights: NDArray[np.float64]) -> NDArray[np.float64]:
        """Targets for the embeddings whose weights are the columns of
        ``weights``: the weights themselves, or K(z) w with neither form."""
        plain = self.proj is None and self.root is None
        return gram(kernel, self.grid) @ weights if plain else weights

    def whiten(self, xi: NDArray[np.float64]) -> NDArray[np.float64]:
        """Rows of weights as coordinates with the kernel's inner product."""
        return xi if self.root is None else xi @ self.root


def outcome_basis(kernel: KernelSpec, y: NDArray[np.float64]) -> OutcomeBasis:
    """A basis for the bumps at ``y`` with no more weights than ``y`` has
    distinct values: whitened over the points of a uniform grid, at a step
    of BASIS_STEP bandwidths, within BASIS_PAD bandwidths (and a step) of
    some outcome or, where those would outnumber the outcomes, sections at
    the outcomes themselves.  K(z) is numerically singular, so eigenvalues
    below BASIS_CUTOFF times the largest are dropped rather than inverted."""
    ys = np.unique(np.asarray(y, dtype=np.float64))
    step, pad = BASIS_STEP * kernel.bandwidth, BASIS_PAD * kernel.bandwidth
    # grid index j sits at ys[0] - pad + j step; the outcome ys[0] + t
    # claims the indices from floor(t / step) to ceil((t + 2 pad) / step),
    # which overflow to inf where t does
    with np.errstate(over="ignore"):
        first = np.floor((ys - ys[0]) / step)[:, None]
        last = np.ceil((ys - ys[0] + 2.0 * pad) / step)[:, None]
    idx = np.unique(np.minimum(first + np.arange(2.0 * BASIS_PAD / BASIS_STEP + 3), last))
    if len(idx) > len(ys) or not np.isfinite(idx[-1]):
        vals, vecs = np.linalg.eigh(gram(kernel, ys))
        keep = vals > BASIS_CUTOFF * vals[-1]
        return OutcomeBasis(ys.reshape(-1, 1), root=vecs[:, keep] * np.sqrt(vals[keep]))
    # a uniform grid's Gram depends on index differences only
    vals, vecs = np.linalg.eigh(kernel.at((step * (idx[:, None] - idx)) ** 2, 1))
    keep = vals > BASIS_CUTOFF * vals[-1]
    return OutcomeBasis((ys[0] - pad + step * idx).reshape(-1, 1),
                        (vecs[:, keep] / np.sqrt(vals[keep])).T)
