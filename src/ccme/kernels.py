"""Gaussian kernels, Gram matrices, regularized symmetric solves, and the
outcome basis.

Everything downstream (the two-stage estimators, the density formulas, the
benchmark) is written against the primitives in this module: ``gram`` for
dense pairwise blocks, ``SpdFactor`` for systems (K + ridge I) x = rhs, and
``OutcomeBasis`` for finite coordinates of the outcome kernel's features.

An n x n Gram is the largest array a fit makes, so each is one buffer for
its whole life: ``gram`` computes the kernel over the squared distances, and
``SpdFactor`` adds its ridge to the diagonal and factors in place.

The ridge argument is always the full quantity added to the diagonal; callers
decide how it relates to sample size.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import dsymm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.spatial.distance import cdist

from . import blas
from .errors import InvalidArgumentError, NumericError

__all__ = ["KernelSpec", "usable_bandwidth", "gram", "SpdFactor", "OutcomeBasis",
           "outcome_basis"]

_FAMILIES = ("gaussian",)


def usable_bandwidth(bandwidth: float) -> bool:
    """Whether ``bandwidth`` is finite and positive and 2 bandwidth^2, the
    divisor in ``KernelSpec.at``, is a positive normal float: below about
    1e-154 it is subnormal or 0 (a NaN Gram diagonal), and above about 1e154
    it overflows (a constant Gram)."""
    if not bandwidth > 0:              # NaN too
        return False
    two_var = 2.0 * float(bandwidth) * float(bandwidth)
    return np.finfo(np.float64).tiny <= two_var < np.inf


@dataclass(frozen=True)
class KernelSpec:
    """A translation-invariant kernel: family, bandwidth, normalization flag.

    With ``normalized=False`` the kernel is exp(-||u-v||^2 / (2 sigma^2)), so
    k(u, u) = 1.  With ``normalized=True`` it is additionally scaled by
    (sqrt(2 pi) sigma)^(-d) and integrates to one over R^d, which is what
    density evaluation requires on the outcome space.
    """

    family: str = "gaussian"
    bandwidth: float = 2.0
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidArgumentError(f"unknown kernel family: {self.family!r}")
        if not usable_bandwidth(self.bandwidth):
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
    perform identical floating-point operations.
    """
    pa = _as_points(points_a, "points_a")
    pb = pa if points_b is None else _as_points(points_b, "points_b")
    if pa.shape[1] != pb.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    return spec.at(cdist(pa, pb, "sqeuclidean"), pa.shape[1])


def _cholesky(matrix: NDArray[np.float64], what: str) -> NDArray[np.float64]:
    """Lower Cholesky factor of the exactly symmetric C-ordered ``matrix`` by
    LAPACK's dpotrf, in its buffer: ``matrix.T`` is the same matrix in
    Fortran order, so nothing is copied.  The result is that buffer in
    Fortran order; its strict upper triangle keeps the input, as cho_factor
    leaves it.  A NaN or inf entry or a failing pivot raises NumericError;
    the pivot is named."""
    if not np.isfinite(matrix).all():
        raise NumericError(f"factorization of {what} failed: it holds NaN or inf")
    factor, info = dpotrf(matrix.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NumericError(f"factorization of {what} failed: leading minor {info} "
                           "is not positive definite", pivot=info - 1)
    return factor


def _cho_solve(factor: NDArray[np.float64], rhs: NDArray) -> NDArray[np.float64]:
    """Solve with a ``_cholesky`` factor: cho_solve's dpotrs, minus its scans."""
    return dpotrs(factor, rhs, lower=1)[0]


def _cho_inverse_apply(factor: NDArray[np.float64], rhs: NDArray) -> NDArray[np.float64]:
    """S^-1 rhs from a ``_cholesky`` factor of S, which it overwrites, by
    dpotri and dsymm; a Fortran-ordered ``rhs`` is not copied.  At order 20
    with 63 right-hand sides this took 9 us against ``_cho_solve``'s 17 us
    (2-core x86-64, one thread): dpotrs's triangular solves are slow there."""
    return dsymm(1.0, dpotri(factor, lower=1, overwrite_c=1)[0], rhs, lower=1)


# The order from which SpdFactor factors and solves in a ``blas.wide``
# region.  Timed on a 2-core x86-64 box (numpy 2.4.6, scipy 1.17.1), factor
# plus a 70-column solve inside ``blas.single_thread``, one thread against
# two: order 2000 took 0.10-0.12 s against 0.06-0.08 s, but in 1 of 20 fresh
# processes the first two-thread call stalled for 0.8 s; order 3000 took
# 0.27-0.33 s against 0.15-0.21 s, and 5000 1.19 s against 0.66 s (medians
# of 5), gains that outweigh such a stall.
WIDE_ORDER = 3000


class SpdFactor:
    """A cached Cholesky factorization of (K + ridge I); immutable, and
    thread-safe for solves.  From order ``WIDE_ORDER`` on, factorization and
    solves run on the BLAS thread counts an enclosing ``blas.single_thread``
    replaced.

    ``SpdFactor(K, ridge)`` takes ``K`` over.  K must be exactly symmetric,
    as ``gram`` and ``F.T @ F`` are; only its upper triangle is read.  A
    writable C-ordered float64 K is overwritten: the ridge is added to its
    diagonal and the factor computed in its buffer, so the caller must not
    read it again.  Only the factor and the regularized diagonal are kept."""

    def __init__(self, K: NDArray[np.float64], ridge: float) -> None:
        K = np.require(K, np.float64, ["C", "W"])
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise InvalidArgumentError(f"K must be square, got shape {K.shape}")
        if not (0 < ridge < np.inf):
            raise InvalidArgumentError(f"ridge must be finite and > 0, got {ridge}")
        K.ravel()[::K.shape[0] + 1] += ridge
        self._factor_in_place(K, ridge, f"(K + {ridge} I)")

    @classmethod
    def from_regularized(cls, matrix: NDArray[np.float64], ridge: float) -> "SpdFactor":
        """Factor a copy of an already-regularized symmetric matrix."""
        obj = cls.__new__(cls)
        obj._factor_in_place(np.array(matrix, dtype=np.float64, order="C"), ridge,
                             "stored matrix")
        return obj

    def _factor_in_place(self, matrix: NDArray[np.float64], ridge: float,
                         what: str) -> None:
        self.ridge = float(ridge)
        self._diag = matrix.diagonal().copy()
        with self._threads():
            self._factor = _cholesky(matrix, what)

    def _threads(self):
        return blas.wide() if len(self._diag) >= WIDE_ORDER else nullcontext()

    @property
    def matrix(self) -> NDArray[np.float64]:
        """K + ridge I, rebuilt on each read from the entries the factor left
        untouched and the saved diagonal; a new array."""
        # the factor's strict upper triangle holds the input; by symmetry
        # the transpose supplies the strict lower one
        out = np.where(np.tri(len(self._diag), dtype=bool), self._factor.T, self._factor)
        np.fill_diagonal(out, self._diag)
        return out

    def solve(self, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solve (K + ridge I) x = rhs; rhs may be a vector or a matrix."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != len(self._diag):
            raise InvalidArgumentError(
                f"rhs has {rhs.shape[0]} rows, expected {len(self._diag)}")
        if not np.isfinite(rhs).all():
            raise NumericError("right-hand side holds NaN or inf")
        with self._threads():
            return _cho_solve(self._factor, rhs)


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
    # claims the indices from floor(t / step) to ceil((t + 2 pad) / step)
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
