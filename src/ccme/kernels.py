"""Gaussian kernels, Gram matrices, and regularized symmetric solves.

Everything downstream (the two-stage estimators, the density formulas, the
benchmark) is written against the three primitives in this module:
``kernel_eval`` for single pairs, ``gram`` for dense pairwise blocks, and
``SpdFactor`` for systems (K + ridge I) x = rhs.

The ridge argument is always the full quantity added to the diagonal; callers
decide how it relates to sample size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import InvalidArgumentError, NumericError

__all__ = ["KernelSpec", "kernel_eval", "gram", "SpdFactor"]

_FAMILIES = ("gaussian",)


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
        if not (self.bandwidth > 0):
            raise InvalidArgumentError(f"bandwidth must be > 0, got {self.bandwidth}")

    def norm_const(self, dim: int) -> float:
        """The normalization factor (sqrt(2 pi) sigma)^(-dim), or 1.0 if unnormalized."""
        if not self.normalized:
            return 1.0
        return float((np.sqrt(2.0 * np.pi) * self.bandwidth) ** (-dim))


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


def kernel_eval(spec: KernelSpec, u: object, v: object) -> float:
    """Evaluate the kernel at a single pair of points.

    ``u`` and ``v`` are scalars or 1-d arrays of equal dimension.  The value
    is computed through the same code path as ``gram`` so that single-pair
    evaluations match Gram entries to the last bit.
    """
    pu = np.asarray(u, dtype=np.float64).reshape(1, -1)
    pv = np.asarray(v, dtype=np.float64).reshape(1, -1)
    if pu.shape[1] != pv.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: {pu.shape[1]} vs {pv.shape[1]}")
    return float(gram(spec, pu, pv)[0, 0])


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
    sq = cdist(pa, pb, "sqeuclidean")
    K = np.exp(sq / (-2.0 * spec.bandwidth * spec.bandwidth))
    c = spec.norm_const(pa.shape[1])
    if c != 1.0:
        K *= c
    return K


_PIVOT_RE = re.compile(r"(\d+)-th leading minor")


def _cholesky(matrix: NDArray[np.float64], what: str):
    """Lower Cholesky factor of ``matrix``; a NumericError names the first
    failing pivot when the message carries it."""
    try:
        return cho_factor(matrix, lower=True)
    except np.linalg.LinAlgError as exc:  # scipy re-exports this type
        m = _PIVOT_RE.search(str(exc))
        pivot = int(m.group(1)) - 1 if m else None
        raise NumericError(f"factorization of {what} failed: {exc}",
                           pivot=pivot) from exc


class SpdFactor:
    """A cached Cholesky factorization of (K + ridge I).

    Holds both the regularized matrix and its factor so that callers can
    re-solve cheaply and tests can refactor-and-compare.  Instances are
    immutable after construction and thread-safe for solves.
    """

    def __init__(self, K: NDArray[np.float64], ridge: float) -> None:
        K = np.asarray(K, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise InvalidArgumentError(f"K must be square, got shape {K.shape}")
        if not (ridge > 0):
            raise InvalidArgumentError(f"ridge must be > 0, got {ridge}")
        self.matrix = K + ridge * np.eye(K.shape[0])
        self.ridge = float(ridge)
        self._factor = _cholesky(self.matrix, f"(K + {ridge} I)")

    @classmethod
    def from_regularized(cls, matrix: NDArray[np.float64], ridge: float) -> "SpdFactor":
        """Rebuild from an already-regularized matrix, as stored on disk."""
        obj = cls.__new__(cls)
        obj.matrix = np.asarray(matrix, dtype=np.float64)
        obj.ridge = float(ridge)
        obj._factor = _cholesky(obj.matrix, "stored matrix")
        return obj

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def solve(self, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solve (K + ridge I) x = rhs; rhs may be a vector or a matrix."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise InvalidArgumentError(
                f"rhs has {rhs.shape[0]} rows, expected {self.n}")
        return cho_solve(self._factor, rhs)

    def refactor_residual(self) -> float:
        """Max-norm mismatch between the stored factor and a fresh one."""
        fresh = cho_factor(self.matrix, lower=True)
        return float(np.max(np.abs(np.tril(fresh[0]) - np.tril(self._factor[0]))))

