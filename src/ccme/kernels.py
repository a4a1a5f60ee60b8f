"""Gaussian kernels, Gram matrices, regularized symmetric solves, and the
outcome basis.

Everything downstream (the two-stage estimators, the density formulas, the
benchmark) is written against the primitives in this module: ``gram`` for
dense pairwise blocks, ``SpdFactor`` for systems (K + ridge I) x = rhs, and
``OutcomeBasis`` for finite coordinates of the outcome kernel's features.

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

__all__ = ["KernelSpec", "gram", "SpdFactor", "OutcomeBasis", "outcome_basis"]

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

    def at(self, sq: NDArray[np.float64], dim: int) -> NDArray[np.float64]:
        """Kernel values at squared distances ``sq`` between points of R^dim."""
        K = np.exp(sq / (-2.0 * self.bandwidth * self.bandwidth))
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
    """A cached Cholesky factorization of (K + ridge I), kept with the
    regularized matrix; immutable, and thread-safe for solves."""

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
        """Factor an already-regularized matrix."""
        obj = cls.__new__(cls)
        obj.matrix = np.asarray(matrix, dtype=np.float64)
        obj.ridge = float(ridge)
        obj._factor = _cholesky(obj.matrix, "stored matrix")
        return obj

    def solve(self, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solve (K + ridge I) x = rhs; rhs may be a vector or a matrix."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != len(self.matrix):
            raise InvalidArgumentError(
                f"rhs has {rhs.shape[0]} rows, expected {len(self.matrix)}")
        return cho_solve(self._factor, rhs)


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
