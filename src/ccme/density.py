"""Conditional density curves read off a fitted embedding model.

The fitted embedding at a query point v is the stage-two head's weights w(v)
over its outcome basis.  The outcome kernel is normalized, so it is a
(possibly signed) density, and one formula serves every backend:

    density(v, y) = w(v)' u(y)

with u the basis coordinates.  The mass is the head's own linear map of v,
fitted alongside w (for the grid head, the weight total).  All entry points
are batched over query points, and evaluate under ``blas.single_thread``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .blas import single_thread
from .errors import InvalidArgumentError
from .estimators import CcmeModel, make_grid
from .kernels import gram

__all__ = ["density_matrix", "density_mass", "density_curves", "default_grid",
           "curves_to_csv"]


def _as_queries(model: CcmeModel, v: NDArray[np.float64]) -> NDArray[np.float64]:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(1, -1)
    d_v = model.second.in_dim
    if v.shape[1] != d_v:
        raise InvalidArgumentError(
            f"query points have {v.shape[1]} coordinates, model expects {d_v}")
    if not np.isfinite(v).all():
        raise InvalidArgumentError("query points hold NaN or inf values")
    return v


def _as_grid(y_grid: NDArray[np.float64], d_y: int) -> NDArray[np.float64]:
    y = np.asarray(y_grid, dtype=np.float64)
    y = y.reshape(-1, 1) if y.ndim == 1 else y
    if y.shape[1] != d_y:
        raise InvalidArgumentError(
            f"outcome grid has {y.shape[1]} coordinates, model outcomes have {d_y}")
    if not np.isfinite(y).all():
        raise InvalidArgumentError("outcome grid holds NaN or inf values")
    return y


def density_matrix(model: CcmeModel, v: NDArray[np.float64],
                   y_grid: NDArray[np.float64]) -> NDArray[np.float64]:
    """Density estimates for every (query, grid value) pair, shape (T, G):
    ``density_curves``' values."""
    return density_curves(model, v, y_grid)[0]


def density_mass(model: CcmeModel, v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Analytic integral of each query's density estimate, from the head's own
    mass map (exact, unlike integrating the basis coordinates' tails)."""
    vq = _as_queries(model, v)
    with single_thread():
        return model.second.embedding(vq)[1]


def default_grid(model: CcmeModel, n_points: int = 200,
                 pad: float = 2.0) -> NDArray[np.float64]:
    """Uniform outcome grid over the training outcome range with padding."""
    return make_grid(np.array([model.y_lo, model.y_hi]), n_points, pad).ravel()


def density_curves(model: CcmeModel, v: NDArray[np.float64], y_grid: NDArray[np.float64]
                   ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The (T, G) density matrix on a shared outcome grid, never clipped, and
    the (T,) analytic masses."""
    vq = _as_queries(model, v)
    basis = model.second.basis
    with single_thread():
        weights, masses = model.second.embedding(vq)
        u = basis.coords(gram(model.kernel_y, basis.grid,
                              _as_grid(y_grid, basis.grid.shape[1])))
        return weights.T @ u, masses


def curves_to_csv(y_grid: NDArray[np.float64], values: NDArray[np.float64],
                  first: int = 0) -> str:
    """Long-format CSV with the mandatory v_id,y,density header; v_id counts
    the rows of ``values`` from ``first``.  A block of query rows is a piece
    of the whole file: only the block at ``first`` = 0 carries the header,
    so the blocks of a matrix, joined in order, are its CSV byte for byte."""
    grid = np.asarray(y_grid, dtype=np.float64).ravel()
    # one query's lines, with the grid formatted once: joined by the v_id,
    # the pieces take the query's densities in their %.17g slots
    pieces = ["", *(f",{y:.17g},%.17g\n" for y in grid)]
    return ("v_id,y,density\n" if first == 0 else "") + "".join([
        str(vid).join(pieces) % tuple(dens) for vid, dens in
        enumerate(np.asarray(values, dtype=np.float64).tolist(), first)])
