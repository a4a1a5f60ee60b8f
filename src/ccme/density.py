"""Conditional density curves read off a fitted embedding model.

The fitted embedding at a query point v is the stage-two head's weights w(v)
over its outcome basis.  With a normalized outcome kernel it is a (possibly
signed) density, and one formula serves every backend:

    density(v, y) = w(v)' u(y)

with u the basis coordinates.  The mass is the head's own linear map of v,
fitted alongside w (for the grid head, the weight total).  All entry points
are batched over query points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError
from .estimators import CcmeModel
from .kernels import gram

__all__ = ["DensityCurve", "density_matrix", "density_mass", "density_curves",
           "default_grid", "curves_to_csv"]


@dataclass
class DensityCurve:
    """One conditional density estimate on a fixed outcome grid.

    ``mass`` is the analytic integral (the sum of fitted kernel weights);
    ``min_value`` flags how negative the curve gets.  Values are reported
    as-is, never clipped.
    """

    grid: NDArray[np.float64]       # (G,)
    values: NDArray[np.float64]     # (G,)
    mass: float
    min_value: float


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
    """Density estimates for every (query, grid value) pair, shape (T, G)."""
    vq, basis = _as_queries(model, v), model.second.basis
    u = basis.coords(gram(model.kernel_y, basis.grid,
                          _as_grid(y_grid, basis.grid.shape[1])))
    return model.second.embedding(vq)[0].T @ u


def density_mass(model: CcmeModel, v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Analytic integral of each query's density estimate, from the head's own
    mass map (exact, unlike integrating the basis coordinates' tails).

    Only meaningful when the outcome kernel is normalized so each bump
    integrates to one.
    """
    if not model.kernel_y.normalized:
        raise InvalidArgumentError(
            "density mass needs a normalized outcome kernel")
    return model.second.embedding(_as_queries(model, v))[1]


def default_grid(model: CcmeModel, n_points: int = 200,
                 pad: float = 2.0) -> NDArray[np.float64]:
    """Uniform outcome grid over the training outcome range with padding."""
    if n_points < 2:
        raise InvalidArgumentError("need at least two grid points")
    return np.linspace(model.y_lo - pad, model.y_hi + pad, n_points)


def density_curves(model: CcmeModel, v: NDArray[np.float64],
                   y_grid: NDArray[np.float64]) -> list[DensityCurve]:
    """One DensityCurve per query row, on a shared outcome grid."""
    vq = _as_queries(model, v)
    mat = density_matrix(model, vq, y_grid)
    if model.kernel_y.normalized:
        masses = density_mass(model, vq)
    else:
        masses = np.full(vq.shape[0], np.nan)
    return [DensityCurve(np.asarray(y_grid, dtype=np.float64), mat[t],
                         float(masses[t]), float(mat[t].min()))
            for t in range(vq.shape[0])]


def curves_to_csv(curves: list[DensityCurve]) -> str:
    """Long-format CSV with the mandatory v_id,y,density header; v_id counts
    the curves from 0."""
    lines = ["v_id,y,density"]
    for vid, curve in enumerate(curves):
        for y, dens in zip(np.asarray(curve.grid, dtype=np.float64).ravel(),
                           curve.values):
            lines.append(f"{vid},{y:.17g},{dens:.17g}")
    return "\n".join(lines) + "\n"
