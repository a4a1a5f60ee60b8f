"""Exact reference computations the library's fast paths are checked against.

These are the direct forms: single kernel values, the n x n pseudo-outcome
Gram, the trace loss on that Gram, the two-term bump-sum density, trapezoid
mass and the unconstrained grid-coefficient minimizer.  None of them is used
by the library itself.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ccme.kernels import gram


def kernel_eval(spec, u, v):
    """The kernel at a single pair of points (scalars or 1-d arrays), through
    the same code path as ``gram`` so values match Gram entries bit for bit."""
    pu = np.asarray(u, dtype=np.float64).reshape(1, -1)
    pv = np.asarray(v, dtype=np.float64).reshape(1, -1)
    return float(gram(spec, pu, pv)[0, 0])


def exact_k_xi(kernel_y, y1, a, c, e=None, y0=None):
    """Gram (n, n) of the pseudo-outcomes xi_i = a_i phi(y1_i) + c_i mu0_i,
    where mu0_i = sum_p e[p, i] phi(y0_p) is given by row coefficients e (m, n)
    over the outcomes y0."""
    y1 = np.atleast_2d(y1)
    k_xi = (a[:, None] * gram(kernel_y, y1)) * a[None, :]
    if c.any():
        cross = gram(kernel_y, y0, y1).T @ e         # <phi(y1_i), mu0_j>
        k_xi += (a[:, None] * cross) * c[None, :]
        k_xi += (c[:, None] * cross.T) * a[None, :]
        k_xi += (c[:, None] * (e.T @ (gram(kernel_y, y0) @ e))) * c[None, :]
    return (k_xi + k_xi.T) / 2.0


def exact_trace_loss(psi, g, ridge):
    """Trace loss and gradient on an explicit pseudo-outcome Gram g."""
    M = psi.shape[1]
    cf = cho_factor(psi.T @ psi + ridge * np.eye(M), lower=True)
    gp = g @ psi
    w = cho_solve(cf, psi.T)
    loss = float(np.trace(g)) - float(np.sum(gp * w.T))
    grad = -2.0 * cho_solve(cf, (gp - psi @ (w @ gp)).T).T
    return loss, grad


def exact_density(kernel_y, grid, y1, w1, y0=None, w0=None):
    """Two-term bump sum, shape (T, G): row weights w1 (n, T) over the
    outcomes y1 plus, when given, w0 (m, T) over y0."""
    grid = np.asarray(grid, dtype=np.float64).reshape(-1, 1)
    out = w1.T @ gram(kernel_y, y1, grid)
    if w0 is not None:
        out = out + w0.T @ gram(kernel_y, y0, grid)
    return out


def quadrature_mass(curve):
    """Trapezoid integral of a density curve over its grid."""
    return float(np.trapezoid(curve.values, np.asarray(curve.grid).ravel()))


def nk_minimizer(k_m, b):
    """Per-column unconstrained minimizer K_M^-1 b of the grid-coefficient loss."""
    return cho_solve(cho_factor(k_m, lower=True), b)


def feature_factor(g):
    """F with F F' = g, from the eigendecomposition (negative rounding clipped)."""
    vals, vecs = np.linalg.eigh(g)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))
