"""The outcome basis against the exact n x n forms it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccme.errors import InvalidArgumentError
from ccme.estimators import Hyper, build_k_xi, df_trace_loss, pseudo_weights
from ccme.kernels import KernelSpec, OutcomeBasis, gram, outcome_basis

from oracles import exact_density, exact_k_xi, exact_trace_loss

KY = Hyper().kernel_y()             # the benchmark's outcome kernel

# Largest error of each quantity against its exact form, relative to its
# scale.  Over 1000 examples (200 on a grid, 800 on sections at the outcomes)
# the worst were 2.0e-12 (Gram), 2.6e-13 (loss), 2.8e-14 (gradient) and
# 1.6e-13 (density).
GRAM_TOL = 1e-11
LOSS_TOL = GRAD_TOL = DENSITY_TOL = 5e-12


def coords(basis, y):
    """The bumps' weights over the basis, one row per outcome."""
    return basis.bumps(KY, y).T


@st.composite
def problems(draw):
    """Outcomes y1 and y0 over the benchmark's outcome range, DR/IPW/PI
    weights, row coefficients E of mu0 over y0, features and a ridge."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 20))
    lo = draw(st.floats(-10.0, 30.0))
    width = draw(st.floats(0.0, 45.0))
    rng = np.random.default_rng(seed)
    y1 = rng.uniform(lo, lo + width, n)
    y0 = rng.uniform(lo, lo + width, m)
    omega = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.7)
    omega[0] = rng.uniform(0.5, 5.0)               # some pseudo-outcome is nonzero
    a, c = pseudo_weights(draw(st.sampled_from(["dr", "ipw", "pi"])), omega)
    e = rng.normal(0.0, 0.3, (m, n))
    psi = rng.normal(0.0, 1.0, (n, draw(st.integers(1, 8))))
    ridge = draw(st.floats(0.05, 50.0))
    return y1, y0, a, c, e, psi, ridge, rng


def scale(a, c, e):
    """A bound on every pseudo-outcome's RKHS norm squared."""
    return float((np.abs(a).max() + np.abs(c).max() * np.abs(e).sum(0).max()) ** 2
                 * KY.norm_const(1))


@settings(max_examples=200, deadline=None)
@given(problems())
def test_basis_matches_exact_forms(problem):
    y1, y0, a, c, e, psi, ridge, rng = problem
    basis = outcome_basis(KY, np.concatenate([y0, y1]))
    mu0 = e.T @ coords(basis, y0)                 # mu0 is linear in the weights
    xi = build_k_xi(KY, y1, a, c, basis, mu0)
    g = exact_k_xi(KY, y1.reshape(-1, 1), a, c, e, y0.reshape(-1, 1))
    s = scale(a, c, e)
    w = basis.whiten(xi)
    assert np.abs(w @ w.T - g).max() <= GRAM_TOL * s

    loss, grad = df_trace_loss(psi, w, ridge)
    loss_x, grad_x = exact_trace_loss(psi, g, ridge)
    n = y1.shape[0]
    assert abs(loss - loss_x) <= LOSS_TOL * n * s
    assert np.abs(grad - grad_x).max() <= GRAD_TOL * n * s * max(1.0, np.abs(psi).max())

    beta = rng.normal(0.0, 1.0, (n, 3))           # three embeddings sum_i beta_i xi_i
    grid = np.linspace(min(y1.min(), y0.min()) - 2.0,
                       max(y1.max(), y0.max()) + 2.0, 101)
    got = (xi.T @ beta).T @ basis.coords(gram(KY, basis.grid, grid.reshape(-1, 1)))
    want = exact_density(KY, grid, y1.reshape(-1, 1), a[:, None] * beta,
                         y0.reshape(-1, 1), e @ (c[:, None] * beta))
    bound = DENSITY_TOL * np.sqrt(s) * np.abs(beta).sum(0).max()
    assert np.abs(got - want).max() <= bound


class TestOutcomeBasis:
    def test_grid_spans_the_padded_range_at_the_set_step(self):
        basis = outcome_basis(KY, np.linspace(0.1, 35.1, 120))
        z = basis.grid.ravel()
        assert z[0] == pytest.approx(0.1 - 6.0) and z[-1] >= 35.1 + 6.0
        assert np.allclose(np.diff(z), 0.75)
        assert basis.proj.shape == (basis.size, z.shape[0]) and basis.root is None

    def test_coordinates_reproduce_the_grid_gram(self):
        basis = outcome_basis(KY, np.linspace(-1.0, 3.0, 40))
        u_z = coords(basis, basis.grid)
        k_z = gram(KY, basis.grid)
        assert np.abs(u_z @ u_z.T - k_z).max() <= 1e-12 * k_z.max()

    def test_grid_keeps_only_points_near_an_outcome(self):
        # two dense clusters 1000 bandwidths apart: no grid point between them
        y = np.concatenate([np.linspace(0.0, 10.0, 50), np.linspace(2000.0, 2010.0, 50)])
        z = outcome_basis(KY, y).grid.ravel()
        assert len(z) == 2 * len(outcome_basis(KY, y[:50]).grid)
        near = np.abs(z[:, None] - y).min(axis=1)
        assert near.max() <= 6.0 + 0.75
        assert np.allclose(np.diff(z[z < 1000.0]), 0.75)

    @pytest.mark.parametrize("y,bandwidth", [
        (np.linspace(0.0, 10000.0, 300), 2.0),        # a wide outcome range
        (np.linspace(0.0, 35.0, 400), 0.01),           # a tiny outcome bandwidth
        (np.array([2.0]), 2.0),                        # a single outcome
        (np.array([0.0, 1e160]), 1e-150),             # grid indices past 1e308
    ])
    def test_sparse_outcomes_carry_the_weights_themselves(self, y, bandwidth):
        """Where the grid would outnumber the outcomes, the basis is the
        kernel sections at the outcomes: no more weights than outcomes, and
        each bump has its exact weights."""
        ky = KernelSpec(bandwidth=bandwidth, normalized=True)
        basis = outcome_basis(ky, np.concatenate([y, y[::-1]]))
        assert np.array_equal(basis.grid.ravel(), y) and basis.size == len(y)
        u = basis.bumps(ky, y[::-1]).T
        assert np.array_equal(u, np.eye(len(y))[::-1])
        w = basis.whiten(u)
        k_y = gram(ky, y[::-1])
        assert np.abs(w @ w.T - k_y).max() <= 1e-12 * k_y.max()
        with pytest.raises(InvalidArgumentError, match="missing"):
            basis.bumps(ky, y[:1] + 0.5 * bandwidth)

    def test_an_overflowing_grid_index_falls_back_to_sections(self):
        """Outcomes -1e308, 1e308 and 0 to 29 at bandwidth 1e150: the grid
        would have fewer indices than the 32 outcomes, but its last index
        overflows to inf, so the basis is the sections at the outcomes."""
        y = np.array([-1e308, 1e308, *range(30)], dtype=np.float64)
        basis = outcome_basis(KernelSpec(bandwidth=1e150, normalized=True), y)
        assert basis.proj is None and basis.root is not None
        assert np.array_equal(basis.grid.ravel(), np.unique(y))
        assert np.isfinite(basis.root).all()

    def test_kernel_sections(self):
        sections = OutcomeBasis(np.array([[0.0], [1.0]]))
        k = gram(KY, sections.grid, np.array([[0.5]]))
        assert sections.coords(k) is k and sections.size == 2
        assert np.array_equal(sections.bumps(KY, [0.5]), k)
        w = np.array([[1.0], [2.0]])
        assert np.allclose(sections.embed(KY, w), gram(KY, sections.grid) @ w)
        assert sections.whiten(w) is w
        dense = outcome_basis(KY, np.linspace(0.0, 30.0, 100))
        assert dense.embed(KY, w) is w and dense.whiten(w) is w

    def test_unnormalized_kernel(self):
        ky = KernelSpec(bandwidth=0.7)
        for y in (np.array([0.0, 0.4, 2.5]), np.linspace(0.0, 2.5, 30)):
            basis = outcome_basis(ky, y)
            w = basis.whiten(basis.bumps(ky, y).T)
            assert np.abs(w @ w.T - gram(ky, y.reshape(-1, 1))).max() <= 1e-12
