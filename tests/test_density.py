"""Density curves, masses, grids, and CSV export from fitted models."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccme.data import Dataset, SplitDataset, split_data
from ccme.density import (curves_to_csv, default_grid, density_curves,
                          density_mass, density_matrix)
from ccme.errors import InvalidArgumentError
from ccme.estimators import (CcmeModel, FeatureHead, FirstStage, GridHead,
                             Hyper, build_k_xi, fit_ccme, fit_first_stage,
                             fit_second_stage)
from ccme.kernels import KernelSpec, OutcomeBasis, gram, outcome_basis
from ccme.nets import MlpParams, mlp_forward

from conftest import make_dataset, make_split
from oracles import (exact_density, kernel_eval, quadrature_mass,
                     reference_curves_csv)


# signed zeros, the smallest subnormal, huge values and a repeating fraction
AWKWARD = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1 / 3, -1 / 3])


@st.composite
def grids_and_curves(draw):
    """A grid of 1-5 points and 0-4 rows of densities on it, negative ones
    included."""
    g = draw(st.integers(1, 5))
    grid = draw(arrays(np.float64, g, elements=AWKWARD | st.floats(
        allow_nan=False, allow_infinity=False)))
    values = draw(arrays(np.float64, (draw(st.integers(0, 4)), g),
                         elements=AWKWARD | st.floats()))
    return grid, values


def manual_split(d0, d1, v_cols=None):
    treated0 = np.nonzero(d0.A > 0)[0]
    v_cols = v_cols if v_cols is not None else list(range(d0.X.shape[1]))
    return SplitDataset(d0, d1, treated0, v_cols)


def linear_net(W, b):
    """A single-layer MLP with hand-set weights, used as a frozen feature map."""
    W = np.asarray(W, dtype=np.float64)
    return MlpParams((W.shape[1], W.shape[0]), [W.copy()],
                     [np.asarray(b, dtype=np.float64).copy()])


class TestRrCurves:
    def test_single_row_closed_form(self):
        d0 = Dataset(np.array([[0.1], [0.8]]), np.array([1.0, 1.0]),
                     np.array([0.2, 0.4]))
        d1 = Dataset(np.array([[0.5]]), np.array([1.0]), np.array([1.5]))
        split = manual_split(d0, d1)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "dr", first, np.ones(1), h)
        ky, kv = h.kernel_y(), h.kernel_v()
        grid = np.linspace(-3.0, 5.0, 41)
        values, _ = density_curves(model, np.array([[0.3]]), y_grid=grid)
        w = kernel_eval(kv, 0.3, 0.5) / (1.0 + 20.0)
        expect = w * np.array([kernel_eval(ky, 1.5, y) for y in grid])
        assert np.allclose(values[0], expect, atol=1e-14)

    def test_ipw_equals_dr_when_all_treated_unit_omega(self):
        ds = make_dataset(24, seed=1)
        ds.A[:] = 1.0
        split = split_data(ds, seed=2)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        omega = np.ones(split.n)
        dr = fit_second_stage(split, "rr", "dr", first, omega, h)
        ipw = fit_second_stage(split, "rr", "ipw", first, omega, h)
        vq = split.v1[:3]
        grid = default_grid(dr, 64)
        assert np.allclose(density_matrix(dr, vq, grid),
                           density_matrix(ipw, vq, grid), atol=1e-10)

    def test_pi_matches_brute_force_expansion(self):
        d0 = Dataset(np.array([[0.2], [1.1], [-0.5], [0.9]]),
                     np.array([1.0, 1.0, 1.0, 0.0]),
                     np.array([0.4, -1.2, 0.8, 0.0]))
        d1 = Dataset(np.array([[0.0], [0.6], [1.7]]), np.array([1, 0, 1]),
                     np.array([0.5, 0.1, -0.7]))
        split = manual_split(d0, d1)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "pi", first, np.ones(3), h)
        ky, kv, kx = h.kernel_y(), h.kernel_v(), h.kernel_x()
        vq = np.array([[0.25], [1.3]])
        grid = np.linspace(-4.0, 4.0, 17)
        got = density_matrix(model, vq, grid)

        # independent expansion: beta from a dense solve, mu0 coefficients
        # from a dense solve, then an explicit double sum of kernel bumps
        x0t, y0t = split.x0_treated(), split.y0_treated()
        K_v = gram(kv, split.v1)
        beta = np.linalg.solve(K_v + 20.0 * np.eye(3), gram(kv, split.v1, vq))
        K_x = gram(kx, x0t)
        E = np.linalg.solve(K_x + 20.0 * np.eye(3), gram(kx, x0t, split.x1()))
        expect = np.zeros((2, 17))
        for t in range(2):
            for g, y in enumerate(grid):
                total = 0.0
                for i in range(3):
                    mu_i = sum(E[p, i] * kernel_eval(ky, y0t[p], y)
                               for p in range(3))
                    total += beta[i, t] * mu_i
                expect[t, g] = total
        assert np.allclose(got, expect, atol=1e-10)
        # pi's mass is the first stage's total row weight, carried by beta
        assert np.allclose(density_mass(model, vq), E.sum(axis=0) @ beta,
                           rtol=0.0, atol=1e-14)

    def test_onestep_tiny_ridge_unit_mass(self):
        d0 = Dataset(np.array([[0.1], [0.8]]), np.array([1.0, 1.0]),
                     np.array([0.2, 0.4]))
        d1 = Dataset(np.array([[0.5]]), np.array([1.0]), np.array([1.5]))
        split = manual_split(d0, d1)
        model = fit_second_stage(split, "rr", "onestep", None, None,
                                 Hyper(ridge1=1e-10))
        mass = density_mass(model, np.array([[0.5]]))
        assert mass[0] == pytest.approx(1.0, abs=1e-9)

    def test_curve_scales_linearly_in_weights(self):
        split = make_split(n=20, seed=3)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "ipw", first,
                                 np.ones(split.n), h)
        # ipw weights a = omega: doubling omega doubles every pseudo-outcome
        doubled = fit_second_stage(split, "rr", "ipw", first,
                                   2.0 * np.ones(split.n), h)
        vq = split.v1[:2]
        grid = default_grid(model, 32)
        assert np.allclose(2.0 * density_matrix(model, vq, grid),
                           density_matrix(doubled, vq, grid), atol=1e-12)

    def test_repeated_evaluation_bitwise_identical(self):
        split = make_split(n=20, seed=4)
        model = fit_ccme(split, Hyper(propensity="logistic"))
        vq = split.v1[:3]
        grid = default_grid(model, 50)
        m1 = density_matrix(model, vq, grid)
        m2 = density_matrix(model, vq, grid)
        assert np.array_equal(m1, m2)


class TestDfCurves:
    def hand_model(self, omega=(1.5, 0.0, 0.8)):
        """A 3-sample model around frozen 2-feature linear maps."""
        ky = KernelSpec(bandwidth=2.0, normalized=True)
        y0t = np.array([[0.3], [-0.6]])
        x0t = np.array([[0.4], [1.2]])
        net0 = linear_net([[1.0], [-0.5]], [0.2, 0.1])
        v1 = np.array([[0.0], [0.7], [-1.1]])
        y1 = np.array([[0.5], [1.4], [-0.2]])
        x1 = np.array([[0.9], [-0.3], [0.5]])
        basis = outcome_basis(ky, np.vstack([y0t, y1]))
        xi0 = build_k_xi(ky, y0t, np.ones(2), np.zeros(2), basis)
        first = FirstStage(FeatureHead.solved(net0, x0t, xi0, np.ones(2), basis,
                                              3.0), None)
        net1 = linear_net([[0.8], [0.6]], [-0.1, 0.4])
        omega = np.asarray(omega, dtype=np.float64)
        a, c = omega.copy(), 1.0 - omega
        xi1 = build_k_xi(ky, y1, a, c, basis, first.embedding(x1)[0].T)
        masses = a + c * first.embedding(x1)[1]
        second = FeatureHead.solved(net1, v1, xi1, masses, basis, 2.0)
        model = CcmeModel("dr", ky.bandwidth, second, -0.6, 1.4, [0])
        psi0 = mlp_forward(net0, x0t)
        psi1 = mlp_forward(net1, v1)
        cross = mlp_forward(net0, x1)
        return model, (psi0, psi1, cross, y0t, y1, v1, net1, ky, a, c)

    def test_matches_hand_expansion(self):
        model, parts = self.hand_model()
        psi0, psi1, cross, y0t, y1, v1, net1, ky, a, c = parts
        vq = np.array([[0.2], [-0.8]])
        grid = np.linspace(-3.0, 3.0, 13)
        got = density_matrix(model, vq, grid)

        s1 = np.linalg.inv(psi1.T @ psi1 + 2.0 * np.eye(2))
        s0 = np.linalg.inv(psi0.T @ psi0 + 3.0 * np.eye(2))
        psi_q = mlp_forward(net1, vq)
        beta = psi1 @ s1 @ psi_q.T                      # (3, 2)
        w1 = a[:, None] * beta
        w0 = psi0 @ s0 @ cross.T @ (c[:, None] * beta)  # (2, 2)
        expect = np.zeros((2, 13))
        for t in range(2):
            for g, y in enumerate(grid):
                expect[t, g] = (
                    sum(w1[i, t] * kernel_eval(ky, y1[i], y) for i in range(3))
                    + sum(w0[j, t] * kernel_eval(ky, y0t[j], y) for j in range(2)))
        assert np.allclose(got, expect, atol=1e-12)
        # the mass is the total row weight, as in the two-term expansion
        assert np.allclose(density_mass(model, vq), w1.sum(0) + w0.sum(0),
                           rtol=0.0, atol=1e-14)

    def test_unit_omega_reduces_to_feature_ridge(self):
        model, parts = self.hand_model(omega=np.ones(3))
        psi0, psi1, cross, y0t, y1, v1, net1, ky, _, _ = parts
        vq = np.array([[0.6]])
        grid = np.linspace(-2.0, 2.0, 9)
        got = density_matrix(model, vq, grid)
        psi_q = mlp_forward(net1, vq)
        beta = psi1 @ np.linalg.inv(psi1.T @ psi1 + 2.0 * np.eye(2)) @ psi_q.T
        expect = (gram(ky, y1, grid.reshape(-1, 1)).T @ beta).T
        assert np.allclose(got, expect, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    def test_fitted_pi_matches_reimplementation(self, tiny_hyper):
        split = make_split(n=16, seed=5)
        h = tiny_hyper
        first = fit_first_stage(split, "df", h)
        model = fit_second_stage(split, "df", "pi", first,
                                 np.ones(split.n), h)
        vq = split.v1[:2]
        grid = np.linspace(-3.0, 3.0, 11)
        got = density_matrix(model, vq, grid)

        # the two-term expansion with row weights from dense solves: pi has
        # a = 0, so only the first stage's outcome rows carry weight
        psi0 = mlp_forward(first.head.net, split.x0_treated())
        psi01 = mlp_forward(first.head.net, split.x1())
        psi1 = mlp_forward(model.second.net, split.v1)
        psi_q = mlp_forward(model.second.net, vq)
        M = psi0.shape[1]
        beta = psi1 @ np.linalg.solve(psi1.T @ psi1 + h.ridge1 * np.eye(M),
                                      psi_q.T)
        w0 = psi0 @ np.linalg.solve(psi0.T @ psi0 + h.ridge0 * np.eye(M),
                                    psi01.T @ beta)
        expect = exact_density(model.kernel_y, grid, split.d1.Y,
                               np.zeros_like(beta), split.y0_treated(), w0)
        assert np.allclose(got, expect, atol=1e-10)


class TestNkCurves:
    def nk_model(self, bias, grid_pts=None):
        """A model whose coefficient net is frozen at a constant output."""
        grid = np.array([[0.4], [-1.0]]) if grid_pts is None else grid_pts
        M = grid.shape[0]
        net = linear_net(np.zeros((M, 2)), bias)
        return CcmeModel("onestep", 2.0, GridHead(net, OutcomeBasis(grid)),
                         -1.0, 1.0)

    def test_unit_coefficient_reads_off_kernel_section(self):
        model = self.nk_model(bias=[1.0, 0.0])
        grid = np.linspace(-3.0, 3.0, 21)
        values, masses = density_curves(model, np.zeros((1, 2)), y_grid=grid)
        expect = np.array([kernel_eval(model.kernel_y, 0.4, y) for y in grid])
        assert np.allclose(values[0], expect, atol=1e-14)
        assert masses[0] == 1.0

    def test_zero_coefficients_zero_curve(self):
        model = self.nk_model(bias=[0.0, 0.0])
        values, _ = density_curves(model, np.zeros((1, 2)), default_grid(model, 15))
        assert np.array_equal(values, np.zeros((1, 15)))

    def test_two_point_adjugate_inverse(self):
        # f = K_M^{-1} b computed by the 2x2 adjugate formula by hand
        ky = KernelSpec(bandwidth=2.0, normalized=True)
        grid = np.array([[0.4], [-1.0]])
        k0, k12 = kernel_eval(ky, 0.4, 0.4), kernel_eval(ky, 0.4, -1.0)
        b = np.array([0.7, -0.2])
        det = k0 * k0 - k12 * k12
        f = np.array([k0 * b[0] - k12 * b[1], k0 * b[1] - k12 * b[0]]) / det
        model = self.nk_model(bias=f)
        y_probe = np.linspace(-2.0, 2.0, 9)
        values, _ = density_curves(model, np.zeros((1, 2)), y_grid=y_probe)
        expect = [f[0] * kernel_eval(ky, 0.4, y) + f[1] * kernel_eval(ky, -1.0, y)
                  for y in y_probe]
        assert np.allclose(values[0], expect, atol=1e-14)
        # and K_M f = b holds for the hand inverse
        assert np.allclose(gram(ky, grid) @ f, b, atol=1e-14)

    def test_coefficients_summing_to_one_give_unit_mass(self):
        model = self.nk_model(bias=[0.3, 0.7])
        mass = density_mass(model, np.zeros((3, 2)))
        assert np.allclose(mass, np.ones(3), atol=1e-12)


class TestMassAndGrid:
    def fitted(self, seed=6):
        split = make_split(n=24, seed=seed)
        return fit_ccme(split, Hyper(propensity="logistic"))

    def test_mass_matches_quadrature(self):
        model = self.fitted()
        sigma = model.kernel_y.bandwidth
        grid = np.linspace(model.y_lo - 8 * sigma, model.y_hi + 8 * sigma, 4001)
        vq = np.random.default_rng(0).normal(size=(4, 3))
        values, masses = density_curves(model, vq, y_grid=grid)
        assert np.abs(masses - quadrature_mass(values, grid)).max() < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), bandwidth_y=st.floats(0.3, 4.0),
           ridge1=st.floats(0.1, 100.0))
    def test_rr_mass_is_the_density_integral(self, seed, bandwidth_y, ridge1):
        """The head's exact mass map against the trapezoid integral of the
        density over the outcomes and 8 bandwidths past them."""
        split = make_split(n=30, seed=11)
        model = fit_ccme(split, Hyper(bandwidth_y=bandwidth_y, ridge1=ridge1,
                                      propensity="logistic"))
        lo, hi = model.y_lo - 8 * bandwidth_y, model.y_hi + 8 * bandwidth_y
        grid = np.linspace(lo, hi, int((hi - lo) / (0.05 * bandwidth_y)) + 2)
        vq = np.random.default_rng(seed).normal(size=(4, 3))
        quad = np.trapezoid(density_matrix(model, vq, grid), grid, axis=1)
        assert np.abs(density_mass(model, vq) - quad).max() <= 1e-6

    def test_default_grid_covers_padded_range(self):
        model = self.fitted()
        grid = default_grid(model, 101)
        assert grid[0] == model.y_lo - 2.0
        assert grid[-1] == model.y_hi + 2.0
        # one point sits at the padded lower end, as make_grid places it
        assert np.array_equal(default_grid(model, 1, 0.5), [model.y_lo - 0.5])

    def test_query_dimension_checked(self):
        model = self.fitted()
        with pytest.raises(InvalidArgumentError):
            density_matrix(model, np.zeros((1, 7)), np.linspace(0, 1, 5))

    def test_grid_dimension_checked(self):
        model = self.fitted()
        with pytest.raises(InvalidArgumentError):
            density_matrix(model, np.zeros((1, 3)), np.zeros((5, 2)))

    def test_non_finite_points_rejected(self):
        model = self.fitted()
        for bad in (np.nan, np.inf):
            vq = np.zeros((2, 3))
            vq[1, 2] = bad
            with pytest.raises(InvalidArgumentError, match="NaN or inf"):
                density_matrix(model, vq, np.linspace(0, 1, 5))
            with pytest.raises(InvalidArgumentError, match="NaN or inf"):
                density_mass(model, vq)
            with pytest.raises(InvalidArgumentError, match="NaN or inf"):
                density_matrix(model, np.zeros((1, 3)), np.array([0.0, bad]))

    def test_one_dim_query_is_one_point(self):
        model = self.fitted()
        grid = default_grid(model, 50)
        v = np.random.default_rng(3).normal(size=3)
        values, masses = density_curves(model, v, grid)
        row_values, row_masses = density_curves(model, v.reshape(1, -1), grid)
        assert values.shape == (1, 50)
        assert values.tobytes() == row_values.tobytes()
        assert masses.tobytes() == row_masses.tobytes()

    def test_single_point_grid(self):
        model = self.fitted()
        values, masses = density_curves(model, np.zeros((1, 3)),
                                        y_grid=np.array([0.5]))
        assert values.shape == (1, 1) and masses.shape == (1,)

    def test_min_value_reported_not_clipped(self):
        model = self.fitted()
        vq = np.random.default_rng(2).normal(size=(8, 3))
        values, _ = density_curves(model, vq, y_grid=default_grid(model, 200))
        assert values.min() < 0.0

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_curves_are_the_matrix_and_the_masses(self, method, tiny_hyper,
                                                  monkeypatch):
        split = make_split(n=24, seed=6)
        model = fit_ccme(split, replace(tiny_hyper, method=method,
                                        propensity="logistic"))
        vq, grid = split.v1[:3], default_grid(model, 30)
        real, calls = model.second.embedding, []
        monkeypatch.setattr(model.second, "embedding",
                            lambda x: calls.append(x) or real(x))
        values, masses = density_curves(model, vq, grid)
        assert len(calls) == 1                # the head is evaluated once
        assert np.array_equal(values, density_matrix(model, vq, grid))
        assert np.array_equal(masses, density_mass(model, vq))


class TestCsv:
    def test_header_and_row_count(self):
        text = curves_to_csv(np.linspace(0, 1, 5), np.vstack([np.ones(5),
                                                              np.zeros(5)]))
        lines = text.strip().split("\n")
        assert lines[0] == "v_id,y,density"
        assert len(lines) == 1 + 2 * 5
        assert lines[1].startswith("0,0,")
        assert lines[6].startswith("1,0,")

    @settings(max_examples=200, deadline=None)
    @given(grids_and_curves())
    @example((np.array([1 / 3]), np.array([[-0.0]])))       # one query, one point
    @example((np.array([-0.0, 5e-324, 1e300]), np.array([[0.0, -1 / 3, -5e-324]])))
    def test_matches_the_value_by_value_writer(self, case):
        grid, values = case
        assert curves_to_csv(grid, values) == reference_curves_csv(grid, values)

    @settings(max_examples=100, deadline=None)
    @given(grids_and_curves(), st.integers(1, 3))
    def test_blocks_joined_in_order_are_the_whole_file(self, case, rows):
        """Only the block at v_id 0 carries the header, and each block
        numbers its queries from its first v_id."""
        grid, values = case
        blocks = [curves_to_csv(grid, values[lo:lo + rows], lo)
                  for lo in range(0, max(len(values), 1), rows)]
        assert "".join(blocks) == curves_to_csv(grid, values)

    def test_round_trips_through_loadtxt(self):
        grid = np.linspace(-2.0, 3.0, 7)
        values = np.random.default_rng(4).normal(size=(3, 7))
        rows = np.loadtxt(io.StringIO(curves_to_csv(grid.reshape(-1, 1), values)),
                          delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], np.repeat(np.arange(3), 7))
        assert np.array_equal(rows[:, 1], np.tile(grid, 3))
        assert np.array_equal(rows[:, 2], values.ravel())
