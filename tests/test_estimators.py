"""Two-stage estimators: first-stage embeddings, pseudo-outcomes, losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccme.data import Dataset, SplitDataset, split_data
from ccme.errors import ConfigWarning, InvalidArgumentError
from ccme.estimators import (Hyper, build_k_xi, df_trace_loss, fit_ccme,
                             fit_first_stage, fit_second_stage, make_grid,
                             nk_loss_grad, nk_minimizer, pseudo_weights)
from ccme.kernels import KernelSpec, SpdFactor, gram, kernel_eval

from conftest import make_dataset, make_split


def manual_split(d0, d1, v_cols=None):
    treated0 = np.nonzero(d0.A > 0)[0]
    v_cols = v_cols if v_cols is not None else list(range(d0.X.shape[1]))
    return SplitDataset(d0, d1, treated0, v_cols)


def explicit_trace_objective(psi, g, ridge):
    """Ridge regression of exact features onto psi rows, solved directly.

    Factor g = F F' by eigendecomposition so row i of F is an explicit
    coordinate vector for the i-th target; the fitted map and its objective
    value are then plain matrix algebra, independent of the trace shortcut.
    """
    vals, vecs = np.linalg.eigh(g)
    vals = np.clip(vals, 0.0, None)
    F = vecs @ np.diag(np.sqrt(vals))                # (n, n), rows are targets
    S = psi.T @ psi + ridge * np.eye(psi.shape[1])
    C = F.T @ psi @ np.linalg.inv(S)                 # (n, M) fitted map
    resid = F - psi @ C.T
    return float(np.sum(resid * resid) + ridge * np.sum(C * C))


class TestHyper:
    def test_net_seeds_deterministic_and_distinct(self):
        h = Hyper(net_seed=12)
        assert h.net_seeds() == Hyper(net_seed=12).net_seeds()
        assert h.net_seeds()[0] != h.net_seeds()[1]
        assert h.net_seeds() != Hyper(net_seed=13).net_seeds()

    def test_lr_scaling_is_linear_in_rows(self):
        h = Hyper()
        assert h.scaled_lr(2e-4, 200) == 2e-4
        assert h.scaled_lr(2e-4, 400) == pytest.approx(4e-4, abs=1e-18)

    def test_default_values_match_documented_table(self):
        h = Hyper()
        assert (h.bandwidth_x, h.bandwidth_v, h.bandwidth_y) == (2.0, 2.0, 2.0)
        assert (h.ridge0, h.ridge1) == (20.0, 20.0)
        assert h.n_feats == 20
        assert h.hidden == (20, 20)
        assert h.momentum == 0.9
        assert (h.lr_df, h.lr_nk) == (2e-4, 4e-4)
        assert h.epochs_df == (6000, 1000)
        assert h.epochs_nk == (16000, 500)


class TestMakeGrid:
    def test_covers_padded_range(self):
        grid = make_grid(np.array([0.0, 1.0]), 11, 2.0)
        assert grid.shape == (11, 1)
        assert grid[0, 0] == -2.0 and grid[-1, 0] == 3.0

    def test_point_count_validated(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(np.array([0.0, 1.0]), 0, 1.0)


class TestFirstStageRr:
    def test_single_treated_point_closed_form(self):
        d0 = Dataset(np.array([[0.5], [2.0]]), np.array([1.0, 0.0]),
                     np.array([1.0, 0.0]))
        d1 = make_dataset(4, seed=1, d_x=1)
        split = manual_split(d0, d1)
        h = Hyper(ridge0=20.0)
        first = fit_first_stage(split, "rr", h)
        x = np.array([[1.3], [-0.2]])
        k = gram(h.kernel_x(), np.array([[0.5]]), x).ravel()
        expect = k / (1.0 + 20.0)                # k(x0, x0) = 1 unnormalized
        assert np.allclose(first.coef(x).ravel(), expect, atol=1e-12)

    def test_huge_ridge_kills_coefficients(self):
        split = make_split(n=20, seed=2)
        first = fit_first_stage(split, "rr", Hyper(ridge0=1e12))
        coef = first.coef(split.x1())
        assert np.abs(coef).max() < 1e-8

    def test_tiny_ridge_interpolates(self):
        d0 = Dataset(np.array([[0.0], [1.5], [-2.0]]), np.ones(3),
                     np.array([0.3, -0.8, 1.1]))
        d1 = make_dataset(4, seed=3, d_x=1)
        split = manual_split(d0, d1)
        first = fit_first_stage(split, "rr", Hyper(ridge0=1e-8))
        coef = first.coef(d0.X)
        assert np.allclose(coef, np.eye(3), atol=1e-4)

    def test_x_cols_projection(self):
        split = make_split(n=20, seed=4, d_x=4)
        first = fit_first_stage(split, "rr", Hyper(x_cols=[0, 2]))
        assert first.head.points.shape[1] == 2
        # querying with full-width rows projects before evaluating
        coef = first.coef(split.d1.X[:3])
        assert coef.shape == (split.m, 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_first_stage(make_split(), "boost", Hyper())


class TestSharedHead:
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 10), d=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), bandwidth=st.floats(0.2, 5.0),
           ridge=st.floats(1e-3, 1e3))
    def test_rr_first_stage_is_onestep_on_treated_rows(self, m, d, seed,
                                                        bandwidth, ridge):
        # stage one is the stage-two regression with a = 1, c = 0: fitted on
        # D0's treated rows with V = X, the one-step head is the same head
        rng = np.random.default_rng(seed)
        n0 = m + int(rng.integers(0, 5))
        A = np.zeros(n0)
        A[rng.permutation(n0)[:m]] = 1.0
        d0 = Dataset(rng.normal(size=(n0, d)), A, rng.normal(size=n0))
        treated0 = np.nonzero(A > 0)[0]
        split = SplitDataset(d0, d0.take(treated0), treated0, list(range(d)))
        h = Hyper(bandwidth_x=bandwidth, bandwidth_v=bandwidth,
                  ridge0=ridge, ridge1=ridge)
        first = fit_first_stage(split, "rr", h)
        one = fit_second_stage(split, "rr", "onestep", None, None, h)
        xq = rng.normal(size=(int(rng.integers(1, 6)), d))
        assert np.array_equal(first.coef(xq), one.second.coef(xq))
        assert np.array_equal(first.head.basis, one.second.basis)

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_cross_cache_is_the_first_stage_design(self, method, tiny_hyper):
        split = make_split(n=24, seed=26)
        h = Hyper() if method == "rr" else tiny_hyper
        first = fit_first_stage(split, method, h)
        omega = np.random.default_rng(2).uniform(0.5, 2.0, size=split.n)
        model = fit_second_stage(split, method, "dr", first, omega, h)
        design = first.design(split.x1())
        if method == "nk":
            assert design is None and model.cross_cache is None
        else:
            assert np.array_equal(model.cross_cache, design)
            assert design.shape[1] == split.n


class TestTraceLoss:
    def test_zero_features_give_total_energy(self):
        rng = np.random.default_rng(0)
        g = gram(KernelSpec(), rng.normal(size=(6, 1)))
        loss, grad = df_trace_loss(np.zeros((6, 3)), g, 20.0)
        assert loss == pytest.approx(np.trace(g), abs=1e-12)
        assert np.array_equal(grad, np.zeros((6, 3)))

    def test_huge_ridge_gives_total_energy(self):
        rng = np.random.default_rng(1)
        g = gram(KernelSpec(), rng.normal(size=(5, 1)))
        psi = rng.normal(size=(5, 2))
        loss, _ = df_trace_loss(psi, g, 1e14)
        assert loss == pytest.approx(np.trace(g), rel=1e-10)

    def test_equals_explicit_regression_objective(self):
        rng = np.random.default_rng(2)
        g = gram(KernelSpec(bandwidth=1.0), rng.normal(size=(5, 1)))
        psi = rng.normal(size=(5, 3))
        loss, _ = df_trace_loss(psi, g, 7.5)
        assert loss == pytest.approx(explicit_trace_objective(psi, g, 7.5),
                                     abs=1e-8)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        g = gram(KernelSpec(bandwidth=1.2), rng.normal(size=(6, 1)))
        psi = rng.normal(size=(6, 3))
        _, grad = df_trace_loss(psi, g, 4.0)
        step = 1e-5
        for i in range(6):
            for j in range(3):
                up, dn = psi.copy(), psi.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd = (df_trace_loss(up, g, 4.0)[0]
                      - df_trace_loss(dn, g, 4.0)[0]) / (2 * step)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_new_feature_direction_never_hurts(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            g = gram(KernelSpec(), rng.normal(size=(5, 1)))
            psi = rng.normal(size=(5, 2))
            extra = rng.normal(size=(5, 1))
            wide = np.hstack([psi, extra])
            loss_narrow, _ = df_trace_loss(psi, g, 1e-10)
            loss_wide, _ = df_trace_loss(wide, g, 1e-10)
            assert loss_wide <= loss_narrow + 1e-6


class TestNkLoss:
    def test_zero_coefficients_zero_loss(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(-1, 1, 4).reshape(-1, 1)
        k_m = gram(KernelSpec(), grid)
        b = rng.normal(size=(4, 7))
        loss, grad = nk_loss_grad(np.zeros((7, 4)), k_m, b)
        assert loss == 0.0
        assert np.allclose(grad, -2.0 * b.T / 7, atol=1e-15)

    def test_loss_matches_explicit_quadratic(self):
        rng = np.random.default_rng(6)
        grid = rng.normal(size=(3, 1))
        k_m = gram(KernelSpec(), grid)
        b = rng.normal(size=(3, 5))
        F = rng.normal(size=(5, 3))
        loss, _ = nk_loss_grad(F, k_m, b)
        manual = np.mean([F[i] @ k_m @ F[i] - 2.0 * F[i] @ b[:, i]
                          for i in range(5)])
        assert loss == pytest.approx(manual, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        grid = rng.normal(size=(3, 1))
        k_m = gram(KernelSpec(), grid)
        b = rng.normal(size=(3, 4))
        F = rng.normal(size=(4, 3))
        _, grad = nk_loss_grad(F, k_m, b)
        step = 1e-6
        for i in range(4):
            for j in range(3):
                up, dn = F.copy(), F.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd = (nk_loss_grad(up, k_m, b)[0]
                      - nk_loss_grad(dn, k_m, b)[0]) / (2 * step)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_minimizer_solves_normal_equations(self):
        rng = np.random.default_rng(8)
        grid = rng.normal(size=(4, 1))
        k_m = gram(KernelSpec(bandwidth=1.0), grid)
        b = rng.normal(size=(4, 6))
        f_star = nk_minimizer(k_m, b)
        assert np.allclose(f_star, SpdFactor(k_m, 1e-12).solve(b), atol=1e-8)
        # and it zeroes the gradient
        _, grad = nk_loss_grad(f_star.T, k_m, b)
        assert np.abs(grad).max() < 1e-10

    def test_single_point_grid_minimizer(self):
        # with K_M = k(y0, y0) = 1 the optimal coefficient is the kernel value
        spec = KernelSpec(bandwidth=2.0)
        grid = np.array([[0.7]])
        y = np.array([[0.1], [1.4], [-0.3]])
        k_m = gram(spec, grid)
        b = gram(spec, grid, y)
        f_star = nk_minimizer(k_m, b)
        assert np.allclose(f_star.ravel(),
                           [kernel_eval(spec, 0.7, yi) for yi in y.ravel()],
                           atol=1e-14)


class TestPseudoOutcomes:
    def test_weight_pairs(self):
        omega = np.array([2.0, 0.0, 1.0])
        a, c = pseudo_weights("dr", omega)
        assert np.array_equal(a, omega) and np.array_equal(c, 1.0 - omega)
        a, c = pseudo_weights("ipw", omega)
        assert np.array_equal(a, omega) and not c.any()
        a, c = pseudo_weights("pi", omega)
        assert not a.any() and np.array_equal(c, np.ones(3))
        with pytest.raises(InvalidArgumentError):
            pseudo_weights("aipw", omega)

    def test_unit_omega_reduces_to_outcome_features(self):
        split = make_split(n=20, seed=5)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "dr", first, np.ones(split.n), h)
        assert np.array_equal(model.a, np.ones(split.n))
        assert not model.c.any()
        assert model.cross_cache is None
        k_xi = build_k_xi(h.kernel_y(), split.d1.Y, model.a, model.c,
                          first, split.x1())
        assert np.array_equal(k_xi, gram(h.kernel_y(), split.d1.Y))

    def test_onestep_warns_when_first_stage_supplied(self):
        split = make_split(n=20, seed=6)
        first = fit_first_stage(split, "rr", Hyper())
        with pytest.warns(ConfigWarning):
            model = fit_second_stage(split, "rr", "onestep", first, None, Hyper())
        keep = split.d1.A > 0
        assert model.first is None
        assert np.array_equal(model.a, np.ones(int(keep.sum())))
        assert np.array_equal(model.second.outcomes, split.d1.Y[keep])

    def test_missing_omega_rejected(self):
        split = make_split(n=20, seed=6)
        first = fit_first_stage(split, "rr", Hyper())
        with pytest.raises(InvalidArgumentError, match="needs omega"):
            fit_second_stage(split, "rr", "dr", first, None, Hyper())


class TestKXi:
    def make_first(self, split, ridge=20.0):
        return fit_first_stage(split, "rr", Hyper(ridge0=ridge))

    def test_dr_with_unit_omega_is_outcome_gram(self):
        split = make_split(n=16, seed=7)
        ky = KernelSpec(bandwidth=2.0, normalized=True)
        n = split.n
        k_xi = build_k_xi(ky, split.d1.Y, np.ones(n), np.zeros(n))
        # exact: a df first stage trains against this matrix in place of the
        # outcome Gram
        assert np.array_equal(k_xi, gram(ky, split.d1.Y))

    def test_ipw_is_conjugated_outcome_gram(self):
        split = make_split(n=16, seed=8)
        ky = KernelSpec(bandwidth=2.0, normalized=True)
        omega = np.random.default_rng(0).uniform(0.5, 3.0, size=split.n)
        omega[::3] = 0.0
        a, c = pseudo_weights("ipw", omega)
        k_xi = build_k_xi(ky, split.d1.Y, a, c)
        expect = np.diag(omega) @ gram(ky, split.d1.Y) @ np.diag(omega)
        assert np.allclose(k_xi, expect, atol=1e-12)

    def test_zero_weight_row_is_identically_zero(self):
        split = make_split(n=16, seed=8)
        ky = KernelSpec(bandwidth=2.0)
        omega = np.ones(split.n)
        omega[2] = 0.0
        a, c = pseudo_weights("ipw", omega)
        k_xi = build_k_xi(ky, split.d1.Y, a, c)
        assert not k_xi[2].any() and not k_xi[:, 2].any()

    def test_pi_matches_entrywise_brute_force(self):
        d0 = Dataset(np.array([[0.2], [1.1], [-0.5], [0.9]]),
                     np.array([1.0, 1.0, 1.0, 0.0]),
                     np.array([0.4, -1.2, 0.8, 0.0]))
        d1 = Dataset(np.array([[0.0], [0.6], [1.7]]), np.array([1, 0, 1]),
                     np.array([0.5, 0.1, -0.7]))
        split = manual_split(d0, d1)
        first = self.make_first(split)
        ky = Hyper().kernel_y()
        a, c = pseudo_weights("pi", np.ones(3))
        k_xi = build_k_xi(ky, d1.Y, a, c, first, split.x1())
        E = first.coef(split.x1())
        basis = first.head.basis
        k_bb = gram(ky, basis)
        expect = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for p in range(basis.shape[0]):
                    for q in range(basis.shape[0]):
                        expect[i, j] += E[p, i] * E[q, j] * k_bb[p, q]
        assert np.allclose(k_xi, expect, atol=1e-10)

    def test_pi_ignores_second_stage_outcomes(self):
        split = make_split(n=16, seed=9)
        first = self.make_first(split)
        a, c = pseudo_weights("pi", np.ones(split.n))
        ky = Hyper().kernel_y()
        k1 = build_k_xi(ky, split.d1.Y, a, c, first, split.x1())
        other_y = split.d1.Y + 17.0
        k2 = build_k_xi(ky, other_y, a, c, first, split.x1())
        assert np.array_equal(k1, k2)

    def test_exactly_symmetric(self):
        split = make_split(n=16, seed=10)
        first = self.make_first(split)
        omega = np.random.default_rng(1).uniform(0.0, 2.5, size=split.n)
        a, c = pseudo_weights("dr", omega)
        k_xi = build_k_xi(Hyper().kernel_y(), split.d1.Y, a, c, first, split.x1())
        assert np.array_equal(k_xi, k_xi.T)

    def test_nonzero_c_needs_first_stage(self):
        with pytest.raises(InvalidArgumentError):
            build_k_xi(KernelSpec(), np.zeros((2, 1)), np.ones(2), np.ones(2))


class TestSecondStageRr:
    def test_single_row_weight_closed_form(self):
        d0 = Dataset(np.array([[0.1], [0.8]]), np.array([1.0, 1.0]),
                     np.array([0.2, 0.4]))
        d1 = Dataset(np.array([[0.5]]), np.array([1.0]), np.array([1.5]))
        split = manual_split(d0, d1)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "dr", first, np.ones(1), h)
        v = np.array([[0.3]])
        beta = model.second.coef(v)
        k = kernel_eval(h.kernel_v(), 0.3, 0.5)
        assert beta[0, 0] == pytest.approx(k / (1.0 + 20.0), abs=1e-14)

    def test_huge_ridge_flattens_curve(self):
        split = make_split(n=20, seed=11)
        h = Hyper(ridge1=1e12)
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "dr", first,
                                 np.ones(split.n), h)
        from ccme.density import density_curves
        curve = density_curves(model, split.v1[:2], n_points=50)[0]
        assert np.abs(curve.values).max() < 1e-8

    def test_weights_match_explicit_quadratic_minimizer(self):
        # one desk-size instance of the closed-form equivalence check
        split = make_split(n=10, seed=12)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        rng = np.random.default_rng(3)
        omega = np.where(split.d1.A > 0, rng.uniform(1.0, 3.0, split.n), 0.0)
        model = fit_second_stage(split, "rr", "dr", first, omega, h)
        k_xi = build_k_xi(model.kernel_y, split.d1.Y, model.a, model.c,
                          first, split.x1())
        k_v = gram(h.kernel_v(), split.v1)
        vq = split.v1[:3]
        beta = model.second.coef(vq)
        expect = np.linalg.solve(k_v + 20.0 * np.eye(split.n),
                                 gram(h.kernel_v(), split.v1, vq))
        assert np.allclose(beta, expect, atol=1e-10)
        # the fitted coefficients minimize the finite quadratic in beta-space:
        # J(w) = w' K_xi ... checked through the gradient of the objective
        # J(w) = ||xi-hat - sum w_i xi_i||^2 expressed with K_xi
        for col in range(3):
            w = beta[:, col]
            kv_col = gram(h.kernel_v(), split.v1, vq[[col]]).ravel()
            grad = 2.0 * (k_v @ k_v + 20.0 * k_v) @ w - 2.0 * k_v @ kv_col
            # stationarity of the representer objective in coefficient space
            assert np.abs(grad).max() < 1e-8

    def test_onestep_equals_dr_when_all_treated(self):
        ds = make_dataset(24, seed=13)
        ds.A[:] = 1.0
        split = split_data(ds, seed=2)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        dr = fit_second_stage(split, "rr", "dr", first, np.ones(split.n), h)
        ones = fit_second_stage(split, "rr", "onestep", None, None, h)
        from ccme.density import density_curves
        grid = np.linspace(ds.Y.min() - 2, ds.Y.max() + 2, 64)
        vq = split.v1[:4]
        c_dr = density_curves(dr, vq, y_grid=grid)
        c_os = density_curves(ones, vq, y_grid=grid)
        for cd, co in zip(c_dr, c_os):
            assert np.allclose(cd.values, co.values, atol=1e-10)

    def test_method_mixing_rejected(self):
        split = make_split(n=20, seed=14)
        first = fit_first_stage(split, "rr", Hyper())
        with pytest.raises(InvalidArgumentError):
            fit_second_stage(split, "df", "dr", first, np.ones(split.n), Hyper())

    def test_onestep_needs_treated_rows(self):
        ds = make_dataset(24, seed=15)
        split = split_data(ds, seed=3)
        split.d1.A[:] = 0.0
        with pytest.raises(InvalidArgumentError):
            fit_second_stage(split, "rr", "onestep", None, None, Hyper())

    def test_fit_ccme_requires_propensity(self):
        split = make_split(n=20, seed=16)
        with pytest.raises(InvalidArgumentError):
            fit_ccme(split, "rr", "dr", None, Hyper())

    def test_fit_ccme_deterministic(self):
        from ccme.density import density_curves
        from ccme.propensity import fit_logistic
        ds = make_dataset(40, seed=17)
        split = split_data(ds, seed=4)
        prop = fit_logistic(split.d0.X, split.d0.A)
        h = Hyper()
        m1 = fit_ccme(split, "rr", "dr", prop, h)
        m2 = fit_ccme(split, "rr", "dr", prop, h)
        vq = split.v1[:2]
        c1 = density_curves(m1, vq, n_points=40)
        c2 = density_curves(m2, vq, n_points=40)
        assert np.array_equal(c1[0].values, c2[0].values)


class TestNetStages:
    def test_df_first_stage_training_reduces_loss(self, tiny_hyper):
        from ccme.nets import mlp_forward, mlp_init
        split = make_split(n=30, seed=18)
        first = fit_first_stage(split, "df", tiny_hyper)
        # recompute the loss the training loop starts from
        sizes = [split.d0.X.shape[1], *tiny_hyper.hidden, tiny_hyper.n_feats]
        init = mlp_init(sizes, tiny_hyper.net_seeds()[0])
        psi_init, _ = mlp_forward(init, split.x0_treated())
        g0 = gram(tiny_hyper.kernel_y(), split.y0_treated())
        start = df_trace_loss(psi_init, g0, tiny_hyper.ridge0)[0] / split.m
        assert first.head.final_loss < start

    def test_df_warns_on_few_treated_rows(self):
        split = make_split(n=16, seed=19)
        h = Hyper(n_feats=max(split.m + 1, 21), epochs_df=(5, 5))
        with pytest.warns(ConfigWarning):
            fit_first_stage(split, "df", h)

    def test_df_deterministic_given_seed(self, tiny_hyper):
        split = make_split(n=24, seed=20)
        f1 = fit_first_stage(split, "df", tiny_hyper)
        f2 = fit_first_stage(split, "df", tiny_hyper)
        for w1, w2 in zip(f1.head.net.weights, f2.head.net.weights):
            assert np.array_equal(w1, w2)

    def test_nk_grid_shared_between_stages(self, tiny_hyper):
        split = make_split(n=24, seed=21)
        first = fit_first_stage(split, "nk", tiny_hyper)
        model = fit_second_stage(split, "nk", "dr", first,
                                 np.ones(split.n), tiny_hyper)
        assert np.array_equal(model.second.grid, first.head.grid)

    def test_nk_grid_override_mismatch_rejected(self, tiny_hyper):
        split = make_split(n=24, seed=21)
        first = fit_first_stage(split, "nk", tiny_hyper)
        wrong = first.head.grid + 0.5
        with pytest.raises(InvalidArgumentError, match="grid mismatch"):
            fit_second_stage(split, "nk", "dr", first, np.ones(split.n),
                             tiny_hyper, grid=wrong)

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_ipw_fits_no_first_stage(self, method, tiny_hyper):
        from ccme.data import compute_omega
        from ccme.density import default_grid, density_matrix
        from ccme.propensity import fit_logistic
        # D0 holds an outcome extreme, so the nk grid must span both halves
        split = make_split(n=30, seed=25)
        h = Hyper() if method == "rr" else tiny_hyper
        prop = fit_logistic(split.d0.X, split.d0.A)
        model = fit_ccme(split, method, "ipw", prop, h)
        ref = fit_second_stage(split, method, "ipw",
                               fit_first_stage(split, method, h),
                               compute_omega(split.d1, prop), h)
        assert model.first is None
        vq, grid = split.v1[:3], default_grid(model, 30)
        assert np.array_equal(density_matrix(model, vq, grid),
                              density_matrix(ref, vq, grid))

    def test_nk_ipw_honours_grid_override(self, tiny_hyper):
        split = make_split(n=24, seed=21)
        grid = np.linspace(-6.0, 6.0, 5)
        model = fit_second_stage(split, "nk", "ipw", None, np.ones(split.n),
                                 tiny_hyper, grid=grid)
        assert np.array_equal(model.second.grid, grid.reshape(-1, 1))

    def test_nk_duplicate_grid_rejected(self, tiny_hyper):
        split = make_split(n=24, seed=22)
        bad = np.array([[0.0], [1.0], [0.0]])
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            fit_first_stage(split, "nk", tiny_hyper, grid=bad)

    def test_nk_first_stage_training_reduces_loss(self, tiny_hyper):
        from ccme.nets import mlp_forward, mlp_init
        split = make_split(n=30, seed=23)
        first = fit_first_stage(split, "nk", tiny_hyper)
        ky = tiny_hyper.kernel_y()
        k0 = gram(ky, first.head.grid, split.y0_treated())
        sizes = [split.d0.X.shape[1], *tiny_hyper.hidden,
                 first.head.grid.shape[0]]
        init = mlp_init(sizes, tiny_hyper.net_seeds()[0])
        f_init, _ = mlp_forward(init, split.x0_treated())
        start = nk_loss_grad(f_init, first.head.k_m, k0)[0]
        best = nk_loss_grad(nk_minimizer(first.head.k_m, k0).T,
                            first.head.k_m, k0)[0]
        assert best <= first.head.final_loss < start
