"""Two-stage estimators: first-stage embeddings, pseudo-outcomes, losses."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccme import estimators
from ccme.data import Dataset, SplitDataset, split_data
from ccme.errors import (ConfigError, ConfigWarning, DegenerateDataError,
                         InvalidArgumentError, NumericError)
from ccme.estimators import (Hyper, build_k_xi, df_trace_loss, fit_ccme,
                             fit_first_stage, fit_second_stage, make_grid,
                             nk_loss_grad, pseudo_weights)
from ccme.kernels import KernelSpec, SpdFactor, gram, outcome_basis

from conftest import make_dataset, make_split
from oracles import exact_trace_loss, feature_factor, kernel_eval, nk_minimizer

# The trace loss against its form on the explicit Gram, relative to
# ||Xi||_F^2 cond(S) (the gradient also over sqrt(ridge), its scale as the
# ridge shrinks).  Both forms lose digits as S grows ill-conditioned: over
# 20,000 random draws the worst were 7.5e-16 (loss) and 2.6e-16 (gradient).
TRACE_TOL = 1e-13


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
    F = feature_factor(g)                            # (n, n), rows are targets
    S = psi.T @ psi + ridge * np.eye(psi.shape[1])
    C = F.T @ psi @ np.linalg.inv(S)                 # (n, M) fitted map
    resid = F - psi @ C.T
    return float(np.sum(resid * resid) + ridge * np.sum(C * C))


def embedding_values(first, x, kernel_y, y):
    """The first-stage embedding at the rows of x, evaluated at outcomes y:
    shape (T, len(y))."""
    basis = first.head.basis
    u = basis.coords(gram(kernel_y, basis.grid, np.reshape(y, (-1, 1))))
    return first.embedding(x)[0].T @ u


def coords(basis, kernel_y, y):
    """The bumps' weights U(y) over the basis, one row per outcome."""
    return basis.bumps(kernel_y, y).T


def xi_gram(basis, xi):
    """The Gram of the pseudo-outcomes whose basis weights are the rows of xi."""
    w = basis.whiten(xi)
    return w @ w.T


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
        assert h.hidden == [20, 20]
        assert h.momentum == 0.9
        assert (h.lr_df, h.lr_nk) == (2e-4, 4e-4)
        assert (h.epochs_df1, h.epochs_df2) == (6000, 1000)
        assert (h.epochs_nk1, h.epochs_nk2) == (16000, 500)

    @pytest.mark.parametrize("method", ["df", "nk"])
    def test_learning_rates_scale_with_stage_rows(self, method, tiny_hyper,
                                                  monkeypatch):
        """Stage one scales its rate by len(D0), not by the m treated rows it
        trains on; stage two by the rows it trains on."""
        from ccme import estimators

        seen = []
        real = estimators.train_mlp

        def spy(params, batch, loss_and_grad, epochs, lr, momentum):
            seen.append((batch.shape[0], lr))
            return real(params, batch, loss_and_grad, 1, lr, momentum)

        monkeypatch.setattr(estimators, "train_mlp", spy)
        split = make_split(n=30, seed=3)
        fit_ccme(split, replace(tiny_hyper, method=method, variant="dr",
                                propensity="logistic"))
        fit_ccme(split, replace(tiny_hyper, method=method, variant="onestep"))
        base = {"df": tiny_hyper.lr_df, "nk": tiny_hyper.lr_nk}[method]
        m, n0, n1 = split.m, len(split.d0), split.n
        t1 = int((split.d1.A > 0).sum())
        assert m < n0 and t1 < n1
        assert seen == [(m, base * n0 / 200.0), (n1, base * n1 / 200.0),
                        (t1, base * t1 / 200.0)]


class TestMakeGrid:
    def test_covers_padded_range(self):
        grid = make_grid(np.array([0.0, 1.0]), 11, 2.0)
        assert grid.shape == (11, 1)
        assert grid[0, 0] == -2.0 and grid[-1, 0] == 3.0

    def test_point_count_validated(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(np.array([0.0, 1.0]), 0, 1.0)

    def test_constant_outcomes_without_pad_rejected(self):
        """A zero-width range is the only way the points can repeat."""
        y = np.full(5, 3.0)
        with pytest.raises(DegenerateDataError, match="pad"):
            make_grid(y, 4, 0.0)
        assert make_grid(y, 1, 0.0).tolist() == [[3.0]]
        assert len(np.unique(make_grid(y, 4, 0.5))) == 4


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
        coef = k / (1.0 + 20.0)                  # k(x0, x0) = 1 unnormalized
        ys = np.linspace(-4.0, 6.0, 21)
        expect = np.outer(coef, [kernel_eval(h.kernel_y(), 1.0, y) for y in ys])
        # basis error: 1.4e-14 measured on values up to 8.9e-3
        assert np.allclose(embedding_values(first, x, h.kernel_y(), ys), expect,
                           rtol=0.0, atol=1e-13)

    def test_huge_ridge_kills_coefficients(self):
        split = make_split(n=20, seed=2)
        first = fit_first_stage(split, "rr", Hyper(ridge0=1e12))
        assert np.abs(first.embedding(split.x1())[0]).max() < 1e-8

    def test_tiny_ridge_interpolates(self):
        d0 = Dataset(np.array([[0.0], [1.5], [-2.0]]), np.ones(3),
                     np.array([0.3, -0.8, 1.1]))
        d1 = make_dataset(4, seed=3, d_x=1)
        split = manual_split(d0, d1)
        h = Hyper(ridge0=1e-8)
        first = fit_first_stage(split, "rr", h)
        # at its training inputs the embedding is the training outcomes' own
        expect = coords(first.head.basis, h.kernel_y(), d0.Y)
        assert np.allclose(first.embedding(d0.X)[0].T, expect, atol=1e-4)

    def test_x_cols_projection(self):
        split = split_data(make_dataset(20, seed=4, d_x=4), 1, x_cols=[0, 2])
        first = fit_first_stage(split, "rr", Hyper())
        assert first.head.points.shape[1] == 2
        # querying with full-width rows projects before evaluating
        weights = first.embedding(split.d1.X[:3])[0]
        assert weights.shape == (first.head.basis.size, 3)

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
        for got, want in zip(first.embedding(xq), one.second.embedding(xq)):
            assert np.array_equal(got, want)
        assert np.array_equal(first.head.basis.grid, one.second.basis.grid)
        assert np.array_equal(first.head.basis.proj, one.second.basis.proj)

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_c_term_reads_first_stage_weights(self, method, tiny_hyper,
                                              monkeypatch):
        """Stage two reads the first stage only through its weights at the D1
        rows, as coordinates over the shared basis; the model keeps none of
        it."""
        split = make_split(n=24, seed=26)
        h = Hyper() if method == "rr" else tiny_hyper
        first = fit_first_stage(split, method, h)
        omega = np.random.default_rng(2).uniform(0.5, 2.0, size=split.n)
        seen = []
        real = estimators.build_k_xi

        def spy(kernel_y, y1, a, c, basis=None, mu0=None):
            seen.append((basis, mu0))
            return real(kernel_y, y1, a, c, basis, mu0)

        monkeypatch.setattr(estimators, "build_k_xi", spy)
        model = fit_second_stage(split, method, "dr", first, omega, h)
        (basis, mu0), = seen
        assert basis is first.head.basis is model.second.basis
        expect = basis.embed(h.kernel_y(), first.embedding(split.x1())[0]).T
        assert np.array_equal(mu0, expect)
        assert mu0.shape == (split.n, basis.size)
        assert not {"first", "a", "c", "cross_cache"} & set(vars(model))


class TestTraceLoss:
    def test_zero_features_give_total_energy(self):
        rng = np.random.default_rng(0)
        xi = rng.normal(size=(6, 4))
        loss, grad = df_trace_loss(np.zeros((6, 3)), xi, 20.0)
        assert loss == pytest.approx(np.trace(xi @ xi.T), abs=1e-12)
        assert np.array_equal(grad, np.zeros((6, 3)))

    def test_huge_ridge_gives_total_energy(self):
        rng = np.random.default_rng(1)
        xi = rng.normal(size=(5, 3))
        psi = rng.normal(size=(5, 2))
        loss, _ = df_trace_loss(psi, xi, 1e14)
        assert loss == pytest.approx(np.trace(xi @ xi.T), rel=1e-10)

    def test_equals_explicit_regression_objective(self):
        rng = np.random.default_rng(2)
        xi = rng.normal(size=(5, 4))
        psi = rng.normal(size=(5, 3))
        loss, _ = df_trace_loss(psi, xi, 7.5)
        assert loss == pytest.approx(
            explicit_trace_objective(psi, xi @ xi.T, 7.5), abs=1e-8)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        xi = rng.normal(size=(6, 4))
        psi = rng.normal(size=(6, 3))
        _, grad = df_trace_loss(psi, xi, 4.0)
        step = 1e-5
        for i in range(6):
            for j in range(3):
                up, dn = psi.copy(), psi.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd = (df_trace_loss(up, xi, 4.0)[0]
                      - df_trace_loss(dn, xi, 4.0)[0]) / (2 * step)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_new_feature_direction_never_hurts(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            xi = rng.normal(size=(5, 3))
            psi = rng.normal(size=(5, 2))
            extra = rng.normal(size=(5, 1))
            wide = np.hstack([psi, extra])
            loss_narrow, _ = df_trace_loss(psi, xi, 1e-10)
            loss_wide, _ = df_trace_loss(wide, xi, 1e-10)
            assert loss_wide <= loss_narrow + 1e-6

    def test_numeric_failures_report_as_numeric(self):
        xi = np.ones((4, 2))
        psi = np.ones((4, 3))
        psi[1, 2] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            df_trace_loss(psi, xi, 1.0)
        with pytest.raises(NumericError, match="feature Gram") as info:
            df_trace_loss(np.ones((4, 3)), xi, -1.0)
        assert info.value.pivot is not None

    def test_overflowing_feature_gram_is_numeric(self):
        # finite features whose Gram overflows to inf
        with pytest.raises(NumericError, match="feature Gram"), \
                np.errstate(over="ignore"):
            df_trace_loss(np.full((4, 3), 1e200), np.ones((4, 2)), 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 25),
           st.integers(1, 40), st.floats(-6.0, 3.0), st.floats(-1.0, 1.0))
    @example(0, 3, 20, 40, -6.0, 0.0)        # r > n, n < M, the smallest ridge
    @example(1, 30, 2, 1, 3.0, 1.0)
    def test_matches_the_explicit_gram_form(self, seed, n, m, r, log_ridge, log_scale):
        rng = np.random.default_rng(seed)
        psi = rng.normal(0.0, 10.0 ** log_scale, (n, m))
        xi = rng.normal(size=(n, r))
        ridge = 10.0 ** log_ridge
        loss, grad = df_trace_loss(psi, xi, ridge)
        loss_x, grad_x = exact_trace_loss(psi, xi @ xi.T, ridge)
        scale = np.sum(xi * xi) * np.linalg.cond(psi.T @ psi + ridge * np.eye(m))
        assert abs(loss - loss_x) <= TRACE_TOL * scale
        assert np.abs(grad - grad_x).max() <= TRACE_TOL * scale / np.sqrt(ridge)


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
        assert np.allclose(f_star, SpdFactor(k_m.copy(), 1e-12).solve(b), atol=1e-8)
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
        a, c = pseudo_weights("dr", np.ones(split.n))
        assert np.array_equal(a, np.ones(split.n)) and not c.any()
        basis = first.head.basis
        xi = build_k_xi(h.kernel_y(), split.d1.Y, a, c, basis)
        assert np.array_equal(xi, coords(basis, h.kernel_y(), split.d1.Y))
        # so the fit equals the one with no c-term at all
        dr = fit_second_stage(split, "rr", "dr", first, np.ones(split.n), h)
        ipw = fit_second_stage(split, "rr", "ipw", first, np.ones(split.n), h)
        assert np.array_equal(dr.second.coef, ipw.second.coef)

    def test_onestep_warns_when_first_stage_supplied(self):
        split = make_split(n=20, seed=6)
        first = fit_first_stage(split, "rr", Hyper())
        with pytest.warns(ConfigWarning):
            model = fit_second_stage(split, "rr", "onestep", first, None, Hyper())
        keep = split.d1.A > 0
        assert np.array_equal(model.second.points, split.v1[keep])
        alone = fit_second_stage(split, "rr", "onestep", None, None, Hyper())
        assert np.array_equal(model.second.coef, alone.second.coef)

    def test_missing_omega_rejected(self):
        split = make_split(n=20, seed=6)
        first = fit_first_stage(split, "rr", Hyper())
        with pytest.raises(InvalidArgumentError, match="needs omega"):
            fit_second_stage(split, "rr", "dr", first, None, Hyper())


class TestFitCcme:
    """fit_ccme builds the nuisances its variant reads (READS), each once per
    shared dict."""

    def test_pi_fits_no_propensity(self, monkeypatch):
        from ccme import propensity

        split = make_split(n=30, seed=8)
        ref = fit_second_stage(split, "rr", "pi", fit_first_stage(split, "rr", Hyper()),
                               np.ones(split.n), Hyper())

        def refuse(*args, **kwargs):
            raise AssertionError("pi fitted a propensity model")

        monkeypatch.setattr(propensity, "fit_forest", refuse)
        monkeypatch.setattr(propensity, "fit_logistic", refuse)
        for name in ("auto", "forest", "logistic", "oracle"):
            model = fit_ccme(split, Hyper(variant="pi", propensity=name))
            assert np.array_equal(model.second.coef, ref.second.coef)

    def test_one_shared_dict_builds_each_nuisance_once(self, monkeypatch):
        calls = []

        def counting(module, name, tag=lambda args: ""):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls.append(name + tag(args))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

        split = make_split(n=30, seed=9)
        hypers = [Hyper(variant=v, propensity=p) for v in ("dr", "ipw", "pi")
                  for p in ("logistic", "forest")]
        alone = [fit_ccme(split, h) for h in hypers]
        counting(estimators, "fit_propensity")
        counting(estimators, "fit_first_stage")
        counting(estimators.KernelHead, "factor", lambda args: str(args[2]))
        shared = {}
        together = [fit_ccme(split, h, shared=shared) for h in hypers]
        # factor0 is the first stage's own, factor1 stage two's
        assert sorted(calls) == ["factor0", "factor1", "fit_first_stage",
                                 "fit_propensity", "fit_propensity"]
        for one, other in zip(alone, together):
            assert np.array_equal(one.second.coef, other.second.coef)

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    def test_a_stage_two_needs_what_its_variant_reads(self):
        split = make_split(n=30, seed=10)
        first, omega = fit_first_stage(split, "rr", Hyper()), np.ones(split.n)
        for variant, reads in estimators.READS.items():
            for name in ("first", "omega"):
                given = {"first": first, "omega": omega, name: None}
                fit = lambda: fit_second_stage(split, "rr", variant, given["first"],
                                               given["omega"], Hyper())
                if name in reads:
                    with pytest.raises(InvalidArgumentError, match="needs"):
                        fit()
                else:
                    assert fit().variant == variant


class TestReductionProperties:
    """The variants' pseudo-outcomes xi = a phi(Y) + c mu0 over random
    weights, outcomes and bandwidths."""

    @staticmethod
    def problem(n, seed, bandwidth, spread):
        """Outcomes spread narrowly against the bandwidth give a whitened
        basis, widely the kernel sections at the outcomes."""
        rng = np.random.default_rng(seed)
        ky = KernelSpec(bandwidth=bandwidth, normalized=True)
        y = rng.normal(0.0, spread, n)
        basis = outcome_basis(ky, y)
        mix = rng.normal(size=(n, n))                 # mu0_i = sum_j mix_ij phi(y_j)
        mu0 = mix @ basis.bumps(ky, y).T
        omega = np.where(rng.random(n) < 0.6, rng.uniform(1.0, 20.0, n), 0.0)
        return ky, y, basis, mix, mu0, omega

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           bandwidth=st.floats(0.2, 5.0), spread=st.floats(0.05, 5.0))
    def test_dr_ipw_and_pi_reductions_are_exact(self, n, seed, bandwidth, spread):
        ky, y, basis, _, mu0, omega = self.problem(n, seed, bandwidth, spread)
        ones = np.ones(n)
        assert np.array_equal(build_k_xi(ky, y, *pseudo_weights("dr", ones), basis, mu0),
                              build_k_xi(ky, y, *pseudo_weights("ipw", ones), basis, mu0))
        pi = build_k_xi(ky, y, *pseudo_weights("pi", omega), basis, mu0)
        assert np.array_equal(pi, mu0)
        assert np.array_equal(pi, build_k_xi(ky, y, *pseudo_weights("pi", ones),
                                             basis, mu0))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           bandwidth=st.floats(0.2, 5.0), spread=st.floats(0.05, 5.0),
           variant=st.sampled_from(["dr", "ipw", "pi"]))
    def test_masses_are_a_plus_c_times_the_first_stage_masses(
            self, n, seed, bandwidth, spread, variant):
        """Up to the whitened basis's bump masses, off by at most about
        3e-7 (the tails past its padded grid)."""
        ky, y, basis, mix, mu0, omega = self.problem(n, seed, bandwidth, spread)
        a, c = pseudo_weights(variant, omega)
        xi = build_k_xi(ky, y, a, c, basis, mu0)
        lo, hi = basis.grid.min() - 8 * bandwidth, basis.grid.max() + 8 * bandwidth
        grid = np.linspace(lo, hi, int((hi - lo) / (0.05 * bandwidth)) + 2)
        u = basis.coords(gram(ky, basis.grid, grid.reshape(-1, 1)))
        mass = np.trapezoid(xi @ u, grid, axis=1)
        masses0 = mix.sum(axis=1)                     # each bump has mass one
        scale = 1.0 + np.abs(a) + np.abs(c) * np.abs(mix).sum(axis=1)
        assert np.all(np.abs(mass - (a + c * masses0)) <= 1e-6 * scale)


class TestKXi:
    def make_first(self, split, ridge=20.0):
        return fit_first_stage(split, "rr", Hyper(ridge0=ridge))

    def test_dr_with_unit_omega_is_outcome_gram(self):
        split = make_split(n=16, seed=7)
        ky = KernelSpec(bandwidth=2.0, normalized=True)
        n = split.n
        basis = outcome_basis(ky, split.d1.Y)
        xi = build_k_xi(ky, split.d1.Y, np.ones(n), np.zeros(n), basis)
        # the weights reproduce the outcome Gram to the basis error,
        # 2.6e-13 of its largest entry as measured
        g = gram(ky, split.d1.Y)
        assert np.abs(xi_gram(basis, xi) - g).max() <= 1e-12 * np.abs(g).max()

    def test_ipw_is_conjugated_outcome_gram(self):
        split = make_split(n=16, seed=8)
        ky = KernelSpec(bandwidth=2.0, normalized=True)
        omega = np.random.default_rng(0).uniform(0.5, 3.0, size=split.n)
        omega[::3] = 0.0
        a, c = pseudo_weights("ipw", omega)
        basis = outcome_basis(ky, split.d1.Y)
        xi = build_k_xi(ky, split.d1.Y, a, c, basis)
        expect = np.diag(omega) @ gram(ky, split.d1.Y) @ np.diag(omega)
        assert np.allclose(xi_gram(basis, xi), expect, atol=1e-12)

    def test_zero_weight_row_is_identically_zero(self):
        split = make_split(n=16, seed=8)
        ky = KernelSpec(bandwidth=2.0)
        omega = np.ones(split.n)
        omega[2] = 0.0
        a, c = pseudo_weights("ipw", omega)
        xi = build_k_xi(ky, split.d1.Y, a, c)
        assert not xi[2].any() and xi[[0, 1, 3]].any()

    def pi_coords(self, split, y1):
        first = self.make_first(split)
        a, c = pseudo_weights("pi", np.ones(split.n))
        basis = first.head.basis
        mu0 = first.embedding(split.x1())[0].T
        return build_k_xi(Hyper().kernel_y(), y1, a, c, basis, mu0), first

    def test_pi_matches_entrywise_brute_force(self):
        d0 = Dataset(np.array([[0.2], [1.1], [-0.5], [0.9]]),
                     np.array([1.0, 1.0, 1.0, 0.0]),
                     np.array([0.4, -1.2, 0.8, 0.0]))
        d1 = Dataset(np.array([[0.0], [0.6], [1.7]]), np.array([1, 0, 1]),
                     np.array([0.5, 0.1, -0.7]))
        split = manual_split(d0, d1)
        xi, first = self.pi_coords(split, d1.Y)
        # mu0 row coefficients from a dense solve, then the Gram entry by entry
        h = Hyper()
        x0t, y0t = split.x0_treated(), split.y0_treated()
        E = np.linalg.solve(gram(h.kernel_x(), x0t) + 20.0 * np.eye(3),
                            gram(h.kernel_x(), x0t, split.x1()))
        k_bb = gram(h.kernel_y(), y0t)
        expect = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for p in range(3):
                    for q in range(3):
                        expect[i, j] += E[p, i] * E[q, j] * k_bb[p, q]
        assert np.allclose(xi_gram(first.head.basis, xi), expect, atol=1e-10)

    def test_pi_ignores_second_stage_outcomes(self):
        split = make_split(n=16, seed=9)
        xi1, _ = self.pi_coords(split, split.d1.Y)
        xi2, _ = self.pi_coords(split, split.d1.Y + 17.0)
        assert np.array_equal(xi1, xi2)

    def test_exactly_symmetric(self):
        """The pseudo-outcome Gram the coordinates imply is symmetric and
        positive semidefinite by construction."""
        split = make_split(n=16, seed=10)
        first = self.make_first(split)
        omega = np.random.default_rng(1).uniform(0.0, 2.5, size=split.n)
        a, c = pseudo_weights("dr", omega)
        xi = build_k_xi(Hyper().kernel_y(), split.d1.Y, a, c, first.head.basis,
                        first.embedding(split.x1())[0].T)
        g = xi_gram(first.head.basis, xi)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-12 * np.abs(g).max()

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
        k = kernel_eval(h.kernel_v(), 0.3, 0.5)
        expect = k / (1.0 + 20.0) * coords(model.second.basis, h.kernel_y(), 1.5)
        assert np.allclose(model.second.embedding(v)[0].T, expect, rtol=0.0,
                           atol=1e-14)

    def test_huge_ridge_flattens_curve(self):
        split = make_split(n=20, seed=11)
        h = Hyper(ridge1=1e12)
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "dr", first,
                                 np.ones(split.n), h)
        from ccme.density import default_grid, density_curves
        values, _ = density_curves(model, split.v1[:2], default_grid(model, 50))
        assert np.abs(values).max() < 1e-8

    def test_weights_match_explicit_quadratic_minimizer(self):
        # one desk-size instance of the closed-form equivalence check
        split = make_split(n=10, seed=12)
        h = Hyper()
        first = fit_first_stage(split, "rr", h)
        rng = np.random.default_rng(3)
        omega = np.where(split.d1.A > 0, rng.uniform(1.0, 3.0, split.n), 0.0)
        model = fit_second_stage(split, "rr", "dr", first, omega, h)
        a, c = pseudo_weights("dr", omega)
        xi = build_k_xi(model.kernel_y, split.d1.Y, a, c, model.second.basis,
                        first.embedding(split.x1())[0].T)
        k_v = gram(h.kernel_v(), split.v1)
        vq = split.v1[:3]
        beta = np.linalg.solve(k_v + 20.0 * np.eye(split.n),
                               gram(h.kernel_v(), split.v1, vq))
        assert np.allclose(model.second.embedding(vq)[0], xi.T @ beta, atol=1e-10)
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
        c_dr, _ = density_curves(dr, vq, y_grid=grid)
        c_os, _ = density_curves(ones, vq, y_grid=grid)
        assert np.allclose(c_dr, c_os, atol=1e-10)

    def test_method_mixing_rejected(self):
        split = make_split(n=20, seed=14)
        first = fit_first_stage(split, "rr", Hyper())
        with pytest.raises(InvalidArgumentError):
            fit_second_stage(split, "df", "dr", first, np.ones(split.n), Hyper())

    def test_onestep_needs_treated_rows(self):
        ds = make_dataset(24, seed=15)
        split = split_data(ds, seed=3)
        split.d1.A[:] = 0.0
        with pytest.raises(DegenerateDataError, match="treated D1 rows"):
            fit_second_stage(split, "rr", "onestep", None, None, Hyper())

    def test_fit_ccme_requires_propensity(self):
        """dr needs a propensity model it can fit: auto, forest or logistic.
        The oracle is the benchmark's, which sweeps pass as ``pi_hat``."""
        split = make_split(n=20, seed=16)
        for name in ("oracle", "xx"):
            with pytest.raises(ConfigError, match="propensity"):
                fit_ccme(split, Hyper(propensity=name))

    def test_fit_ccme_deterministic(self):
        from ccme.density import default_grid, density_curves
        ds = make_dataset(40, seed=17)
        split = split_data(ds, seed=4)
        h = Hyper(propensity="logistic")
        m1 = fit_ccme(split, h)
        m2 = fit_ccme(split, h)
        vq = split.v1[:2]
        c1, _ = density_curves(m1, vq, default_grid(m1, 40))
        c2, _ = density_curves(m2, vq, default_grid(m2, 40))
        assert np.array_equal(c1, c2)


class TestNetStages:
    def test_df_first_stage_training_reduces_loss(self, tiny_hyper):
        from ccme.nets import mlp_forward, mlp_init
        split = make_split(n=30, seed=18)
        first = fit_first_stage(split, "df", tiny_hyper)
        # recompute the loss the training loop starts from
        sizes = [split.d0.X.shape[1], *tiny_hyper.hidden, tiny_hyper.n_feats]
        init = mlp_init(sizes, tiny_hyper.net_seeds()[0])
        psi_init = mlp_forward(init, split.x0_treated())
        basis = first.head.basis
        xi0 = basis.whiten(coords(basis, tiny_hyper.kernel_y(), split.y0_treated()))
        start = df_trace_loss(psi_init, xi0, tiny_hyper.ridge0)[0] / split.m
        assert first.head.final_loss < start

    @pytest.mark.parametrize("rows", [1, 7, 47, 200, 301])
    def test_feature_gram_is_exactly_symmetric(self, rows, monkeypatch):
        """``SpdFactor`` reads one triangle, so the feature Gram that
        ``FeatureHead.solved`` forms from ``mlp_forward``'s output must equal
        its transpose bit for bit."""
        from ccme.nets import mlp_forward, mlp_init
        seen, real = [], estimators.SpdFactor

        def spy(matrix, ridge):
            seen.append(matrix.copy())
            return real(matrix, ridge)

        monkeypatch.setattr(estimators, "SpdFactor", spy)
        rng = np.random.default_rng(rows)
        net = mlp_init([5, 20, 20, 20], seed=rows)
        inputs, y = rng.normal(size=(rows, 5)), rng.normal(size=(rows, 1))
        basis = outcome_basis(KernelSpec(bandwidth=2.0, normalized=True), y)
        estimators.FeatureHead.solved(net, inputs, rng.normal(size=(rows, basis.size)),
                                      np.ones(rows), basis, 20.0)
        feats = mlp_forward(net, inputs)
        gram_f, = seen
        assert np.array_equal(gram_f, feats.T @ feats)
        assert np.array_equal(gram_f, gram_f.T)

    def test_df_warns_on_few_treated_rows(self):
        split = make_split(n=16, seed=19)
        h = Hyper(n_feats=max(split.m + 1, 21), epochs_df1=5, epochs_df2=5)
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
        assert np.array_equal(model.second.basis.grid, first.head.basis.grid)

    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_every_variant_spans_every_outcome(self, method, tiny_hyper):
        """One basis rule for every head: dr, ipw and onestep share the
        basis over every D0 and D1 outcome; for nk it is make_grid's."""
        split = make_split(n=24, seed=21)
        y_all = np.concatenate([split.d0.Y.ravel(), split.d1.Y.ravel()])
        assert (split.d1.A == 0).any()              # onestep drops D1 rows
        first = fit_first_stage(split, method, tiny_hyper)
        omega = np.ones(split.n)
        bases = [fit_second_stage(split, method, variant, first, omega,
                                  tiny_hyper).second.basis
                 for variant in ("dr", "ipw")]
        bases.append(fit_second_stage(split, method, "onestep", None, None,
                                      tiny_hyper).second.basis)
        for basis in bases:
            assert np.array_equal(basis.grid, first.head.basis.grid)
            assert (basis.proj is None) == (first.head.basis.proj is None)
            if basis.proj is not None:
                assert np.array_equal(basis.proj, first.head.basis.proj)
        if method == "nk":
            assert np.array_equal(bases[-1].grid, make_grid(
                y_all, tiny_hyper.n_feats, tiny_hyper.grid_pad))

    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_ipw_fits_no_first_stage(self, method, tiny_hyper, monkeypatch):
        from ccme.data import compute_omega
        from ccme.density import default_grid, density_matrix
        from ccme.propensity import fit_logistic
        # D0 holds an outcome extreme, so the basis must span both halves
        split = make_split(n=30, seed=25)
        h = Hyper() if method == "rr" else tiny_hyper
        prop = fit_logistic(split.d0.X, split.d0.A)
        ref = fit_second_stage(split, method, "ipw",
                               fit_first_stage(split, method, h),
                               compute_omega(split.d1, prop, h.clip()), h)
        calls = []
        monkeypatch.setattr(estimators, "fit_first_stage",
                            lambda *args, **kw: calls.append(args))
        model = fit_ccme(split, replace(h, method=method, variant="ipw",
                                        propensity="logistic"))
        # a model of the caller's own, under a name no fit could fit
        given = fit_ccme(split, replace(h, method=method, variant="ipw",
                                        propensity="oracle"), pi_hat=prop)
        assert calls == []
        vq, grid = split.v1[:3], default_grid(model, 30)
        for fitted in (model, given):
            assert np.array_equal(density_matrix(fitted, vq, grid),
                                  density_matrix(ref, vq, grid))

    def test_nk_first_stage_training_reduces_loss(self, tiny_hyper):
        from ccme.nets import mlp_forward, mlp_init
        split = make_split(n=30, seed=23)
        first = fit_first_stage(split, "nk", tiny_hyper)
        ky = tiny_hyper.kernel_y()
        grid = first.head.basis.grid
        k0, k_m = gram(ky, grid, split.y0_treated()), gram(ky, grid)
        sizes = [split.d0.X.shape[1], *tiny_hyper.hidden, grid.shape[0]]
        init = mlp_init(sizes, tiny_hyper.net_seeds()[0])
        f_init = mlp_forward(init, split.x0_treated())
        start = nk_loss_grad(f_init, k_m, k0)[0]
        best = nk_loss_grad(nk_minimizer(k_m, k0).T, k_m, k0)[0]
        assert best <= first.head.final_loss < start
