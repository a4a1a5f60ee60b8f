"""Acceptance gate: ten end-to-end checks with stated tolerances.

Each test prints one PASS/FAIL line.  The heavy convergence checks (7-9)
re-run the benchmark protocol at reduced n and take several minutes total.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.signal import find_peaks
from scipy.special import expit

from ccme.data import Dataset, SplitDataset, compute_omega, split_data
from ccme.density import default_grid, density_curves, density_matrix
from ccme.estimators import (Hyper, df_trace_loss, fit_ccme, fit_first_stage,
                             fit_second_stage, make_grid, nk_loss_grad)
from ccme.kernels import KernelSpec, gram
from ccme.nets import mlp_forward, mlp_init, train_mlp
from ccme.propensity import _logistic_grad, fit_propensity
from ccme.synthbench import (BETA, GAMMA, SCENARIOS, SHIFT, V_COLS, GroundTruth,
                             SweepCell, _derived_seed, eval_points, generate,
                             mse, run_cell)

from oracles import (feature_factor, forward_cache, logistic_loss, mlp_backward,
                     nk_minimizer, quadrature_mass)

V1 = np.array([2.2, -0.2, 2.2, -0.2, 2.2])


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_c01_rr_weights_match_explicit_quadratic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    h = Hyper()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        d0 = Dataset(rng.normal(size=(m, d)), np.ones(m), rng.normal(size=m))
        d1 = Dataset(rng.normal(size=(n, d)), np.ones(n), rng.normal(size=n))
        split = SplitDataset(d0, d1, np.arange(m), list(range(d)))
        omega = rng.uniform(0.5, 3.0, size=n)
        first = fit_first_stage(split, "rr", h)
        model = fit_second_stage(split, "rr", "dr", first, omega, h)

        # explicit finite-dimensional quadratic: factor both Grams into
        # feature coordinates, re-derive the pseudo-outcomes with a dense
        # solve, and minimize the ridge objective in closed form
        ky, kv, kx = h.kernel_y(), h.kernel_v(), h.kernel_x()
        atoms = np.vstack([d1.Y, d0.Y])
        F = feature_factor(gram(ky, atoms))
        F1, F0 = F[:n], F[n:]
        R = feature_factor(gram(kv, d1.X))
        E = np.linalg.solve(gram(kx, d0.X) + h.ridge0 * np.eye(m),
                            gram(kx, d0.X, d1.X))
        Xi = omega[:, None] * F1 + (1.0 - omega)[:, None] * (E.T @ F0)
        W = Xi.T @ R @ np.linalg.inv(R.T @ R + h.ridge1 * np.eye(R.shape[1]))
        oracle = R @ W.T

        # both fitted embeddings at the training rows, evaluated at every atom
        basis = model.second.basis
        u_atoms = basis.coords(gram(ky, basis.grid, atoms))
        pkg = model.second.embedding(d1.X)[0].T @ u_atoms
        worst = max(worst, float(np.abs(pkg - oracle @ F.T).max()))
    dt = time.perf_counter() - t0
    report(1, worst < 1e-8 and dt < 1.0,
           f"max weight deviation {worst:.3g} over 20 instances, {dt:.2f}s")


def explicit_trace_objective(psi, G, ridge):
    F = feature_factor(G)
    S = psi.T @ psi + ridge * np.eye(psi.shape[1])
    C = F.T @ psi @ np.linalg.inv(S)
    return float(np.sum((F - psi @ C.T) ** 2) + ridge * np.sum(C ** 2))


def test_c02_trace_loss_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        M = int(rng.integers(1, 5))
        psi = rng.normal(size=(n, M))
        F = rng.normal(size=(n, max(1, int(rng.integers(1, 5)))))
        G = F @ F.T
        ridge = float(rng.uniform(0.1, 5.0))
        loss, _ = df_trace_loss(psi, F, ridge)
        worst = max(worst, abs(loss - explicit_trace_objective(psi, G, ridge)))
    dt = time.perf_counter() - t0
    report(2, worst < 1e-8 and dt < 1.0,
           f"max trace identity gap {worst:.3g} over 20 instances, {dt:.2f}s")


def _fd_check(value_fn, grad, x0, eps=1e-5):
    """Norm relative error between grad and central differences at x0."""
    flat = x0.ravel()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        fd[i] = (value_fn((flat + bump).reshape(x0.shape))
                 - value_fn((flat - bump).reshape(x0.shape))) / (2 * eps)
    g = np.asarray(grad).ravel()
    return float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))


def test_c03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    errs = {}

    psi = rng.normal(size=(6, 3))
    F = rng.normal(size=(6, 4))
    _, grad = df_trace_loss(psi, F, 0.7)
    errs["df_trace"] = _fd_check(lambda p: df_trace_loss(p, F, 0.7)[0],
                                 grad, psi)

    Fk = rng.normal(size=(5, 3))
    ky = KernelSpec(bandwidth=1.3)
    grid = np.array([[0.0], [1.0], [2.5]])
    k_m = gram(ky, grid)
    b = gram(ky, grid, rng.normal(size=(5, 1)))
    _, grad = nk_loss_grad(Fk, k_m, b)
    errs["nk"] = _fd_check(lambda f: nk_loss_grad(f, k_m, b)[0], grad, Fk)

    net = mlp_init([3, 6, 4, 2], seed=4)
    for bias in net.biases:
        bias[:] = rng.normal(scale=0.1, size=bias.shape)
    X = rng.normal(size=(7, 3))
    T = rng.normal(size=(7, 2))

    def net_loss(params):
        out = mlp_forward(params, X)
        return 0.5 * float(np.sum((out - T) ** 2))

    out, cache = forward_cache(net, X)
    # central differences need smooth ground under every probe: no
    # preactivation may sit within the FD step of a ReLU kink
    assert all(np.abs(pre).min() > 1e-3 for pre in cache.preacts[:-1])
    grads = mlp_backward(net, cache, out - T)
    worst_net = 0.0
    for li, (gw, gb) in enumerate(grads):
        for which, g in (("w", gw), ("b", gb)):
            arr = net.weights[li] if which == "w" else net.biases[li]
            flat = arr.ravel()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + 1e-5
                up = net_loss(net)
                flat[i] = keep - 1e-5
                down = net_loss(net)
                flat[i] = keep
                fd[i] = (up - down) / 2e-5
            rel = np.linalg.norm(fd - g.ravel()) / max(np.linalg.norm(g), 1e-12)
            worst_net = max(worst_net, float(rel))
    errs["mlp"] = worst_net

    coef = rng.normal(size=3) * 0.4
    X2 = rng.normal(size=(15, 3))
    A2 = (rng.random(15) < 0.5).astype(float)
    # the gradient fit_logistic steps with, against the oracle loss
    g_coef, g_int = _logistic_grad(expit(X2 @ coef + 0.2), X2, A2)
    errs["logistic_coef"] = _fd_check(
        lambda w: logistic_loss(w, 0.2, X2, A2), g_coef, coef)
    fd_int = (logistic_loss(coef, 0.2 + 1e-5, X2, A2)
              - logistic_loss(coef, 0.2 - 1e-5, X2, A2)) / 2e-5
    errs["logistic_int"] = abs(fd_int - g_int) / max(abs(g_int), 1e-12)

    dt = time.perf_counter() - t0
    worst = max(errs.values())
    report(3, worst < 1e-4 and dt < 5.0,
           "max FD relative error " + ", ".join(
               f"{k}={v:.2e}" for k, v in errs.items()) + f", {dt:.2f}s")


def test_c04_reduction_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    N = 40
    X = rng.normal(size=(N, 3))
    data = Dataset(X, np.ones(N), rng.normal(size=N) + X[:, 0])
    split = split_data(data, seed=9)
    h = Hyper(n_feats=6, hidden=[8], epochs_df1=200, epochs_df2=150,
              epochs_nk1=400, epochs_nk2=150)
    omega = np.ones(split.n)
    worst = 0.0
    for method in ("rr", "df", "nk"):
        first = fit_first_stage(split, method, h)
        dr = fit_second_stage(split, method, "dr", first, omega, h)
        ipw = fit_second_stage(split, method, "ipw", first, omega, h)
        one = fit_second_stage(split, method, "onestep", None, None, h)
        vq = split.v1[:4]
        ygrid = default_grid(dr, 80)
        d_dr = density_matrix(dr, vq, ygrid)
        worst = max(worst,
                    float(np.abs(d_dr - density_matrix(ipw, vq, ygrid)).max()),
                    float(np.abs(d_dr - density_matrix(one, vq, ygrid)).max()))
    dt = time.perf_counter() - t0
    report(4, worst < 1e-10 and dt < 5.0,
           f"max curve deviation {worst:.3g} across rr/df/nk, {dt:.2f}s")


def test_c05_mass_identity():
    t0 = time.perf_counter()
    h = Hyper()
    variants = ("dr", "ipw", "pi", "onestep")
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        N = 30
        X = rng.normal(size=(N, 3))
        A = (rng.random(N) < 0.6).astype(float)
        A[:4] = 1.0
        data = Dataset(X, A, rng.normal(size=N) + 0.5 * X[:, 0])
        split = split_data(data, seed=seed)
        model = fit_ccme(split, replace(h, variant=variants[seed % 4],
                                        propensity="logistic"))
        sigma = model.kernel_y.bandwidth
        grid = np.linspace(model.y_lo - 8 * sigma, model.y_hi + 8 * sigma, 4001)
        values, masses = density_curves(model, rng.normal(size=(3, 3)), y_grid=grid)
        worst = max(worst, np.abs(masses - quadrature_mass(values, grid)).max())
    dt = time.perf_counter() - t0
    report(5, worst < 1e-4 and dt < 10.0,
           f"max |mass - quadrature| {worst:.3g} over 10 models, {dt:.2f}s")


def test_c06_ground_truth_oracle():
    t0 = time.perf_counter()
    coef = BETA + GAMMA
    tail = coef[5:]
    truth = GroundTruth()
    const_ok = (abs(tail.sum() - 3.5) < 1e-12
                and abs((tail ** 2).sum() - 9.55) < 1e-12
                and truth.tail_mean == tail.sum()
                and abs(truth.tail_var - 9.55) < 1e-12)

    p = truth.mix_p(V1)[0]
    m0 = truth.branch_mean(V1)[0]
    sd_mix = float(np.sqrt(truth.noise_var(V1)[0]))
    rng = np.random.default_rng(0)
    n = 10 ** 6
    tail_draw = rng.normal(1.0, 1.0, size=(n, 5))
    branch = (rng.random(n) < p).astype(np.float64)
    noise_sd = 0.5 * (1 + 0.5 * abs(V1[0]) + 0.3 * abs(V1[4]))
    y = (3.0 + V1 @ coef[:5] + tail_draw @ coef[5:] + SHIFT * branch
         + rng.normal(0.0, 1.0, n) * noise_sd)

    mean_true = m0 + SHIFT * p
    var_true = truth.noise_var(V1)[0] + SHIFT ** 2 * p * (1 - p)
    mean_err = abs(y.mean() - mean_true)
    var_err = abs(y.var() - var_true) / var_true

    def mix_cdf(t):
        return ((1 - p) * stats.norm.cdf(t, m0, sd_mix)
                + p * stats.norm.cdf(t, m0 + SHIFT, sd_mix))

    ks = stats.kstest(y, mix_cdf).statistic
    dt = time.perf_counter() - t0
    report(6, const_ok and mean_err < 0.01 and var_err < 0.01
           and ks < 0.003 and dt < 30.0,
           f"sum c={tail.sum():.2f}, sum c^2={(tail ** 2).sum():.2f}, mean "
           f"err {mean_err:.2e}, rel var err {var_err:.2e}, KS {ks:.2e}, "
           f"{dt:.1f}s")


def test_c07_convergence_trend_scenario_a():
    t0 = time.perf_counter()
    test_v = eval_points(500, 0)
    h = Hyper()
    medians = {}
    for n in (200, 2000):
        vals = []
        for seed in range(5):
            rec = run_cell(SweepCell("rr", "dr", "a", n, seed), h, test_v)
            assert rec.error == "", rec.error
            vals.append(rec.mse)
        medians[n] = float(np.median(vals))
    ratio = medians[2000] / medians[200]
    dt = time.perf_counter() - t0
    report(7, ratio <= 0.5,
           f"median mse {medians[200]:.3e} (n=200) -> {medians[2000]:.3e} "
           f"(n=2000), ratio {ratio:.3f} <= 0.5, {dt:.0f}s")


def _scenario_c_pair(n, seed, h, test_v, truth):
    """DR fit for one cell plus a PI fit on the same first stage."""
    kind, x_cols = SCENARIOS["c"]
    data, _ = generate(Hyper(n=2 * n, seed=_derived_seed(2026, n, seed)))
    split = split_data(data, _derived_seed(2027, n, seed), V_COLS, x_cols)
    cell_h = replace(h, net_seed=_derived_seed(2028, n, seed))
    prop = fit_propensity(kind, split.d0.X, split.d0.A, _derived_seed(2029, n, seed))
    omega = compute_omega(split.d1, prop, h.clip())
    first = fit_first_stage(split, "rr", cell_h)
    model = fit_second_stage(split, "rr", "dr", first, omega, cell_h)
    pi_model = fit_second_stage(split, "rr", "pi", first, omega, cell_h)
    y = np.concatenate([split.d0.Y.ravel(), split.d1.Y.ravel()])
    grid = np.linspace(y.min() - 2.0, y.max() + 2.0, 1000)
    truth_mat = truth.density_matrix(test_v, grid)
    return (mse(density_matrix(model, test_v, grid), truth_mat),
            mse(density_matrix(pi_model, test_v, grid), truth_mat))


def test_c08_double_robustness_scenario_c():
    t0 = time.perf_counter()
    h = Hyper()
    truth = GroundTruth()
    test_v = eval_points(500, 0)
    dr_med, pi_med = {}, {}
    for n in (500, 5000):
        dr_vals, pi_vals = [], []
        for seed in range(5):
            dr_mse, pi_mse = _scenario_c_pair(n, seed, h, test_v, truth)
            dr_vals.append(dr_mse)
            pi_vals.append(pi_mse)
        dr_med[n] = float(np.median(dr_vals))
        pi_med[n] = float(np.median(pi_vals))

    # guard: the rescored PI fit is exactly what a direct PI cell produces
    direct = run_cell(SweepCell("rr", "pi", "c", 500, 0), h, test_v)
    _, paired = _scenario_c_pair(500, 0, h, test_v, truth)
    assert direct.mse == paired

    dr_ratio = dr_med[5000] / dr_med[500]
    pi_ratio = pi_med[5000] / pi_med[500]
    dt = time.perf_counter() - t0
    report(8, dr_ratio <= 0.5 and pi_ratio >= 0.5,
           f"DR ratio {dr_ratio:.3f} <= 0.5 (converges), PI ratio "
           f"{pi_ratio:.3f} >= 0.5 (plateaus), {dt:.0f}s")


def test_c09_bimodality_recovery():
    t0 = time.perf_counter()
    n, seed = 5000, 0          # CI profile size
    data, _ = generate(Hyper(n=2 * n, seed=_derived_seed(2026, n, seed)))
    split = split_data(data, _derived_seed(2027, n, seed), V_COLS)
    h = Hyper(net_seed=_derived_seed(2028, n, seed), seed=_derived_seed(2029, n, seed))
    model = fit_ccme(split, h)
    grid = default_grid(model)
    values, _ = density_curves(model, V1.reshape(1, -1), y_grid=grid)
    curve = values[0]
    top = curve.max()
    peaks, _ = find_peaks(curve, height=0.2 * top, prominence=0.1 * top)
    n_modes = len(peaks)
    ok = n_modes == 2
    detail = f"{n_modes} modes"
    if ok:
        lo_idx, hi_idx = peaks[0], peaks[1]
        separation = float(grid[hi_idx] - grid[lo_idx])
        higher_on_shift_side = curve[hi_idx] > curve[lo_idx]
        ok = separation > 8.0 and higher_on_shift_side
        detail = (f"2 modes at y={grid[lo_idx]:.2f}, {grid[hi_idx]:.2f}, "
                  f"separation {separation:.1f} > 8, upper mode taller: "
                  f"{higher_on_shift_side}")
    dt = time.perf_counter() - t0
    report(9, ok, detail + f", n={n} (CI profile), {dt:.0f}s")


def test_c10_nk_pointwise_minimizer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    m, M = 50, 10
    X = rng.normal(0.0, 1.0, (m, 2))
    y = 3.0 + X @ np.linspace(-0.8, 0.8, 2)
    ky = KernelSpec(bandwidth=2.0, normalized=True)
    grid = make_grid(y, M, 2.0)
    k_m = gram(ky, grid)
    b = gram(ky, grid, y.reshape(-1, 1))

    f_star = nk_minimizer(k_m, b)
    solve_ok = np.abs(k_m @ f_star - b).max() < 1e-10
    loss_star, grad_star = nk_loss_grad(f_star.T, k_m, b)
    stationary = np.abs(grad_star).max() < 1e-10

    h = Hyper()
    net = mlp_init([2, 20, 20, M], 7)
    net, _ = train_mlp(net, X, lambda F: nk_loss_grad(F, k_m, b),
                       h.epochs_nk1, h.scaled_lr(h.lr_nk, m), h.momentum)
    out = mlp_forward(net, X)
    trained, _ = nk_loss_grad(out, k_m, b)
    gap = (trained - loss_star) / abs(loss_star)
    dt = time.perf_counter() - t0
    report(10, solve_ok and stationary and gap < 0.05 and dt < 60.0,
           f"minimizer residual ok={solve_ok}, stationary={stationary}, "
           f"trained loss {trained:.6f} vs {loss_star:.6f}, gap {gap:.3%} "
           f"< 5%, {dt:.1f}s")
