"""Two-stage regression of counterfactual outcome embeddings on conditioning variables.

Stage one fits, on the D0 half, a propensity model and a conditional mean
embedding of the treated outcome given covariates.  Stage two regresses
pseudo-outcomes built from those nuisances on the conditioning variables V
over the D1 half.  Each pseudo-outcome is a two-term combination

    xi_i = a_i * phi(Y_i) + c_i * mu0(X_i)

so every variant reduces to a pair of weight vectors (a, c):

    doubly robust   a = omega, c = 1 - omega
    inverse weights a = omega, c = 0
    plug-in         a = 0,     c = 1

with omega_i = A_i / pi_hat(X_i).  The one-step variant skips the first stage
and regresses phi(Y) on V over the treated D1 rows only; inverse weighting
needs the propensity but, with c = 0, no outcome embedding either.

Three regression baselines share this skeleton: ridge regression in a kernel
space (rr), a trained feature map with a closed-form head (df), and a neural
coefficient network over a fixed outcome grid (nk).  Stages pair like with
like; mixing is rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

from .data import SplitDataset
from .errors import ConfigWarning, InvalidArgumentError
from .kernels import KernelSpec, SpdFactor, gram
from .nets import MlpParams, mlp_forward, mlp_init, train_mlp
from .propensity import PropensityModel

__all__ = [
    "Hyper", "FirstStage", "RrCme", "DfCme", "NkCme",
    "RrSecond", "DfSecond", "NkSecond", "CcmeModel",
    "pseudo_weights", "pseudo_targets", "PseudoTargets", "build_k_xi",
    "df_trace_loss", "nk_loss_grad", "nk_minimizer", "make_grid",
    "fit_first_stage", "fit_second_stage", "fit_ccme",
    "METHODS", "VARIANTS",
]

METHODS = ("rr", "df", "nk")
VARIANTS = ("dr", "ipw", "pi", "onestep")


@dataclass
class Hyper:
    """Hyperparameters shared by the fitting routines.

    Learning rates are quoted per 200 training rows and scaled linearly with
    the number of rows the stage actually trains on.  ``ridge0``/``ridge1``
    are added to the Gram diagonal as-is.
    """

    bandwidth_x: float = 2.0
    bandwidth_v: float = 2.0
    bandwidth_y: float = 2.0
    normalize_y: bool = True
    ridge0: float = 20.0
    ridge1: float = 20.0
    n_feats: int = 20               # feature count M for df / grid size for nk
    hidden: tuple[int, ...] = (20, 20)
    momentum: float = 0.9
    lr_df: float = 2e-4
    lr_nk: float = 4e-4
    epochs_df: tuple[int, int] = (6000, 1000)
    epochs_nk: tuple[int, int] = (16000, 500)
    grid_pad: float = 2.0
    net_seed: int = 0
    x_cols: list[int] | None = None  # first-stage covariate subset; None = all

    def kernel_x(self) -> KernelSpec:
        return KernelSpec("gaussian", self.bandwidth_x)

    def kernel_v(self) -> KernelSpec:
        return KernelSpec("gaussian", self.bandwidth_v)

    def kernel_y(self) -> KernelSpec:
        return KernelSpec("gaussian", self.bandwidth_y, normalized=self.normalize_y)

    def net_seeds(self) -> tuple[int, int]:
        ss = np.random.SeedSequence([int(self.net_seed)])
        a, b = ss.generate_state(2)
        return int(a), int(b)

    def scaled_lr(self, base: float, rows: int) -> float:
        return base * rows / 200.0


# ---------------------------------------------------------------------------
# first stage


@dataclass
class RrCme:
    kernel_x: KernelSpec
    x0t: NDArray[np.float64]        # (m, d') treated D0 covariates
    factor: SpdFactor               # K_x0t + ridge0 I


@dataclass
class DfCme:
    net: MlpParams                  # covariates -> M features
    psi0: NDArray[np.float64]       # (m, M) features at x0t
    factor: SpdFactor               # psi0' psi0 + ridge0 I
    final_loss: float = float("nan")


@dataclass
class NkCme:
    net: MlpParams                  # covariates -> M grid coefficients
    grid: NDArray[np.float64]       # (M, d_y)
    k_m: NDArray[np.float64]        # (M, M) outcome-kernel Gram of the grid
    final_loss: float = float("nan")


@dataclass
class FirstStage:
    """Fitted nuisances: outcome-embedding regression plus bookkeeping.

    ``cross_coef`` expresses mu0 at new covariate points as coefficients over
    a fixed basis: phi(y0t rows) for rr/df, phi(grid rows) for nk.
    """

    method: str
    kernel_y: KernelSpec
    x_cols: list[int] | None
    ridge0: float
    y0t: NDArray[np.float64]        # (m, d_y) treated D0 outcomes
    cme: RrCme | DfCme | NkCme

    @property
    def m(self) -> int:
        return int(self.y0t.shape[0])

    def _project(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x if self.x_cols is None else x[:, self.x_cols]

    def cross_coef(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Coefficient matrix (basis_size, T) of mu0 at the rows of x."""
        xp = self._project(x)
        if self.method == "rr":
            cme: RrCme = self.cme
            return cme.factor.solve(gram(cme.kernel_x, cme.x0t, xp))
        if self.method == "df":
            dcme: DfCme = self.cme
            feats, _ = mlp_forward(dcme.net, xp)
            return dcme.psi0 @ dcme.factor.solve(feats.T)
        ncme: NkCme = self.cme
        feats, _ = mlp_forward(ncme.net, xp)
        return feats.T

    def basis_y(self) -> NDArray[np.float64]:
        """Outcome points whose kernel sections span mu0's range."""
        return self.cme.grid if self.method == "nk" else self.y0t


def make_grid(y: NDArray[np.float64], n_points: int, pad: float) -> NDArray[np.float64]:
    """Uniform outcome grid covering the observed range with padding."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 2 and y.shape[1] != 1:
        raise InvalidArgumentError("grid construction needs scalar outcomes")
    if n_points < 1:
        raise InvalidArgumentError("grid needs at least one point")
    lo, hi = float(y.min()) - pad, float(y.max()) + pad
    return np.linspace(lo, hi, n_points).reshape(-1, 1)


def _check_grid(grid: NDArray[np.float64]) -> NDArray[np.float64]:
    grid = np.asarray(grid, dtype=np.float64)
    grid = grid.reshape(-1, 1) if grid.ndim == 1 else grid
    if len(np.unique(grid, axis=0)) != grid.shape[0]:
        raise InvalidArgumentError("outcome grid has duplicate points")
    return grid


def _two_stage_grid(split: SplitDataset, hyper: Hyper,
                    grid: NDArray[np.float64] | None) -> NDArray[np.float64]:
    """The nk outcome grid shared by both stages: the override, or a grid
    over every D0 and D1 outcome."""
    if grid is None:
        y_all = np.concatenate([split.d0.Y, split.d1.Y])
        grid = make_grid(y_all, hyper.n_feats, hyper.grid_pad)
    return _check_grid(grid)


def fit_first_stage(split: SplitDataset, method: str, hyper: Hyper,
                    grid: NDArray[np.float64] | None = None) -> FirstStage:
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    ky = hyper.kernel_y()
    x0t = split.x0_treated(hyper.x_cols)
    y0t = split.y0_treated()
    m = x0t.shape[0]

    if method == "rr":
        kx = hyper.kernel_x()
        cme: RrCme | DfCme | NkCme = RrCme(kx, x0t, SpdFactor(gram(kx, x0t), hyper.ridge0))
    elif method == "df":
        if m < hyper.n_feats:
            warnings.warn(
                f"only {m} treated rows for {hyper.n_feats} features; "
                "expect an ill-conditioned feature Gram", ConfigWarning)
        g0 = gram(ky, y0t)
        sizes = [x0t.shape[1], *hyper.hidden, hyper.n_feats]
        net = mlp_init(sizes, hyper.net_seeds()[0])

        def loss_fn(psi: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            loss, grad = df_trace_loss(psi, g0, hyper.ridge0)
            return loss / m, grad / m

        net, final = train_mlp(net, x0t, loss_fn, hyper.epochs_df[0],
                               hyper.scaled_lr(hyper.lr_df, len(split.d0)),
                               hyper.momentum)
        psi0, _ = mlp_forward(net, x0t)
        cme = DfCme(net, psi0, SpdFactor(psi0.T @ psi0, hyper.ridge0), final)
    else:
        grid = _two_stage_grid(split, hyper, grid)
        k_m = gram(ky, grid)
        k0 = gram(ky, grid, y0t)                     # (M, m) targets
        sizes = [x0t.shape[1], *hyper.hidden, grid.shape[0]]
        net = mlp_init(sizes, hyper.net_seeds()[0])

        def loss_fn(feats: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            return nk_loss_grad(feats, k_m, k0)

        net, final = train_mlp(net, x0t, loss_fn, hyper.epochs_nk[0],
                               hyper.scaled_lr(hyper.lr_nk, len(split.d0)),
                               hyper.momentum)
        cme = NkCme(net, grid, k_m, final)
    return FirstStage(method, ky, hyper.x_cols, hyper.ridge0, y0t, cme)


# ---------------------------------------------------------------------------
# pseudo-outcome weights


def pseudo_weights(variant: str, omega: NDArray[np.float64]
                   ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Weight pair (a, c) with xi = a phi(Y) + c mu0(X)."""
    omega = np.asarray(omega, dtype=np.float64)
    if variant == "dr":
        return omega.copy(), 1.0 - omega
    if variant == "ipw":
        return omega.copy(), np.zeros_like(omega)
    if variant == "pi":
        return np.zeros_like(omega), np.ones_like(omega)
    raise InvalidArgumentError(f"unknown variant {variant!r}")


@dataclass
class PseudoTargets:
    """Pseudo-outcomes in coefficient form over an explicit outcome basis.

    Inner products between pseudo-outcomes reduce to Gram algebra over
    (y1 rows, basis rows) with these weights and coefficients.
    """

    a: NDArray[np.float64]          # (n,)
    c: NDArray[np.float64]          # (n,)
    basis: NDArray[np.float64] | None   # (B, d_y) or None when c is all zero
    coef: NDArray[np.float64] | None    # (B, n): mu0(X_i) columns over the basis


def pseudo_targets(variant: str, first: FirstStage | None,
                   split: SplitDataset, omega: NDArray[np.float64] | None
                   ) -> PseudoTargets:
    if variant == "onestep":
        if first is not None:
            warnings.warn("one-step variant ignores first-stage settings",
                          ConfigWarning)
        a = (split.d1.A > 0).astype(np.float64)
        return PseudoTargets(a, np.zeros_like(a), None, None)
    if omega is None:
        raise InvalidArgumentError(f"variant {variant!r} needs omega")
    a, c = pseudo_weights(variant, omega)
    if first is None:
        raise InvalidArgumentError(f"variant {variant!r} needs a first stage")
    coef = None if not c.any() else first.cross_coef(split.x1())
    return PseudoTargets(a, c, None if coef is None else first.basis_y(), coef)


def build_k_xi(kernel_y: KernelSpec, y1: NDArray[np.float64],
               a: NDArray[np.float64], c: NDArray[np.float64],
               first: FirstStage | None = None,
               x1: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """Gram matrix of the pseudo-outcomes xi_i = a_i phi(Y_i) + c_i mu0(X_i).

    Accepts any first stage that can express mu0 over an outcome basis (rr or
    df; the grid-coefficient variant never needs this matrix).  With c = 0 or
    no first stage the result is just the weighted outcome Gram.
    """
    y1 = np.atleast_2d(y1)
    k_y1 = gram(kernel_y, y1)
    k_xi = (a[:, None] * k_y1) * a[None, :]
    if c.any():
        if first is None or x1 is None:
            raise InvalidArgumentError("nonzero c weights need a first stage and x1")
        e = first.cross_coef(x1)                     # (B, n)
        basis = first.basis_y()
        k_b1 = gram(kernel_y, basis, y1)             # (B, n)
        cross = k_b1.T @ e                           # (n, n): <phi(Y_i), mu0(X_j)>
        k_xi += (a[:, None] * cross) * c[None, :]
        k_xi += (c[:, None] * cross.T) * a[None, :]
        k_bb = gram(kernel_y, basis)
        quad = e.T @ (k_bb @ e)
        k_xi += (c[:, None] * quad) * c[None, :]
    return (k_xi + k_xi.T) / 2.0


# ---------------------------------------------------------------------------
# trained-feature and grid-coefficient losses


def df_trace_loss(psi: NDArray[np.float64], gram_xi: NDArray[np.float64],
                  ridge: float) -> tuple[float, NDArray[np.float64]]:
    """Unexplained pseudo-outcome energy of the closed-form head, with gradient.

    loss(Psi) = Tr(G (I - Psi S^-1 Psi')),  S = Psi' Psi + ridge I,
    grad      = -2 (I - Psi S^-1 Psi') G Psi S^-1.

    The returned loss is not divided by the row count; training wrappers
    normalize it themselves.
    """
    n, M = psi.shape
    s = psi.T @ psi + ridge * np.eye(M)
    try:
        cf = cho_factor(s, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge keeps s pd
        raise InvalidArgumentError(f"feature Gram not positive definite: {exc}")
    gp = gram_xi @ psi                               # (n, M)
    w = cho_solve(cf, psi.T)                         # (M, n) = S^-1 Psi'
    loss = float(np.trace(gram_xi)) - float(np.sum(gp * w.T))
    t = w @ gp                                       # (M, M) = S^-1 Psi' G Psi
    grad = -2.0 * cho_solve(cf, (gp - psi @ t).T).T  # (n, M)
    return loss, grad


def nk_loss_grad(feats: NDArray[np.float64], k_m: NDArray[np.float64],
                 b: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
    """Mean embedding-space squared error of grid-coefficient outputs.

    loss(F) = (1/n) sum_i [f_i' K_M f_i - 2 f_i' b_i] with targets b as an
    (M, n) column stack; the phi-target norm is constant and omitted.
    """
    n = feats.shape[0]
    fk = feats @ k_m
    loss = (float(np.sum(fk * feats)) - 2.0 * float(np.sum(feats * b.T))) / n
    grad = (2.0 * fk - 2.0 * b.T) / n
    return loss, grad


def nk_minimizer(k_m: NDArray[np.float64], b: NDArray[np.float64]
                 ) -> NDArray[np.float64]:
    """Per-column unconstrained minimizer K_M^-1 b of the grid-coefficient loss."""
    cf = cho_factor(k_m, lower=True)
    return cho_solve(cf, b)


# ---------------------------------------------------------------------------
# second stage


@dataclass
class RrSecond:
    kernel_v: KernelSpec
    v1: NDArray[np.float64]         # (n, d_v)
    factor: SpdFactor               # K_v1 + ridge1 I


@dataclass
class DfSecond:
    net: MlpParams                  # V -> M features
    v_dim: int
    psi1: NDArray[np.float64]       # (n, M)
    factor: SpdFactor               # psi1' psi1 + ridge1 I
    final_loss: float = float("nan")


@dataclass
class NkSecond:
    net: MlpParams                  # V -> M grid coefficients
    v_dim: int
    grid: NDArray[np.float64]       # (M, d_y)
    k_m: NDArray[np.float64]
    final_loss: float = float("nan")


@dataclass
class CcmeModel:
    """A fitted two-stage model, carrying everything density evaluation needs."""

    method: str
    variant: str
    kernel_y: KernelSpec
    ridge1: float
    a: NDArray[np.float64]          # (n,)
    c: NDArray[np.float64]          # (n,)
    y1: NDArray[np.float64]         # (n, d_y) second-stage outcome rows
    omega: NDArray[np.float64] | None
    first: FirstStage | None
    second: RrSecond | DfSecond | NkSecond
    y_lo: float
    y_hi: float
    # Cached link between second-stage rows and the first stage, used when
    # evaluating densities: rr stores the covariate cross-Gram K(x0t, x1)
    # with shape (m, n); df stores the stage-1 features at x1 with shape
    # (n, M); nk needs nothing (its training targets absorb the link).
    cross_cache: NDArray[np.float64] | None = None
    v_cols: list[int] = field(default_factory=list)


def fit_second_stage(split: SplitDataset, method: str, variant: str,
                     first: FirstStage | None, omega: NDArray[np.float64] | None,
                     hyper: Hyper,
                     grid: NDArray[np.float64] | None = None) -> CcmeModel:
    """Regress pseudo-outcomes on V over D1 and package the fitted model.

    ``first`` may be None for ``ipw``, whose pseudo-outcomes never read mu0;
    nk then builds the outcome grid the first stage would have built.
    """
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    if variant not in VARIANTS:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    ky = hyper.kernel_y()
    onestep = variant == "onestep"
    if not onestep:
        if first is None and variant != "ipw":
            raise InvalidArgumentError(f"variant {variant!r} needs a first stage")
        if first is not None and first.method != method:
            raise InvalidArgumentError(
                f"stage methods must match: first={first.method!r}, second={method!r}")

    if onestep:
        keep = split.d1.A > 0
        if not keep.any():
            raise InvalidArgumentError("one-step variant needs treated D1 rows")
        v1, y1 = split.v1[keep], split.d1.Y[keep]
        a = np.ones(int(keep.sum()))
        c = np.zeros_like(a)
        first = None
    else:
        v1, y1 = split.v1, split.d1.Y
        a, c = pseudo_weights(variant, omega)

    y_all = np.concatenate([split.d0.Y.ravel(), split.d1.Y.ravel()])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    x1 = None if onestep else split.x1()
    rows = v1.shape[0]

    if method == "rr":
        kv = hyper.kernel_v()
        second: RrSecond | DfSecond | NkSecond = RrSecond(
            kv, v1, SpdFactor(gram(kv, v1), hyper.ridge1))
        cross = None
        if not onestep and c.any():
            cme: RrCme = first.cme
            cross = gram(cme.kernel_x, cme.x0t, first._project(x1))
        return CcmeModel(method, variant, ky, hyper.ridge1, a, c, y1, omega,
                         first, second, y_lo, y_hi, cross, list(split.v_cols))

    if method == "df":
        g_xi = build_k_xi(ky, y1, a, c, first, x1)
        sizes = [v1.shape[1], *hyper.hidden, hyper.n_feats]
        net = mlp_init(sizes, hyper.net_seeds()[1])

        def loss_fn(psi: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            loss, grad_psi = df_trace_loss(psi, g_xi, hyper.ridge1)
            return loss / rows, grad_psi / rows

        net, final = train_mlp(net, v1, loss_fn, hyper.epochs_df[1],
                               hyper.scaled_lr(hyper.lr_df, rows), hyper.momentum)
        psi1, _ = mlp_forward(net, v1)
        second = DfSecond(net, v1.shape[1], psi1,
                          SpdFactor(psi1.T @ psi1, hyper.ridge1), final)
        cross = None
        if not onestep and c.any():
            cross, _ = mlp_forward(first.cme.net, first._project(x1))
        return CcmeModel(method, variant, ky, hyper.ridge1, a, c, y1, omega,
                         first, second, y_lo, y_hi, cross, list(split.v_cols))

    # nk: both stages must share one outcome grid exactly
    if onestep:
        use_grid = make_grid(y1, hyper.n_feats, hyper.grid_pad) if grid is None \
            else _check_grid(grid)
        k_m = gram(ky, use_grid)
        b = gram(ky, use_grid, y1) * a[None, :]
    else:
        if first is None:                            # ipw
            use_grid = _two_stage_grid(split, hyper, grid)
            k_m = gram(ky, use_grid)
        else:
            ncme: NkCme = first.cme
            if grid is not None and not np.array_equal(_check_grid(grid), ncme.grid):
                raise InvalidArgumentError(
                    "outcome grid mismatch between stages: the second-stage grid "
                    "override must equal the first-stage grid exactly")
            use_grid, k_m = ncme.grid, ncme.k_m
        b = gram(ky, use_grid, y1) * a[None, :]
        if c.any():
            gx = first.cross_coef(x1)                # (M, n)
            b = b + (k_m @ gx) * c[None, :]
    sizes = [v1.shape[1], *hyper.hidden, use_grid.shape[0]]
    net = mlp_init(sizes, hyper.net_seeds()[1])

    def loss_fn(feats: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
        return nk_loss_grad(feats, k_m, b)

    net, final = train_mlp(net, v1, loss_fn, hyper.epochs_nk[1],
                           hyper.scaled_lr(hyper.lr_nk, rows), hyper.momentum)
    second = NkSecond(net, v1.shape[1], use_grid, k_m, final)
    return CcmeModel(method, variant, ky, hyper.ridge1, a, c, y1, omega,
                     first, second, y_lo, y_hi, None, list(split.v_cols))


def fit_ccme(split: SplitDataset, method: str, variant: str,
             propensity: PropensityModel | None, hyper: Hyper,
             grid: NDArray[np.float64] | None = None) -> CcmeModel:
    """Fit both stages on a split dataset and return the packaged model."""
    from .data import compute_omega

    if variant == "onestep":
        return fit_second_stage(split, method, variant, None, None, hyper, grid)
    if propensity is None:
        raise InvalidArgumentError(f"variant {variant!r} needs a propensity model")
    omega = compute_omega(split.d1, propensity)
    # ipw has c = 0, so its pseudo-outcomes never read the first stage
    first = None if variant == "ipw" else fit_first_stage(split, method, hyper, grid)
    return fit_second_stage(split, method, variant, first, omega, hyper, grid)
