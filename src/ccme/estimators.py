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
needs the propensity but, with c = 0, no outcome embedding either.  Stage one
is itself this regression with a = 1, c = 0 over D0's treated rows.

Each backend is one regression head, and both stages use it:

    rr  KernelHead   kernel ridge: coef(x) = (K + ridge I)^-1 K(points, x)
    df  FeatureHead  ridge on trained features: coef(x) = F (F'F + ridge I)^-1 f(x)
    nk  GridHead     a net whose outputs weight the kernel sections of a
                     fixed outcome grid

The two ridge heads weight their training rows' pseudo-outcomes; the grid
head weights its grid directly, its training targets having absorbed a and c.
Stages pair like with like; mixing is rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

from .data import SplitDataset
from .errors import ConfigWarning, InvalidArgumentError
from .kernels import KernelSpec, SpdFactor, gram
from .nets import MlpParams, mlp_forward, mlp_init, train_mlp
from .propensity import PropensityModel

__all__ = [
    "Hyper", "KernelHead", "FeatureHead", "GridHead", "head_from_arrays",
    "FirstStage", "CcmeModel", "pseudo_weights", "build_k_xi",
    "df_trace_loss", "nk_loss_grad", "nk_minimizer", "make_grid",
    "fit_first_stage", "fit_second_stage", "fit_ccme",
    "METHODS", "VARIANTS",
]

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
# regression heads
#
# A head is fitted by ``fit(inputs, y, a, c, first, x1, hyper, stage, lr_rows,
# grid, grid_y)``: it regresses the pseudo-outcomes a_i phi(y_i) + c_i mu0(x1_i)
# on the input rows.  ``stage`` (0 or 1) picks the input kernel, the ridge, the
# epoch budget and the net seed; ``lr_rows`` is the row count the learning
# rate scales with.  Only the grid head reads ``grid`` (an override or None)
# and ``grid_y`` (the outcomes a default grid spans).


def _kernel_arrays(spec: KernelSpec) -> dict[str, np.ndarray]:
    return {"kernel.family": np.array(spec.family),
            "kernel.bandwidth": np.array(spec.bandwidth),
            "kernel.normalized": np.array(spec.normalized)}


def _kernel_from(arrays) -> KernelSpec:
    return KernelSpec(str(arrays["kernel.family"]), float(arrays["kernel.bandwidth"]),
                      bool(arrays["kernel.normalized"]))


def _net_arrays(net: MlpParams) -> dict[str, np.ndarray]:
    out = {"net.sizes": np.array(net.sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        out[f"net.w{i}"] = w
        out[f"net.b{i}"] = b
    return out


def _net_from(arrays) -> MlpParams:
    sizes = tuple(int(s) for s in arrays["net.sizes"])
    layers = range(len(sizes) - 1)
    return MlpParams(sizes, [arrays[f"net.w{i}"] for i in layers],
                     [arrays[f"net.b{i}"] for i in layers])


def _factor_from(arrays) -> SpdFactor:
    return SpdFactor.from_regularized(arrays["factor"], float(arrays["ridge"]))


def _row_bump_weights(head, x, a, c, first, cross):
    """Bump weights of a ridge head, whose coefficients weight its training
    rows' pseudo-outcomes: a * coef over its outcome rows and, through the
    cached design ``cross``, the c-term over the first stage's basis."""
    beta = head.coef(x)                                  # (n, T)
    w1 = a[:, None] * beta
    if cross is None or not c.any():
        return head.outcomes, w1, None, None
    return head.outcomes, w1, first.basis, first.solve(cross @ (c[:, None] * beta))


@dataclass
class KernelHead:
    """Kernel ridge regression over ``points``, whose outcome rows are the basis."""

    method = "rr"
    final_loss = float("nan")           # closed form: nothing is trained

    kernel: KernelSpec
    points: NDArray[np.float64]         # (n, d) training inputs
    factor: SpdFactor                   # K(points) + ridge I
    outcomes: NDArray[np.float64]       # (n, 1) training outcomes

    @property
    def in_dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def basis(self) -> NDArray[np.float64]:
        return self.outcomes

    def design(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """K(points, x), shape (n, T)."""
        return gram(self.kernel, self.points, x)

    def solve(self, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Row coefficients for a right-hand side in design space."""
        return self.factor.solve(rhs)

    def coef(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Coefficients (n, T) over the training rows at the rows of x."""
        return self.solve(self.design(x))

    bump_weights = _row_bump_weights

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.array(self.method), **_kernel_arrays(self.kernel),
                "points": self.points, "factor": self.factor.matrix,
                "ridge": np.array(self.factor.ridge), "outcomes": self.outcomes}

    @classmethod
    def from_arrays(cls, arrays) -> "KernelHead":
        return cls(_kernel_from(arrays), arrays["points"], _factor_from(arrays),
                   arrays["outcomes"])

    @classmethod
    def fit(cls, inputs, y, a, c, first, x1, hyper: Hyper, stage: int,
            lr_rows: int, grid, grid_y) -> "KernelHead":
        kernel = hyper.kernel_x() if stage == 0 else hyper.kernel_v()
        ridge = (hyper.ridge0, hyper.ridge1)[stage]
        return cls(kernel, inputs, SpdFactor(gram(kernel, inputs), ridge), y)


@dataclass
class FeatureHead:
    """Ridge regression on the features F = net(training inputs)."""

    method = "df"

    net: MlpParams                      # inputs -> M features
    feats: NDArray[np.float64]          # (n, M) features of the training rows
    factor: SpdFactor                   # F'F + ridge I
    outcomes: NDArray[np.float64]       # (n, 1) training outcomes
    final_loss: float = float("nan")

    @property
    def in_dim(self) -> int:
        return int(self.net.sizes[0])

    @property
    def basis(self) -> NDArray[np.float64]:
        return self.outcomes

    def design(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """The features at x, transposed: shape (M, T)."""
        feats, _ = mlp_forward(self.net, x)
        return feats.T

    def solve(self, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Row coefficients for a right-hand side in design space."""
        return self.feats @ self.factor.solve(rhs)

    def coef(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Coefficients (n, T) over the training rows at the rows of x."""
        return self.solve(self.design(x))

    bump_weights = _row_bump_weights

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.array(self.method), **_net_arrays(self.net),
                "feats": self.feats, "factor": self.factor.matrix,
                "ridge": np.array(self.factor.ridge), "outcomes": self.outcomes,
                "final_loss": np.array(self.final_loss)}

    @classmethod
    def from_arrays(cls, arrays) -> "FeatureHead":
        return cls(_net_from(arrays), arrays["feats"], _factor_from(arrays),
                   arrays["outcomes"], float(arrays["final_loss"]))

    @classmethod
    def fit(cls, inputs, y, a, c, first, x1, hyper: Hyper, stage: int,
            lr_rows: int, grid, grid_y) -> "FeatureHead":
        rows = inputs.shape[0]
        if rows < hyper.n_feats:
            warnings.warn(
                f"only {rows} training rows for {hyper.n_feats} features; "
                "expect an ill-conditioned feature Gram", ConfigWarning)
        ridge = (hyper.ridge0, hyper.ridge1)[stage]
        g_xi = build_k_xi(hyper.kernel_y(), y, a, c, first, x1)
        net = mlp_init([inputs.shape[1], *hyper.hidden, hyper.n_feats],
                       hyper.net_seeds()[stage])

        def loss_fn(psi: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            loss, grad = df_trace_loss(psi, g_xi, ridge)
            return loss / rows, grad / rows

        net, final = train_mlp(net, inputs, loss_fn, hyper.epochs_df[stage],
                               hyper.scaled_lr(hyper.lr_df, lr_rows), hyper.momentum)
        feats, _ = mlp_forward(net, inputs)
        return cls(net, feats, SpdFactor(feats.T @ feats, ridge), y, final)


@dataclass
class GridHead:
    """A coefficient net: net(x) weights the kernel sections at ``grid``."""

    method = "nk"

    net: MlpParams                      # inputs -> M grid coefficients
    grid: NDArray[np.float64]           # (M, 1)
    k_m: NDArray[np.float64]            # (M, M) outcome-kernel Gram of the grid
    final_loss: float = float("nan")

    @property
    def in_dim(self) -> int:
        return int(self.net.sizes[0])

    @property
    def basis(self) -> NDArray[np.float64]:
        return self.grid

    def design(self, x: NDArray[np.float64]) -> None:
        """None: the c-term is folded into stage two's training targets, so
        density evaluation needs no design of this head."""
        return None

    def coef(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Coefficients (M, T) over the grid at the rows of x."""
        feats, _ = mlp_forward(self.net, x)
        return feats.T

    def bump_weights(self, x, a, c, first, cross):
        return self.grid, self.coef(x), None, None

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.array(self.method), **_net_arrays(self.net),
                "grid": self.grid, "k_m": self.k_m,
                "final_loss": np.array(self.final_loss)}

    @classmethod
    def from_arrays(cls, arrays) -> "GridHead":
        return cls(_net_from(arrays), arrays["grid"], arrays["k_m"],
                   float(arrays["final_loss"]))

    @classmethod
    def fit(cls, inputs, y, a, c, first, x1, hyper: Hyper, stage: int,
            lr_rows: int, grid, grid_y) -> "GridHead":
        if first is None:
            if grid is None:
                grid = make_grid(grid_y, hyper.n_feats, hyper.grid_pad)
            grid = _check_grid(grid)
        else:                                        # both stages share one grid
            if grid is not None and not np.array_equal(_check_grid(grid),
                                                       first.head.grid):
                raise InvalidArgumentError(
                    "outcome grid mismatch between stages: the second-stage grid "
                    "override must equal the first-stage grid exactly")
            grid = first.head.grid
        ky = hyper.kernel_y()
        k_m = gram(ky, grid)
        b = gram(ky, grid, y) * a[None, :]           # (M, n) targets
        if c.any():
            b = b + (k_m @ first.coef(x1)) * c[None, :]
        net = mlp_init([inputs.shape[1], *hyper.hidden, grid.shape[0]],
                       hyper.net_seeds()[stage])

        def loss_fn(feats: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            return nk_loss_grad(feats, k_m, b)

        net, final = train_mlp(net, inputs, loss_fn, hyper.epochs_nk[stage],
                               hyper.scaled_lr(hyper.lr_nk, lr_rows), hyper.momentum)
        return cls(net, grid, k_m, final)


_HEADS = {head.method: head for head in (KernelHead, FeatureHead, GridHead)}
METHODS = tuple(_HEADS)


def _head_class(method: str):
    if method not in _HEADS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return _HEADS[method]


def head_from_arrays(arrays) -> KernelHead | FeatureHead | GridHead:
    """Rebuild a head from the arrays its ``to_arrays`` returned."""
    return _head_class(str(arrays["kind"])).from_arrays(arrays)


# ---------------------------------------------------------------------------
# first stage


@dataclass
class FirstStage:
    """The fitted outcome embedding mu0: a head over D0's treated rows, read
    through the covariate subset ``x_cols``."""

    head: KernelHead | FeatureHead | GridHead
    x_cols: list[int] | None

    @property
    def method(self) -> str:
        return self.head.method

    def _project(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x if self.x_cols is None else x[:, self.x_cols]

    def coef(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Coefficient matrix (basis size, T) of mu0 at the rows of x."""
        return self.head.coef(self._project(x))

    def design(self, x: NDArray[np.float64]) -> NDArray[np.float64] | None:
        """The head's design at the rows of x, or None for the grid head."""
        return self.head.design(self._project(x))


def make_grid(y: NDArray[np.float64], n_points: int, pad: float) -> NDArray[np.float64]:
    """Uniform outcome grid covering the observed range with padding."""
    y = np.asarray(y, dtype=np.float64)
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


def _all_outcomes(split: SplitDataset) -> NDArray[np.float64]:
    return np.concatenate([split.d0.Y.ravel(), split.d1.Y.ravel()])


def fit_first_stage(split: SplitDataset, method: str, hyper: Hyper,
                    grid: NDArray[np.float64] | None = None) -> FirstStage:
    """Regress phi(Y) on the covariates over D0's treated rows: stage two's
    regression with a = 1, c = 0.  Learning rates scale with len(D0); an nk
    grid spans every D0 and D1 outcome unless ``grid`` overrides it."""
    head_cls = _head_class(method)
    y0t = split.y0_treated()
    a = np.ones(y0t.shape[0])
    head = head_cls.fit(split.x0_treated(hyper.x_cols), y0t, a, np.zeros_like(a),
                        None, None, hyper, 0, len(split.d0), grid,
                        _all_outcomes(split))
    return FirstStage(head, hyper.x_cols)


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


def build_k_xi(kernel_y: KernelSpec, y1: NDArray[np.float64],
               a: NDArray[np.float64], c: NDArray[np.float64],
               first: FirstStage | None = None,
               x1: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """Gram matrix of the pseudo-outcomes xi_i = a_i phi(Y_i) + c_i mu0(X_i).

    mu0 is read from the first stage as coefficients over its head's outcome
    basis.  With c = 0 or no first stage the result is just the weighted
    outcome Gram; with a = 1 and c = 0 it equals gram(kernel_y, y1) exactly.
    """
    y1 = np.atleast_2d(y1)
    k_y1 = gram(kernel_y, y1)
    k_xi = (a[:, None] * k_y1) * a[None, :]
    if c.any():
        if first is None or x1 is None:
            raise InvalidArgumentError("nonzero c weights need a first stage and x1")
        e = first.coef(x1)                           # (B, n)
        basis = first.head.basis
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
class CcmeModel:
    """A fitted two-stage model, carrying everything density evaluation needs."""

    variant: str
    kernel_y: KernelSpec
    a: NDArray[np.float64]          # (n,)
    c: NDArray[np.float64]          # (n,)
    omega: NDArray[np.float64] | None
    first: FirstStage | None
    second: KernelHead | FeatureHead | GridHead
    y_lo: float
    y_hi: float
    # The first-stage head's design at the second-stage rows, first.design(x1):
    # K(x0t, x1) of shape (m, n) for rr, the features F(x1)' of shape (M, n)
    # for df.  Set only when some c weight is nonzero and the head has a
    # design; the grid head has none, its training targets hold the c-term.
    cross_cache: NDArray[np.float64] | None = None
    v_cols: list[int] = field(default_factory=list)

    @property
    def method(self) -> str:
        return self.second.method


def fit_second_stage(split: SplitDataset, method: str, variant: str,
                     first: FirstStage | None, omega: NDArray[np.float64] | None,
                     hyper: Hyper,
                     grid: NDArray[np.float64] | None = None) -> CcmeModel:
    """Regress pseudo-outcomes on V over D1 and package the fitted model.

    ``first`` may be None for ``ipw``, whose pseudo-outcomes never read mu0;
    nk then builds the outcome grid the first stage would have built.
    """
    head_cls = _head_class(method)
    if variant not in VARIANTS:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    y_all = _all_outcomes(split)
    if variant == "onestep":
        if first is not None:
            warnings.warn("one-step variant ignores the first stage", ConfigWarning)
        keep = split.d1.A > 0
        if not keep.any():
            raise InvalidArgumentError("one-step variant needs treated D1 rows")
        v1, y1, first = split.v1[keep], split.d1.Y[keep], None
        a = np.ones(v1.shape[0])
        c = np.zeros_like(a)
        grid_y = y1
    else:
        if first is None and variant != "ipw":
            raise InvalidArgumentError(f"variant {variant!r} needs a first stage")
        if first is not None and first.method != method:
            raise InvalidArgumentError(
                f"stage methods must match: first={first.method!r}, second={method!r}")
        if omega is None:
            raise InvalidArgumentError(f"variant {variant!r} needs omega")
        v1, y1 = split.v1, split.d1.Y
        a, c = pseudo_weights(variant, omega)
        grid_y = y_all

    x1 = None if first is None else split.x1()
    second = head_cls.fit(v1, y1, a, c, first, x1, hyper, 1, v1.shape[0], grid, grid_y)
    cross = first.design(x1) if first is not None and c.any() else None
    return CcmeModel(variant, hyper.kernel_y(), a, c, omega, first, second,
                     float(y_all.min()), float(y_all.max()), cross,
                     list(split.v_cols))


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
