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

Pseudo-outcomes live in finite weights over an outcome basis
(``kernels.outcome_basis``, with at most as many weights as distinct
outcomes): row i of Xi = diag(a) U(y1) + diag(c) mu0 holds the weights of
xi_i, and W = ``basis.whiten(Xi)`` has W W' their Gram, so nothing n x n is
formed.  Each backend is one regression head, used by both stages; the
fitted embedding at x is the head's weights(x) over the basis:

    rr  KernelHead   kernel ridge: weights(x) = C' K(points, x),
                     C = (K + ridge I)^-1 Xi
    df  FeatureHead  ridge on trained features: weights(x) = C' f(x),
                     C = (F'F + ridge I)^-1 F' Xi
    nk  GridHead     a net whose outputs weight the kernel sections of a
                     fixed outcome grid, its own basis

C is fixed at fit time, so the model keeps neither the first stage nor any
n x n factor: stage two reads the first stage only through its weights at
the D1 rows (mu0).  Stages pair like with like; mixing is rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .blas import single_thread
from .data import SplitDataset, compute_omega
from .errors import (ConfigError, ConfigWarning, DegenerateDataError,
                     InvalidArgumentError, NumericError)
from .kernels import (KernelSpec, OutcomeBasis, SpdFactor, _cho_inverse_apply,
                      _cholesky, gram, outcome_basis)
from .nets import MlpParams, mlp_forward, mlp_init, train_mlp
from .propensity import fit_propensity

__all__ = [
    "Hyper", "KernelHead", "FeatureHead", "GridHead", "head_from_arrays",
    "FirstStage", "CcmeModel", "pseudo_weights", "build_k_xi",
    "df_trace_loss", "nk_loss_grad", "make_grid",
    "fit_first_stage", "fit_second_stage", "fit_ccme",
    "METHODS", "READS", "VARIANTS",
]

# The nuisances each variant's pseudo-outcomes read: omega = A / pi_hat(X)
# on D1, and the first stage mu0.
READS = {"dr": ("omega", "first"), "ipw": ("omega",), "pi": ("first",), "onestep": ()}
VARIANTS = tuple(READS)


@dataclass
class Hyper:
    """Every setting of a fit, a sweep and the command line, each with its default.

    The CLI flags (``bandwidth_x`` is ``--bandwidth-x``), the ``--config``
    JSON keys and ``--print-config`` all come from these fields.  The
    defaults are the benchmark settings.

    Per-stage settings come in pairs that the heads index by stage (0 or 1):
    the ridges ``ridge0/ridge1``, added to the Gram diagonal as-is, and the
    epoch budgets ``epochs_df1/epochs_df2`` and ``epochs_nk1/epochs_nk2``.
    Learning rates are quoted per 200 rows and scaled linearly: stage one by
    len(D0), the whole nuisance half, although it trains on D0's treated rows
    only; stage two by the rows it trains on (D1, or D1's treated rows for
    the one-step variant).
    """

    # estimator selection
    method: str = "rr"
    variant: str = "dr"
    scenario: str = "a"
    # auto | forest | logistic | oracle: auto is a forest in a fit, the
    # scenario's model in a sweep cell, which alone resolves oracle
    propensity: str = "auto"
    seed: int = 0
    net_seed: int = 0
    threads: int = 1

    # kernels and ridges
    bandwidth_x: float = 2.0
    bandwidth_v: float = 2.0
    bandwidth_y: float = 2.0
    ridge0: float = 20.0
    ridge1: float = 20.0

    # networks
    n_feats: int = 20                   # feature count M for df / grid size for nk
    hidden: list[int] = field(default_factory=lambda: [20, 20])
    momentum: float = 0.9
    lr_df: float = 2e-4
    lr_nk: float = 4e-4
    epochs_df1: int = 6000
    epochs_df2: int = 1000
    epochs_nk1: int = 16000
    epochs_nk2: int = 500
    grid_pad: float = 2.0

    # propensity clipping
    clip_lo: float = 0.01
    clip_hi: float = 0.99

    # data
    n: int = 200
    v_cols: list[int] | None = None     # None = first five covariates

    # sweep / evaluation
    methods: list[str] = field(default_factory=lambda: ["rr"])
    variants: list[str] = field(default_factory=lambda: ["dr"])
    scenarios: list[str] = field(default_factory=lambda: ["a"])
    n_list: list[int] = field(default_factory=lambda: [200, 500, 2000, 5000])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    test_points: int = 500
    grid_points: int = 1000
    eval_seed: int = 0

    def kernel_x(self) -> KernelSpec:
        return KernelSpec(self.bandwidth_x)

    def kernel_v(self) -> KernelSpec:
        return KernelSpec(self.bandwidth_v)

    def kernel_y(self) -> KernelSpec:
        return KernelSpec(self.bandwidth_y, normalized=True)

    def clip(self) -> tuple[float, float]:
        return self.clip_lo, self.clip_hi

    def net_seeds(self) -> tuple[int, int]:
        ss = np.random.SeedSequence([int(self.net_seed)])
        a, b = ss.generate_state(2)
        return int(a), int(b)

    def scaled_lr(self, base: float, rows: int) -> float:
        return base * rows / 200.0


# ---------------------------------------------------------------------------
# regression heads
#
# ``new_basis(hyper, y_all)`` builds the outcome basis both stages share,
# over every D0 and D1 outcome.  ``fit(inputs, xi, masses, basis, hyper,
# stage, lr_rows)`` regresses the pseudo-outcomes' basis weights xi (n, r)
# and masses (n,) on the input rows; ``stage`` (0 or 1) picks the input
# kernel, ridge, epoch budget and net seed, and the learning rate scales with
# ``lr_rows``.  ``embedding(x)`` gives the weights (r, T) and masses (T,) at
# the rows of x.  The ridge heads map to the mass exactly, through a last
# column of ``coef``: a whitened basis misses up to about 1e-8 of a bump's
# tails beyond its padded grid.


def _net_arrays(net: MlpParams) -> dict[str, np.ndarray]:
    out = {"net.sizes": np.array(net.sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        out[f"net.w{i}"] = w
        out[f"net.b{i}"] = b
    return out


def _agree(arrays, shapes: dict[str, tuple[int, ...]]) -> None:
    """Reject stored arrays whose shapes differ from ``shapes`` (key: shape)."""
    for key, shape in shapes.items():
        if arrays[key].shape != shape:
            raise InvalidArgumentError(
                f"{key} has shape {arrays[key].shape}, expected {shape}")


def _net_from(arrays) -> MlpParams:
    sizes = tuple(int(s) for s in arrays["net.sizes"])
    layers = range(len(sizes) - 1)
    for i in layers:
        _agree(arrays, {f"net.w{i}": (sizes[i + 1], sizes[i]),
                        f"net.b{i}": (sizes[i + 1],)})
    return MlpParams(sizes, [arrays[f"net.w{i}"] for i in layers],
                     [arrays[f"net.b{i}"] for i in layers])


def _basis_arrays(basis: OutcomeBasis) -> dict[str, np.ndarray]:
    proj = {} if basis.proj is None else {"basis.proj": basis.proj}
    return {"basis.grid": basis.grid, **proj}


def _basis_from(arrays) -> OutcomeBasis:
    basis = OutcomeBasis(arrays["basis.grid"], arrays.get("basis.proj"))
    k = len(basis.grid)
    proj = {} if basis.proj is None else {"basis.proj": (basis.size, k)}
    _agree(arrays, {"basis.grid": (k, 1), **proj})
    return basis


def _ridge_basis(hyper: Hyper, y_all) -> OutcomeBasis:
    """The ridge heads' basis: ``outcome_basis`` over the outcomes."""
    return outcome_basis(hyper.kernel_y(), y_all)


@dataclass
class KernelHead:
    """Kernel ridge regression over ``points``: weights(x) = coef' K(points, x)
    with coef = (K(points) + ridge I)^-1 [xi | masses] fixed at fit time;
    K is an input kernel, unnormalized."""

    method = "rr"
    final_loss = float("nan")           # closed form: nothing is trained

    kernel: KernelSpec
    points: NDArray[np.float64]         # (n, d) training inputs
    coef: NDArray[np.float64]           # (n, r + 1)
    basis: OutcomeBasis

    new_basis = staticmethod(_ridge_basis)

    @property
    def in_dim(self) -> int:
        return int(self.points.shape[1])

    def embedding(self, x: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
        out = self.coef.T @ gram(self.kernel, self.points, x)
        return out[:-1], out[-1]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.array(self.method),
                "bandwidth": np.array(self.kernel.bandwidth), "points": self.points,
                "coef": self.coef, **_basis_arrays(self.basis)}

    @classmethod
    def from_arrays(cls, arrays) -> "KernelHead":
        basis, points = _basis_from(arrays), arrays["points"]
        n = len(points)
        _agree(arrays, {"points": (n, points.shape[-1]),
                        "coef": (n, basis.size + 1)})
        return cls(KernelSpec(float(arrays["bandwidth"])), points, arrays["coef"],
                   basis)

    @staticmethod
    def factor(inputs, hyper: Hyper, stage: int) -> SpdFactor:
        """K(inputs) + ridge I under the stage's kernel and ridge, factored
        in the Gram's own buffer: what ``fit`` solves with, whatever the
        targets."""
        kernel = hyper.kernel_x() if stage == 0 else hyper.kernel_v()
        return SpdFactor(gram(kernel, inputs), (hyper.ridge0, hyper.ridge1)[stage])

    @classmethod
    def fit(cls, inputs, xi, masses, basis, hyper: Hyper, stage: int,
            lr_rows: int, factor: SpdFactor | None = None) -> "KernelHead":
        """``factor`` is ``factor(inputs, hyper, stage)``, passed by fits
        that share their inputs."""
        factor = cls.factor(inputs, hyper, stage) if factor is None else factor
        kernel = hyper.kernel_x() if stage == 0 else hyper.kernel_v()
        return cls(kernel, inputs, factor.solve(np.column_stack([xi, masses])), basis)


@dataclass
class FeatureHead:
    """Ridge regression on the features of a trained net: weights(x) =
    coef' f(x) with coef = (F'F + ridge I)^-1 F' [xi | masses], F = f(training
    inputs)."""

    method = "df"

    net: MlpParams                      # inputs -> M features
    coef: NDArray[np.float64]           # (M, r + 1)
    basis: OutcomeBasis
    final_loss: float = float("nan")

    new_basis = staticmethod(_ridge_basis)

    @property
    def in_dim(self) -> int:
        return int(self.net.sizes[0])

    def embedding(self, x: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
        feats = mlp_forward(self.net, x)
        out = self.coef.T @ feats.T
        return out[:-1], out[-1]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.array(self.method), **_net_arrays(self.net),
                "coef": self.coef, **_basis_arrays(self.basis),
                "final_loss": np.array(self.final_loss)}

    @classmethod
    def from_arrays(cls, arrays) -> "FeatureHead":
        net, basis = _net_from(arrays), _basis_from(arrays)
        _agree(arrays, {"coef": (net.sizes[-1], basis.size + 1)})
        return cls(net, arrays["coef"], basis, float(arrays["final_loss"]))

    @classmethod
    def solved(cls, net: MlpParams, inputs, xi, masses, basis: OutcomeBasis,
               ridge: float, final_loss: float = float("nan")) -> "FeatureHead":
        """The closed-form ridge head on the features of ``net``."""
        feats = mlp_forward(net, inputs)
        factor = SpdFactor(feats.T @ feats, ridge)
        return cls(net, factor.solve(feats.T @ np.column_stack([xi, masses])), basis,
                   final_loss)

    @classmethod
    def fit(cls, inputs, xi, masses, basis, hyper: Hyper, stage: int,
            lr_rows: int) -> "FeatureHead":
        rows = inputs.shape[0]
        if rows < hyper.n_feats:
            warnings.warn(
                f"only {rows} training rows for {hyper.n_feats} features; "
                "expect an ill-conditioned feature Gram", ConfigWarning)
        ridge = (hyper.ridge0, hyper.ridge1)[stage]
        net = mlp_init([inputs.shape[1], *hyper.hidden, hyper.n_feats],
                       hyper.net_seeds()[stage])
        coords = basis.whiten(xi)

        def loss_fn(psi: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            loss, grad = df_trace_loss(psi, coords, ridge)
            grad /= rows
            return loss / rows, grad

        epochs = (hyper.epochs_df1, hyper.epochs_df2)[stage]
        net, final = train_mlp(net, inputs, loss_fn, epochs,
                               hyper.scaled_lr(hyper.lr_df, lr_rows), hyper.momentum)
        return cls.solved(net, inputs, xi, masses, basis, ridge, final)


@dataclass
class GridHead:
    """A coefficient net: net(x) weights the kernel sections at the basis grid."""

    method = "nk"

    net: MlpParams                      # inputs -> M grid weights
    basis: OutcomeBasis                 # the grid, with no projection
    final_loss: float = float("nan")

    @property
    def in_dim(self) -> int:
        return int(self.net.sizes[0])

    def embedding(self, x: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
        """The net's outputs and their total: each normalized bump
        integrates to one."""
        feats = mlp_forward(self.net, x)
        return feats.T, feats.sum(axis=1)

    @staticmethod
    def new_basis(hyper: Hyper, y_all) -> OutcomeBasis:
        """``n_feats`` points spanning the outcomes, padded by ``grid_pad``."""
        return OutcomeBasis(make_grid(y_all, hyper.n_feats, hyper.grid_pad))

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.array(self.method), **_net_arrays(self.net),
                **_basis_arrays(self.basis), "final_loss": np.array(self.final_loss)}

    @classmethod
    def from_arrays(cls, arrays) -> "GridHead":
        net, basis = _net_from(arrays), _basis_from(arrays)
        if basis.proj is not None or net.sizes[-1] != basis.size:
            raise InvalidArgumentError(
                f"a grid head needs one net output per grid point and no "
                f"projection; got {net.sizes[-1]} outputs, {basis.size} points")
        return cls(net, basis, float(arrays["final_loss"]))

    @classmethod
    def fit(cls, inputs, xi, masses, basis, hyper: Hyper, stage: int,
            lr_rows: int) -> "GridHead":
        k_m = gram(hyper.kernel_y(), basis.grid)
        targets = np.ascontiguousarray(xi.T)          # (M, n) columns
        net = mlp_init([inputs.shape[1], *hyper.hidden, basis.size],
                       hyper.net_seeds()[stage])

        def loss_fn(feats: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
            return nk_loss_grad(feats, k_m, targets)

        epochs = (hyper.epochs_nk1, hyper.epochs_nk2)[stage]
        net, final = train_mlp(net, inputs, loss_fn, epochs,
                               hyper.scaled_lr(hyper.lr_nk, lr_rows), hyper.momentum)
        return cls(net, basis, final)


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
    _last: tuple = field(default=(), init=False, repr=False, compare=False)

    def embedding(self, x: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
        """Weights (r, T) over the head's basis and masses (T,) of mu0 at x.
        The result for the last array read is kept, as a sweep group's variants
        read one first stage at one D1; neither may be changed in place."""
        if not self._last or self._last[0] is not x:
            rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
            self._last = (x, self.head.embedding(
                rows if self.x_cols is None else rows[:, self.x_cols]))
        return self._last[1]


def make_grid(y: NDArray[np.float64], n_points: int, pad: float) -> NDArray[np.float64]:
    """Uniform outcome grid covering the observed range with padding."""
    y = np.asarray(y, dtype=np.float64)
    if n_points < 1:
        raise InvalidArgumentError("grid needs at least one point")
    lo, hi = float(y.min()) - pad, float(y.max()) + pad
    if not np.isfinite(hi - lo):
        raise ConfigError(f"the outcome grid from {lo:g} to {hi:g} has no finite "
                          "span; lower the grid pad")
    if n_points > 1 and lo == hi:                    # its points would repeat
        raise DegenerateDataError("constant outcomes need a grid pad above 0")
    return np.linspace(lo, hi, n_points).reshape(-1, 1)


def _all_outcomes(split: SplitDataset) -> NDArray[np.float64]:
    return np.concatenate([split.d0.Y.ravel(), split.d1.Y.ravel()])


def fit_first_stage(split: SplitDataset, method: str, hyper: Hyper) -> FirstStage:
    """Regress phi(Y) on the covariates over D0's treated rows: stage two's
    regression with a = 1, c = 0.  Learning rates scale with len(D0); the
    outcome basis spans every D0 and D1 outcome."""
    if split.m == 0:
        raise DegenerateDataError("no treated rows landed in D0; cannot fit a first stage")
    head_cls = _head_class(method)
    basis = head_cls.new_basis(hyper, _all_outcomes(split))
    y0t = split.y0_treated()
    a = np.ones(y0t.shape[0])
    xi = build_k_xi(hyper.kernel_y(), y0t, a, np.zeros_like(a), basis)
    return FirstStage(head_cls.fit(split.x0_treated(), xi, a, basis, hyper, 0,
                                   len(split.d0)), split.x_cols)


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
               basis: OutcomeBasis | None = None,
               mu0: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """Weights Xi (n, r) of the pseudo-outcomes xi_i = a_i phi(Y_i) + c_i mu0_i
    over an outcome basis: Xi = diag(a) U(y1) + diag(c) mu0, with U(y1) the
    bumps' weights (``OutcomeBasis.bumps``).

    ``mu0`` holds the weights of the first-stage embedding at each row,
    shape (n, r); it is read only where c is nonzero.  The basis defaults to
    the one ``outcome_basis`` builds over y1.
    """
    y1 = np.asarray(y1, dtype=np.float64).reshape(-1, 1)   # scalar outcomes
    if basis is None:
        basis = outcome_basis(kernel_y, y1)
    live = a != 0                     # rows whose outcome enters xi
    xi = np.zeros((len(y1), basis.size))
    if live.any():
        xi[live] = a[live, None] * basis.bumps(kernel_y, y1[live]).T
    if c.any():
        if mu0 is None:
            raise InvalidArgumentError("nonzero c weights need first-stage coordinates")
        xi = xi + c[:, None] * mu0
    return xi


# ---------------------------------------------------------------------------
# trained-feature and grid-coefficient losses


def df_trace_loss(psi: NDArray[np.float64], xi: NDArray[np.float64],
                  ridge: float) -> tuple[float, NDArray[np.float64]]:
    """Unexplained pseudo-outcome energy of the closed-form head, with gradient.

    With ``xi`` the pseudo-outcomes' whitened coordinates (``basis.whiten``),
    their Gram G = Xi Xi', S = Psi' Psi + ridge I and K = Xi' Psi S^-1 (r x M),

    loss(Psi) = Tr(G (I - Psi S^-1 Psi')) = ||Xi||_F^2 - <Xi' Psi, K>,
    grad      = -2 (I - Psi S^-1 Psi') G Psi S^-1 = -2 (Xi - Psi K') K,

    so the only solve is with the M x M matrix S, for r right-hand sides,
    and nothing n x n is formed.  It works on Psi', contiguous for a net's
    outputs, and returns the gradient as the transpose of an (M, n) array.
    The returned loss is not divided by the row count; training wrappers
    normalize it themselves.
    """
    pt = psi.T                                       # (M, n) = Psi'
    gram_psi = pt @ psi
    gram_psi.ravel()[::pt.shape[0] + 1] += ridge
    try:
        cf = _cholesky(gram_psi, "the feature Gram")
    except NumericError:            # a non-finite feature makes the Gram fail
        if not np.isfinite(pt).all():
            raise NumericError("features became non-finite") from None
        raise
    px = (xi.T @ psi).T                              # (M, r) = P' = Psi' Xi, F-order
    kt = _cho_inverse_apply(cf, px)                  # (M, r) = K' = S^-1 P', F-order
    loss = float(np.vdot(xi, xi)) - float(np.vdot(px.T, kt.T))
    kt2 = kt + kt                                    # 2 K', exactly
    grad_t = (kt2 @ kt.T) @ pt                       # 2 K' K Psi'
    grad_t -= kt2 @ xi.T                             # - 2 K' Xi'
    return loss, grad_t.T


def nk_loss_grad(feats: NDArray[np.float64], k_m: NDArray[np.float64],
                 b: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
    """Mean embedding-space squared error of grid-coefficient outputs.

    loss(F) = (1/n) sum_i [f_i' K_M f_i - 2 f_i' b_i] with targets b as an
    (M, n) column stack; the phi-target norm is constant and omitted.  With
    R = K_M F' - b, loss = <F', R - b> / n and grad = ((2/n) R)', both laid
    out like ``df_trace_loss``'s.
    """
    ft = feats.T
    n = ft.shape[1]
    r = k_m @ ft
    r -= b
    loss = float(np.vdot(ft, r - b)) / n
    r *= 2.0 / n
    return loss, r.T


# ---------------------------------------------------------------------------
# second stage


@dataclass
class CcmeModel:
    """A fitted model: the stage-two head, whose weights over its outcome
    basis give the density at any query point."""

    variant: str
    bandwidth_y: float
    second: KernelHead | FeatureHead | GridHead
    y_lo: float
    y_hi: float
    v_cols: list[int] = field(default_factory=list)

    @property
    def kernel_y(self) -> KernelSpec:
        """The outcome kernel: normalized, so each bump is a density."""
        return KernelSpec(self.bandwidth_y, normalized=True)

    @property
    def method(self) -> str:
        return self.second.method


def _reads(variant: str) -> tuple[str, ...]:
    if variant not in READS:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    return READS[variant]


def fit_second_stage(split: SplitDataset, method: str, variant: str,
                     first: FirstStage | None, omega: NDArray[np.float64] | None,
                     hyper: Hyper, *,
                     factor: SpdFactor | None = None) -> CcmeModel:
    """Regress pseudo-outcomes on V over D1 and package the fitted model.

    ``first`` and ``omega`` may be None where the variant does not read them
    (``READS``).  Every head's outcome basis spans every D0 and D1 outcome:
    the stage keeps the first stage's basis or, without one, builds the
    basis the first stage would have built, ``onestep``'s included.  An rr
    stage two over all of D1 (every variant but ``onestep``) solves with
    K(V1) + ridge1 I whatever its pseudo-outcomes; callers that fit several
    variants on one split pass it as ``factor``, from
    ``KernelHead.factor(split.v1, hyper, 1)``.
    """
    head_cls = _head_class(method)
    reads = _reads(variant)
    y_all = _all_outcomes(split)
    if not reads:                                    # onestep
        if first is not None:
            warnings.warn("one-step variant ignores the first stage", ConfigWarning)
        keep = split.d1.A > 0
        if not keep.any():
            raise DegenerateDataError("one-step variant needs treated D1 rows")
        v1, y1, first = split.v1[keep], split.d1.Y[keep], None
        a, c = np.ones(len(v1)), np.zeros(len(v1))
    else:
        if first is None and "first" in reads:
            raise InvalidArgumentError(f"variant {variant!r} needs a first stage")
        if first is not None and first.head.method != method:
            raise InvalidArgumentError(
                f"stage methods must match: first={first.head.method!r}, "
                f"second={method!r}")
        if omega is None and "omega" in reads:
            raise InvalidArgumentError(f"variant {variant!r} needs omega")
        v1, y1 = split.v1, split.d1.Y
        a, c = pseudo_weights(variant, np.zeros(split.n) if omega is None else omega)

    kernel_y = hyper.kernel_y()
    basis = head_cls.new_basis(hyper, y_all) if first is None else first.head.basis
    mu0, masses = None, a
    if first is not None and c.any():
        weights0, masses0 = first.embedding(split.x1())
        mu0, masses = basis.embed(kernel_y, weights0).T, a + c * masses0
    xi = build_k_xi(kernel_y, y1, a, c, basis, mu0)
    extra = () if factor is None else (factor,)       # only rr's head takes one
    second = head_cls.fit(v1, xi, masses, basis, hyper, 1, v1.shape[0], *extra)
    return CcmeModel(variant, hyper.bandwidth_y, second,
                     float(y_all.min()), float(y_all.max()), list(split.v_cols))


def _shared_part(shared: dict, key: tuple, build):
    """``build()``, run once per ``key`` in a ``shared`` dict.  A part that
    raised is not rebuilt: each later request raises its error."""
    if key not in shared:
        try:
            shared[key] = build()
        except Exception as exc:  # noqa: BLE001 - raised again for every request
            shared[key] = exc.with_traceback(None)
    part = shared[key]
    if isinstance(part, Exception):
        raise part
    return part


def fit_ccme(split: SplitDataset, hyper: Hyper, *, shared: dict | None = None,
             pi_hat: Callable[[NDArray], NDArray] | None = None) -> CcmeModel:
    """Fit ``hyper.method`` with ``hyper.variant`` on a split dataset and
    return the packaged model.

    Only the nuisances the variant reads (``READS``) are built: omega from
    ``pi_hat``, a propensity model the caller already has, or else from the
    model ``propensity.fit_propensity`` fits on D0 (``hyper.propensity``,
    where ``auto`` is a forest, seeded by ``hyper.seed``); and the first
    stage over ``split.x_cols``.  An rr stage two over all of D1 also
    factors K(V1) + ridge1 I.  Each is built once per ``shared`` dict: omega
    per ``hyper.propensity``, which also names a ``pi_hat``, the first stage
    per method and ``x_cols``, the factor once.  Fits may share one dict
    when they have one split's data and one ``Hyper``, differing only in
    method, variant, propensity and ``split.x_cols``.  No scenario is read:
    ``synthbench`` maps a scenario onto these.

    The fit runs under ``blas.single_thread``: its products and solves are
    small, except the factorizations of order ``kernels.WIDE_ORDER`` and
    above, which get the replaced thread counts back.
    """
    method, reads = hyper.method, _reads(hyper.variant)
    shared = {} if shared is None else shared
    omega = first = factor = None
    with single_thread():
        if "omega" in reads:
            def build_omega() -> NDArray[np.float64]:
                model = pi_hat if pi_hat is not None else fit_propensity(
                    hyper.propensity, split.d0.X, split.d0.A, hyper.seed)
                return compute_omega(split.d1, model, hyper.clip())

            omega = _shared_part(shared, ("omega", hyper.propensity), build_omega)
        if "first" in reads:
            first = _shared_part(shared, ("first", method, str(split.x_cols)),
                                 lambda: fit_first_stage(split, method, hyper))
        if method == "rr" and reads:             # onestep fits D1's treated rows
            factor = _shared_part(shared, ("factor",),
                                  lambda: KernelHead.factor(split.v1, hyper, 1))
        return fit_second_stage(split, method, hyper.variant, first, omega, hyper,
                                factor=factor)
