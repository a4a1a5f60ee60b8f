"""Propensity-score classifiers: logistic regression, shallow random forest,
and an oracle passthrough, all with clipped probability outputs.

The forest follows the canonical recipe: bootstrap resample per tree, Gini
impurity splits over every feature at each node, midpoint thresholds.
Each tree's random stream is derived from (seed, tree index) so fits are
reproducible regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.special import expit

from .errors import DegenerateDataError, InvalidArgumentError

__all__ = ["PropensityModel", "LogisticParams", "Tree", "fit_logistic",
           "fit_forest", "make_oracle", "predict_propensity",
           "logistic_loss_grad", "DEFAULT_CLIP"]

DEFAULT_CLIP = (0.01, 0.99)


@dataclass
class LogisticParams:
    coef: NDArray[np.float64]
    intercept: float


@dataclass
class Tree:
    """Flat array representation of one decision tree.

    ``feature[i] == -1`` marks node i as a leaf with probability ``prob[i]``;
    internal nodes route x < threshold left and x >= threshold right (split
    thresholds are midpoints; equal values go right).
    """

    feature: NDArray[np.int64]
    threshold: NDArray[np.float64]
    left: NDArray[np.int64]
    right: NDArray[np.int64]
    prob: NDArray[np.float64]

    def predict(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        cur = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = self.feature[cur]
            active = f >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            x = X[rows, f[rows]]
            goes_left = x < self.threshold[cur[rows]]
            cur[rows] = np.where(goes_left, self.left[cur[rows]],
                                 self.right[cur[rows]])
        return self.prob[cur]


@dataclass
class PropensityModel:
    """A fitted classifier plus clip bounds applied to every prediction."""

    kind: str                       # "logistic" | "forest" | "oracle"
    clip: tuple[float, float] = DEFAULT_CLIP
    n_features: int = 0
    logistic: LogisticParams | None = None
    trees: list[Tree] = field(default_factory=list)
    oracle: Callable[[NDArray], NDArray] | None = None

    def __post_init__(self) -> None:
        lo, hi = self.clip
        if not (0.0 < lo < hi < 1.0):
            raise InvalidArgumentError(f"clip bounds must satisfy 0 < lo < hi < 1, got {self.clip}")


def logistic_loss_grad(coef: NDArray, intercept: float, X: NDArray,
                       A: NDArray) -> tuple[float, NDArray, float]:
    """Mean log-loss and its gradient wrt (coef, intercept)."""
    z = X @ coef + intercept
    p = expit(z)
    eps = 1e-12
    loss = float(-np.mean(A * np.log(p + eps) + (1 - A) * np.log(1 - p + eps)))
    r = (p - A) / X.shape[0]
    return loss, X.T @ r, float(r.sum())


def fit_logistic(X: NDArray[np.float64], A: NDArray[np.float64],
                 epochs: int = 2000, lr: float = 0.1,
                 clip: tuple[float, float] = DEFAULT_CLIP) -> PropensityModel:
    """Unpenalized logistic regression by full-batch gradient descent."""
    X = np.asarray(X, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != A.shape[0]:
        raise InvalidArgumentError("X must be (n, d) with one label per row")
    if X.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 rows")
    if A.min() == A.max():
        raise DegenerateDataError("logistic regression needs both classes present")
    coef = np.zeros(X.shape[1])
    intercept = 0.0
    for _ in range(int(epochs)):
        _, gw, gb = logistic_loss_grad(coef, intercept, X, A)
        coef = coef - lr * gw
        intercept = intercept - lr * gb
    return PropensityModel(kind="logistic", clip=clip, n_features=X.shape[1],
                           logistic=LogisticParams(coef, intercept))


def _gini_best_split(x: NDArray, y: NDArray) -> tuple[float, float] | None:
    """Best midpoint threshold for one feature, or None if x is constant.

    Returns (weighted child impurity, threshold); candidate positions are the
    boundaries between distinct consecutive sorted values.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    k = xs.shape[0]
    distinct = xs[1:] > xs[:-1]
    if not distinct.any():
        return None
    cum1 = np.cumsum(ys)
    n1 = cum1[-1]
    nl = np.arange(1, k, dtype=np.float64)
    nr = k - nl
    l1 = cum1[:-1]
    r1 = n1 - l1
    # Gini of a binary node with n rows and n1 positives: 2 p (1-p).
    gl = 2.0 * (l1 / nl) * (1.0 - l1 / nl)
    gr = 2.0 * (r1 / nr) * (1.0 - r1 / nr)
    w = (nl * gl + nr * gr) / k
    w[~distinct] = np.inf
    j = int(np.argmin(w))
    return float(w[j]), float(0.5 * (xs[j] + xs[j + 1]))


def _build_tree(X: NDArray, A: NDArray, max_depth: int) -> Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    prob: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(0.0)
        return len(feature) - 1

    def grow(rows: NDArray, depth: int) -> int:
        node = new_node()
        y = A[rows]
        p = float(y.mean())
        prob[node] = p
        if depth >= max_depth or p == 0.0 or p == 1.0 or rows.shape[0] < 2:
            return node
        best: tuple[float, int, float] | None = None
        for f in range(X.shape[1]):
            got = _gini_best_split(X[rows, f], y)
            if got is not None and (best is None or got[0] < best[0]):
                best = (got[0], int(f), got[1])
        if best is None:
            return node
        _, f, thr = best
        go_left = X[rows, f] < thr
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(rows[go_left], depth + 1)
        right[node] = grow(rows[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return Tree(np.asarray(feature, dtype=np.int64), np.asarray(threshold),
                np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
                np.asarray(prob))


def fit_forest(X: NDArray[np.float64], A: NDArray[np.float64],
               n_trees: int = 100, max_depth: int = 4, seed: int = 0,
               clip: tuple[float, float] = DEFAULT_CLIP) -> PropensityModel:
    """Random forest of shallow Gini trees on bootstrap resamples.

    Every split searches all features, so the bootstrap is the only
    randomization; with depth-4 trees this is what lets the forest express
    sharp feature interactions (a sqrt(d)-per-node subsample leaves most
    trees unable to combine the two or three features such rules need and
    caps accuracy well short of the large-sample target).
    """
    X = np.asarray(X, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != A.shape[0]:
        raise InvalidArgumentError("X must be (n, d) with one label per row")
    n, d = X.shape
    if n < 10:
        raise InvalidArgumentError(f"forest fitting needs n >= 10, got {n}")
    model = PropensityModel(kind="forest", clip=clip, n_features=d)
    if A.min() == A.max():
        # Single class: every tree would be a single leaf at the base rate.
        base = float(A.mean())
        model.trees = [Tree(np.array([-1]), np.array([0.0]), np.array([-1]),
                            np.array([-1]), np.array([base]))]
        return model
    for t in range(int(n_trees)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        boot = rng.integers(0, n, size=n)
        model.trees.append(_build_tree(X[boot], A[boot], max_depth))
    return model


def make_oracle(fn: Callable[[NDArray], NDArray], n_features: int,
                clip: tuple[float, float] = DEFAULT_CLIP) -> PropensityModel:
    """Wrap a closed-form propensity function of (n, n_features) covariate rows."""
    return PropensityModel(kind="oracle", clip=clip, n_features=n_features,
                           oracle=fn)


def predict_propensity(model: PropensityModel, x: NDArray[np.float64]) -> NDArray | float:
    """Clipped treatment probability for a point (1-d) or batch (2-d)."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise InvalidArgumentError(
            f"expected points with {model.n_features} features, got shape {np.shape(x)}")
    if model.kind == "logistic":
        p = expit(X @ model.logistic.coef + model.logistic.intercept)
    elif model.kind == "forest":
        p = np.mean([t.predict(X) for t in model.trees], axis=0)
    elif model.kind == "oracle":
        p = np.asarray(model.oracle(X), dtype=np.float64)
    else:
        raise InvalidArgumentError(f"unknown model kind: {model.kind!r}")
    p = np.clip(p, model.clip[0], model.clip[1])
    return float(p[0]) if single else p
