"""Propensity-score classifiers: logistic regression and a shallow random
forest, and ``fit_propensity``, which picks one by name.  A fitted model is a
callable from covariate rows to raw treatment probabilities;
``data.compute_omega`` clips them.

The forest follows the canonical recipe: bootstrap resample per tree, Gini
impurity splits over every feature at each node, midpoint thresholds.  It
sorts the rows once per forest (presorted split search, as in SLIQ) and
scans each node's rows weighted by their bootstrap counts, which grows the
same trees as sorting each node's resampled rows.  Each tree's random
stream is derived from (seed, tree index) so fits are reproducible
regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DegenerateDataError, InvalidArgumentError

__all__ = ["Logistic", "Forest", "Tree", "logistic", "fit_logistic",
           "fit_forest", "fit_propensity"]


def logistic(z: NDArray[np.float64]) -> NDArray[np.float64]:
    """1 / (1 + exp(-z)), within 1e-15 relative of scipy's expit and equal
    to it at ±0, ±inf, NaN and where exp(-z) overflows to give 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class Logistic:
    """A fitted logistic regression: P(A = 1 | x) = logistic(x' coef + intercept)."""

    coef: NDArray[np.float64]
    intercept: float

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        return logistic(X @ self.coef + self.intercept)


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
class Forest:
    """A fitted forest: the mean of its trees' leaf probabilities."""

    trees: list[Tree]

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.mean([t.predict(X) for t in self.trees], axis=0)


def _logistic_grad(p: NDArray, X: NDArray, A: NDArray) -> tuple[NDArray, float]:
    """Gradient of the mean log-loss wrt (coef, intercept) at the
    probabilities p."""
    r = (p - A) / X.shape[0]
    return X.T @ r, float(r.sum())


def _labelled(X: NDArray, A: NDArray) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Covariates as (n, d) float64 and one 0/1 label per row, or raise."""
    X = np.asarray(X, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != A.shape[0]:
        raise InvalidArgumentError("X must be (n, d) with one label per row")
    if not np.isfinite(X).all():
        raise InvalidArgumentError("covariates hold NaN or inf")
    if not np.isin(A, (0.0, 1.0)).all():
        raise InvalidArgumentError("labels must be 0 or 1")
    return X, A


def fit_logistic(X: NDArray[np.float64], A: NDArray[np.float64],
                 epochs: int = 2000, lr: float = 0.1) -> Logistic:
    """Unpenalized logistic regression by full-batch gradient descent."""
    X, A = _labelled(X, A)
    if X.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 rows")
    if A.min() == A.max():
        raise DegenerateDataError("logistic regression needs both classes present")
    coef = np.zeros(X.shape[1])
    intercept = 0.0
    for _ in range(int(epochs)):
        gw, gb = _logistic_grad(logistic(X @ coef + intercept), X, A)
        coef = coef - lr * gw
        intercept = intercept - lr * gb
    return Logistic(coef, intercept)


def _build_tree(XT: NDArray, order: NDArray, cnt: NDArray, A: NDArray,
                max_depth: int) -> Tree:
    """One Gini tree on the bootstrap multiset that holds row i ``cnt[i]`` times.

    A node keeps its distinct rows' ids as a (d, u) array, row f sorted by
    feature f: at the root, the forest's presort ``order`` cut to the rows
    drawn.  Counts are whole numbers, so the count-weighted scan gives bit for
    bit the sizes, impurities and thresholds of a scan over repeated rows.
    """
    w = cnt.astype(np.float64)
    wa = w * A
    flat, offset = XT.ravel(), np.arange(len(XT))[:, None] * XT.shape[1]
    nodes: list[list] = []                  # [feature, threshold, left, right, prob]

    def split(ids: NDArray, mask: NDArray) -> NDArray:
        # Every row of ids holds the same rows, so each keeps as many.
        return ids.ravel()[np.flatnonzero(mask)].reshape(len(ids), -1)

    def grow(ids: NDArray, depth: int) -> int:
        node = len(nodes)
        k, n1 = w[ids[0]].sum(), wa[ids[0]].sum()
        p = float(n1 / k)
        nodes.append([-1, 0.0, -1, -1, p])
        if depth >= max_depth or p == 0.0 or p == 1.0 or ids.shape[1] < 2:
            return node
        # Child impurity (nl gl + nr gr) / k at every boundary, gl = 2 q (1 - q)
        # the Gini of the nl rows on the left, q = l1 / nl their positive share
        # (gr likewise).  Doubling is exact and products commute: same rounding.
        xs = flat[ids + offset]
        nl = np.cumsum(w[ids], axis=1)[:, :-1]
        l1 = np.cumsum(wa[ids], axis=1)[:, :-1]
        size = np.stack([nl, k - nl])
        g = np.stack([l1, n1 - l1]) / size
        g *= 1.0 - g
        g *= size
        score = 2.0 * (g[0] + g[1]) / k
        score[~(xs[:, 1:] > xs[:, :-1])] = np.inf     # no boundary inside a tie
        # First minimum in feature-major order: lowest feature, then position.
        f, j = divmod(int(np.argmin(score)), score.shape[1])
        if score[f, j] == np.inf:                       # every feature constant here
            return node
        thr = float(0.5 * (xs[f, j] + xs[f, j + 1]))
        go_left = XT[f][ids] < thr
        nodes[node][:4] = (f, thr, grow(split(ids, go_left), depth + 1),
                           grow(split(ids, ~go_left), depth + 1))
        return node

    grow(split(order, cnt[order] > 0), 0)
    feature, threshold, left, right, prob = zip(*nodes)
    return Tree(np.array(feature, dtype=np.int64), np.array(threshold),
                np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
                np.array(prob))


def fit_forest(X: NDArray[np.float64], A: NDArray[np.float64],
               n_trees: int = 100, max_depth: int = 4, seed: int = 0) -> Forest:
    """Random forest of shallow Gini trees on bootstrap resamples.

    Every split searches all features, so the bootstrap is the only
    randomization; with depth-4 trees this is what lets the forest express
    sharp feature interactions (a sqrt(d)-per-node subsample leaves most
    trees unable to combine the two or three features such rules need and
    caps accuracy well short of the large-sample target).  The rows are
    sorted on each feature once per forest; a tree keeps each row's count in
    its bootstrap draw, and its nodes scan those counts in that order.
    """
    X, A = _labelled(X, A)
    n, d = X.shape
    if d < 1 or n_trees < 1:
        raise InvalidArgumentError(f"forest fitting needs a feature and a tree, "
                                   f"got {X.shape} and {n_trees} trees")
    if n < 10:
        raise DegenerateDataError(f"forest fitting needs n >= 10 rows, got {n}")
    model = Forest([])
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    # With a single class every tree is one leaf at the base rate: grow one.
    for t in range(1 if A.min() == A.max() else int(n_trees)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        cnt = np.bincount(rng.integers(0, n, size=n), minlength=n)
        model.trees.append(_build_tree(XT, order, cnt, A, max_depth))
    return model


def fit_propensity(kind: str, X: NDArray[np.float64], A: NDArray[np.float64],
                   seed: int = 0) -> Logistic | Forest:
    """The propensity model ``kind`` fitted on (X, A): a forest seeded by
    ``seed`` (``auto`` is a forest too) or a logistic regression."""
    if kind in ("auto", "forest"):
        return fit_forest(X, A, seed=seed)
    if kind == "logistic":
        return fit_logistic(X, A)
    raise ConfigError(f"cannot fit a propensity model {kind!r}: "
                      "fits take auto, forest or logistic")
