"""Propensity-score classifiers: logistic regression and a shallow random
forest, and ``fit_propensity``, which picks one by name.  A fitted model is a
callable from covariate rows to raw treatment probabilities;
``data.compute_omega`` clips them.

The forest follows the canonical recipe: bootstrap resample per tree, Gini
impurity splits over every feature at each node, midpoint thresholds.  It
sorts the rows once per forest (presorted split search, as in SLIQ) and
grows its trees in batches, one level at a time: each level is one integer
scan over the rows of every node it may split, weighted by their bootstrap
counts, which grows the same trees as sorting each node's resampled rows.
Each tree's random stream is derived from (seed, tree index) so fits are
reproducible regardless of evaluation order.
"""

from __future__ import annotations

import sys
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
    internal nodes route x < threshold left and x >= threshold right.  A
    threshold is the midpoint of the two values its split separates, or the
    upper one where the midpoint rounds onto the lower or overflows.
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
        """The trees' mean, summed in order in one array: the stacked mean's bits."""
        total = self.trees[0].predict(X)
        for tree in self.trees[1:]:
            total += tree.predict(X)
        return total / len(self.trees)


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


# fit_logistic's full-batch gradient steps, and their size.
LOGISTIC_STEPS, LOGISTIC_LR = 2000, 0.1


def fit_logistic(X: NDArray[np.float64], A: NDArray[np.float64]) -> Logistic:
    """Unpenalized logistic regression by full-batch gradient descent."""
    X, A = _labelled(X, A)
    if X.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 rows")
    if A.min() == A.max():
        raise DegenerateDataError("logistic regression needs both classes present")
    coef = np.zeros(X.shape[1])
    intercept = 0.0
    for _ in range(LOGISTIC_STEPS):
        gw, gb = _logistic_grad(logistic(X @ coef + intercept), X, A)
        coef = coef - LOGISTIC_LR * gw
        intercept = intercept - LOGISTIC_LR * gb
    return Logistic(coef, intercept)


# Bytes a batch's root level may fill as one (d, columns) array of int64: a
# batch holds as many trees as keep it within this, one at least.  A level's
# few working arrays then stay within a core's L2 cache, while the trees of
# a small table share each level's numpy calls.
BATCH_BYTES = 384 << 10

_LOW = (1 << 32) - 1
# The int32 halves of an int64 that hold a count and a positive count.
_HI, _LO = (1, 0) if sys.byteorder == "little" else (0, 1)


def _batch_trees(n: int, d: int) -> int:
    """How many trees on n rows of d features grow together."""
    return max(1, BATCH_BYTES // (8 * n * d))


def _splittable(nodes: NDArray) -> NDArray:
    """Which nodes hold both classes on at least two distinct rows."""
    _, k, n1, size = nodes
    return (n1 > 0) & (n1 < k) & (size >= 2)


def _grow_batch(XT: NDArray, order: NDArray, ranks: dict[int, NDArray],
                cnt: NDArray, A: NDArray, max_depth: int) -> list[Tree]:
    """The Gini trees on the bootstrap multisets that hold row i ``cnt[b, i]``
    times, grown together one level at a time.

    A level keeps the distinct rows of the nodes it may split as one (d, m)
    array of ids, b n + i for row i of tree b.  Each node is a segment of
    columns, and row f holds every node's rows sorted by feature f: the
    forest's presort ``order``, cut to the rows drawn.  ``table[id]`` packs a
    row's count and positive count as count << 32 | positive.  Counts are
    whole numbers, so one int64 cumsum over a level, reset at each segment's
    first column, gives bit for bit the sizes, impurities and thresholds of a
    scan over repeated rows.  ``ranks`` holds the integer ranks of the
    features that have ties.
    """
    d, n = XT.shape
    table = (cnt << 32 | cnt * A).ravel()
    goes_left = np.empty(table.size, dtype=bool)
    # A level's nodes, one column each: tree, count, positive count and
    # distinct rows.
    nodes = np.stack([np.arange(len(cnt)), cnt.sum(axis=1), (cnt * A).sum(axis=1),
                      np.count_nonzero(cnt, axis=1)])
    live = _splittable(nodes) & (max_depth > 0)
    every = (order[:, None, :] + nodes[0, :, None] * n).reshape(d, -1)
    drawn = ((cnt > 0) & live[:, None]).ravel()
    ids_buf = np.compress(np.take(drawn, every).ravel(), every)
    del every
    ids = ids_buf.reshape(d, -1)
    # Prefix sums (then scratch), left sizes, left positives and scores; the
    # middle two also stage the next level's ids.
    work = np.empty((4, ids_buf.size))
    # Each level's nodes, and each node's split feature, threshold and left
    # child (its right child is half the next level further on), or -1s.
    levels = []
    for depth in range(max_depth + 1):
        feature, child = np.full((2, nodes.shape[1]), -1)
        threshold = np.zeros(nodes.shape[1])
        levels.append((nodes, feature, threshold, child))
        at = np.flatnonzero(live)
        if not len(at):
            break
        cur = nodes[:, at]
        _, k, n1, width = cur
        m = ids.shape[1]
        start = np.cumsum(width) - width
        packed, nl, l1, score = work[:, :d * m].reshape(4, d, m)
        packed = packed.view(np.int64)
        np.take(table, ids, out=packed, mode="clip")      # "clip": unbuffered
        packed[:, start[1:]] -= k[:-1] << 32 | n1[:-1]
        np.cumsum(packed, axis=1, out=packed)
        np.copyto(nl, packed.view(np.int32)[:, _HI::2])
        np.copyto(l1, packed.view(np.int32)[:, _LO::2])
        tmp = packed.view(np.float64)
        # Child impurity (nl gl + nr gr) / k at every boundary, gl = 2 q (1 - q)
        # the Gini of the nl rows on the left, q = l1 / nl their positive share
        # (gr likewise), in the float operations of a scan over repeated rows.
        kc, n1c = np.repeat(cur[1:3].astype(np.float64), width, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # past a node's end
            np.divide(l1, nl, out=score)
            np.subtract(1.0, score, out=tmp)
            score *= tmp
            score *= nl
            np.subtract(kc, nl, out=nl)
            np.subtract(n1c, l1, out=l1)
            l1 /= nl
            np.subtract(1.0, l1, out=tmp)
            l1 *= tmp
            l1 *= nl
        score += l1
        score *= 2.0
        score /= kc
        score[:, start + width - 1] = np.inf         # no boundary past a node
        for f, rank in ranks.items():               # nor inside a tie
            r = rank[ids[f] % n]
            score[f, :-1][r[1:] == r[:-1]] = np.inf
        # First minimum in feature-major order: lowest feature, then position.
        best = np.minimum.reduceat(score, start, axis=1)
        f, low = best.argmin(axis=0), best.min(axis=0)
        split = np.flatnonzero(low < np.inf)
        if not len(split):
            break
        pick = np.repeat(f * m, width) + np.arange(m)
        hits = np.flatnonzero(score.ravel()[pick] == np.repeat(low, width))
        j = hits[np.searchsorted(hits, start[split])]
        # Each node's rows in the order of its best feature, and their values.
        g = ids.ravel()[pick]
        x = XT.ravel()[np.repeat(f * n, width) + g % n]
        # The midpoint, or the upper value where the midpoint does not fall
        # strictly above the lower one (or overflows).
        lo, hi = x[j], x[j + 1]
        with np.errstate(over="ignore"):
            thr = 0.5 * (lo + hi)
        thr = np.where((lo < thr) & (thr <= hi), thr, hi)
        cut = np.full(len(at), -np.inf)
        cut[split] = thr
        left = x < np.repeat(cut, width)
        lsum = np.add.reduceat(np.where(left, table[g], 0), start)[split]
        feature[at[split]], threshold[at[split]] = f[split], thr
        child[at[split]] = np.arange(len(split))
        # The children: every left one, then every right one.
        parent = cur[:, split]
        lefts = parent.copy()
        lefts[1:] = lsum >> 32, lsum & _LOW, j - start[split] + 1
        rights = parent - lefts
        rights[0] = parent[0]
        nodes = np.concatenate([lefts, rights], axis=1)
        live = _splittable(nodes) & (depth + 1 < max_depth)
        if not live.any():
            continue
        # Split each row of ids, keeping its order, into the live children's.
        goes_left[g] = left
        to_left = np.take(goes_left, ids)
        into = [to_left, ~to_left]
        if len(split) < len(at) or not live.all():
            keep = np.zeros((2, len(at)), dtype=bool)
            keep[:, split] = live.reshape(2, -1)
            for side, kept in zip(into, keep):
                side &= np.repeat(kept, width)
        parts = [np.take(ids, np.flatnonzero(side), mode="clip",
                         out=stage.view(np.int64)[:np.count_nonzero(side)])
                 for side, stage in zip(into, work[1:3])]
        ml = parts[0].size // d
        ids = ids_buf[:parts[0].size + parts[1].size].reshape(d, -1)
        ids[:, :ml] = parts[0].reshape(d, ml)
        ids[:, ml:] = parts[1].reshape(d, -1)
    return _preorder(levels)


def _preorder(levels: list) -> list[Tree]:
    """Flat trees from ``_grow_batch``'s levels of nodes, numbered in
    preorder: a node, then its left subtree, then its right."""
    sizes = [np.ones(nodes.shape[1], dtype=np.int64) for nodes, *_ in levels]
    for depth in range(len(levels) - 2, -1, -1):
        child = levels[depth][3]
        s = np.flatnonzero(child >= 0)
        below, c = sizes[depth + 1], child[s]
        sizes[depth][s] += below[c] + below[c + len(below) // 2]
    base = np.cumsum(sizes[0]) - sizes[0]
    total = int(sizes[0].sum())
    feature, left, right = np.empty((3, total), dtype=np.int64)
    threshold, prob = np.empty((2, total))
    at = base
    for depth, (nodes, f, thr, child) in enumerate(levels):
        slot, k, n1, _ = nodes
        feature[at], threshold[at] = f, thr
        prob[at] = n1.astype(np.float64) / k.astype(np.float64)
        left[at] = right[at] = -1
        s = np.flatnonzero(child >= 0)
        if not len(s):
            break
        below, c = sizes[depth + 1], child[s]
        nxt = np.empty(len(below), dtype=np.int64)
        nxt[c] = at[s] + 1
        nxt[c + len(below) // 2] = nxt[c] + below[c]
        left[at[s]] = nxt[c] - base[slot[s]]
        right[at[s]] = nxt[c + len(below) // 2] - base[slot[s]]
        at = nxt
    return [Tree(feature[a:a + t], threshold[a:a + t], left[a:a + t],
                 right[a:a + t], prob[a:a + t]) for a, t in zip(base, sizes[0])]


def fit_forest(X: NDArray[np.float64], A: NDArray[np.float64],
               n_trees: int = 100, max_depth: int = 4, seed: int = 0) -> Forest:
    """Random forest of shallow Gini trees on bootstrap resamples.

    Every split searches all features, so the bootstrap is the only
    randomization; with depth-4 trees this is what lets the forest express
    sharp feature interactions (a sqrt(d)-per-node subsample leaves most
    trees unable to combine the two or three features such rules need and
    caps accuracy well short of the large-sample target).  The rows are
    sorted on each feature once per forest.  Trees grow together in batches
    of ``_batch_trees(n, d)``, one level at a time: a level scans every
    splittable node's rows in those orders, by one int64 cumsum of their
    bootstrap counts.
    """
    X, A = _labelled(X, A)
    n, d = X.shape
    if d < 1 or n_trees < 1:
        raise InvalidArgumentError(f"forest fitting needs a feature and a tree, "
                                   f"got {X.shape} and {n_trees} trees")
    if n < 10:
        raise DegenerateDataError(f"forest fitting needs n >= 10 rows, got {n}")
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    ranks = {}
    for f in range(d):
        xs = XT[f, order[f]]
        distinct = xs[1:] > xs[:-1]
        if not distinct.all():
            rank = np.empty(n, dtype=np.int64)
            rank[order[f]] = np.concatenate([[0], np.cumsum(distinct)])
            ranks[f] = rank
    # With a single class every tree is one leaf at the base rate: grow one.
    n_trees = 1 if A.min() == A.max() else int(n_trees)
    step = _batch_trees(n, d)
    trees = []
    for t0 in range(0, n_trees, step):
        cnt = np.stack([np.bincount(np.random.default_rng(
            np.random.SeedSequence([seed, t])).integers(0, n, size=n), minlength=n)
            for t in range(t0, min(t0 + step, n_trees))])
        trees += _grow_batch(XT, order, ranks, cnt, A.astype(np.int64), max_depth)
    return Forest(trees)


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
