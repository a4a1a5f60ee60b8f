"""Exact reference computations the library's fast paths are checked against.

These are the direct forms: single kernel values, the n x n pseudo-outcome
Gram, the trace loss on that Gram, the two-term bump-sum density, trapezoid
mass, the unconstrained grid-coefficient minimizer, the logistic log-loss,
a forest grown by sorting every feature afresh at every node of every
bootstrap sample, an SGD loop that builds fresh parameter, gradient and
momentum arrays at every step (with the library's feature-major,
folded-bias products), and CSV writers that format one value at a
time.  None of them is used by the library itself.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ccme.errors import InvalidArgumentError, NumericError
from ccme.kernels import gram
from ccme.nets import MlpParams
from ccme.propensity import Tree


def kernel_eval(spec, u, v):
    """The kernel at a single pair of points (scalars or 1-d arrays), through
    the same code path as ``gram`` so values match Gram entries bit for bit."""
    pu = np.asarray(u, dtype=np.float64).reshape(1, -1)
    pv = np.asarray(v, dtype=np.float64).reshape(1, -1)
    return float(gram(spec, pu, pv)[0, 0])


def exact_k_xi(kernel_y, y1, a, c, e=None, y0=None):
    """Gram (n, n) of the pseudo-outcomes xi_i = a_i phi(y1_i) + c_i mu0_i,
    where mu0_i = sum_p e[p, i] phi(y0_p) is given by row coefficients e (m, n)
    over the outcomes y0."""
    y1 = np.atleast_2d(y1)
    k_xi = (a[:, None] * gram(kernel_y, y1)) * a[None, :]
    if c.any():
        cross = gram(kernel_y, y0, y1).T @ e         # <phi(y1_i), mu0_j>
        k_xi += (a[:, None] * cross) * c[None, :]
        k_xi += (c[:, None] * cross.T) * a[None, :]
        k_xi += (c[:, None] * (e.T @ (gram(kernel_y, y0) @ e))) * c[None, :]
    return (k_xi + k_xi.T) / 2.0


def exact_trace_loss(psi, g, ridge):
    """Trace loss and gradient on an explicit pseudo-outcome Gram g."""
    M = psi.shape[1]
    cf = cho_factor(psi.T @ psi + ridge * np.eye(M), lower=True)
    gp = g @ psi
    w = cho_solve(cf, psi.T)
    loss = float(np.trace(g)) - float(np.sum(gp * w.T))
    grad = -2.0 * cho_solve(cf, (gp - psi @ (w @ gp)).T).T
    return loss, grad


def exact_density(kernel_y, grid, y1, w1, y0=None, w0=None):
    """Two-term bump sum, shape (T, G): row weights w1 (n, T) over the
    outcomes y1 plus, when given, w0 (m, T) over y0."""
    grid = np.asarray(grid, dtype=np.float64).reshape(-1, 1)
    out = w1.T @ gram(kernel_y, y1, grid)
    if w0 is not None:
        out = out + w0.T @ gram(kernel_y, y0, grid)
    return out


def quadrature_mass(values, grid):
    """Trapezoid integral of each row of a (T, G) density matrix over its grid."""
    return np.trapezoid(values, np.asarray(grid).ravel(), axis=-1)


def nk_minimizer(k_m, b):
    """Per-column unconstrained minimizer K_M^-1 b of the grid-coefficient loss."""
    return cho_solve(cho_factor(k_m, lower=True), b)


def feature_factor(g):
    """F with F F' = g, from the eigendecomposition (negative rounding clipped)."""
    vals, vecs = np.linalg.eigh(g)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def logistic_loss(coef, intercept, X, A):
    """Mean log-loss of the logistic model at (coef, intercept)."""
    p = 1.0 / (1.0 + np.exp(-(X @ coef + intercept)))
    return float(-np.mean(A * np.log(p) + (1 - A) * np.log(1 - p)))


def _gini_best_split(x, y):
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


def _oracle_tree(X, A, max_depth):
    """One tree on the rows of X as given (a bootstrap sample, repeats and all)."""
    feature, threshold, left, right, prob = [], [], [], [], []

    def grow(rows, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        y = A[rows]
        p = float(y.mean())
        prob.append(p)
        if depth >= max_depth or p == 0.0 or p == 1.0 or rows.shape[0] < 2:
            return node
        best = None
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


def oracle_forest(X, A, n_trees=100, max_depth=4, seed=0):
    """The trees ``fit_forest`` must grow: same bootstrap draws, each tree
    searched by a stable sort of every feature at every node."""
    X = np.asarray(X, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).ravel()
    n = X.shape[0]
    if A.min() == A.max():
        return [Tree(np.array([-1]), np.array([0.0]), np.array([-1]),
                     np.array([-1]), np.array([float(A.mean())]))]
    trees = []
    for t in range(int(n_trees)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        boot = rng.integers(0, n, size=n)
        trees.append(_oracle_tree(X[boot], A[boot], max_depth))
    return trees


def _oracle_forward(params, X):
    """Outputs, each layer's input and each hidden preactivation, from fresh
    arrays and feature-major: a layer's input is (width + 1, rows) with a
    last row of ones, its output ``[W | b] @ input``, and a hidden layer's
    next input ``np.maximum(z, 0)`` over a fresh row of ones.  Every input
    is C-contiguous, as the library's are: OpenBLAS may round a product of
    a transposed operand differently."""
    ones = np.ones((1, X.shape[0]))
    acts, preacts = [np.ascontiguousarray(np.vstack([X.T, ones]))], []
    last = params.n_layers - 1
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = np.column_stack([W, b]) @ acts[-1]
        if i < last:
            preacts.append(z)
            acts.append(np.vstack([np.maximum(z, 0.0), ones]))
    return z.T, acts, preacts


@dataclass
class ForwardCache:
    """Activations a backward pass reads: each layer's input, with its row
    of ones, and each hidden layer's preactivation, all feature-major."""

    params: MlpParams
    acts: list
    preacts: list


def forward_cache(params, X):
    """The outputs of the net at X, and the cache of that forward pass."""
    out, acts, preacts = _oracle_forward(params, np.asarray(X, dtype=np.float64))
    return out, ForwardCache(params, acts, preacts)


def mlp_backward(params, cache, output_grad):
    """Gradients of sum_i <output_grad[i], output[i]> for every (W, b), from
    the ``forward_cache`` of this exact params object; anything else is
    rejected as stale.  Each layer's pair is read off one product
    delta @ input', the bias from the input's row of ones."""
    if cache.params is not params:
        raise InvalidArgumentError("cache does not belong to these parameters")
    G = np.asarray(output_grad, dtype=np.float64)
    n = cache.acts[0].shape[1]
    if G.shape != (n, params.sizes[-1]):
        raise InvalidArgumentError(
            f"output_grad must be ({n}, {params.sizes[-1]}), got {G.shape}")
    grads = []
    delta = G.T
    for i in range(params.n_layers - 1, -1, -1):
        block = delta @ cache.acts[i].T
        grads.append((block[:, :-1], block[:, -1]))
        if i > 0:
            delta = (params.weights[i].T @ delta) * (cache.preacts[i - 1] > 0)
    grads.reverse()
    return grads


@dataclass
class SgdState:
    """Classical momentum: buffer <- m*buffer + grad; param <- param - lr*buffer."""

    lr: float
    momentum: float
    buf_w: list = field(default_factory=list)
    buf_b: list = field(default_factory=list)

    @classmethod
    def init(cls, params, lr, momentum):
        if not (0.0 <= momentum < 1.0):
            raise InvalidArgumentError(f"momentum must be in [0, 1), got {momentum}")
        return cls(lr=float(lr), momentum=float(momentum),
                   buf_w=[np.zeros_like(w) for w in params.weights],
                   buf_b=[np.zeros_like(b) for b in params.biases])


def sgd_step(params, grads, state):
    """One momentum step; returns fresh params and the same state object.
    The parameter arrays passed in are left as they are; the momentum
    buffer lists ``state.buf_w``/``buf_b`` are updated in place."""
    if len(grads) != params.n_layers:
        raise InvalidArgumentError("gradient list does not match layer count")
    new_w, new_b = [], []
    for i, (gw, gb) in enumerate(grads):
        state.buf_w[i] = state.momentum * state.buf_w[i] + gw
        state.buf_b[i] = state.momentum * state.buf_b[i] + gb
        new_w.append(params.weights[i] - state.lr * state.buf_w[i])
        new_b.append(params.biases[i] - state.lr * state.buf_b[i])
    return MlpParams(params.sizes, new_w, new_b), state


def oracle_train_mlp(params, batch, loss_and_grad, epochs, lr, momentum):
    """The parameters and last loss ``train_mlp`` must return: the same
    loop over a fresh forward pass, ``mlp_backward`` and ``sgd_step`` at
    every epoch."""
    X = np.asarray(batch, dtype=np.float64)
    state = SgdState.init(params, lr, momentum)
    last = float("nan")
    for epoch in range(epochs):
        out, acts, preacts = _oracle_forward(params, X)
        loss, dout = loss_and_grad(out)
        if not np.isfinite(loss):
            raise NumericError(
                f"training loss became non-finite at epoch {epoch}", epoch=epoch)
        grads = mlp_backward(params, ForwardCache(params, acts, preacts), dout)
        params, state = sgd_step(params, grads, state)
        last = float(loss)
    return params, last


def reference_curves_csv(y_grid, values):
    """``density.curves_to_csv`` value by value: one f-string per density."""
    lines = ["v_id,y,density"]
    grid = np.asarray(y_grid, dtype=np.float64).ravel()
    for vid, row in enumerate(values):
        for y, dens in zip(grid, row):
            lines.append(f"{vid},{y:.17g},{dens:.17g}")
    return "\n".join(lines) + "\n"


def reference_dataset_csv(dataset):
    """``data.dataset_to_csv`` value by value: one f-string per entry."""
    cols = [f"x{i + 1}" for i in range(dataset.X.shape[1])] + ["a", "y"]
    out = [",".join(cols) + "\n"]
    for row in np.column_stack([dataset.X, dataset.A, dataset.Y]):
        out.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(out)
