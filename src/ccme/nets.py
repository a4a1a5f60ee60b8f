"""Small multilayer perceptrons with ReLU hidden layers and identity output.

Plain numpy forward/backward plus classical-momentum SGD. The feature maps
and coefficient networks fitted by the estimators module are all instances
of this class of nets; no general autodiff is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .blas import single_thread
from .errors import InvalidArgumentError, NumericError

__all__ = ["MlpParams", "ForwardCache", "SgdState", "mlp_init", "mlp_forward",
           "mlp_backward", "sgd_step", "train_mlp"]


@dataclass
class MlpParams:
    """Layer weights and biases; weights[i] has shape (sizes[i+1], sizes[i])."""

    sizes: tuple[int, ...]
    weights: list[NDArray[np.float64]]
    biases: list[NDArray[np.float64]]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "MlpParams":
        return MlpParams(self.sizes, [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])


@dataclass
class ForwardCache:
    """Activations saved by mlp_forward for the matching backward call."""

    params: MlpParams
    acts: list[NDArray[np.float64]]      # input to each layer, length n_layers
    preacts: list[NDArray[np.float64]]   # z of each hidden layer


def mlp_init(layer_sizes: tuple[int, ...] | list[int], seed: int) -> MlpParams:
    """Uniform(-a, a) weights with a = sqrt(6 / (d_in + d_out)); zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise InvalidArgumentError("need at least input and output sizes")
    if any(s < 1 for s in sizes):
        raise InvalidArgumentError(f"layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for din, dout in zip(sizes[:-1], sizes[1:]):
        a = np.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-a, a, size=(dout, din)))
        biases.append(np.zeros(dout))
    return MlpParams(sizes, weights, biases)


def mlp_forward(params: MlpParams,
                batch: NDArray[np.float64]) -> tuple[NDArray[np.float64], ForwardCache]:
    """Apply the net to a batch (n, d0); returns (outputs (n, dL), cache)."""
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.sizes[0]:
        raise InvalidArgumentError(
            f"batch must be (n, {params.sizes[0]}), got {X.shape}")
    acts, preacts = [X], []
    h = X
    last = params.n_layers - 1
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T + b
        if i < last:
            preacts.append(z)
            h = np.maximum(z, 0.0)
            acts.append(h)
        else:
            h = z
    return h, ForwardCache(params, acts, preacts)


def mlp_backward(params: MlpParams, cache: ForwardCache,
                 output_grad: NDArray[np.float64]) -> list[tuple[NDArray, NDArray]]:
    """Gradients of sum_i <output_grad[i], output[i]> for every (W, b).

    The cache must come from a forward call on this exact params object;
    anything else is rejected as stale.
    """
    if cache.params is not params:
        raise InvalidArgumentError("cache does not belong to these parameters")
    G = np.asarray(output_grad, dtype=np.float64)
    n = cache.acts[0].shape[0]
    if G.shape != (n, params.sizes[-1]):
        raise InvalidArgumentError(
            f"output_grad must be ({n}, {params.sizes[-1]}), got {G.shape}")
    grads: list[tuple[NDArray, NDArray]] = []
    delta = G
    for i in range(params.n_layers - 1, -1, -1):
        grads.append((delta.T @ cache.acts[i], delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ params.weights[i]) * (cache.preacts[i - 1] > 0)
    grads.reverse()
    return grads


@dataclass
class SgdState:
    """Classical momentum: buffer <- m*buffer + grad; param <- param - lr*buffer."""

    lr: float
    momentum: float
    buf_w: list[NDArray[np.float64]] = field(default_factory=list)
    buf_b: list[NDArray[np.float64]] = field(default_factory=list)

    @classmethod
    def init(cls, params: MlpParams, lr: float, momentum: float) -> "SgdState":
        if not (0.0 <= momentum < 1.0):
            raise InvalidArgumentError(f"momentum must be in [0, 1), got {momentum}")
        return cls(lr=float(lr), momentum=float(momentum),
                   buf_w=[np.zeros_like(w) for w in params.weights],
                   buf_b=[np.zeros_like(b) for b in params.biases])


def sgd_step(params: MlpParams, grads: list[tuple[NDArray, NDArray]],
             state: SgdState) -> tuple[MlpParams, SgdState]:
    """One momentum step; returns fresh params and the same state object.

    The parameter arrays passed in are left as they are; the momentum buffer
    lists ``state.buf_w``/``buf_b`` are updated in place.
    """
    if len(grads) != params.n_layers:
        raise InvalidArgumentError("gradient list does not match layer count")
    new_w, new_b = [], []
    for i, (gw, gb) in enumerate(grads):
        state.buf_w[i] = state.momentum * state.buf_w[i] + gw
        state.buf_b[i] = state.momentum * state.buf_b[i] + gb
        new_w.append(params.weights[i] - state.lr * state.buf_w[i])
        new_b.append(params.biases[i] - state.lr * state.buf_b[i])
    return MlpParams(params.sizes, new_w, new_b), state


def train_mlp(params: MlpParams, batch: NDArray[np.float64], loss_and_grad,
              epochs: int, lr: float, momentum: float
              ) -> tuple[MlpParams, float]:
    """Full-batch SGD loop; returns the trained parameters and the last loss.

    ``loss_and_grad(outputs) -> (loss, d loss / d outputs)`` defines the
    objective; a non-finite loss aborts with the epoch index attached.  With
    epochs = 0 the parameters come back untouched and the loss is NaN.

    The loop, ``loss_and_grad`` included, runs with OpenBLAS on one thread:
    its products are small, and the trace loss ran faster on one thread than
    on two at every row count from 200 to 5000.
    """
    state = SgdState.init(params, lr, momentum)
    last = float("nan")
    with single_thread():
        for epoch in range(epochs):
            out, cache = mlp_forward(params, batch)
            loss, dout = loss_and_grad(out)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training loss became non-finite at epoch {epoch}", epoch=epoch)
            grads = mlp_backward(params, cache, dout)
            params, state = sgd_step(params, grads, state)
            last = float(loss)
    return params, last
