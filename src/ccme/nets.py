"""Small multilayer perceptrons with ReLU hidden layers and identity output.

Plain numpy forward pass plus a full-batch classical-momentum SGD loop with
its backward pass inline.  The feature maps and coefficient networks fitted
by the estimators module are all instances of this class of nets; no
general autodiff is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .blas import single_thread
from .errors import InvalidArgumentError, NumericError

__all__ = ["MlpParams", "mlp_init", "mlp_forward", "train_mlp"]


@dataclass
class MlpParams:
    """Layer weights and biases; weights[i] has shape (sizes[i+1], sizes[i])."""

    sizes: tuple[int, ...]
    weights: list[NDArray[np.float64]]
    biases: list[NDArray[np.float64]]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


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


def _batch(params: MlpParams, batch: NDArray[np.float64]) -> NDArray[np.float64]:
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.sizes[0]:
        raise InvalidArgumentError(
            f"batch must be (n, {params.sizes[0]}), got {X.shape}")
    return X


def _buffers(sizes: tuple[int, ...], rows: int) -> tuple[list, list]:
    """Room for every layer's preactivation and every hidden layer's ReLU."""
    zs = [np.empty((rows, s)) for s in sizes[1:]]
    return zs, [np.empty_like(z) for z in zs[:-1]]


def _forward(params: MlpParams, X: NDArray[np.float64], zs: list,
             hs: list) -> NDArray[np.float64]:
    """The net's outputs at the rows of X, which are zs[-1]: layer i writes
    its preactivation into zs[i] and, if hidden, its ReLU into hs[i]."""
    h = X
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(h, W.T, out=zs[i])
        z += b
        if i < len(hs):
            h = np.maximum(z, 0.0, out=hs[i])
    return zs[-1]


def mlp_forward(params: MlpParams, batch: NDArray[np.float64]) -> NDArray[np.float64]:
    """Apply the net to a batch (n, d0); returns the outputs (n, dL)."""
    X = _batch(params, batch)
    return _forward(params, X, *_buffers(params.sizes, X.shape[0]))


def _views(sizes: tuple[int, ...], flat: NDArray[np.float64]) -> MlpParams:
    """Parameters whose arrays are views of ``flat``, laid out w0, b0, w1, ..."""
    weights, biases, at = [], [], 0
    for din, dout in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + dout * din].reshape(dout, din))
        biases.append(flat[at + dout * din:at + (din + 1) * dout])
        at += (din + 1) * dout
    return MlpParams(sizes, weights, biases)


def train_mlp(params: MlpParams, batch: NDArray[np.float64], loss_and_grad,
              epochs: int, lr: float, momentum: float
              ) -> tuple[MlpParams, float]:
    """Full-batch SGD with classical momentum (buffer <- momentum * buffer +
    grad; param <- param - lr * buffer); returns the trained parameters and
    the last loss, and leaves ``params`` as it is.

    ``loss_and_grad(outputs) -> (loss, d loss / d outputs)`` defines the
    objective; ``outputs`` is a buffer the next epoch overwrites.  A
    non-finite loss aborts with the epoch index attached.  With epochs = 0
    the parameters come back unchanged and the loss is NaN.

    The weights and biases are views of one flat vector, stepped in place
    with flat gradient and momentum buffers, and every layer's activations
    and deltas have buffers too: at a few hundred rows an epoch's cost is
    call overhead, not arithmetic.  The loop, ``loss_and_grad`` included,
    runs with OpenBLAS on one thread: its products are small, and the trace
    loss ran faster on one thread than on two at every row count from 200
    to 5000.
    """
    if not (0.0 <= momentum < 1.0):
        raise InvalidArgumentError(f"momentum must be in [0, 1), got {momentum}")
    X = _batch(params, batch)
    flat = np.concatenate([a.ravel() for pair in zip(params.weights, params.biases)
                           for a in pair])
    grad, buf, step = np.empty_like(flat), np.zeros_like(flat), np.empty_like(flat)
    net, dnet = _views(params.sizes, flat), _views(params.sizes, grad)
    zs, hs = _buffers(params.sizes, X.shape[0])
    acts, deltas = [X, *hs], [np.empty_like(h) for h in hs]
    lr, momentum, last = float(lr), float(momentum), float("nan")
    with single_thread():
        for epoch in range(epochs):
            loss, delta = loss_and_grad(_forward(net, X, zs, hs))
            if not np.isfinite(loss):
                raise NumericError(
                    f"training loss became non-finite at epoch {epoch}", epoch=epoch)
            for i in range(net.n_layers - 1, -1, -1):
                np.matmul(delta.T, acts[i], out=dnet.weights[i])
                np.add.reduce(delta, axis=0, out=dnet.biases[i])
                if i > 0:
                    delta = np.matmul(delta, net.weights[i], out=deltas[i - 1])
                    delta *= zs[i - 1] > 0
            buf *= momentum
            buf += grad
            flat -= np.multiply(buf, lr, out=step)
            last = float(loss)
    return net, last
