"""Small multilayer perceptrons with ReLU hidden layers and identity output.

Plain numpy forward pass plus a full-batch classical-momentum SGD loop with
its backward pass inline.  Both run feature-major with the biases folded
in: a layer's input is a (width + 1, rows) array whose last row is ones,
and its parameters are one block [W | b], so a layer is one matrix product.
``MlpParams`` keeps W and b apart.  The feature maps and coefficient
networks fitted by the estimators module are all instances of this class of
nets; no general autodiff is involved.
"""

from __future__ import annotations

import math
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


def _flat(params: MlpParams) -> NDArray[np.float64]:
    """Every layer's block [W | b] (sizes[i+1], sizes[i] + 1), raveled in turn."""
    return np.concatenate([np.column_stack([W, b]).ravel()
                           for W, b in zip(params.weights, params.biases)])


def _blocks(sizes: tuple[int, ...], flat: NDArray[np.float64]) -> list:
    """The layers' [W | b] blocks as views of ``flat``, laid out by ``_flat``."""
    blocks, at = [], 0
    for din, dout in zip(sizes[:-1], sizes[1:]):
        blocks.append(flat[at:at + dout * (din + 1)].reshape(dout, din + 1))
        at += dout * (din + 1)
    return blocks


def _buffers(sizes: tuple[int, ...], batch: NDArray[np.float64]) -> tuple[list, list]:
    """Feature-major room for a forward pass over the rows of a batch (n, d0):
    each layer's input (width + 1, n), whose last row is ones and the first
    of which holds the batch's transpose, and each layer's output, which for
    a hidden layer is the next input's leading rows."""
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != sizes[0]:
        raise InvalidArgumentError(f"batch must be (n, {sizes[0]}), got {X.shape}")
    ins = [np.ones((s + 1, X.shape[0])) for s in sizes[:-1]]
    ins[0][:-1] = X.T
    return ins, [a[:-1] for a in ins[1:]] + [np.empty((sizes[-1], X.shape[0]))]


def _forward(blocks: list, ins: list, outs: list) -> NDArray[np.float64]:
    """The net's outputs (dL, rows), which are outs[-1]: layer i writes
    [W | b] ins[i] into outs[i] and, if hidden, takes its ReLU there."""
    for i, block in enumerate(blocks):
        z = np.matmul(block, ins[i], out=outs[i])
        if i < len(blocks) - 1:
            np.maximum(z, 0.0, out=z)
    return outs[-1]


def mlp_forward(params: MlpParams, batch: NDArray[np.float64]) -> NDArray[np.float64]:
    """Apply the net to a batch (n, d0); returns the outputs (n, dL), the
    transpose of a C-contiguous (dL, n) array."""
    return _forward(_blocks(params.sizes, _flat(params)),
                    *_buffers(params.sizes, batch)).T


def train_mlp(params: MlpParams, batch: NDArray[np.float64], loss_and_grad,
              epochs: int, lr: float, momentum: float
              ) -> tuple[MlpParams, float]:
    """Full-batch SGD with classical momentum (buffer <- momentum * buffer +
    grad; param <- param - lr * buffer); returns the trained parameters and
    the last loss, and leaves ``params`` as it is.

    ``loss_and_grad(outputs) -> (loss, d loss / d outputs)`` defines the
    objective; ``outputs`` (rows, dL) is the transpose of a buffer the next
    epoch overwrites, and a gradient laid out the same way is read at unit
    stride.  A non-finite loss aborts with the epoch index attached.  With
    epochs = 0 the parameters come back unchanged and the loss is NaN.

    At a few hundred rows an epoch's cost is numpy call overhead, not
    arithmetic.  So the [W | b] blocks are views of one flat vector, stepped
    in place with flat gradient and momentum buffers, and each layer is one
    product and a ReLU forward, and backward one product for its gradient,
    one for the delta and the ReLU mask, all on kept buffers.  The loop,
    ``loss_and_grad`` included, runs with OpenBLAS on one thread: its
    products are small, and the trace loss ran faster on one thread than on
    two at every row count from 200 to 5000.  Inside a fit, which already
    holds that pin, the pin here changes nothing.
    """
    if not (0.0 <= momentum < 1.0):
        raise InvalidArgumentError(f"momentum must be in [0, 1), got {momentum}")
    sizes = params.sizes
    ins, outs = _buffers(sizes, batch)
    flat = _flat(params)
    grad, buf, step = np.empty_like(flat), np.zeros_like(flat), np.empty_like(flat)
    blocks, dblocks = _blocks(sizes, flat), _blocks(sizes, grad)
    weights_t = [block[:, :-1].T for block in blocks]
    deltas = [np.empty_like(z) for z in outs[:-1]]
    lr, momentum, last = float(lr), float(momentum), float("nan")
    with single_thread():
        for epoch in range(epochs):
            loss, dout = loss_and_grad(_forward(blocks, ins, outs).T)
            if not math.isfinite(loss):
                raise NumericError(
                    f"training loss became non-finite at epoch {epoch}", epoch=epoch)
            delta = dout.T
            for i in range(len(blocks) - 1, -1, -1):
                np.matmul(delta, ins[i].T, out=dblocks[i])
                if i > 0:
                    delta = np.matmul(weights_t[i], delta, out=deltas[i - 1])
                    delta *= outs[i - 1] > 0
            buf *= momentum
            buf += grad
            flat -= np.multiply(buf, lr, out=step)
            last = float(loss)
    return MlpParams(sizes, [np.ascontiguousarray(b[:, :-1]) for b in blocks],
                     [b[:, -1].copy() for b in blocks]), last
