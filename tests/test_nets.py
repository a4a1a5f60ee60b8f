"""MLP initialization, the forward pass and the SGD loop.

The backward pass and momentum step are checked on their reference forms in
``oracles``, which the training loop must match bit for bit; the forward
pass is also checked against the plain row-major formula."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccme import blas
from ccme.errors import InvalidArgumentError, NumericError
from ccme.estimators import nk_loss_grad
from ccme.kernels import KernelSpec, gram
from ccme.nets import MlpParams, mlp_forward, mlp_init, train_mlp

from conftest import openblas_counts
from oracles import (SgdState, forward_cache, mlp_backward, oracle_train_mlp,
                     sgd_step)


def flatten_params(params):
    return np.concatenate([a.ravel() for pair in zip(params.weights, params.biases)
                           for a in pair])


class TestInit:
    def test_deterministic(self):
        a = mlp_init((5, 20, 20, 20), seed=0)
        b = mlp_init((5, 20, 20, 20), seed=0)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        params = mlp_init((5, 20), seed=3)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in params.biases)

    def test_seed_sensitivity(self):
        a = mlp_init((5, 20, 20, 20), seed=0)
        b = mlp_init((5, 20, 20, 20), seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_weight_range(self):
        params = mlp_init((4, 9), seed=2)
        bound = np.sqrt(6.0 / (4 + 9))
        assert np.abs(params.weights[0]).max() < bound

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mlp_init((5,), seed=0)
        with pytest.raises(InvalidArgumentError):
            mlp_init((5, 0, 2), seed=0)


class TestForward:
    def test_zero_net_zero_output(self):
        params = mlp_init((3, 4, 2), seed=0)
        for w in params.weights:
            w[:] = 0.0
        out = mlp_forward(params, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(out, np.zeros((6, 2)))

    def test_single_linear_layer(self):
        params = mlp_init((3, 2), seed=1)
        params.biases[0][:] = [0.5, -0.25]
        B = np.random.default_rng(1).normal(size=(7, 3))
        out = mlp_forward(params, B)
        assert np.allclose(out, B @ params.weights[0].T + params.biases[0],
                           atol=1e-15)

    def test_hand_set_two_layer_net(self):
        params = MlpParams(
            sizes=(1, 2, 1),
            weights=[np.array([[2.0], [-3.0]]), np.array([[1.0, 2.0]])],
            biases=[np.array([1.0, -1.0]), np.array([0.5])])
        # z = (3, -4) -> relu (3, 0) -> 1*3 + 2*0 + 0.5
        out = mlp_forward(params, np.array([[1.0]]))
        assert out[0, 0] == 3.5

    def test_batch_shape_check(self):
        params = mlp_init((3, 2), seed=0)
        with pytest.raises(InvalidArgumentError):
            mlp_forward(params, np.zeros((5, 4)))

    def test_matches_the_oracle_forward(self):
        params = mlp_init((3, 6, 4, 2), seed=5)
        batch = np.random.default_rng(5).normal(size=(9, 3))
        out = mlp_forward(params, batch)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, forward_cache(params, batch)[0], rtol=0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=2, max_size=5),
           st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_the_plain_formula_layer_by_layer(self, sizes, rows, seed):
        """The folded-bias, feature-major products mean what ``h @ W.T + b``
        and a ReLU mean: each layer's output, read off the net cut after
        that layer, is within 1e-12 of the plain formula relative to the
        entry's terms |h| @ |W.T| + |b|."""
        rng = np.random.default_rng(seed)
        params = mlp_init(sizes, seed)
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)
        X = rng.normal(size=(rows, sizes[0]))
        h = X
        for k, (W, b) in enumerate(zip(params.weights, params.biases)):
            cut = MlpParams(tuple(sizes[:k + 2]), params.weights[:k + 1],
                            params.biases[:k + 1])
            got, want = mlp_forward(cut, X), h @ W.T + b
            terms = np.abs(h) @ np.abs(W.T) + np.abs(b)
            assert got.shape == want.shape == (rows, sizes[k + 1])
            assert np.all(np.abs(got - want) <= 1e-12 * terms)
            h = np.maximum(want, 0.0)


class TestBackward:
    def test_zero_output_grad(self):
        params = mlp_init((3, 5, 2), seed=0)
        batch = np.random.default_rng(2).normal(size=(4, 3))
        _, cache = forward_cache(params, batch)
        grads = mlp_backward(params, cache, np.zeros((4, 2)))
        for gw, gb in grads:
            assert np.array_equal(gw, np.zeros_like(gw))
            assert np.array_equal(gb, np.zeros_like(gb))

    def test_linear_layer_weight_gradient(self):
        params = mlp_init((3, 2), seed=4)
        rng = np.random.default_rng(4)
        B = rng.normal(size=(6, 3))
        G = rng.normal(size=(6, 2))
        _, cache = forward_cache(params, B)
        (gw, gb), = mlp_backward(params, cache, G)
        assert np.allclose(gw, G.T @ B, atol=1e-14)
        assert np.allclose(gb, G.sum(axis=0), atol=1e-14)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(9)
        params = mlp_init((3, 6, 4, 2), seed=9)
        batch = rng.normal(size=(5, 3))
        G = rng.normal(size=(5, 2))

        def objective(p):
            out = mlp_forward(p, batch)
            return float((out * G).sum())

        _, cache = forward_cache(params, batch)
        grads = mlp_backward(params, cache, G)
        step = 1e-5
        for li in range(params.n_layers):
            for arrs, gi in ((params.weights, 0), (params.biases, 1)):
                flat_idx = [(i,) if arrs[li].ndim == 1 else divmod(i, arrs[li].shape[1])
                            for i in range(arrs[li].size)]
                for idx in flat_idx:
                    orig = arrs[li][idx]
                    arrs[li][idx] = orig + step
                    hi = objective(params)
                    arrs[li][idx] = orig - step
                    lo = objective(params)
                    arrs[li][idx] = orig
                    fd = (hi - lo) / (2 * step)
                    an = grads[li][gi][idx]
                    assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_stale_cache_rejected(self):
        params = mlp_init((3, 2), seed=0)
        other = mlp_init((3, 2), seed=0)
        batch = np.zeros((2, 3))
        _, cache = forward_cache(other, batch)
        with pytest.raises(InvalidArgumentError):
            mlp_backward(params, cache, np.zeros((2, 2)))

    def test_output_grad_shape_check(self):
        params = mlp_init((3, 2), seed=0)
        _, cache = forward_cache(params, np.zeros((2, 3)))
        with pytest.raises(InvalidArgumentError):
            mlp_backward(params, cache, np.zeros((2, 3)))


class TestSgd:
    def test_momentum_zero_is_gradient_descent(self):
        params = mlp_init((2, 2), seed=0)
        g = np.full((2, 2), 0.3)
        state = SgdState.init(params, lr=0.1, momentum=0.0)
        before = params.weights[0].copy()
        after, _ = sgd_step(params, [(g, np.zeros(2))], state)
        assert np.allclose(after.weights[0], before - 0.1 * g, atol=1e-15)

    def test_zero_grad_fixed_point(self):
        params = mlp_init((2, 3), seed=1)
        state = SgdState.init(params, lr=0.5, momentum=0.9)
        after, _ = sgd_step(params, [(np.zeros((3, 2)), np.zeros(3))], state)
        assert np.array_equal(after.weights[0], params.weights[0])
        assert np.array_equal(after.biases[0], params.biases[0])

    def test_two_steps_constant_gradient(self):
        # buffer after two steps: g, then 0.9 g + g; displacement -lr*(g + 1.9 g)
        params = mlp_init((2, 2), seed=2)
        g = np.array([[1.0, -2.0], [0.5, 0.0]])
        lr = 0.01
        state = SgdState.init(params, lr=lr, momentum=0.9)
        start = params.weights[0].copy()
        params, state = sgd_step(params, [(g, np.zeros(2))], state)
        params, state = sgd_step(params, [(g, np.zeros(2))], state)
        assert np.allclose(params.weights[0], start - lr * 2.9 * g, atol=1e-14)

    def test_bad_momentum_rejected(self):
        params = mlp_init((2, 2), seed=0)
        with pytest.raises(InvalidArgumentError):
            SgdState.init(params, lr=0.1, momentum=1.0)

    def test_updates_state_in_place_and_leaves_params(self):
        params = mlp_init((2, 3), seed=3)
        before = copy.deepcopy(params)
        state = SgdState.init(params, lr=0.1, momentum=0.9)
        g = np.ones((3, 2))
        after, returned = sgd_step(params, [(g, np.ones(3))], state)
        assert returned is state
        assert np.array_equal(state.buf_w[0], g)
        for old, kept in zip(before.weights + before.biases,
                             params.weights + params.biases):
            assert np.array_equal(old, kept)
        assert not np.array_equal(after.weights[0], params.weights[0])

    def test_grad_list_length_check(self):
        params = mlp_init((2, 3, 2), seed=0)
        state = SgdState.init(params, lr=0.1, momentum=0.0)
        with pytest.raises(InvalidArgumentError):
            sgd_step(params, [(np.zeros((3, 2)), np.zeros(3))], state)


class TestTrainLoop:
    def test_quadratic_objective_decreases(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(20, 2))
        target = rng.normal(size=(20, 1))
        params = mlp_init((2, 8, 1), seed=5)

        def loss_and_grad(out):
            diff = out - target
            return float((diff * diff).mean()), 2.0 * diff / diff.size

        out0 = mlp_forward(params, batch)
        first = loss_and_grad(out0)[0]
        trained, last = train_mlp(params, batch, loss_and_grad,
                                  epochs=300, lr=0.05, momentum=0.9)
        assert last < first

    def test_zero_epochs_returns_nan_loss(self):
        params = mlp_init((2, 2), seed=0)
        trained, last = train_mlp(params, np.zeros((1, 2)),
                                  lambda out: (0.0, np.zeros_like(out)),
                                  epochs=0, lr=0.1, momentum=0.0)
        assert np.isnan(last)
        assert np.array_equal(trained.weights[0], params.weights[0])

    def test_bad_momentum_and_batch_rejected(self):
        params = mlp_init((2, 2), seed=0)

        def loss_and_grad(out):
            return 0.0, np.zeros_like(out)

        for momentum in (1.0, -0.1):
            with pytest.raises(InvalidArgumentError):
                train_mlp(params, np.zeros((1, 2)), loss_and_grad, 1, 0.1, momentum)
        with pytest.raises(InvalidArgumentError):
            train_mlp(params, np.zeros((1, 3)), loss_and_grad, 1, 0.1, 0.0)

    def test_nonfinite_loss_reports_epoch(self):
        params = mlp_init((2, 2), seed=0)
        calls = {"n": 0}

        def explode(out):
            calls["n"] += 1
            if calls["n"] >= 3:
                return float("inf"), np.zeros_like(out)
            return 1.0, np.zeros_like(out)

        with pytest.raises(NumericError) as err:
            train_mlp(params, np.ones((1, 2)), explode,
                      epochs=10, lr=0.1, momentum=0.0)
        assert err.value.epoch == 2


def least_squares(target):
    def loss_and_grad(out):
        diff = out - target
        return float((diff * diff).mean()), 2.0 * diff / diff.size
    return loss_and_grad


class TestMatchesOracle:
    """``train_mlp`` returns the very bits of the reference loop: fresh
    arrays at every step, ``mlp_backward`` and ``sgd_step``."""

    @pytest.mark.parametrize("sizes,rows,momentum", [
        ((3, 2), 7, 0.0), ((3, 2), 7, 0.9), ((4, 6, 5, 3), 1, 0.0),
        ((4, 6, 5, 3), 1, 0.9), ((5, 20, 20, 20), 60, 0.9)])
    def test_bit_identical(self, sizes, rows, momentum):
        rng = np.random.default_rng(rows * len(sizes))
        batch = rng.normal(size=(rows, sizes[0]))
        loss_and_grad = least_squares(rng.normal(size=(rows, sizes[-1])))
        params = mlp_init(sizes, seed=rows)
        before = flatten_params(params).tobytes()
        got, got_loss = train_mlp(params, batch, loss_and_grad, 200, 0.05, momentum)
        with blas.single_thread():
            want, want_loss = oracle_train_mlp(params, batch, loss_and_grad, 200,
                                               0.05, momentum)
        assert got_loss == want_loss
        assert flatten_params(got).tobytes() == flatten_params(want).tobytes()
        assert flatten_params(params).tobytes() == before

    def test_grid_loss_bit_identical(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(-2.0, 2.0, 8).reshape(-1, 1)
        ky = KernelSpec(bandwidth=0.7, normalized=True)
        k_m, b = gram(ky, grid), gram(ky, grid, rng.normal(size=(30, 1)))
        batch = rng.normal(size=(30, 4))

        def loss_and_grad(out):
            return nk_loss_grad(out, k_m, b)

        params = mlp_init((4, 20, 20, 8), seed=3)
        got, got_loss = train_mlp(params, batch, loss_and_grad, 300, 0.01, 0.9)
        with blas.single_thread():
            want, want_loss = oracle_train_mlp(params, batch, loss_and_grad, 300,
                                               0.01, 0.9)
        assert got_loss == want_loss
        assert flatten_params(got).tobytes() == flatten_params(want).tobytes()

    def test_divergence_at_the_same_epoch(self):
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(9, 3))
        loss_and_grad = least_squares(rng.normal(size=(9, 2)))
        params = mlp_init((3, 5, 2), seed=6)
        before = flatten_params(params).tobytes()
        epochs = []
        for train in (train_mlp, oracle_train_mlp):
            with pytest.raises(NumericError) as err, np.errstate(all="ignore"):
                train(params, batch, loss_and_grad, 10_000, 5.0, 0.9)
            epochs.append(err.value.epoch)
        assert epochs[0] == epochs[1] > 1
        assert flatten_params(params).tobytes() == before


def quadratic_problem(seed=5):
    """A small least-squares fit whose loss callback also records the
    OpenBLAS thread counts it runs under, one list per call."""
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(20, 2))
    target = rng.normal(size=(20, 1))
    seen = []

    def loss_and_grad(out):
        seen.append(openblas_counts())
        diff = out - target
        return float((diff * diff).mean()), 2.0 * diff / diff.size

    return mlp_init((2, 8, 1), seed=seed), batch, loss_and_grad, seen


@pytest.mark.usefixtures("two_blas_threads")
class TestBlasPin:
    def test_loop_runs_on_one_thread(self):
        params, batch, loss_and_grad, seen = quadratic_problem()
        train_mlp(params, batch, loss_and_grad, epochs=3, lr=0.05, momentum=0.9)
        assert seen == [[1] * len(openblas_counts())] * 3

    def test_counts_restored_after_return(self):
        params, batch, loss_and_grad, _ = quadratic_problem()
        before = openblas_counts()
        train_mlp(params, batch, loss_and_grad, epochs=3, lr=0.05, momentum=0.9)
        assert openblas_counts() == before == [2] * len(before)

    def test_counts_restored_after_numeric_error(self):
        params, batch, _, _ = quadratic_problem()
        before = openblas_counts()
        with pytest.raises(NumericError):
            train_mlp(params, batch, lambda out: (float("nan"), out),
                      epochs=3, lr=0.05, momentum=0.9)
        assert openblas_counts() == before

    def test_trains_the_same_without_openblas(self, monkeypatch):
        params, batch, loss_and_grad, _ = quadratic_problem()
        pinned, pinned_loss = train_mlp(params, batch, loss_and_grad,
                                         epochs=50, lr=0.05, momentum=0.9)
        monkeypatch.setattr(blas, "_copies", lambda: ())
        params, batch, loss_and_grad, seen = quadratic_problem()
        free, free_loss = train_mlp(params, batch, loss_and_grad,
                                    epochs=50, lr=0.05, momentum=0.9)
        assert seen[0] == [2] * len(seen[0])
        assert free_loss == pinned_loss
        for a, b in zip(pinned.weights + pinned.biases, free.weights + free.biases):
            assert np.array_equal(a, b)


@pytest.mark.usefixtures("without_posix_calls")
def test_trains_where_openblas_cannot_be_looked_up():
    """Without os.RTLD_NOLOAD no copy is found, and training runs unpinned."""
    assert blas.thread_counts() == []
    params, batch, loss_and_grad, _ = quadratic_problem()
    _, first = train_mlp(params, batch, loss_and_grad, epochs=1, lr=0.05,
                         momentum=0.9)
    _, last = train_mlp(params, batch, loss_and_grad, epochs=50, lr=0.05,
                        momentum=0.9)
    assert last < first

