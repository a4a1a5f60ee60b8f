"""Propensity models: logistic regression, random forest, the benchmark's
oracle, each a callable from covariate rows to raw probabilities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ccme.data import Dataset, compute_omega
from ccme.errors import ConfigError, DegenerateDataError, InvalidArgumentError
from ccme.estimators import Hyper
from ccme.propensity import (Forest, Logistic, _batch_trees, _logistic_grad,
                             fit_forest, fit_logistic, fit_propensity, logistic)
from ccme.synthbench import generate, true_propensity
from conftest import traced_memory
from oracles import oracle_forest


def interaction_dgp(n, seed):
    """Covariates with a sharp two-feature treatment rule at rates 0.1/0.9."""
    rng = np.random.default_rng(seed)
    X = rng.normal(1.0, 1.0, size=(n, 10))
    pi = 0.1 + 0.8 * ((X[:, 0] >= 0) & (X[:, 0] <= 2) & (X[:, 5] >= 1.5))
    A = (rng.uniform(size=n) < pi).astype(np.float64)
    return X, A, pi


def assert_close_to_expit(z):
    """logistic(z) within 1e-15 relative of scipy's expit, exactly equal
    where expit gives 0, 1 or NaN, and computed without a warning."""
    z = np.asarray(z, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logistic(z)
    want = expit(z)
    exact = (want == 0.0) | (want == 1.0) | np.isnan(want)
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    assert np.all(np.abs(got - want)[~exact] <= 1e-15 * want[~exact])


class TestLogistic:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=64))
    def test_logistic_matches_scipys_expit(self, z):
        assert_close_to_expit(z)

    def test_logistic_at_zeros_infinities_nan_and_the_overflow_ends(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0,
                      745.0, -745.0, -746.0])
        assert_close_to_expit(z)
        special = z[:5]
        assert np.array_equal(logistic(special), expit(special), equal_nan=True)

    def test_labels_independent_of_features(self):
        # every covariate row appears once with each label, so the sample is
        # exactly balanced and the base rate is the unique optimum
        rng = np.random.default_rng(0)
        base = rng.normal(size=(500, 3))
        X = np.vstack([base, base])
        A = np.concatenate([np.ones(500), np.zeros(500)])
        model = fit_logistic(X, A)
        preds = model(X)
        assert abs(model.intercept) < 0.02
        assert np.all(np.abs(preds - 0.5) < 0.02)

    def test_intercept_only_matches_base_rate(self):
        X = np.zeros((200, 2))
        A = np.zeros(200)
        A[:61] = 1.0
        model = fit_logistic(X, A)
        p = model(np.zeros((1, 2)))
        assert abs(p[0] - 0.305) < 0.02

    def test_separable_data_hits_upper_clip(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=400)
        X = x1.reshape(-1, 1)
        A = (x1 > 0).astype(np.float64)
        model = fit_logistic(X, A)
        far = Dataset(np.array([[4.0], [5.0], [6.0]]), np.ones(3), np.zeros(3))
        assert np.all(model(far.X) > 0.99)
        assert np.all(compute_omega(far, model, (0.01, 0.99)) == 1.0 / 0.99)

    def test_steps_on_the_gradient_of_the_loss(self):
        # plain gradient steps with _logistic_grad, which acceptance check
        # c03 checks against the log-loss
        X, A, _ = interaction_dgp(300, 4)
        coef, intercept = np.zeros(10), 0.0
        for _ in range(50):
            gw, gb = _logistic_grad(logistic(X @ coef + intercept), X, A)
            coef, intercept = coef - 0.1 * gw, intercept - 0.1 * gb
        fitted = fit_logistic(X, A, epochs=50)
        assert fitted.coef.tobytes() == coef.tobytes()
        assert fitted.intercept == intercept

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_logistic(np.zeros((5, 2)), np.ones(5))

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_logistic(np.zeros(5), np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            fit_logistic(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(InvalidArgumentError, match="at least 2 rows"):
            fit_logistic(np.zeros((1, 2)), np.ones(1))


@pytest.mark.parametrize("fit", [fit_logistic, fit_forest])
class TestBadInput:
    """Both classifiers refuse covariates they cannot order and labels that
    are not classes, before fitting anything."""

    def data(self):
        X, A, _ = interaction_dgp(40, seed=1)
        return X, A

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariate(self, fit, bad):
        X, A = self.data()
        X[7, 3] = bad
        with pytest.raises(InvalidArgumentError, match="NaN or inf"):
            fit(X, A)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_label_outside_zero_one(self, fit, bad):
        X, A = self.data()
        A[5] = bad
        with pytest.raises(InvalidArgumentError, match="labels must be 0 or 1"):
            fit(X, A)


class TestForest:
    def test_large_sample_accuracy_on_interaction_rule(self):
        X, A, pi = interaction_dgp(20000, seed=7)
        model = fit_forest(X, A, seed=0)
        Xp, _, pip = interaction_dgp(4000, seed=8)
        preds = model(Xp)
        assert np.mean(np.abs(preds - pip)) < 0.05

    def test_pure_leaves_land_on_clip_bounds(self):
        X = np.repeat([[-1.0], [1.0]], 20, axis=0)
        A = (X[:, 0] > 0).astype(np.float64)
        model = fit_forest(X, A, seed=3)
        assert set(np.unique(model(X))) == {0.0, 1.0}
        treated = Dataset(X, np.ones(40), np.zeros(40))
        omega = compute_omega(treated, model, (0.01, 0.99))
        assert set(np.unique(omega)) == {1.0 / 0.01, 1.0 / 0.99}

    def test_deterministic_given_seed(self):
        X, A, _ = interaction_dgp(500, seed=2)
        probe = np.random.default_rng(9).normal(1.0, 1.0, size=(50, 10))
        p1 = fit_forest(X, A, seed=5)(probe)
        p2 = fit_forest(X, A, seed=5)(probe)
        assert np.array_equal(p1, p2)

    def test_seed_changes_forest(self):
        X, A, _ = interaction_dgp(500, seed=2)
        probe = np.random.default_rng(9).normal(1.0, 1.0, size=(50, 10))
        p1 = fit_forest(X, A, seed=5)(probe)
        p2 = fit_forest(X, A, seed=6)(probe)
        assert not np.array_equal(p1, p2)

    def test_single_class_constant_tree(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        model = fit_forest(X, np.ones(30))
        assert len(model.trees) == 1
        assert np.all(model(X) == 1.0)

    def test_small_sample_rejected(self):
        # too few rows is a property of the data, not a malformed argument
        with pytest.raises(DegenerateDataError, match="n >= 10"):
            fit_forest(np.zeros((9, 2)), np.zeros(9))
        with pytest.raises(InvalidArgumentError):
            fit_forest(np.zeros((20, 0)), np.zeros(20))

    @pytest.mark.parametrize("lo, hi", [(1.0, np.nextafter(1.0, 2.0)),
                                        (1e308, 1.5e308), (-1.5e308, -1e308)])
    def test_a_threshold_separates_values_whose_midpoint_does_not(self, lo, hi):
        """Where 0.5 (lo + hi) rounds onto lo or overflows, the upper value is
        the threshold: each class gets its own leaf, without a warning."""
        X = np.repeat([lo, hi], 20)[:, None]
        A = np.repeat([0.0, 1.0], 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_forest(X, A, n_trees=3)
            got = model(np.array([[lo], [hi], [np.nextafter(lo, -np.inf)]]))
        assert np.array_equal(got, [0.0, 1.0, 0.0])
        assert all(t.threshold[0] == hi for t in model.trees)
        assert_same_trees(model.trees, oracle_forest(X, A, n_trees=3))

    def test_peak_allocation_is_bounded(self):
        """At most twice what the node-at-a-time grower allocated at its
        peak on these fits (1.28 MB at n = 500, 10.3 MB at n = 5000), traced
        by tracemalloc."""
        for n, before in ((500, 1.28e6), (5000, 10.3e6)):
            data, _ = generate(Hyper(n=n, seed=20261017))
            _, peak, _ = traced_memory(lambda: fit_forest(data.X, data.A, seed=3))
            assert peak <= 2 * before, (n, peak)

    def test_no_trees_rejected(self):
        # an empty forest's prediction would be the mean of nothing: NaN
        X, A, _ = interaction_dgp(40, seed=1)
        with pytest.raises(InvalidArgumentError, match="0 trees"):
            fit_forest(X, A, n_trees=0)


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("feature", "threshold", "left", "right", "prob"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]),
                   tree_depth(tree, tree.right[node]))


@st.composite
def forest_problems(draw):
    """Small covariate tables full of ties: rounded columns, constant columns
    and signed zeros, with labels that may hold a single class."""
    n = draw(st.integers(10, 200))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    for f in range(d):
        kind = draw(st.sampled_from(["raw", "rounded", "coarse", "constant"]))
        if kind == "rounded":
            X[:, f] = np.round(X[:, f], 1)
        elif kind == "coarse":
            X[:, f] = np.round(X[:, f])
        elif kind == "constant":
            X[:, f] = draw(st.sampled_from([0.0, -0.0, 3.5]))
    zeros = rng.uniform(size=X.shape) < draw(st.sampled_from([0.0, 0.2]))
    X[zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, 0.0, -0.0)
    rate = draw(st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]))
    A = (rng.uniform(size=n) < rate).astype(np.float64)
    return X, A


class TestForestMatchesOracle:
    """The presorted builder grows, array for array, the trees of a builder
    that sorts every feature again at every node of every bootstrap sample."""

    @settings(max_examples=150, deadline=None)
    @given(problem=forest_problems(), n_trees=st.integers(1, 5),
           max_depth=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_random_tables(self, problem, n_trees, max_depth, seed):
        X, A = problem
        model = fit_forest(X, A, n_trees=n_trees, max_depth=max_depth, seed=seed)
        assert_same_trees(model.trees, oracle_forest(X, A, n_trees, max_depth, seed))

    def test_a_rare_class_across_batches(self):
        """A tree whose draw missed the three positive rows is a single leaf,
        grown in one batch with trees that split to full depth."""
        X = np.random.default_rng(5).normal(size=(2000, 3))
        A = np.zeros(2000)
        A[[17, 400, 1234]] = 1.0
        step = _batch_trees(*X.shape)
        n_trees = 3 * step
        model = fit_forest(X, A, n_trees=n_trees, seed=5)
        assert_same_trees(model.trees, oracle_forest(X, A, n_trees, 4, 5))
        depths = [tree_depth(t) for t in model.trees]
        assert any({0, 4} <= set(depths[i:i + step]) for i in range(0, n_trees, step))

    @pytest.mark.parametrize("max_depth", [0, 1])
    def test_shallow_trees_across_batches(self, max_depth):
        X, A, _ = interaction_dgp(2000, seed=6)
        X[:, :3] = np.round(X[:, :3], 1)            # ties on three features
        n_trees = 2 * _batch_trees(*X.shape) + 1
        model = fit_forest(X, A, n_trees=n_trees, max_depth=max_depth, seed=8)
        assert_same_trees(model.trees, oracle_forest(X, A, n_trees, max_depth, 8))
        assert {tree_depth(t) for t in model.trees} == {max_depth}

    def test_benchmark_generator(self):
        data, _ = generate(Hyper(n=2000, seed=20261017))
        model = fit_forest(data.X, data.A, seed=11)
        oracle = Forest(oracle_forest(data.X, data.A, seed=11))
        assert_same_trees(model.trees, oracle.trees)
        probe = generate(Hyper(n=500, seed=7))[0].X
        for x in (data.X, probe):
            assert model(x).tobytes() == oracle(x).tobytes()


class TestFitPropensity:
    def test_each_kind_is_its_fit(self):
        """auto and forest fit the seeded forest, logistic the logistic
        regression; any other name, the benchmark's oracle too, is rejected."""
        X, A, _ = interaction_dgp(200, seed=4)
        probe = np.random.default_rng(9).normal(1.0, 1.0, size=(50, 10))
        want = fit_forest(X, A, seed=7)(probe)
        for kind in ("auto", "forest"):
            model = fit_propensity(kind, X, A, seed=7)
            assert isinstance(model, Forest) and np.array_equal(model(probe), want)
        model = fit_propensity("logistic", X, A, seed=7)
        assert isinstance(model, Logistic)
        assert np.array_equal(model(probe), fit_logistic(X, A)(probe))
        for kind in ("oracle", "Forest", ""):
            with pytest.raises(ConfigError, match="propensity"):
                fit_propensity(kind, X, A)


class TestOracle:
    """The oracle propensity is ``true_propensity`` itself."""

    def test_benchmark_rule_values(self):
        X = np.zeros((2, 10))
        X[:, 0], X[:, 5] = 1.0, [2.0, 0.0]
        assert np.array_equal(true_propensity(X), [0.9, 0.1])

    def test_clip_always_applied(self):
        X = np.random.default_rng(3).normal(1.0, 1.0, size=(200, 10))
        omega = compute_omega(Dataset(X, np.ones(200), np.zeros(200)),
                              true_propensity, (0.2, 0.8))
        assert set(np.unique(omega)) == {1.0 / 0.8, 1.0 / 0.2}
