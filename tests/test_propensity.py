"""Propensity models: logistic regression, random forest, oracle wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ccme.errors import DegenerateDataError, InvalidArgumentError
from ccme.estimators import Hyper
from ccme.propensity import (PropensityModel, _logistic_grad, fit_forest,
                             fit_logistic, make_oracle, predict_propensity)
from ccme.synthbench import generate, true_propensity
from oracles import oracle_forest


def interaction_dgp(n, seed):
    """Covariates with a sharp two-feature treatment rule at rates 0.1/0.9."""
    rng = np.random.default_rng(seed)
    X = rng.normal(1.0, 1.0, size=(n, 10))
    pi = 0.1 + 0.8 * ((X[:, 0] >= 0) & (X[:, 0] <= 2) & (X[:, 5] >= 1.5))
    A = (rng.uniform(size=n) < pi).astype(np.float64)
    return X, A, pi


class TestLogistic:
    def test_labels_independent_of_features(self):
        # every covariate row appears once with each label, so the sample is
        # exactly balanced and the base rate is the unique optimum
        rng = np.random.default_rng(0)
        base = rng.normal(size=(500, 3))
        X = np.vstack([base, base])
        A = np.concatenate([np.ones(500), np.zeros(500)])
        model = fit_logistic(X, A)
        preds = predict_propensity(model, X)
        assert abs(model.logistic.intercept) < 0.02
        assert np.all(np.abs(preds - 0.5) < 0.02)

    def test_intercept_only_matches_base_rate(self):
        X = np.zeros((200, 2))
        A = np.zeros(200)
        A[:61] = 1.0
        model = fit_logistic(X, A)
        p = predict_propensity(model, np.zeros(2))
        assert abs(p - 0.305) < 0.02

    def test_separable_data_hits_upper_clip(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=400)
        X = x1.reshape(-1, 1)
        A = (x1 > 0).astype(np.float64)
        model = fit_logistic(X, A)
        far = predict_propensity(model, np.array([[4.0], [5.0], [6.0]]))
        assert np.all(far == 0.99)

    def test_steps_on_the_gradient_of_the_loss(self):
        # plain gradient steps with _logistic_grad, which acceptance check
        # c03 checks against the log-loss
        X, A, _ = interaction_dgp(300, 4)
        coef, intercept = np.zeros(10), 0.0
        for _ in range(50):
            gw, gb = _logistic_grad(expit(X @ coef + intercept), X, A)
            coef, intercept = coef - 0.1 * gw, intercept - 0.1 * gb
        fitted = fit_logistic(X, A, epochs=50).logistic
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
        preds = predict_propensity(model, Xp)
        assert np.mean(np.abs(preds - pip)) < 0.05

    def test_pure_leaves_land_on_clip_bounds(self):
        X = np.repeat([[-1.0], [1.0]], 20, axis=0)
        A = (X[:, 0] > 0).astype(np.float64)
        model = fit_forest(X, A, seed=3)
        preds = predict_propensity(model, X)
        assert set(np.unique(preds)) == {0.01, 0.99}

    def test_deterministic_given_seed(self):
        X, A, _ = interaction_dgp(500, seed=2)
        probe = np.random.default_rng(9).normal(1.0, 1.0, size=(50, 10))
        p1 = predict_propensity(fit_forest(X, A, seed=5), probe)
        p2 = predict_propensity(fit_forest(X, A, seed=5), probe)
        assert np.array_equal(p1, p2)

    def test_seed_changes_forest(self):
        X, A, _ = interaction_dgp(500, seed=2)
        probe = np.random.default_rng(9).normal(1.0, 1.0, size=(50, 10))
        p1 = predict_propensity(fit_forest(X, A, seed=5), probe)
        p2 = predict_propensity(fit_forest(X, A, seed=6), probe)
        assert not np.array_equal(p1, p2)

    def test_single_class_constant_tree(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        model = fit_forest(X, np.ones(30))
        preds = predict_propensity(model, X)
        assert np.all(preds == 0.99)

    def test_small_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_forest(np.zeros((9, 2)), np.zeros(9))
        with pytest.raises(InvalidArgumentError):
            fit_forest(np.zeros((20, 0)), np.zeros(20))

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

    def test_benchmark_generator(self):
        data, _ = generate(Hyper(n=2000, seed=20261017))
        model = fit_forest(data.X, data.A, seed=11)
        oracle = PropensityModel(kind="forest", n_features=data.X.shape[1],
                                 trees=oracle_forest(data.X, data.A, seed=11))
        assert_same_trees(model.trees, oracle.trees)
        probe = generate(Hyper(n=500, seed=7))[0].X
        for x in (data.X, probe):
            assert predict_propensity(model, x).tobytes() == \
                predict_propensity(oracle, x).tobytes()


class TestOracle:
    def test_benchmark_rule_values(self):
        model = make_oracle(true_propensity, 10)
        x = np.zeros(10)
        x[0], x[5] = 1.0, 2.0
        assert predict_propensity(model, x) == 0.9
        x[5] = 0.0
        assert predict_propensity(model, x) == 0.1

    def test_clip_always_applied(self):
        model = make_oracle(true_propensity, 10, clip=(0.2, 0.8))
        rng = np.random.default_rng(3)
        preds = predict_propensity(model, rng.normal(1.0, 1.0, size=(200, 10)))
        assert preds.min() >= 0.2 and preds.max() <= 0.8
        assert set(np.unique(preds)) == {0.2, 0.8}

    def test_bad_clip_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PropensityModel(kind="oracle", clip=(0.5, 0.4), n_features=10)

    def test_feature_count_check(self):
        model = make_oracle(true_propensity, 10)
        with pytest.raises(InvalidArgumentError):
            predict_propensity(model, np.zeros(3))
