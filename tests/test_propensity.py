"""Propensity models: logistic regression, random forest, oracle wrapper."""

import numpy as np
import pytest

from ccme.errors import DegenerateDataError, InvalidArgumentError
from ccme.propensity import (PropensityModel, fit_forest, fit_logistic,
                             make_oracle, predict_propensity)
from ccme.synthbench import true_propensity


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

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_logistic(np.zeros((5, 2)), np.ones(5))

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_logistic(np.zeros(5), np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            fit_logistic(np.zeros((5, 2)), np.zeros(4))


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
