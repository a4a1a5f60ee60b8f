"""Kernel evaluation, Gram construction, and regularized solves."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor

from ccme.errors import InvalidArgumentError, NumericError
from ccme.estimators import Hyper, KernelHead
from ccme.kernels import KernelSpec, SpdFactor, gram, usable_bandwidth

from oracles import kernel_eval

EXP_HALF = 0.6065306597126334          # exp(-0.5)
INV_SQRT_2PI = 0.3989422804014327      # (sqrt(2 pi))**-1


class TestKernelEval:
    def test_identical_points_unnormalized(self):
        spec = KernelSpec(bandwidth=2.0)
        assert kernel_eval(spec, [0.3, -1.2], [0.3, -1.2]) == 1.0

    def test_scalar_pair_matches_closed_form(self):
        # ||0-2||^2 / (2*2^2) = 4/8, so the value is exp(-1/2)
        spec = KernelSpec(bandwidth=2.0)
        assert kernel_eval(spec, 0.0, 2.0) == pytest.approx(EXP_HALF, abs=1e-15)

    def test_normalized_at_coincident_point(self):
        spec = KernelSpec(bandwidth=1.0, normalized=True)
        assert kernel_eval(spec, 0.7, 0.7) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_normalized_integrates_to_one(self):
        spec = KernelSpec(bandwidth=2.0, normalized=True)
        y = np.linspace(-30.0, 30.0, 4001)
        vals = np.array([kernel_eval(spec, 0.5, t) for t in y])
        assert np.trapezoid(vals, y) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            kernel_eval(KernelSpec(), [0.0, 1.0], [0.0])

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family="laplace")

    def test_nonpositive_bandwidth_rejected(self):
        """Also a non-finite one, and one whose 2 bandwidth^2 underflows
        (a NaN Gram diagonal) or overflows (a constant Gram)."""
        for bad in (0.0, -1.0, np.nan, np.inf, 1e-300, 1e-154, 1e155):
            with pytest.raises(InvalidArgumentError):
                KernelSpec(bandwidth=bad)
        assert KernelSpec(bandwidth=1e-153).bandwidth == 1e-153

    def test_norm_const_dimension_scaling(self):
        spec = KernelSpec(bandwidth=2.0, normalized=True)
        assert spec.norm_const(2) == pytest.approx(
            (np.sqrt(2 * np.pi) * 2.0) ** -2, abs=1e-18)
        assert KernelSpec(bandwidth=2.0).norm_const(3) == 1.0


class TestGram:
    def test_identical_points_all_ones(self):
        K = gram(KernelSpec(), [[1.5], [1.5]])
        assert np.array_equal(K, np.ones((2, 2)))

    def test_two_point_gram_matches_elementwise(self):
        K = gram(KernelSpec(bandwidth=2.0), [0.0, 2.0])
        expect = np.array([[1.0, EXP_HALF], [EXP_HALF, 1.0]])
        assert np.allclose(K, expect, atol=1e-15)

    def test_rectangular_block(self):
        K = gram(KernelSpec(bandwidth=2.0), [0.0], [0.0, 2.0])
        assert K.shape == (1, 2)
        assert np.allclose(K, [[1.0, EXP_HALF]], atol=1e-15)

    def test_square_gram_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 4))
        K = gram(KernelSpec(bandwidth=1.3), pts)
        assert np.array_equal(K, K.T)

    def test_entries_match_kernel_eval_bitwise(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(4, 2))
        spec = KernelSpec(bandwidth=0.9, normalized=True)
        K = gram(spec, a, b)
        for i in range(5):
            for j in range(4):
                assert K[i, j] == kernel_eval(spec, a[i], b[j])

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), repeats=st.booleans(),
           log_bandwidth=st.floats(-150.0, 150.0))
    def test_square_gram_symmetric_unit_diagonal_psd(self, n, d, seed, scale, repeats,
                                                    log_bandwidth):
        bandwidth = 10.0 ** log_bandwidth
        assert usable_bandwidth(bandwidth)      # 1e-150 .. 1e150 all are
        rng = np.random.default_rng(seed)
        pts = scale * rng.normal(size=(n, d))
        if repeats:                    # duplicate points give equal rows
            pts = pts[rng.integers(0, n, size=n)]
        K = gram(KernelSpec(bandwidth=bandwidth), pts)
        assert K.tobytes() == K.T.tobytes()
        assert np.all(np.diag(K) == 1.0)
        assert np.linalg.eigvalsh(K).min() >= -1e-10 * n

    def test_one_dim_input_read_as_scalar_points(self):
        K1 = gram(KernelSpec(), np.array([0.0, 1.0, 2.0]))
        K2 = gram(KernelSpec(), np.array([[0.0], [1.0], [2.0]]))
        assert np.array_equal(K1, K2)

    def test_empty_points_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gram(KernelSpec(), np.empty((0, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gram(KernelSpec(), np.zeros((2, 2)), np.zeros((2, 3)))


class TestRegularizedSolve:
    """Solves of (K + ridge I) x = rhs through a fresh SpdFactor."""

    def test_scaled_identity(self):
        b = np.array([0.4, -2.0])
        x = SpdFactor(np.eye(2), 1.0).solve(b)
        assert np.allclose(x, b / 2.0, atol=1e-15)

    def test_two_by_two_against_adjugate_inverse(self):
        K = np.array([[1.0, EXP_HALF], [EXP_HALF, 1.0]])
        x = SpdFactor(K, 40.0).solve(np.array([1.0, 0.0]))
        det = 41.0 ** 2 - EXP_HALF ** 2
        assert np.allclose(x, [41.0 / det, -EXP_HALF / det], atol=1e-14)
        assert x[0] == pytest.approx(0.024395582768206914, abs=1e-15)
        assert x[1] == pytest.approx(-0.0003608943636701144, abs=1e-15)

    def test_zero_rhs_gives_zero(self):
        K = gram(KernelSpec(), np.arange(4.0))
        x = SpdFactor(K, 3.0).solve(np.zeros(4))
        assert np.array_equal(x, np.zeros(4))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(0)
        K = gram(KernelSpec(), rng.normal(size=(6, 2)))
        B = rng.normal(size=(6, 3))
        regularized = K + 2.0 * np.eye(6)
        X = SpdFactor(K, 2.0).solve(B)
        assert np.allclose(regularized @ X, B, atol=1e-12)

    def test_indefinite_matrix_reports_pivot(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NumericError) as err:
            SpdFactor(K, 1e-6).solve(np.ones(2))
        assert err.value.pivot == 1

    def test_nonpositive_ridge_rejected(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                SpdFactor(np.eye(2), bad).solve(np.ones(2))

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SpdFactor(np.ones((2, 3)), 1.0).solve(np.ones(2))


class TestSpdFactor:
    def test_solve_matches_direct_inverse(self):
        rng = np.random.default_rng(11)
        K = gram(KernelSpec(bandwidth=1.1), rng.normal(size=(8, 3)))
        fac = SpdFactor(K.copy(), 5.0)
        rhs = rng.normal(size=8)
        assert np.allclose(fac.solve(rhs),
                           np.linalg.solve(K + 5.0 * np.eye(8), rhs), atol=1e-12)

    def test_rhs_row_mismatch_rejected(self):
        fac = SpdFactor(np.eye(3), 1.0)
        with pytest.raises(InvalidArgumentError):
            fac.solve(np.ones(4))

    def test_refactor_residual_is_zero(self):
        rng = np.random.default_rng(2)
        fac = SpdFactor(gram(KernelSpec(), rng.normal(size=(5, 2))), 1.0)
        fresh = cho_factor(fac.matrix, lower=True)[0]
        assert np.array_equal(np.tril(fresh), np.tril(fac._factor))

    def test_non_finite_matrix_is_numeric(self):
        K = np.eye(3)
        K[0, 2] = K[2, 0] = np.inf
        with pytest.raises(NumericError, match="NaN or inf"):
            SpdFactor(K, 1.0)
        with pytest.raises(NumericError, match="right-hand side"):
            SpdFactor(np.eye(3), 1.0).solve(np.array([1.0, np.nan, 0.0]))

    def test_from_regularized_indefinite_reports_pivot(self):
        with pytest.raises(NumericError, match="stored matrix") as err:
            SpdFactor.from_regularized(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
        assert err.value.pivot == 1

    def test_from_regularized_round_trip(self):
        rng = np.random.default_rng(4)
        K = gram(KernelSpec(), rng.normal(size=(6, 2)))
        fac = SpdFactor(K, 20.0)
        rebuilt = SpdFactor.from_regularized(fac.matrix, fac.ridge)
        rhs = rng.normal(size=(6, 2))
        assert np.array_equal(fac.solve(rhs), rebuilt.solve(rhs))


class TestSpdFactorOwnership:
    """SpdFactor takes over the K it is given; ``matrix`` and
    ``from_regularized`` still see K + ridge I."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           ridge=st.floats(1e-6, 1e3))
    def test_factor_overwrites_k_and_keeps_k_plus_ridge(self, n, d, seed, ridge):
        rng = np.random.default_rng(seed)
        K = gram(KernelSpec(bandwidth=1.5), rng.normal(size=(n, d)))
        regularized = K + ridge * np.eye(n)
        fac = SpdFactor(K, ridge)
        assert np.shares_memory(fac._factor, K)
        assert not np.array_equal(K, regularized)
        matrix = fac.matrix
        assert matrix.tobytes() == regularized.tobytes()
        rebuilt = SpdFactor.from_regularized(matrix, ridge)
        assert matrix.tobytes() == regularized.tobytes()
        rhs = rng.normal(size=(n, 2))
        assert rebuilt.solve(rhs).tobytes() == fac.solve(rhs).tobytes()


class TestGramMemory:
    """An n x n Gram and its factor are one buffer each.  tracemalloc sees
    numpy's, cdist's and f2py's allocations; 1.0 is one n x n float64 array."""

    N = 1500

    def traced(self, fn):
        """(result, peak, held) of ``fn()``, in n x n arrays beyond the start."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        unit = self.N * self.N * 8
        return result, (peak - base) / unit, (held - base) / unit

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(3).normal(size=(self.N, 5))

    def test_gram_builds_in_cdists_buffer(self, points):
        _, peak, _ = self.traced(lambda: gram(KernelSpec(), points))
        assert peak <= 1.05

    def test_factor_holds_one_array(self, points):
        # the 0.125 above 1 is _cholesky's isfinite mask
        fac, peak, held = self.traced(lambda: KernelHead.factor(points, Hyper(), 0))
        assert peak <= 1.25
        assert held <= 1.01
        assert fac._factor.shape == (self.N, self.N)
