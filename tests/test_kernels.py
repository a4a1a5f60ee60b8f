"""Kernel evaluation, Gram construction, and regularized solves."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dtfttr, dtrttf
from scipy.spatial.distance import cdist

from ccme.errors import InvalidArgumentError, NumericError
from ccme.estimators import Hyper, KernelHead
from ccme.kernels import BANDWIDTHS, KernelSpec, SpdFactor, gram

from conftest import packed_input, traced_memory
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

    def test_nonpositive_bandwidth_rejected(self):
        """Also a non-finite one, and one whose 2 bandwidth^2 underflows
        (a NaN Gram diagonal) or overflows (a constant Gram)."""
        for bad in (0.0, -1.0, np.nan, np.inf, 1e-300, 1e-154, 1e155):
            with pytest.raises(InvalidArgumentError):
                KernelSpec(bandwidth=bad)
        assert KernelSpec(bandwidth=1e-153).bandwidth == 1e-153

    def test_bandwidths_are_where_the_divisor_is_a_normal_float(self):
        """BANDWIDTHS = [lo, hi) holds exactly the bandwidths whose
        2 bandwidth^2, computed as KernelSpec.at does, is a positive normal
        float: lo is the first, and hi the first whose square overflows."""
        lo, hi = BANDWIDTHS
        tiny = np.finfo(np.float64).tiny
        below_lo, below_hi = math.nextafter(lo, 0.0), math.nextafter(hi, 0.0)
        assert 2.0 * lo * lo >= tiny > 2.0 * below_lo * below_lo
        assert 2.0 * below_hi * below_hi < math.inf == 2.0 * hi * hi
        for good in (lo, below_hi):
            assert KernelSpec(bandwidth=good).bandwidth == good
        for bad in (below_lo, hi):
            with pytest.raises(InvalidArgumentError):
                KernelSpec(bandwidth=bad)

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
        assert BANDWIDTHS[0] <= bandwidth < BANDWIDTHS[1]     # 1e-150 .. 1e150 all are
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

    def test_zero_dim_input_read_as_one_scalar_point(self):
        assert np.array_equal(gram(KernelSpec(), 3.0), [[1.0]])
        assert np.array_equal(gram(KernelSpec(bandwidth=2.0), 0.0, [0.0, 2.0]),
                              gram(KernelSpec(bandwidth=2.0), [[0.0]], [0.0, 2.0]))

    def test_three_dim_input_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at most 2-dimensional"):
            gram(KernelSpec(), np.zeros((2, 2, 1)))

    def test_empty_points_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gram(KernelSpec(), np.empty((0, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gram(KernelSpec(), np.zeros((2, 2)), np.zeros((2, 3)))


# Coordinates with ties, signed zeros, subnormals and magnitudes whose
# differences or squares overflow, besides any finite float.
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -1e-310,
                                    1e154, -1e155, 1e300, -1.7e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestGramPaths:
    """``gram``'s squared distances are scipy's ``cdist(a, b,
    "sqeuclidean")``, bit for bit, and its kernel is computed over them."""

    @staticmethod
    def squared_distances(a, b=None):
        """The array ``gram`` hands to ``KernelSpec.at``."""
        with mock.patch.object(KernelSpec, "at", lambda self, sq, dim: sq):
            return gram(KernelSpec(), a, b)

    def check(self, a, b=None):
        sq = self.squared_distances(a, b)
        want = cdist(a, a if b is None else b, "sqeuclidean")
        assert sq.tobytes() == want.tobytes()
        spec = KernelSpec(0.7)
        assert gram(spec, a, b).tobytes() == spec.at(want, a.shape[1]).tobytes()
        if b is None:
            assert sq.tobytes() == sq.T.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), m=st.integers(1, 30),
           d=st.integers(1, 10), square=st.booleans())
    def test_same_bits_as_cdist(self, data, n, m, d, square):
        a = data.draw(arrays(np.float64, (n, d), elements=COORDS))
        b = None if square else data.draw(arrays(np.float64, (m, d), elements=COORDS))
        self.check(a, b)

    @pytest.mark.parametrize("a,b", [
        ([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]], None),              # ties
        ([[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0]]),              # signed zeros
        ([[5e-324, -1e-310], [0.0, 2.2e-308]], None),              # subnormals
        ([[1e154, -1e155], [-1.7e308, 1e300]], [[1.7e308, 0.0]]),  # overflow
        (np.empty((3, 0)), np.empty((2, 0))),                      # R^0
    ], ids=["ties", "signed-zeros", "subnormals", "overflow", "no-coordinates"])
    def test_same_bits_as_cdist_at_the_edges(self, a, b):
        self.check(np.asarray(a, dtype=np.float64),
                   None if b is None else np.asarray(b, dtype=np.float64))

    def test_no_coordinates(self):
        """Points in R^0 are all at distance 0, as cdist has them."""
        assert np.array_equal(gram(KernelSpec(), np.empty((3, 0)), np.empty((2, 0))),
                              np.ones((3, 2)))


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
        """Refactoring ``matrix`` gives the factor's bits, and that factor is
        LAPACK's dpotrf one within rounding: RFP blocks the same arithmetic
        otherwise."""
        rng = np.random.default_rng(2)
        fac = SpdFactor(gram(KernelSpec(), rng.normal(size=(5, 2))), 1.0)
        again = SpdFactor.from_regularized(fac.matrix, 1.0)
        assert again._factor.tobytes() == fac._factor.tobytes()
        fresh = cho_factor(fac.matrix, lower=True)[0]
        unpacked = dtfttr(5, fac._factor, transr="N", uplo="L")[0]
        assert np.abs(np.tril(unpacked) - np.tril(fresh)).max() <= 1e-15

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
    """SpdFactor leaves the K it is given as it was and keeps its own copy,
    while the factor lives in its own packed buffer; a Gram given as
    (kernel, points) gives the same bits without any n x n array;
    ``matrix`` and ``from_regularized`` see K + ridge I either way."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           ridge=st.floats(1e-6, 1e3))
    def test_factor_leaves_k_and_sees_k_plus_ridge(self, n, d, seed, ridge):
        rng = np.random.default_rng(seed)
        spec, points = KernelSpec(bandwidth=1.5), rng.normal(size=(n, d))
        K = gram(spec, points)
        before = K.copy()
        regularized = K + ridge * np.eye(n)
        fac = SpdFactor(K, ridge)
        assert K.tobytes() == before.tobytes()
        assert not np.shares_memory(fac._factor, K)
        assert fac._factor.shape == (n * (n + 1) // 2,)
        K[...] = np.nan                          # the factor holds its own copy
        direct = SpdFactor((spec, points), ridge)
        assert direct._factor.tobytes() == fac._factor.tobytes()
        rebuilt = SpdFactor.from_regularized(fac.matrix, ridge)
        assert rebuilt._factor.tobytes() == fac._factor.tobytes()
        for read in (fac.matrix, direct.matrix, rebuilt.matrix):
            read[...] = np.nan                   # each read is a new array
        for matrix in (fac.matrix, direct.matrix, rebuilt.matrix):
            assert matrix.tobytes() == regularized.tobytes()
        rhs = rng.normal(size=(n, 2))
        assert rebuilt.solve(rhs).tobytes() == fac.solve(rhs).tobytes()


def dtrttf_of(full, ridge):
    """LAPACK's packing of ``full`` + ridge I: dtrttf of a Fortran-ordered
    copy, whose lower triangle it reads."""
    full = full.copy()
    full.ravel()[::len(full) + 1] += ridge
    return dtrttf(full, transr="N", uplo="L")[0]


class TestPackedGram:
    """The one RFP writer, ``kernels._packed``, has the bits of LAPACK's
    dtrttf packing of the full regularized matrix, whether it writes a Gram
    from its kernel and points or copies an array, at even and odd orders
    and across several blocks of ``PACK_COLUMNS`` columns."""

    @pytest.mark.parametrize("n", [1, 2, 6, 7, 600, 601])
    def test_packed_gram_is_dtrttf_of_the_full_gram(self, n):
        spec, points = KernelSpec(bandwidth=1.3), np.random.default_rng(n).normal(size=(n, 3))
        got = packed_input(lambda: SpdFactor((spec, points), 0.7))
        assert got.tobytes() == dtrttf_of(gram(spec, points), 0.7).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           ridge=st.floats(1e-6, 1e3))
    def test_packed_array_is_dtrttf_of_the_array(self, n, seed, ridge):
        """An exactly symmetric array, with the ridge added and, through
        ``from_regularized``, already in it."""
        half = np.random.default_rng(seed).normal(size=(n, n))
        A = half + half.T
        got = packed_input(lambda: SpdFactor(A, ridge))
        assert got.tobytes() == dtrttf_of(A, ridge).tobytes()
        regularized = A + ridge * np.eye(n)
        got = packed_input(lambda: SpdFactor.from_regularized(regularized, ridge))
        assert got.tobytes() == dtrttf_of(regularized, 0.0).tobytes()


class TestSpdFactorEdges:
    """NaN and inf, failing pivots and 1-d solves, at an even and an odd
    order, where RFP lays the two triangles out differently."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_non_finite_entries_are_named(self, n):
        K = np.eye(n)
        K[0, n - 1] = K[n - 1, 0] = np.inf
        with pytest.raises(NumericError, match="NaN or inf"):
            SpdFactor(K, 1.0)
        points = np.arange(n, dtype=np.float64)
        points[n // 2] = np.nan
        with pytest.raises(NumericError, match="NaN or inf"):
            SpdFactor((KernelSpec(), points), 1.0)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("pivot", [1, 3, -1])
    def test_a_failing_pivot_is_named(self, n, pivot):
        """The pivot counts in the full matrix, in either packed triangle."""
        pivot %= n
        K = np.eye(n)
        K[pivot - 1, pivot] = K[pivot, pivot - 1] = 2.0     # minor of order pivot + 1 < 0
        with pytest.raises(NumericError, match=f"leading minor {pivot + 1} ") as err:
            SpdFactor(K, 1e-6)
        assert err.value.pivot == pivot

    @pytest.mark.parametrize("n", [6, 7])
    def test_a_vector_solves_as_a_column(self, n):
        rng = np.random.default_rng(n)
        points, rhs = rng.normal(size=(n, 2)), rng.normal(size=n)
        fac = SpdFactor((KernelSpec(), points), 0.5)
        x = fac.solve(rhs)
        assert x.shape == (n,)
        assert x.tobytes() == fac.solve(rhs[:, None]).ravel().tobytes()
        assert np.allclose(fac.matrix @ x, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(), (6, 1, 1), (6, 2, 1)])
    def test_rhs_must_be_a_vector_or_a_matrix(self, shape):
        fac = SpdFactor(np.eye(6), 1.0)
        with pytest.raises(InvalidArgumentError, match="vector or a matrix of 6 rows"):
            fac.solve(np.ones(shape))


class TestGramMemory:
    """An n x n Gram is one buffer, and a factor half of one.  tracemalloc sees
    numpy's, cdist's and f2py's allocations; 1.0 is one n x n float64 array."""

    N = 1500

    def traced(self, fn, n=N):
        """(result, peak, held) of ``fn()``, in n x n arrays beyond the start."""
        result, peak, held = traced_memory(fn)
        return result, peak / (n * n * 8), held / (n * n * 8)

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(3).normal(size=(self.N, 5))

    def test_gram_builds_in_cdists_buffer(self, points):
        _, peak, _ = self.traced(lambda: gram(KernelSpec(), points))
        assert peak <= 1.05

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_gram_builds_in_one_buffer_in_every_dimension(self, d):
        """A square Gram of about two million coordinates in R^d takes its
        one n x n buffer and, beside it, under a page."""
        n = math.isqrt((1 << 21) // d)
        points = np.random.default_rng(d).normal(size=(n, d))
        _, peak, _ = self.traced(lambda: gram(KernelSpec(), points), n)
        assert (peak - 1.0) * n * n * 8 <= 4096

    def test_factor_holds_one_array(self, points):
        """The packed factor is half an n x n array; the peak adds the
        blocks its Gram is written in, PACK_COLUMNS rows of n doubles."""
        fac, peak, held = self.traced(lambda: KernelHead.factor(points, Hyper(), 0))
        assert peak <= 0.6
        assert held <= 0.51
        assert fac._factor.shape == (self.N * (self.N + 1) // 2,)
