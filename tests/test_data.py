"""Dataset container, splitting, inverse-propensity weights, CSV round-trip."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccme.data import (Dataset, compute_omega, dataset_to_csv, default_v_cols,
                       load_dataset, split_data)
from ccme.errors import DegenerateDataError, InvalidArgumentError
from ccme.estimators import Hyper, fit_first_stage
from ccme.propensity import Logistic
from ccme.synthbench import true_propensity

from conftest import make_dataset
from oracles import reference_dataset_csv

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def finite_datasets(draw):
    """Any finite covariates and outcomes (signed zeros, subnormals and the
    largest floats included) with 0/1 treatments."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    return Dataset(draw(arrays(np.float64, (n, d), elements=FINITE)),
                   draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0]))),
                   draw(arrays(np.float64, n, elements=FINITE)))


class TestDataset:
    def test_outcome_reshaped_to_matrix(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), np.arange(3.0))
        assert ds.Y.shape == (3, 1)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), np.arange(3.0))

    def test_nonbinary_treatment_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((2, 1)), np.array([0.0, 0.5]), np.zeros(2))

    def test_vector_outcomes_rejected(self):
        with pytest.raises(InvalidArgumentError, match="scalar"):
            Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), np.zeros((4, 2)))

    def test_take_preserves_rows(self):
        ds = make_dataset(10, seed=1)
        sub = ds.take(np.array([2, 5]))
        assert np.array_equal(sub.X, ds.X[[2, 5]])
        assert np.array_equal(sub.Y, ds.Y[[2, 5]])

    def test_default_v_cols(self):
        assert default_v_cols(10) == [0, 1, 2, 3, 4]
        assert default_v_cols(3) == [0, 1, 2]


class TestSplit:
    def test_deterministic(self):
        ds = make_dataset(30, seed=2)
        s1 = split_data(ds, seed=7)
        s2 = split_data(ds, seed=7)
        assert np.array_equal(s1.d0.X, s2.d0.X)
        assert np.array_equal(s1.d1.Y, s2.d1.Y)
        assert np.array_equal(s1.treated0, s2.treated0)

    def test_four_rows_split_evenly(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([1, 1, 0, 1]),
                     np.arange(4.0))
        s = split_data(ds, seed=0)
        assert len(s.d0) == 2 and len(s.d1) == 2

    def test_odd_count_gives_extra_row_to_first_half(self):
        ds = make_dataset(11, seed=3)
        s = split_data(ds, seed=1)
        assert len(s.d0) == 6 and len(s.d1) == 5

    def test_halves_partition_the_rows(self):
        ds = make_dataset(20, seed=4)
        s = split_data(ds, seed=2)
        merged = np.vstack([s.d0.X, s.d1.X])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.X, axis=0))

    def test_all_treated_means_all_of_d0(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)),
                     np.ones(10), np.zeros(10))
        s = split_data(ds, seed=0)
        assert np.array_equal(s.treated0, np.arange(5))
        assert s.m == 5

    def test_no_treated_in_d0_rejected(self):
        # the split stands; only the first stage needs a treated D0 row
        ds = Dataset(np.zeros((6, 1)), np.zeros(6), np.zeros(6))
        split = split_data(ds, seed=0)
        assert split.m == 0
        with pytest.raises(DegenerateDataError, match="cannot fit a first stage"):
            fit_first_stage(split, "rr", Hyper())

    def test_too_few_rows_rejected(self):
        ds = Dataset(np.zeros((3, 1)), np.array([1, 1, 0]), np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            split_data(ds, seed=0)

    def test_v_cols_out_of_range_rejected(self):
        ds = make_dataset(10, seed=0, d_x=3)
        with pytest.raises(InvalidArgumentError):
            split_data(ds, seed=0, v_cols=[0, 3])

    def test_x_cols_out_of_range_rejected(self):
        ds = make_dataset(10, seed=0, d_x=3)
        with pytest.raises(InvalidArgumentError, match="x_cols"):
            split_data(ds, seed=0, x_cols=[-1])

    @pytest.mark.parametrize("name", ["v_cols", "x_cols"])
    def test_repeated_columns_rejected(self, name):
        ds = make_dataset(10, seed=0, d_x=3)
        with pytest.raises(InvalidArgumentError, match=f"{name} names a column twice"):
            split_data(ds, seed=0, **{name: [0, 2, 0]})

    def test_accessors_select_columns(self):
        ds = make_dataset(12, seed=5, d_x=4)
        s = split_data(ds, seed=1, v_cols=[0, 2], x_cols=[1])
        assert s.v1.shape == (s.n, 2)
        assert np.array_equal(s.v1, s.d1.X[:, [0, 2]])
        assert np.array_equal(s.x0_treated(), s.d0.X[s.treated0][:, [1]])
        assert s.y0_treated().shape == (s.m, 1)
        assert np.array_equal(s.x1(), s.d1.X)


class TestOmega:
    def test_treated_row_inverse_weight(self):
        # a zero-coefficient logistic model predicts exactly one half
        ds = Dataset(np.zeros((2, 1)), np.array([1, 1]), np.zeros(2))
        omega = compute_omega(ds, Logistic(np.zeros(1), 0.0), (0.01, 0.99))
        assert np.allclose(omega, [2.0, 2.0], atol=1e-15)

    def test_control_rows_exactly_zero(self):
        ds = make_dataset(15, seed=6, d_x=1)
        omega = compute_omega(ds, Logistic(np.array([2.0]), 0.3), (0.01, 0.99))
        assert np.all(omega[ds.A == 0] == 0.0)
        assert np.all(omega[ds.A == 1] > 1.0)

    def test_oracle_point_weight(self):
        X = np.zeros((1, 10))
        X[0, 0], X[0, 5] = 1.0, 2.0
        ds = Dataset(X, np.array([1.0]), np.zeros(1))
        omega = compute_omega(ds, true_propensity, (0.01, 0.99))
        assert omega[0] == pytest.approx(1.0 / 0.9, abs=1e-12)

    def test_bad_clip_bounds_rejected(self):
        ds = make_dataset(5, seed=0, d_x=1)
        nan = float("nan")
        for clip in [(0.5, 0.4), (0.3, 0.3), (0.0, 0.5), (-0.1, 0.5),
                     (0.5, 1.0), (nan, 0.5), (0.1, nan), (1e-320, 0.5)]:
            with pytest.raises(InvalidArgumentError, match="clip bounds"):
                compute_omega(ds, lambda X: np.full(len(X), 0.5), clip)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                         min_size=1, max_size=30),
           lo=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           hi=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(rows=[(0.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1.0, 0.0)], lo=0.01, hi=0.99)
    def test_weights_are_inverse_clipped_propensities(self, rows, lo, hi):
        """omega = 0 on control rows, and 1 / clip(p) in [1/hi, 1/lo] on
        treated rows, bit for bit, whatever p in [0, 1]."""
        assume(lo < hi and 1.0 / lo < np.inf)      # else the bounds are rejected
        p, A = (np.array(col) for col in zip(*rows))
        ds = Dataset(np.zeros((len(p), 1)), A, np.zeros(len(p)))
        omega = compute_omega(ds, lambda X: p, (lo, hi))
        treated = A == 1.0
        assert np.all(omega[~treated] == 0.0)
        want = 1.0 / np.minimum(np.maximum(p, lo), hi)
        assert omega[treated].tobytes() == want[treated].tobytes()
        assert np.all((1.0 / hi <= omega[treated]) & (omega[treated] <= 1.0 / lo))


class TestCsv:
    def test_round_trip_bit_exact(self):
        ds = make_dataset(17, seed=7, d_x=4)
        back = load_dataset(dataset_to_csv(ds))
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.A, ds.A)
        assert np.array_equal(back.Y, ds.Y)

    @settings(max_examples=100, deadline=None)
    @given(finite_datasets())
    def test_round_trip_bit_exact_on_any_finite_data(self, ds):
        back = load_dataset(dataset_to_csv(ds))
        for name in ("X", "A", "Y"):
            got, want = getattr(back, name), getattr(ds, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @settings(max_examples=100, deadline=None)
    @given(finite_datasets())
    @example(Dataset(np.array([[0.0, -0.0, 5e-324, 1e300, 1 / 3]]), np.array([1.0]),
                     np.array([-1 / 3])))
    def test_matches_the_value_by_value_writer(self, ds):
        assert dataset_to_csv(ds) == reference_dataset_csv(ds)

    def test_header_layout(self):
        ds = make_dataset(3, seed=0, d_x=2)
        assert dataset_to_csv(ds).splitlines()[0] == "x1,x2,a,y"

    def test_multicolumn_outcome_header(self):
        with pytest.raises(InvalidArgumentError, match="one scalar outcome"):
            load_dataset("x1,x2,a,y1,y2\n0.0,1.0,1,2.0,3.0\n")
        with pytest.raises(InvalidArgumentError, match="one scalar outcome"):
            load_dataset("x1,a,y1\n0.0,1,2.0\n")

    def test_repeated_header_name_rejected(self):
        with pytest.raises(InvalidArgumentError, match="names a column twice"):
            load_dataset("x1,x1,x3,a,y\n0.0,1.0,2.0,1,2.0\n")

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidArgumentError):
            load_dataset("")

    def test_missing_treatment_column_rejected(self):
        with pytest.raises(InvalidArgumentError):
            load_dataset("x1,y\n0.0,1.0\n")

    def test_out_of_order_columns_rejected(self):
        with pytest.raises(InvalidArgumentError):
            load_dataset("a,x1,y\n1,0.0,1.0\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(InvalidArgumentError):
            load_dataset("x1,a,y\n0.0,one,2.0\n")

    def test_field_count_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            load_dataset("x1,x2,a,y\n0.0,1.0,1.0\n")
