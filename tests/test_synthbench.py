"""Synthetic generator, analytic ground truth, MSE scoring, and sweeps."""

import concurrent.futures
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from ccme import estimators, propensity, synthbench
from ccme.errors import ConfigError, DegenerateDataError, InvalidArgumentError
from ccme.estimators import METHODS, VARIANTS, Hyper
from ccme.propensity import Forest, Logistic
from ccme.synthbench import (BETA, GAMMA, SCENARIOS, SHIFT, TRUTH_ROWS,
                             GroundTruth, SweepCell, SweepRecord, TruthRows,
                             eval_points, generate, loglog_slope, mse, plan_cells,
                             run_cell, run_sweep, true_propensity)

from conftest import openblas_counts, openblas_threads, traced_memory
from oracles import whole_truth_density

V1 = np.array([2.2, -0.2, 2.2, -0.2, 2.2])
V2 = np.array([-0.2, 2.2, -0.2, 2.2, -0.2])


class TestGenerate:
    def test_deterministic(self):
        d1, lat1 = generate(Hyper(n=500, seed=11))
        d2, lat2 = generate(Hyper(n=500, seed=11))
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.A, d2.A)
        assert np.array_equal(d1.Y, d2.Y)
        assert np.array_equal(lat1["branch"], lat2["branch"])

    def test_treated_fraction_matches_analytic(self):
        data, _ = generate(Hyper(n=50000, seed=0))
        box = (stats.norm.cdf(1.0) - stats.norm.cdf(-1.0)) * stats.norm.sf(0.5)
        expect = 0.1 + 0.8 * box
        assert abs(data.A.mean() - expect) < 0.01

    def test_observed_outcome_selects_branch(self):
        data, lat = generate(Hyper(n=2000, seed=3))
        treated = data.A > 0
        assert np.array_equal(data.Y.ravel()[treated], lat["y_treated"][treated])
        assert np.array_equal(data.Y.ravel()[~treated], lat["y_control"][~treated])

    def test_latent_propensity_is_box_rule(self):
        data, lat = generate(Hyper(n=1000, seed=4))
        assert np.array_equal(lat["propensity"], true_propensity(data.X))
        assert set(np.unique(lat["propensity"])) <= {0.1, 0.9}

    def test_branch_rate_tracks_logistic_gate(self):
        data, lat = generate(Hyper(n=50000, seed=5))
        gate = 1.0 / (1.0 + np.exp(-0.5 * data.X[:, 0]))
        assert abs(lat["branch"].mean() - gate.mean()) < 0.01

    def test_noise_sd_formula(self):
        data, lat = generate(Hyper(n=100, seed=6))
        expect = 0.5 * (1 + 0.5 * np.abs(data.X[:, 0]) + 0.3 * np.abs(data.X[:, 4]))
        assert np.array_equal(lat["noise_sd"], expect)

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            generate(Hyper(n=0))
        # the scenario selects nuisance fits, never the draws
        a, _ = generate(Hyper(n=10, seed=2, scenario="a"))
        c, _ = generate(Hyper(n=10, seed=2, scenario="c"))
        assert np.array_equal(a.Y, c.Y) and np.array_equal(a.X, c.X)


class TestGroundTruth:
    def test_tail_moments(self):
        truth = GroundTruth()
        tail = (BETA + GAMMA)[5:]
        assert truth.tail_mean == tail.sum() == 3.5
        assert truth.tail_var == (tail ** 2).sum() == pytest.approx(9.55)

    def test_frozen_constants_at_probe_points(self):
        truth = GroundTruth()
        assert truth.mix_p(V1)[0] == pytest.approx(0.7502601055951177, abs=1e-15)
        assert truth.mix_p(V2)[0] == pytest.approx(0.47502081252106, abs=1e-13)
        assert truth.branch_mean(V1)[0] == pytest.approx(13.66, abs=1e-12)
        assert truth.noise_var(V1)[0] == pytest.approx(11.4544, abs=1e-12)

    def test_density_is_scipy_mixture(self):
        truth = GroundTruth()
        y = np.linspace(0.0, 40.0, 101)
        got = truth.density_matrix(V1, y)[0]
        p, m0, sd = 0.7502601055951177, 13.66, np.sqrt(11.4544)
        expect = ((1 - p) * stats.norm.pdf(y, m0, sd)
                  + p * stats.norm.pdf(y, m0 + SHIFT, sd))
        assert np.allclose(got, expect, atol=1e-14)

    def test_density_integrates_to_one(self):
        truth = GroundTruth()
        m0 = truth.branch_mean(V1)[0]
        sd = np.sqrt(truth.noise_var(V1)[0])
        y = np.linspace(m0 - 10 * sd, m0 + SHIFT + 10 * sd, 20001)
        mass = np.trapezoid(truth.density_matrix(V1, y)[0], y)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_moments_at_probe(self):
        rng = np.random.default_rng(12)
        n = 200000
        tail = rng.normal(1.0, 1.0, size=(n, 5))
        X = np.hstack([np.tile(V1, (n, 1)), tail])
        branch = (rng.random(n) < 1 / (1 + np.exp(-0.5 * V1[0]))).astype(float)
        sd = 0.5 * (1 + 0.5 * abs(V1[0]) + 0.3 * abs(V1[4]))
        y = 3.0 + X @ (BETA + GAMMA) + SHIFT * branch + rng.normal(0, 1, n) * sd
        truth = GroundTruth()
        p = truth.mix_p(V1)[0]
        m0 = truth.branch_mean(V1)[0]
        mean_expect = m0 + SHIFT * p
        var_expect = truth.noise_var(V1)[0] + SHIFT ** 2 * p * (1 - p)
        assert abs(y.mean() - mean_expect) < 0.05
        assert abs(y.var() - var_expect) < 1.0

    @pytest.mark.parametrize("T, G", [
        (1, 300), (TRUTH_ROWS, 300), (TRUTH_ROWS + 1, 300),
        (3 * TRUTH_ROWS + 5, 300), (3 * TRUTH_ROWS + 5, 1), (1, 1),
        (64, 300), (65, 300), (197, 300), (197, 1)])
    def test_row_blocks_keep_the_whole_matrix_bits(self, T, G):
        """Written a block of query rows at a time, the densities are the
        whole-matrix expression's bit for bit: one row, one block, one block
        plus a row, several blocks plus a remainder, and a one-point grid.
        T = 64, 65 and 197 were those cases for 64-row blocks; at 16 rows
        they are four blocks, four plus a row, and twelve plus five."""
        truth = GroundTruth()
        v, y = eval_points(T, 3), np.linspace(-5.0, 40.0, G)
        got = truth.density_matrix(v, y)
        want = whole_truth_density(truth, v, y)
        assert got.shape == want.shape == (T, G)
        assert got.tobytes() == want.tobytes()


class TestMse:
    """mse scores one (T, G) density matrix against another."""

    def test_truth_scores_zero(self):
        truth = GroundTruth().density_matrix(eval_points(20),
                                             np.linspace(-5.0, 40.0, 200))
        assert mse(truth.copy(), truth) == 0.0

    def test_constant_offset_squares(self):
        truth = GroundTruth().density_matrix(eval_points(10),
                                             np.linspace(-5.0, 40.0, 150))
        assert mse(truth + 0.25, truth) == pytest.approx(0.0625, abs=1e-15)

    def test_zero_predictor_by_explicit_loop(self):
        dens = GroundTruth().density_matrix(eval_points(5),
                                            np.linspace(-2.0, 35.0, 60))
        # -1 offset: squared error is 1 everywhere
        assert mse(dens - 1.0, dens) == pytest.approx(1.0, abs=1e-12)
        got = mse(np.zeros_like(dens), dens)
        total = 0.0
        for t in range(dens.shape[0]):
            for g in range(dens.shape[1]):
                total += dens[t, g] ** 2
        assert got == pytest.approx(total / dens.size, rel=1e-12)

    def test_mean_consistent_with_quadrature(self):
        # on a uniform grid the plain mean and the trapezoid integral are
        # related by mean = (trapz/h + (f_0 + f_last)/2) / G
        y = np.linspace(-5.0, 40.0, 400)
        h = y[1] - y[0]
        truth = GroundTruth().density_matrix(eval_points(3), y)
        got = mse(np.zeros_like(truth), truth)
        per_row = [(np.trapezoid(r, y) / h + (r[0] + r[-1]) / 2) / y.size
                   for r in truth ** 2]
        assert got == pytest.approx(float(np.mean(per_row)), rel=1e-12)

    def test_scores_in_the_estimates_buffer(self):
        """``est`` is consumed: it holds the squared errors afterwards."""
        truth = GroundTruth().density_matrix(eval_points(4), np.linspace(0.0, 30.0, 50))
        est = truth + 0.5
        assert mse(est, truth) == pytest.approx(0.25, abs=1e-15)
        assert np.allclose(est, 0.25, atol=1e-15)

    @pytest.mark.parametrize("wide", [False, True])
    def test_rejects_matrices_of_different_shapes(self, wide):
        """A (1, G) matrix against a (T, G) one would broadcast; either way
        round it is refused."""
        full = np.zeros((5, 40))
        row = np.zeros((1, 40))
        est, truth = (full, row) if wide else (row, full)
        with pytest.raises(InvalidArgumentError, match="shape"):
            mse(est, truth)

    @pytest.mark.parametrize("T, G", [(500, 1000), (3 * TRUTH_ROWS + 5, 300),
                                      (TRUTH_ROWS - 1, 7), (1, 1)])
    def test_rows_of_the_truth_score_the_bits_of_the_matrix(self, T, G):
        """The true densities made ``TRUTH_ROWS`` rows at a time by
        ``TruthRows`` score the bits that the whole (T, G) array scores, and
        the bits of the difference squared and averaged in one expression."""
        v, y = eval_points(T, 5), np.linspace(-5.0, 40.0, G)
        whole = whole_truth_density(GroundTruth(), v, y)
        est = whole + np.random.default_rng(T).normal(0.0, 1e-3, (T, G))
        want = float(np.mean(np.square(est - whole))).hex()
        assert TruthRows(v, y).shape == (T, G)
        assert mse(est.copy(), TruthRows(v, y)).hex() == want
        assert mse(est.copy(), GroundTruth().density_matrix(v, y)).hex() == want

    def test_rejects_truth_rows_of_another_shape(self):
        truth = TruthRows(eval_points(4), np.linspace(0.0, 1.0, 9))
        with pytest.raises(InvalidArgumentError, match="shape"):
            mse(np.zeros((4, 8)), truth)


class TestScoringMemory:
    """Python-level memory of scoring one sweep cell at the sweep's default
    (T, G) = (500, 1000); 1.0 is one (T, G) float64 array."""

    T, G = 500, 1000

    UNIT = T * G * 8

    def inputs(self):
        return eval_points(self.T), np.linspace(-5.0, 40.0, self.G)

    def test_truth_is_one_array_plus_its_block_temporaries(self):
        """1.149 measured (2-core x86-64, numpy 2.4.6), about 4.6 blocks of
        TRUTH_ROWS = 16 rows beside the result (1.53, about 4.1 blocks, with
        64-row blocks); built as one expression it was 4.02.  The bound
        allows five blocks."""
        v, y = self.inputs()
        truth = GroundTruth()
        truth.density_matrix(v[:1], y)
        _, peak, held = traced_memory(lambda: truth.density_matrix(v, y))
        assert peak / self.UNIT <= 1.0 + 5 * TRUTH_ROWS / self.T
        assert held / self.UNIT <= 1.001

    def test_mse_makes_no_new_array(self):
        """The difference is squared in ``est``'s buffer: the peak, which
        was one (T, G) array with a separate difference, is under a page."""
        v, y = self.inputs()
        truth = GroundTruth().density_matrix(v, y)
        est = np.full_like(truth, 0.01)
        _, peak, _ = traced_memory(lambda: mse(est, truth))
        assert peak <= 4096

    def test_a_scored_cell_holds_one_matrix_and_blocks_of_the_truth(self):
        """A cell scored as a sweep scores it: its estimate, and the true
        densities ``TRUTH_ROWS`` rows at a time.  1.19 measured (2-core
        x86-64, numpy 2.4.6) on an rr n = 30 fit, where blocks of the truth
        and the basis coordinates on the grid make the 0.19; 2.19 with the
        truth made whole beside the estimate.  The bound allows eight blocks
        of ``TRUTH_ROWS`` rows."""
        v, _ = self.inputs()
        cell = SweepCell("rr", "pi", "a", 30, 1)
        run_cell(cell, Hyper(), v[:20], 50)         # lazy set-up, not counted
        rec, peak, _ = traced_memory(lambda: run_cell(cell, Hyper(), v, self.G))
        assert rec.error == ""
        assert peak / self.UNIT <= 1.0 + 8 * TRUTH_ROWS / self.T


class TestEvalPoints:
    def test_shape_and_determinism(self):
        a = eval_points(40)
        b = eval_points(40)
        assert a.shape == (40, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, eval_points(40, eval_seed=1))


class TestSweep:
    def test_plan_cells_cardinality(self):
        cells = plan_cells(["rr"], ["dr", "pi"], ["a", "c"],
                           [100, 200], [0, 1, 2])
        assert len(cells) == 1 * 2 * 2 * 2 * 3
        assert {c.scenario for c in cells} == {"a", "c"}
        # only the documented names: no alias, case or padding is read as one
        for name in ("MuMisspecified", "C", " c"):
            with pytest.raises(ConfigError, match="unknown scenario"):
                plan_cells(["rr"], ["dr"], [name], [100], [0])

    def test_a_record_is_its_cell_and_the_score(self):
        names = [f.name for f in fields(SweepRecord)]
        assert names == [f.name for f in fields(SweepCell)] + ["mse", "seconds",
                                                                "error"]

    def test_scenario_wiring(self, monkeypatch):
        """A cell fits the propensity model its scenario names under auto,
        and its first stage on the scenario's covariates; under oracle it
        weights by the true propensity."""
        assert SCENARIOS == {"a": ("forest", None), "b": ("logistic", None),
                             "c": ("forest", [0, 1, 2, 3, 4, 6, 7, 8, 9])}
        models, x_cols = [], []
        real_omega, real_first = estimators.compute_omega, estimators.fit_first_stage

        def omega_spy(d1, pi_hat, clip):
            models.append(pi_hat)
            return real_omega(d1, pi_hat, clip)

        def first_spy(split, method, hyper):
            x_cols.append(split.x_cols)
            return real_first(split, method, hyper)

        monkeypatch.setattr(estimators, "compute_omega", omega_spy)
        monkeypatch.setattr(estimators, "fit_first_stage", first_spy)
        for scenario, propensity in (("a", "auto"), ("b", "auto"), ("c", "auto"),
                                     ("b", "oracle")):
            rec = run_cell(SweepCell("rr", "dr", scenario, 30, 0),
                           Hyper(propensity=propensity), eval_points(5), 20)
            assert rec.error == ""
        assert [type(m) for m in models[:3]] == [Forest, Logistic, Forest]
        assert models[3] is true_propensity
        assert x_cols == [None, None, SCENARIOS["c"][1], None]

    def test_cells_clip_the_propensity(self, monkeypatch):
        clips = []
        real = estimators.compute_omega

        def spy(d1, pi_hat, clip):
            clips.append(clip)
            return real(d1, pi_hat, clip)

        monkeypatch.setattr(estimators, "compute_omega", spy)
        hyper = Hyper(clip_lo=0.2, clip_hi=0.7)
        for scenario in ("a", "b"):
            rec = run_cell(SweepCell("rr", "ipw", scenario, 30, 0), hyper,
                           eval_points(5), grid_points=20)
            assert rec.error == ""
        assert clips == [(0.2, 0.7), (0.2, 0.7)]

    def test_run_cell_deterministic(self):
        cell = SweepCell("rr", "dr", "a", 30, 2)
        v = eval_points(10)
        r1 = run_cell(cell, Hyper(), v, grid_points=50)
        r2 = run_cell(cell, Hyper(), v, grid_points=50)
        assert r1.error == "" and r2.error == ""
        assert r1.mse == r2.mse
        assert np.isfinite(r1.mse) and r1.mse > 0

    @pytest.mark.parametrize("variant", ["dr", "onestep"])
    def test_a_cell_scores_on_its_outcomes_padded_by_two(self, monkeypatch,
                                                         variant):
        """The scoring grid spans every outcome of the cell's split, D0's and
        D1's, padded by 2, whatever rows the variant regresses on."""
        splits, grids = [], []
        real_split, real_truth = synthbench.split_data, GroundTruth.density_matrix

        def split_spy(*args, **kwargs):
            splits.append(real_split(*args, **kwargs))
            return splits[-1]

        def truth_spy(self, v, y):
            grids.append(y)
            return real_truth(self, v, y)

        monkeypatch.setattr(synthbench, "split_data", split_spy)
        monkeypatch.setattr(GroundTruth, "density_matrix", truth_spy)
        rec = run_cell(SweepCell("rr", variant, "a", 30, 4), Hyper(),
                       eval_points(5), grid_points=37)
        assert rec.error == ""
        (split,), (grid,) = splits, grids
        outcomes = np.concatenate([split.d0.Y, split.d1.Y])
        want = estimators.make_grid(outcomes, 37, 2.0).ravel()
        assert grid.dtype == want.dtype and grid.shape == want.shape
        assert grid.tobytes() == want.tobytes()

    def test_onestep_cell_needs_no_propensity(self):
        rec = run_cell(SweepCell("rr", "onestep", "a", 30, 2),
                       Hyper(), eval_points(5), grid_points=30)
        assert rec.error == "" and np.isfinite(rec.mse)

    def test_failed_cell_becomes_row(self):
        # two d0 rows cannot support a forest fit, so the cell must fail
        rec = run_cell(SweepCell("rr", "dr", "a", 2, 0),
                       Hyper(), eval_points(5), grid_points=20)
        assert np.isnan(rec.mse)
        assert "Error" in rec.error and rec.error != ""

    def test_sweep_validates_up_front(self):
        with pytest.raises(ConfigError, match="20000 cap"):
            run_sweep([SweepCell("rr", "dr", "a", 20001, 0)])
        with pytest.raises(ConfigError, match="unknown method"):
            run_sweep([SweepCell("xx", "dr", "a", 10, 0)])
        with pytest.raises(ConfigError, match="unknown variant"):
            run_sweep([SweepCell("rr", "xx", "a", 10, 0)])
        with pytest.raises(ConfigError, match="unknown scenario 'z'"):
            run_sweep([SweepCell("rr", "dr", "z", 30, 0)])
        # each group derives its seeds from its (n, seed), each cell names its
        # method, variant and scenario, and the true densities condition on
        # the first five covariates: what no sweep reads keeps its default
        unread = {"seed": 1, "net_seed": 1, "v_cols": [0, 1], "method": "df",
                  "variant": "pi", "scenario": "b", "n": 10}
        assert set(unread) == {f.name for f in fields(Hyper)} - Hyper(
            methods=list(METHODS), variants=list(VARIANTS)).reads("sweep")
        for name, value in {**unread, "v_cols": [0, 1, 2, 3, 4]}.items():
            with pytest.raises(ConfigError, match=re.escape(
                    f"does not read {name}, which must keep its default; got {name} {value!r}")):
                run_sweep([SweepCell("rr", "dr", "a", 10, 0)], Hyper(**{name: value}))

    def test_sweep_sorts_and_reports_progress(self):
        cells = [SweepCell("rr", "dr", "a", 2, s) for s in (3, 1, 2)]
        seen = []
        records = run_sweep(cells, test_points=5, grid_points=20,
                            progress=seen.append)
        assert [r.seed for r in records] == [1, 2, 3]
        assert len(seen) == 3
        assert all(np.isnan(r.mse) for r in records)

    def test_sweep_takes_what_it_is_not_given_from_its_hyper(self, monkeypatch):
        """``test_points``, ``grid_points``, ``eval_seed`` and ``threads`` set
        on the Hyper give the records they give as arguments."""
        cells = [SweepCell("rr", "dr", "a", 30, s) for s in (1, 2)]
        given = dict(test_points=5, grid_points=20, eval_seed=3, threads=2)
        by_hyper, by_argument = run_sweep(cells, Hyper(**given)), run_sweep(cells, **given)
        assert [(r.method, r.variant, r.scenario, r.n, r.seed, r.mse.hex(), r.error)
                for r in by_hyper] == [
            (r.method, r.variant, r.scenario, r.n, r.seed, r.mse.hex(), r.error)
            for r in by_argument]
        assert all(r.error == "" for r in by_hyper)
        assert by_hyper[0].mse != run_sweep(cells[:1], Hyper(**{**given, "eval_seed": 4}),
                                            threads=1)[0].mse
        monkeypatch.setattr(synthbench, "run_cell", record_pid)
        pids = {r.error for r in run_sweep(cells, Hyper(threads=2))}
        assert pids and str(os.getpid()) not in pids      # run in workers

    def test_parallel_sweep_streams_progress(self):
        cells = [SweepCell("rr", "onestep", "a", 40, s) for s in (2, 1)]
        seen = []
        parallel = run_sweep(cells, test_points=5, grid_points=20, threads=2,
                             progress=seen.append)
        serial = run_sweep(cells, test_points=5, grid_points=20)
        assert len(seen) == 2
        assert [(r.seed, r.error) for r in parallel] == [(1, ""), (2, "")]
        assert [r.seed for r in serial] == [1, 2]
        for p, s in zip(parallel, serial):
            assert p.mse == pytest.approx(s.mse, rel=1e-12)

    def test_parallel_workers_split_the_cores(self, monkeypatch):
        """Workers inherit the parent's count on fork, so the parent runs one
        thread more than the share: only the initializer gives the share."""
        monkeypatch.setattr(synthbench, "run_cell", record_blas_threads)
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        share = max(1, usable // 2)
        with openblas_threads(share + 1):
            records = run_sweep([SweepCell("rr", "dr", "a", 2, s) for s in (1, 2)],
                                threads=2)
        assert [r.error for r in records] == [str([share] * len(openblas_counts()))] * 2

    @pytest.mark.usefixtures("without_posix_calls")
    def test_parallel_sweep_without_posix_calls(self, tiny_hyper):
        """No os.sched_getaffinity and no os.RTLD_NOLOAD, as on Windows: the
        workers find no OpenBLAS copy to share the cores among, and still fit
        nets."""
        cells = [SweepCell("df", "ipw", "a", 30, s) for s in (1, 2)]
        records = run_sweep(cells, tiny_hyper, test_points=5, grid_points=20,
                            threads=2)
        assert [(r.seed, r.error) for r in records] == [(1, ""), (2, "")]
        assert all(np.isfinite(r.mse) for r in records)


def record_pid(cell, hyper, test_v, grid_points, *, shared=None):
    """Stands in for run_cell: reports the process it ran in in the
    record's error field."""
    return SweepRecord(cell.method, cell.variant, cell.scenario, cell.n,
                       cell.seed, float("nan"), 0.0, str(os.getpid()))


def record_blas_threads(cell, hyper, test_v, grid_points, *, shared=None):
    """Stands in for run_cell in a sweep worker: reports the worker's
    OpenBLAS thread counts in the record's error field."""
    return SweepRecord(cell.method, cell.variant, cell.scenario, cell.n,
                       cell.seed, 0.0, 0.0, str(openblas_counts()))


class TestSweepGroups:
    """run_sweep builds the parts that the cells of one (n, seed) group share
    once per group; run_cell on a cell alone builds every part itself."""

    # the n = 2 df onestep cells train on a single treated row
    @pytest.mark.filterwarnings("ignore::ccme.errors.ConfigWarning")
    def test_groups_give_the_records_of_cells_alone(self, tiny_hyper):
        cells = plan_cells(["rr", "df", "nk"], list(synthbench.VARIANTS),
                           ["a", "b", "c"], [30], [1, 2])
        failing = plan_cells(["rr", "df", "nk"], list(synthbench.VARIANTS),
                             ["a", "b", "c"], [2], [1])   # no treated D0 row
        test_v = eval_points(5)
        alone = sorted((run_cell(c, tiny_hyper, test_v, 20) for c in cells + failing),
                       key=lambda r: (r.method, r.variant, r.scenario, r.n, r.seed))
        # at n = 2 only onestep, which fits no nuisance on D0, succeeds
        fits = [r.n == 30 or r.variant == "onestep" for r in alone]
        assert all(r.error == "" for r, ok in zip(alone, fits) if ok)
        assert all(r.error.startswith("DegenerateDataError")
                   for r, ok in zip(alone, fits) if not ok)
        for threads in (1, 2):
            grouped = run_sweep(cells + failing, tiny_hyper, test_points=5,
                                grid_points=20, threads=threads)
            assert [(r.method, r.variant, r.scenario, r.n, r.seed, r.error)
                    for r in grouped] == [
                (r.method, r.variant, r.scenario, r.n, r.seed, r.error) for r in alone]
            assert [r.mse.hex() for r in grouped] == [r.mse.hex() for r in alone]

    def test_a_shared_part_is_built_once_per_group(self, monkeypatch, tiny_hyper):
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

        counting(synthbench, "generate")
        for name in ("fit_propensity", "fit_first_stage", "fit_second_stage",
                     "SpdFactor"):
            counting(estimators, name)
        cells = plan_cells(["rr"], list(synthbench.VARIANTS), ["a", "b", "c"],
                           [30], [1, 2])
        records = run_sweep(cells, tiny_hyper, test_points=5, grid_points=20)
        assert all(r.error == "" for r in records)
        # a fit per method, variant and the nuisances that variant reads:
        # dr a, b, c; ipw forest (a, c), logistic (b); pi all x (a, b), no
        # x6 (c); onestep one
        per_group = {"generate": 1, "fit_propensity": 2,        # forest, logistic
                     "fit_first_stage": 2,                      # all x, no x6
                     "fit_second_stage": 3 + 2 + 2 + 1,
                     "SpdFactor": 2 + 1 + 1}       # first stages, stage two, onestep
        assert {name: calls.count(name) for name in per_group} == {
            name: 2 * count for name, count in per_group.items()}
        for variant, scenarios in (("pi", "ab"), ("ipw", "ac"), ("onestep", "abc")):
            for seed in (1, 2):
                assert len({r.mse for r in records if r.variant == variant
                            and r.seed == seed and r.scenario in scenarios}) == 1

    def test_the_grid_is_made_once_per_group_and_the_truth_per_fit(
            self, monkeypatch, tiny_hyper):
        """A group keeps its scoring grid, not the true densities on it: each
        scored fit makes them again, ``TRUTH_ROWS`` query rows at a time."""
        grids, truth_rows, scores = [], [], []
        real_grid, real_truth, real_mse = (synthbench.default_grid,
                                           GroundTruth.density_matrix, synthbench.mse)

        def grid_spy(*args, **kwargs):
            grids.append(real_grid(*args, **kwargs))
            return grids[-1]

        def truth_spy(self, v, y):
            truth_rows.append((len(v), len(y)))
            return real_truth(self, v, y)

        def mse_spy(est, truth):
            scores.append(truth.shape)
            return real_mse(est, truth)

        monkeypatch.setattr(synthbench, "default_grid", grid_spy)
        monkeypatch.setattr(GroundTruth, "density_matrix", truth_spy)
        monkeypatch.setattr(synthbench, "mse", mse_spy)
        T = TRUTH_ROWS + 3
        cells = plan_cells(["rr", "nk"], list(synthbench.VARIANTS), ["a", "c"],
                           [30], [1, 2])
        records = run_sweep(cells, tiny_hyper, test_points=T, grid_points=20)
        assert all(r.error == "" for r in records)
        assert [len(g) for g in grids] == [20, 20]
        # per method and group: dr (forest, all x) and (forest, no x6), ipw
        # (forest), pi (all x) and (no x6), onestep
        assert scores == [(T, 20)] * (2 * 2 * 6)
        assert truth_rows == [(TRUTH_ROWS, 20), (3, 20)] * len(scores)

    @pytest.mark.parametrize("method", ["rr", "df", "nk"])
    def test_a_first_stage_is_read_at_d1_once_per_group(self, monkeypatch,
                                                        tiny_hyper, method):
        firsts, reads = [], []
        fit_first_stage = estimators.fit_first_stage

        def fit_spy(*args, **kwargs):
            firsts.append(fit_first_stage(*args, **kwargs))
            return firsts[-1]

        monkeypatch.setattr(estimators, "fit_first_stage", fit_spy)
        head_cls = {"rr": estimators.KernelHead, "df": estimators.FeatureHead,
                    "nk": estimators.GridHead}[method]
        embedding = head_cls.embedding

        def embedding_spy(head, x):
            reads.append(head)
            return embedding(head, x)

        monkeypatch.setattr(head_cls, "embedding", embedding_spy)
        cells = plan_cells([method], ["dr", "pi"], ["a", "b", "c"], [30], [1, 2])
        records = run_sweep(cells, tiny_hyper, test_points=5, grid_points=20)
        assert all(r.error == "" for r in records)
        assert len(firsts) == 2 * 2                     # (all x, no x6) per group
        assert [sum(r is f.head for r in reads) for f in firsts] == [1] * 4

    def test_a_failed_part_fails_each_cell_that_needs_it(self, monkeypatch):
        built = []

        def failing_forest(*args, **kwargs):
            built.append(1)
            raise DegenerateDataError("one class in D0")

        monkeypatch.setattr(propensity, "fit_forest", failing_forest)
        cells = plan_cells(["rr"], ["dr", "ipw", "onestep"], ["a", "b", "c"],
                           [30], [1])
        records = run_sweep(cells, test_points=5, grid_points=20)
        failed = {(r.variant, r.scenario) for r in records if r.error}
        assert failed == {(v, s) for v in ("dr", "ipw") for s in ("a", "c")}
        assert {r.error for r in records if r.error} == {
            "DegenerateDataError: one class in D0"}
        assert built == [1]

    @pytest.mark.parametrize("threads, seeds, workers",
                             [(4, (1, 2), 2), (2, (1, 2, 3), 2), (3, (1,), 1),
                              (2, (), 0)])
    def test_pool_has_a_worker_per_group_up_to_threads(self, monkeypatch, threads,
                                                       seeds, workers):
        pools = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append((max_workers, kwargs["initargs"]))
                super().__init__(max_workers, **kwargs)

        # run_sweep imports the pool where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        cells = [SweepCell("rr", v, "a", 2, s) for v in ("dr", "pi") for s in seeds]
        records = run_sweep(cells, test_points=5, grid_points=20, threads=threads)
        assert len(records) == len(cells)
        assert pools == ([(workers, (max(1, usable // workers),))] if workers else [])


class TestSweepMemory:
    """Python-level memory of one rr sweep group: all four variants over
    scenarios b and c at n = 1000 rows per half, whose cells share one
    stage-two factor of K(V1) + ridge I.  The queries and grid are small
    (50 x 100), so the densities do not hide the Grams."""

    N = 1000

    def test_a_group_makes_no_n_by_n_array(self):
        """tracemalloc's peak, in n x n float64 arrays: 0.92 measured, of
        which the packed factor is 0.5 and arrays of n rows by the basis's
        62 weights most of the rest (2-core x86-64, numpy 2.4.6).  With
        whole Grams factored it was 1.48, with each Gram built whole and
        then packed 1.69, and with the first stage's cross Gram at D1 made
        in one piece 1.05; the bound leaves 0.08 (640 kB) of margin."""
        def group(n):
            return run_sweep(plan_cells(["rr"], list(synthbench.VARIANTS), ["b", "c"],
                                        [n], [1]), test_points=50, grid_points=100)

        group(50)           # what the first group allocates once is not counted
        records, peak, _ = traced_memory(lambda: group(self.N))
        assert all(r.error == "" for r in records)
        assert peak / (self.N * self.N * 8) <= 1.0


class TestLoglogSlope:
    def test_exact_power_laws(self):
        ns = np.array([100.0, 200.0, 400.0, 800.0])
        assert loglog_slope(ns, 5.0 / ns) == pytest.approx(-1.0, abs=1e-9)
        assert loglog_slope(ns, np.full(4, 0.3)) == pytest.approx(0.0, abs=1e-9)
        assert loglog_slope(ns, 2.0 * ns ** (-2 / 3)) == pytest.approx(
            -2 / 3, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 0.5]))
        with pytest.raises(InvalidArgumentError):
            loglog_slope(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            loglog_slope(np.array([1.0, 2.0, 3.0]), np.array([1.0, np.nan, 1.0]))
        with pytest.raises(InvalidArgumentError):
            loglog_slope(np.array([1.0, 2.0, 3.0]), np.array([[1.0, 2.0, 3.0]]).T)
