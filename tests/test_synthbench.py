"""Synthetic generator, analytic ground truth, MSE scoring, and sweeps."""

import os

import numpy as np
import pytest
from scipy import stats

from ccme import estimators, synthbench
from ccme.data import Dataset
from ccme.errors import ConfigError, DegenerateDataError, InvalidArgumentError
from ccme.estimators import Hyper
from ccme.synthbench import (BETA, GAMMA, SHIFT, GroundTruth,
                             SweepCell, SweepRecord, eval_points, generate,
                             loglog_slope, mse, plan_cells, run_cell,
                             run_sweep, fit_propensity, scenario_x_cols,
                             true_propensity)

from conftest import openblas_counts, openblas_threads

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
        assert np.array_equal(lat["pi"], true_propensity(data.X))
        assert set(np.unique(lat["pi"])) <= {0.1, 0.9}

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


class _Offset:
    """Wraps the truth and adds a constant to every density value."""

    def __init__(self, truth, delta):
        self.truth = truth
        self.delta = delta

    def density_matrix(self, v, y):
        return self.truth.density_matrix(v, y) + self.delta


class TestMse:
    def test_truth_scores_zero(self):
        truth = GroundTruth()
        v = eval_points(20)
        y = np.linspace(-5.0, 40.0, 200)
        assert mse(truth, truth, v, y) == 0.0

    def test_constant_offset_squares(self):
        truth = GroundTruth()
        v = eval_points(10)
        y = np.linspace(-5.0, 40.0, 150)
        assert mse(_Offset(truth, 0.25), truth, v, y) == pytest.approx(
            0.0625, abs=1e-15)

    def test_zero_predictor_by_explicit_loop(self):
        truth = GroundTruth()
        v = eval_points(5)
        y = np.linspace(-2.0, 35.0, 60)
        got = mse(_Offset(truth, -1.0), truth, v, y)
        # -1 offset: squared error is 1 everywhere
        assert got == pytest.approx(1.0, abs=1e-12)
        got = mse(_ZeroModel(), truth, v, y)
        dens = truth.density_matrix(v, y)
        total = 0.0
        for t in range(dens.shape[0]):
            for g in range(dens.shape[1]):
                total += dens[t, g] ** 2
        assert got == pytest.approx(total / dens.size, rel=1e-12)

    def test_evaluated_truth_scores_alike(self):
        truth = GroundTruth()
        v = eval_points(4)
        y = np.linspace(-5.0, 40.0, 80)
        assert (mse(_Offset(truth, 0.1), truth.density_matrix(v, y), v, y)
                == mse(_Offset(truth, 0.1), truth, v, y))

    def test_mean_consistent_with_quadrature(self):
        # on a uniform grid the plain mean and the trapezoid integral are
        # related by mean = (trapz/h + (f_0 + f_last)/2) / G
        truth = GroundTruth()
        v = eval_points(3)
        y = np.linspace(-5.0, 40.0, 400)
        h = y[1] - y[0]
        diff_sq = truth.density_matrix(v, y) ** 2
        got = mse(_ZeroModel(), truth, v, y)
        per_row = [(np.trapezoid(r, y) / h + (r[0] + r[-1]) / 2) / y.size
                   for r in diff_sq]
        assert got == pytest.approx(float(np.mean(per_row)), rel=1e-12)


class _ZeroModel:
    def density_matrix(self, v, y):
        return np.zeros((np.atleast_2d(v).shape[0], np.ravel(y).size))


class TestEvalPoints:
    def test_shape_and_determinism(self):
        a = eval_points(40)
        b = eval_points(40)
        assert a.shape == (40, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, eval_points(40, eval_seed=1))


class TestSweep:
    def test_plan_cells_cardinality(self):
        cells = plan_cells(["rr"], ["dr", "pi"], ["a", "MuMisspecified"],
                           [100, 200], [0, 1, 2])
        assert len(cells) == 1 * 2 * 2 * 2 * 3
        assert {c.scenario for c in cells} == {"a", "c"}

    def test_scenario_wiring(self):
        assert scenario_x_cols("a") is None and scenario_x_cols("b") is None
        assert scenario_x_cols("c") == [0, 1, 2, 3, 4, 6, 7, 8, 9]
        rng = np.random.default_rng(0)
        X = rng.normal(1.0, 1.0, size=(60, 10))
        A = (rng.random(60) < 0.5).astype(float)
        d0 = Dataset(X, A, np.zeros(60))
        assert fit_propensity(Hyper(scenario="b"), d0).kind == "logistic"
        assert fit_propensity(Hyper(scenario="a"), d0).kind == "forest"

    def test_cells_clip_the_propensity(self, monkeypatch):
        clips = []
        real = synthbench.fit_propensity

        def spy(*args, **kwargs):
            model = real(*args, **kwargs)
            clips.append(model.clip)
            return model

        monkeypatch.setattr(synthbench, "fit_propensity", spy)
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

    def test_sweep_sorts_and_reports_progress(self):
        cells = [SweepCell("rr", "dr", "a", 2, s) for s in (3, 1, 2)]
        seen = []
        records = run_sweep(cells, test_points=5, grid_points=20,
                            progress=seen.append)
        assert [r.seed for r in records] == [1, 2, 3]
        assert len(seen) == 3
        assert all(np.isnan(r.mse) for r in records)

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


def record_blas_threads(cell, hyper, test_v, grid_points, *, shared=None):
    """Stands in for run_cell in a sweep worker: reports the worker's
    OpenBLAS thread counts in the record's error field."""
    return SweepRecord(cell.method, cell.variant, cell.scenario, cell.n,
                       cell.seed, 0.0, 0.0, str(openblas_counts()))


class TestSweepGroups:
    """run_sweep builds the parts that the cells of one (n, seed) group share
    once per group; run_cell on a cell alone builds every part itself."""

    def test_groups_give_the_records_of_cells_alone(self, tiny_hyper):
        cells = plan_cells(["rr", "df", "nk"], list(synthbench.VARIANTS),
                           ["a", "b", "c"], [30], [1, 2])
        failing = plan_cells(["rr", "df", "nk"], list(synthbench.VARIANTS),
                             ["a", "b", "c"], [2], [1])   # no treated D0 row
        test_v = eval_points(5)
        alone = sorted((run_cell(c, tiny_hyper, test_v, 20) for c in cells + failing),
                       key=lambda r: (r.method, r.variant, r.scenario, r.n, r.seed))
        assert all(r.error == "" for r in alone if r.n == 30)
        assert all(r.error.startswith("DegenerateDataError") for r in alone if r.n == 2)
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

        for name in ("generate", "fit_propensity"):
            counting(synthbench, name)
        for name in ("fit_first_stage", "fit_second_stage", "SpdFactor"):
            counting(estimators, name)
        cells = plan_cells(["rr"], list(synthbench.VARIANTS), ["a", "b", "c"],
                           [30], [1, 2])
        records = run_sweep(cells, tiny_hyper, test_points=5, grid_points=20)
        assert all(r.error == "" for r in records)
        per_group = {"generate": 1, "fit_propensity": 2,        # forest, logistic
                     "fit_first_stage": 2,                      # all x, no x6
                     "fit_second_stage": 3 * 3 + 1,
                     "SpdFactor": 2 + 1 + 1}       # first stages, stage two, onestep
        assert {name: calls.count(name) for name in per_group} == {
            name: 2 * count for name, count in per_group.items()}
        onestep = [r.mse for r in records if r.variant == "onestep"]
        assert len(onestep) == 6 and len(set(onestep)) == 2

    def test_the_truth_is_evaluated_once_per_group(self, monkeypatch, tiny_hyper):
        calls = []
        real = GroundTruth.density_matrix

        def spy(self, v, y):
            calls.append(len(y))
            return real(self, v, y)

        monkeypatch.setattr(GroundTruth, "density_matrix", spy)
        cells = plan_cells(["rr", "nk"], list(synthbench.VARIANTS), ["a", "c"],
                           [30], [1, 2])
        records = run_sweep(cells, tiny_hyper, test_points=5, grid_points=20)
        assert all(r.error == "" for r in records)
        assert calls == [20, 20]

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

        monkeypatch.setattr(synthbench, "fit_forest", failing_forest)
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

        class Pool(synthbench.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append((max_workers, kwargs["initargs"]))
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(synthbench, "ProcessPoolExecutor", Pool)
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        cells = [SweepCell("rr", v, "a", 2, s) for v in ("dr", "pi") for s in seeds]
        records = run_sweep(cells, test_points=5, grid_points=20, threads=threads)
        assert len(records) == len(cells)
        assert pools == ([(workers, (max(1, usable // workers),))] if workers else [])


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
