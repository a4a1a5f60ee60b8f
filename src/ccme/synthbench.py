"""Synthetic benchmark: data generator, analytic truth, and convergence sweeps.

Covariates are ten independent N(1, 1) draws.  Treatment follows a box rule
on (x1, x6); the treated outcome mixes two linear branches 15 apart through a
logistic gate on x1, with heteroscedastic noise driven by |x1| and |x5|.  The
conditioning variables V are the first five covariates, which makes the true
conditional law of the treated outcome given V an analytic two-component
normal mixture: every moment below is derived from the coefficient vectors at
construction time.

Scenarios are benchmark rules: each misspecifies at most one nuisance, which
is how the sweeps test double robustness.  ``SCENARIOS`` maps each to the
propensity model a cell fits under ``propensity="auto"`` and the covariates
its first stage reads; a scenario never changes how data is drawn:

    a  both nuisances well specified (forest propensity, full covariates)
    b  propensity misspecified (a logistic fit cannot express the box rule)
    c  outcome embedding misspecified (first stage is denied x6)

A cell resolves ``auto`` through this table and ``oracle`` to
``true_propensity``, which it hands ``fit_ccme`` as ``pi_hat``.  The library
itself reads no scenario.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np
from numpy.typing import NDArray

from . import blas
from .data import Dataset, split_data
from .density import default_grid, density_matrix
from .errors import ConfigError, InvalidArgumentError
from .estimators import METHODS, READS, VARIANTS, Hyper, _shared_part, fit_ccme
from .propensity import logistic

__all__ = [
    "BETA", "GAMMA", "BASE_TREATED", "BASE_CONTROL", "SHIFT",
    "SCENARIOS", "generate", "true_propensity", "GroundTruth",
    "mse", "eval_points", "SweepCell", "SweepRecord", "plan_cells",
    "run_cell", "run_sweep", "loglog_slope", "check_scenario",
]

BETA = np.array([1.0, -0.5, 0.8, -0.7, 0.6, 1.0, 0.3, -0.2, 0.1, -0.3])
GAMMA = np.array([0.8, 0.0, 0.0, 0.6, 0.0, 2.0, 0.4, 0.0, 0.0, 0.2])
BASE_TREATED = 3.0
BASE_CONTROL = 1.0
SHIFT = 15.0
N_COV = 10
V_COLS = list(range(5))
TRUTH_ROWS = 64     # query rows of true densities computed at once

# scenario: (the propensity model ``auto`` means, the first stage's x_cols)
SCENARIOS = {"a": ("forest", None), "b": ("logistic", None),
             "c": ("forest", [i for i in range(N_COV) if i != 5])}


def check_scenario(scenario: str) -> str:
    """``scenario`` itself if it names a scenario, else raise ``ConfigError``."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    return scenario


def true_propensity(X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Treatment probability: 0.9 inside the (x1, x6) box, 0.1 outside."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    inside = (X[:, 0] >= 0.0) & (X[:, 0] <= 2.0) & (X[:, 5] >= 1.5)
    return 0.1 + 0.8 * inside


def _noise_sd(X: NDArray[np.float64]) -> NDArray[np.float64]:
    return 0.5 * (1.0 + 0.5 * np.abs(X[:, 0]) + 0.3 * np.abs(X[:, 4]))


def generate(cfg: Hyper) -> tuple[Dataset, dict[str, NDArray[np.float64]]]:
    """Draw ``cfg.n`` rows plus their latent variables (propensities, branch,
    both potential outcomes), fixed by ``cfg.seed``: no other field is read."""
    if cfg.n < 1:
        raise InvalidArgumentError(f"n must be positive, got {cfg.n}")
    rng = np.random.default_rng(cfg.seed)
    X = rng.normal(1.0, 1.0, size=(cfg.n, N_COV))
    pi = true_propensity(X)
    A = (rng.random(cfg.n) < pi).astype(np.float64)
    branch = (rng.random(cfg.n) < logistic(0.5 * X[:, 0])).astype(np.float64)
    sd = _noise_sd(X)
    y_treated = (BASE_TREATED + X @ (BETA + GAMMA) + SHIFT * branch
                 + rng.normal(0.0, 1.0, cfg.n) * sd)
    y_control = BASE_CONTROL + X @ BETA + rng.normal(0.0, 1.0, cfg.n) * sd
    Y = np.where(A > 0, y_treated, y_control)
    latents = {"propensity": pi, "branch": branch, "y_treated": y_treated,
               "y_control": y_control, "noise_sd": sd}
    return Dataset(X, A, Y), latents


class GroundTruth:
    """Closed-form conditional law of the treated outcome given V.

    Conditioning on the first five covariates leaves the tail coordinates
    random; their contribution folds into the branch means and variance.  All
    constants are derived from the coefficient vectors here, at construction.
    """

    def __init__(self) -> None:
        coef = BETA + GAMMA
        self.head = coef[:len(V_COLS)]
        self.tail_mean = float(coef[len(V_COLS):].sum())
        self.tail_var = float((coef[len(V_COLS):] ** 2).sum())

    def mix_p(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        v = np.atleast_2d(v)
        return logistic(0.5 * v[:, 0])

    def branch_mean(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Mean of the lower branch; the upper branch sits SHIFT above it."""
        v = np.atleast_2d(v)
        return BASE_TREATED + v @ self.head + self.tail_mean

    def noise_var(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.tail_var + _noise_sd(np.atleast_2d(v)) ** 2

    def density_matrix(self, v: NDArray[np.float64],
                       y_grid: NDArray[np.float64]) -> NDArray[np.float64]:
        """True conditional densities, one row per query point, shape (T, G),
        written ``TRUTH_ROWS`` query rows at a time into the one (T, G) array:
        every operation is elementwise, so the bits are the whole matrix's."""
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        y = np.asarray(y_grid, dtype=np.float64).ravel()[None, :]
        p = self.mix_p(v)[:, None]
        m0 = self.branch_mean(v)[:, None]
        var = self.noise_var(v)[:, None]
        norm = 1.0 / np.sqrt(2.0 * np.pi * var)
        out = np.empty((len(v), y.size))
        for lo in range(0, len(v), TRUTH_ROWS):
            r = slice(lo, lo + TRUTH_ROWS)
            low = norm[r] * np.exp(-(y - m0[r]) ** 2 / (2.0 * var[r]))
            high = norm[r] * np.exp(-(y - m0[r] - SHIFT) ** 2 / (2.0 * var[r]))
            np.add(np.multiply(p[r], high, out=high),
                   np.multiply(1.0 - p[r], low, out=low), out=out[r])
        return out


def eval_points(n_points: int, eval_seed: int = 0) -> NDArray[np.float64]:
    """Fixed evaluation grid in V-space, shared across sweep cells.

    Drawn from the covariate marginal so MSE integrates over the same design
    the estimators see, but from a stream independent of every cell's data.
    """
    rng = np.random.default_rng(np.random.SeedSequence([2030, eval_seed]))
    X = rng.normal(1.0, 1.0, size=(n_points, N_COV))
    return X[:, V_COLS]


def mse(est: NDArray[np.float64], truth: NDArray[np.float64]) -> float:
    """Mean squared density error of two (T, G) density matrices, over test
    points and grid points.  The squared difference is formed in ``est``'s
    buffer: ``est`` is consumed, so callers pass a float64 array they no
    longer need."""
    if est.shape != truth.shape:
        raise InvalidArgumentError(f"estimate has shape {est.shape}, "
                                   f"truth {truth.shape}")
    diff = np.subtract(est, truth, out=est)
    return float(np.mean(np.square(diff, out=diff)))


# ---------------------------------------------------------------------------
# sweep protocol


@dataclass
class SweepCell:
    method: str
    variant: str
    scenario: str
    n: int          # rows per half after splitting; the dataset has 2n rows
    seed: int


@dataclass
class SweepRecord(SweepCell):
    mse: float
    seconds: float
    error: str = ""


def plan_cells(methods: list[str], variants: list[str], scenarios: list[str],
               n_list: list[int], seeds: list[int]) -> list[SweepCell]:
    return [SweepCell(m, v, check_scenario(s), int(n), int(sd))
            for m, v, s, n, sd in product(methods, variants, scenarios, n_list, seeds)]


def _derived_seed(tag: int, n: int, seed: int) -> int:
    return int(np.random.SeedSequence([tag, n, seed]).generate_state(1)[0])


def run_cell(cell: SweepCell, hyper: Hyper, test_v: NDArray[np.float64],
             grid_points: int | None = None, *,
             shared: dict | None = None) -> SweepRecord:
    """Fit one (method, variant, scenario, n, seed) cell and score it on
    ``grid_points`` outcomes, by default ``hyper.grid_points``.

    The dataset, split, nets and propensity are seeded from (n, seed) only,
    so every method and variant in a sweep sees identical draws.  The cells
    of one (n, seed) group therefore share parts, which ``run_sweep`` keeps
    in one ``shared`` dict per group: the data and its split, the scoring
    grid with the true densities on it, the parts ``fit_ccme`` keeps there,
    and each fit's score.  A score is keyed by the cell's method, its
    variant and the nuisances that variant reads (``READS``): the propensity
    model and the first stage's ``x_cols``, which ``SCENARIOS`` gives each
    scenario.  Cells whose scenarios differ only in what their variant does
    not read are thus one fit, and all but the first report about 0 s.

    Without ``shared`` the cell builds every part itself.  The record's
    ``seconds`` include the parts this cell built first.  A part that
    raised makes every cell needing it a row with that error.
    """
    start = time.perf_counter()
    grid_points = hyper.grid_points if grid_points is None else grid_points
    try:
        kind, x_cols = SCENARIOS[cell.scenario]
        propensity = kind if hyper.propensity == "auto" else hyper.propensity
        nuisances = {"omega": propensity, "first": str(x_cols)}
        key = ("score", cell.method, cell.variant,
               *(nuisances[name] for name in READS.get(cell.variant, ())))
        score = _shared_part(shared, key, lambda: _fit_and_score(
            cell, propensity, x_cols, shared, hyper, test_v, grid_points))
        err = ""
    except Exception as exc:  # noqa: BLE001 - cell failures become rows
        score, err = float("nan"), f"{type(exc).__name__}: {exc}"
    return SweepRecord(cell.method, cell.variant, cell.scenario, cell.n,
                       cell.seed, score, time.perf_counter() - start, err)


def _fit_and_score(cell: SweepCell, propensity: str, x_cols: list[int] | None,
                   shared: dict | None, hyper: Hyper, test_v: NDArray[np.float64],
                   grid_points: int) -> float:
    n, seed = cell.n, cell.seed
    split = _shared_part(shared, ("split",), lambda: split_data(
        generate(replace(hyper, n=2 * n, seed=_derived_seed(2026, n, seed)))[0],
        _derived_seed(2027, n, seed), V_COLS))
    model = fit_ccme(
        replace(split, x_cols=x_cols),
        replace(hyper, method=cell.method, variant=cell.variant,
                propensity=propensity, seed=_derived_seed(2029, n, seed),
                net_seed=_derived_seed(2028, n, seed)),
        shared=shared, pi_hat=true_propensity if propensity == "oracle" else None)

    def truth_on_grid() -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        # the split's outcome range, which every fit records, padded by 2
        grid = default_grid(model, grid_points, 2.0)
        return grid, GroundTruth().density_matrix(test_v, grid)

    grid, truth = _shared_part(shared, ("truth",), truth_on_grid)
    return mse(density_matrix(model, test_v, grid), truth)


def _run_group(cells: list[SweepCell], hyper: Hyper, test_v: NDArray[np.float64],
               grid_points: int, progress=None) -> list[SweepRecord]:
    """Run the cells of one (n, seed) group in order over one ``shared``
    dict, which is dropped when they are done."""
    shared: dict = {}
    records = []
    for cell in cells:
        records.append(run_cell(cell, hyper, test_v, grid_points, shared=shared))
        if progress is not None:
            progress(records[-1])
    return records


def _usable_cores() -> int:
    """Cores this process may run on; all cores where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_sweep(cells: list[SweepCell], hyper: Hyper) -> None:
    """Raise ``ConfigError`` for what ``run_sweep`` rejects up front: an unknown
    method, variant or scenario, an rr cell above n = 20000, or a setting that no
    sweep reads (``Hyper.reads``) off its default, such as ``seed`` or ``v_cols``."""
    for cell in cells:
        if cell.method == "rr" and cell.n > 20000:
            raise ConfigError(f"rr cell n={cell.n} exceeds the 20000 cap")
        if cell.method not in METHODS:
            raise ConfigError(f"unknown method {cell.method!r}")
        if cell.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {cell.variant!r}")
        check_scenario(cell.scenario)
    read = Hyper(methods=list(METHODS), variants=list(VARIANTS)).reads("sweep")
    if unread := [f.name for f in fields(Hyper) if f.name not in read
                  and getattr(hyper, f.name) != getattr(Hyper(), f.name)]:
        raise ConfigError(f"a sweep does not read {unread[0]}, which must keep its "
                          f"default; got {unread[0]} {getattr(hyper, unread[0])!r}")


def run_sweep(cells: list[SweepCell], hyper: Hyper | None = None,
              test_points: int | None = None, grid_points: int | None = None,
              eval_seed: int | None = None, threads: int | None = None,
              progress=None) -> list[SweepRecord]:
    """Run all cells against one fixed evaluation set and return sorted records.
    ``test_points``, ``grid_points``, ``eval_seed`` and ``threads`` left at
    None take ``hyper``'s values.

    Cells run in groups of one (n, seed), which share their data, nuisances,
    scores and true densities (see ``run_cell``); a group's shared parts are
    dropped when it ends.  A cell that fails is a row with its error, not
    raised.  Kernel-ridge cells above n = 20000 are rejected up front: the
    stage-two factor, n(n+1)/2 doubles, is 1.6 GB at n = 20000 and grows
    with n^2.
    ``progress`` is called with each record as its cell finishes, or with
    threads > 1, as its group finishes.  With ``threads > 1`` each group is
    one task for a pool of min(threads, groups) worker processes, which split
    the usable cores among their BLAS threads, one thread each at least;
    more workers than cores still oversubscribe them.
    """
    hyper = hyper or Hyper()
    test_points = hyper.test_points if test_points is None else test_points
    grid_points = hyper.grid_points if grid_points is None else grid_points
    eval_seed = hyper.eval_seed if eval_seed is None else eval_seed
    threads = hyper.threads if threads is None else threads
    _check_sweep(cells, hyper)
    test_v = eval_points(test_points, eval_seed)
    groups: dict[tuple[int, int], list[SweepCell]] = {}
    for cell in cells:
        groups.setdefault((cell.n, cell.seed), []).append(cell)
    records = []

    def done(rec: SweepRecord) -> None:
        records.append(rec)
        if progress is not None:
            progress(rec)

    if threads > 1 and groups:
        # Imported here: multiprocessing takes about 20 ms to load, and
        # single-process runs and the CLI's other commands never use it.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        workers = min(threads, len(groups))
        with ProcessPoolExecutor(max_workers=workers, initializer=blas.set_threads,
                                 initargs=(max(1, _usable_cores() // workers),)) as pool:
            futures = [pool.submit(_run_group, group, hyper, test_v, grid_points)
                       for group in groups.values()]
            for future in as_completed(futures):
                for rec in future.result():
                    done(rec)
    else:
        for group in groups.values():
            _run_group(group, hyper, test_v, grid_points, done)
    records.sort(key=lambda r: (r.method, r.variant, r.scenario, r.n, r.seed))
    return records


def loglog_slope(ns: NDArray[np.float64], values: NDArray[np.float64]) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ns.shape != values.shape or ns.ndim != 1 or ns.size < 3:
        raise InvalidArgumentError("need matching 1-d arrays of length >= 3")
    if (ns <= 0).any() or (values <= 0).any() or not np.isfinite(values).all():
        raise InvalidArgumentError("log-log slope needs positive finite inputs")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])
