"""Synthetic benchmark: data generator, analytic truth, and convergence sweeps.

Covariates are ten independent N(1, 1) draws.  Treatment follows a box rule
on (x1, x6); the treated outcome mixes two linear branches 15 apart through a
logistic gate on x1, with heteroscedastic noise driven by |x1| and |x5|.  The
conditioning variables V are the first five covariates, which makes the true
conditional law of the treated outcome given V an analytic two-component
normal mixture: every moment below is derived from the coefficient vectors at
construction time.

Scenarios select how the nuisances are fitted, never how data is drawn
(the propensity model as ``propensity="auto"`` picks it):

    a  both nuisances well specified (forest propensity, full covariates)
    b  propensity misspecified (a logistic fit cannot express the box rule)
    c  outcome embedding misspecified (first stage is denied x6)
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from numpy.typing import NDArray

from . import blas
from .data import Dataset, split_data
from .density import density_matrix
from .errors import ConfigError, InvalidArgumentError
from .estimators import (METHODS, VARIANTS, Hyper, _all_outcomes, _shared_part,
                         fit_ccme, make_grid)
from .propensity import PropensityModel, fit_forest, fit_logistic, make_oracle

__all__ = [
    "BETA", "GAMMA", "BASE_TREATED", "BASE_CONTROL", "SHIFT",
    "SCENARIOS", "generate", "true_propensity", "GroundTruth",
    "mse", "eval_points", "SweepCell", "SweepRecord", "plan_cells",
    "run_cell", "run_sweep", "loglog_slope", "fit_propensity", "propensity_kind",
]

BETA = np.array([1.0, -0.5, 0.8, -0.7, 0.6, 1.0, 0.3, -0.2, 0.1, -0.3])
GAMMA = np.array([0.8, 0.0, 0.0, 0.6, 0.0, 2.0, 0.4, 0.0, 0.0, 0.2])
BASE_TREATED = 3.0
BASE_CONTROL = 1.0
SHIFT = 15.0
N_COV = 10
V_COLS = list(range(5))

SCENARIOS = ("a", "b", "c")
_SCENARIO_NAMES = {"a": "BothCorrect", "b": "PiMisspecified", "c": "MuMisspecified"}
_SCENARIO_ALIASES = {name.lower(): key for key, name in _SCENARIO_NAMES.items()}


def normalize_scenario(scenario: str) -> str:
    s = str(scenario).strip().lower()
    if s in SCENARIOS:
        return s
    if s in _SCENARIO_ALIASES:
        return _SCENARIO_ALIASES[s]
    raise InvalidArgumentError(f"unknown scenario {scenario!r}")


def _logistic(z: NDArray[np.float64]) -> NDArray[np.float64]:
    return 1.0 / (1.0 + np.exp(-z))


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
    branch = (rng.random(cfg.n) < _logistic(0.5 * X[:, 0])).astype(np.float64)
    sd = _noise_sd(X)
    y_treated = (BASE_TREATED + X @ (BETA + GAMMA) + SHIFT * branch
                 + rng.normal(0.0, 1.0, cfg.n) * sd)
    y_control = BASE_CONTROL + X @ BETA + rng.normal(0.0, 1.0, cfg.n) * sd
    Y = np.where(A > 0, y_treated, y_control)
    latents = {"pi": pi, "branch": branch, "y_treated": y_treated,
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
        return _logistic(0.5 * v[:, 0])

    def branch_mean(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Mean of the lower branch; the upper branch sits SHIFT above it."""
        v = np.atleast_2d(v)
        return BASE_TREATED + v @ self.head + self.tail_mean

    def noise_var(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.tail_var + _noise_sd(np.atleast_2d(v)) ** 2

    def density_matrix(self, v: NDArray[np.float64],
                       y_grid: NDArray[np.float64]) -> NDArray[np.float64]:
        """True conditional densities, one row per query point, shape (T, G)."""
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        y = np.asarray(y_grid, dtype=np.float64).ravel()
        p = self.mix_p(v)[:, None]
        m0 = self.branch_mean(v)[:, None]
        var = self.noise_var(v)[:, None]
        norm = 1.0 / np.sqrt(2.0 * np.pi * var)
        low = norm * np.exp(-(y[None, :] - m0) ** 2 / (2.0 * var))
        high = norm * np.exp(-(y[None, :] - m0 - SHIFT) ** 2 / (2.0 * var))
        return p * high + (1.0 - p) * low


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
    points and grid points."""
    diff = est - truth
    return float(np.mean(diff * diff))


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
    return [SweepCell(m, v, normalize_scenario(s), int(n), int(sd))
            for m, v, s, n, sd in product(methods, variants, scenarios, n_list, seeds)]


def _derived_seed(tag: int, n: int, seed: int) -> int:
    return int(np.random.SeedSequence([tag, n, seed]).generate_state(1)[0])


def scenario_x_cols(scenario: str) -> list[int] | None:
    """The covariates the scenario's first stage reads: all but x6 in
    scenario c, all (None) otherwise."""
    if normalize_scenario(scenario) == "c":
        return [i for i in range(N_COV) if i != 5]
    return None


def propensity_kind(hyper: Hyper) -> str:
    """The propensity model a fit uses: ``hyper.propensity``, where ``auto``
    is a forest, or a logistic model in scenario b."""
    if hyper.propensity != "auto":
        return hyper.propensity
    return "logistic" if normalize_scenario(hyper.scenario) == "b" else "forest"


def fit_propensity(hyper: Hyper, d0: Dataset) -> PropensityModel:
    """Fit ``propensity_kind(hyper)`` on the D0 half, clipped to
    ``hyper.clip()``: the forest seeded by ``hyper.seed``, or the true
    propensity (``oracle``) of the benchmark's covariate layout."""
    kind, clip = propensity_kind(hyper), hyper.clip()
    if kind == "forest":
        return fit_forest(d0.X, d0.A, seed=hyper.seed, clip=clip)
    if kind == "logistic":
        return fit_logistic(d0.X, d0.A, clip=clip)
    if kind != "oracle":
        raise ConfigError(f"unknown propensity setting {hyper.propensity!r}")
    if d0.X.shape[1] != N_COV:
        raise ConfigError("the oracle propensity is defined for the "
                          f"{N_COV}-covariate benchmark layout only")
    return make_oracle(true_propensity, N_COV, clip)


def run_cell(cell: SweepCell, hyper: Hyper, test_v: NDArray[np.float64],
             grid_points: int = 1000, *, shared: dict | None = None) -> SweepRecord:
    """Fit one (method, variant, scenario, n, seed) cell and score it.

    The dataset, split, nets and propensity are seeded from (n, seed) only,
    so every method and variant in a sweep sees identical draws.  The cells
    of one (n, seed) group therefore share parts of their fits, which
    ``run_sweep`` builds once per group and keeps in a ``shared`` dict:

    - the data and its split (each scenario sets its ``x_cols``);
    - the nuisances ``fit_ccme`` keeps in ``shared``: omega per propensity
      model (``propensity_kind``), the first stage per method and
      ``x_cols``, and rr's stage-two factor of K(V1) + ridge1 I, the same
      for dr, ipw and pi in every scenario;
    - the ``onestep`` score, per method: it reads neither the propensity
      nor ``x_cols``, so its cells in every scenario are one fit;
    - the scoring grid and the true densities on it.

    Without ``shared`` the cell builds every part itself.  The record's
    ``seconds`` include the parts this cell built first.  A part that
    raised makes every cell needing it a row with that error.
    """
    shared = {} if shared is None else shared
    start = time.perf_counter()
    try:
        def fit_and_score() -> float:
            return _fit_and_score(cell, shared, hyper, test_v, grid_points)

        score = (_shared_part(shared, ("onestep", cell.method), fit_and_score)
                 if cell.variant == "onestep" else fit_and_score())
        err = ""
    except Exception as exc:  # noqa: BLE001 - cell failures become rows
        score, err = float("nan"), f"{type(exc).__name__}: {exc}"
    return SweepRecord(cell.method, cell.variant, cell.scenario, cell.n,
                       cell.seed, score, time.perf_counter() - start, err)


def _fit_and_score(cell: SweepCell, shared: dict, hyper: Hyper,
                   test_v: NDArray[np.float64], grid_points: int) -> float:
    n, seed = cell.n, cell.seed
    split = _shared_part(shared, ("split",), lambda: split_data(
        generate(replace(hyper, n=2 * n, seed=_derived_seed(2026, n, seed)))[0],
        _derived_seed(2027, n, seed), V_COLS))
    model = fit_ccme(
        replace(split, x_cols=scenario_x_cols(cell.scenario)),
        replace(hyper, method=cell.method, variant=cell.variant,
                scenario=cell.scenario, seed=_derived_seed(2029, n, seed),
                net_seed=_derived_seed(2028, n, seed)), shared=shared)

    def truth_on_grid() -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        # the outcomes' range padded by 2, and the true densities on it
        grid = make_grid(_all_outcomes(split), grid_points, 2.0).ravel()
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
    method or variant, an rr cell above n = 20000, other ``v_cols``, or a
    ``seed`` or ``net_seed`` other than the default, which no cell reads."""
    for cell in cells:
        if cell.method == "rr" and cell.n > 20000:
            raise ConfigError(f"rr cell n={cell.n} exceeds the 20000 cap")
        if cell.method not in METHODS:
            raise ConfigError(f"unknown method {cell.method!r}")
        if cell.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {cell.variant!r}")
    if hyper.v_cols not in (None, V_COLS):
        raise ConfigError(f"sweeps condition on V = the first {len(V_COLS)} "
                          f"covariates, as the true densities do; got v_cols "
                          f"{hyper.v_cols}")
    for name in ("seed", "net_seed"):
        if getattr(hyper, name) != getattr(Hyper, name):
            raise ConfigError(f"sweeps derive each group's seeds from (n, seed) "
                              f"in --seeds; got {name} {getattr(hyper, name)}")


def run_sweep(cells: list[SweepCell], hyper: Hyper | None = None,
              test_points: int = 500, grid_points: int = 1000,
              eval_seed: int = 0, threads: int = 1,
              progress=None) -> list[SweepRecord]:
    """Run all cells against one fixed evaluation set and return sorted records.

    Cells run in groups of one (n, seed), which share their data, propensity
    fits, first stages, rr stage-two factor, ``onestep`` scores and true
    densities (see ``run_cell``); a group's shared parts are dropped when it
    ends.  Individual cell failures are recorded as rows with an error
    message, not raised.  Kernel-ridge cells above n = 20000 are rejected up
    front: their Gram factorizations do not fit a reasonable memory budget.
    ``progress`` is called with each record as its cell finishes, or with
    threads > 1, as its group finishes.  With ``threads > 1`` each group is
    one task for a pool of min(threads, groups) worker processes, which split
    the usable cores among their BLAS threads, one thread each at least;
    more workers than cores still oversubscribe them.
    """
    hyper = hyper or Hyper()
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
