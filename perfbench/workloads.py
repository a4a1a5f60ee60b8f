"""The benchmark's workloads: what each sets up, runs and checks.

Every workload is a closed loop with one client: one process, sweeps with
``threads=1``, and each step waits for the previous one.  All inputs derive
from the workload seed; the library sees only the generated inputs.

``setup`` runs in a fresh interpreter (that is what ``setup_s`` times) and
writes the workload's inputs into the work directory.  ``warm_up`` runs in
the benchmark process before anything is timed.  ``body`` runs one
iteration and returns an ``Iteration``; with ``in_process`` the CLI commands
run through ``ccme.cli.main`` inside this process, which is how the traced
run sees them.  ``evaluate`` checks and scores an iteration's outputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Target, Tracer

# Longest wait for one subprocess (a CLI command or a set-up probe).
STEP_TIMEOUT_S = 60.0


@dataclass
class Iteration:
    """One run of a workload body."""

    wall_s: float
    fit_s: float                    # time spent fitting models
    density_s: float                # time spent evaluating densities
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""                # identifies the outputs, for equality checks
    steps: list[dict] = field(default_factory=list)   # per cell or command


@dataclass
class Context:
    root: Path                      # checkout root, holding src/
    workdir: Path
    seed: int

    def env(self) -> dict[str, str]:
        """This process's environment with src/ on the path; the BLAS thread
        variables pass through untouched."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepWorkload:
    name: str
    why: str
    # (methods, variants, scenarios, n per half) blocks, run as one sweep
    blocks: list[tuple[list[str], list[str], list[str], int]]
    test_points: int = 500
    grid_points: int = 1000
    in_children = False             # where the work runs, for peak memory

    def cells(self, seed: int) -> list:
        from ccme.synthbench import plan_cells

        return [cell for methods, variants, scenarios, n in self.blocks
                for cell in plan_cells(methods, variants, scenarios, [n], [seed])]

    def warm_up(self, ctx: Context) -> None:
        """A small rr cell, so imports and lazy library set-up happen untimed."""
        from ccme.estimators import Hyper
        from ccme.synthbench import SweepCell, eval_points, run_cell

        rec = run_cell(SweepCell("rr", "dr", "b", 40, ctx.seed), Hyper(),
                       eval_points(20, ctx.seed), 50)
        if rec.error:
            raise RuntimeError(f"warm-up cell failed: {rec.error}")

    def setup(self, ctx: Context) -> None:
        """Only the warm-up: ``run_sweep`` draws each cell's data and the
        evaluation points itself, inside the timed body."""
        self.warm_up(ctx)

    def body(self, ctx: Context, in_process: bool = True) -> Iteration:
        """Run the sweep.  A stopwatch on ``density_matrix`` splits each
        cell's time into fitting and density evaluation; it costs two clock
        reads per cell."""
        from ccme import synthbench

        watch = Tracer()
        steps: list[dict] = []

        def progress(rec) -> None:
            dens = sum(end - start for *_, start, end in watch.spans)
            watch.spans.clear()
            steps.append({"cell": f"{rec.method}/{rec.variant}/{rec.scenario}/{rec.n}",
                          "seconds": rec.seconds, "fit_s": rec.seconds - dens,
                          "density_s": dens, "mse": rec.mse})

        cells = self.cells(ctx.seed)
        with watch.traced([Target("ccme.density", "density_matrix")]):
            start = time.perf_counter()
            records = synthbench.run_sweep(
                cells, test_points=self.test_points,
                grid_points=self.grid_points, eval_seed=ctx.seed, threads=1,
                progress=progress)
            wall = time.perf_counter() - start
        problems = [f"{r.method}/{r.variant}/{r.scenario} n={r.n}: "
                    f"{r.error or 'non-finite mse'}"
                    for r in records if r.error or not math.isfinite(r.mse)]
        digest = hashlib.sha256(repr(
            [(r.method, r.variant, r.scenario, r.n, r.seed, r.mse.hex(), r.error)
             for r in records]).encode()).hexdigest()
        return Iteration(wall, sum(c["fit_s"] for c in steps),
                         sum(c["density_s"] for c in steps), len(records),
                         len(problems), problems, digest, steps)

    def evaluate(self, ctx: Context, it: Iteration) -> tuple[float, list[str]]:
        """Mean MSE over cells; the cells were checked by ``body``."""
        return float(np.mean([c["mse"] for c in it.steps])), []


# ---------------------------------------------------------------------------
# CLI


@dataclass
class CliWorkload:
    name: str
    why: str
    n_rows: int = 4000
    query_points: int = 200
    grid_points: int = 1000
    in_children = True

    def paths(self, ctx: Context) -> dict[str, Path]:
        return {k: ctx.workdir / v for k, v in
                (("data", "data.csv"), ("query", "query.csv"),
                 ("model", "model.npz"), ("density", "density.csv"))}

    def warm_up(self, ctx: Context) -> None:
        """The commands run in fresh interpreters; a traced run warms up by
        repeating the body in this process."""

    def setup(self, ctx: Context) -> None:
        from ccme import cli
        from ccme.synthbench import eval_points

        p = self.paths(ctx)
        code = cli.main(["simulate", "--n", str(self.n_rows), "--seed",
                         str(ctx.seed), "--out", str(p["data"])])
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}")
        vq = eval_points(self.query_points, ctx.seed)
        lines = [",".join(f"v{i + 1}" for i in range(vq.shape[1]))]
        lines += [",".join(repr(float(x)) for x in row) for row in vq]
        p["query"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    def commands(self, ctx: Context) -> list[tuple[str, list[str]]]:
        p = self.paths(ctx)
        return [
            ("fit", ["fit", str(p["data"]), "--method", "rr", "--variant", "dr",
                     "--seed", str(ctx.seed), "--model-out", str(p["model"])]),
            ("density", ["density", str(p["model"]), "--v-file", str(p["query"]),
                         "--grid-points", str(self.grid_points),
                         "--out", str(p["density"])]),
        ]

    def _run_command(self, ctx: Context, argv: list[str],
                     in_process: bool) -> tuple[float, int, str]:
        if in_process:
            from ccme import cli

            start = time.perf_counter()
            code = cli.main(argv)
            return time.perf_counter() - start, code, ""
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "ccme.cli", *argv],
                                  env=ctx.env(), cwd=ctx.workdir,
                                  capture_output=True, text=True,
                                  timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, "timed out"
        return time.perf_counter() - start, proc.returncode, proc.stderr.strip()

    def body(self, ctx: Context, in_process: bool = False) -> Iteration:
        p = self.paths(ctx)
        p["density"].unlink(missing_ok=True)
        times: dict[str, float] = {}
        problems: list[str] = []
        start = time.perf_counter()
        for label, argv in self.commands(ctx):
            dt, code, err = self._run_command(ctx, argv, in_process)
            times[label] = dt
            if code != 0:
                problems.append(f"{label} exited with {code}: {err[-300:]}")
                break
        wall = time.perf_counter() - start
        digest = ""
        if not problems:
            digest = hashlib.sha256(p["density"].read_bytes()).hexdigest()
        return Iteration(wall, times.get("fit", wall), times.get("density", 0.0),
                         len(times), len(problems), problems, digest,
                         [{"command": k, "seconds": v} for k, v in times.items()])

    def evaluate(self, ctx: Context, it: Iteration) -> tuple[float, list[str]]:
        """Parse the density CSV, check its shape and the mass identity, and
        score it against the analytic truth.  Returns (mse, problems)."""
        from ccme.density import density_mass, density_matrix
        from ccme.serialize import load_model
        from ccme.synthbench import GroundTruth

        p = self.paths(ctx)
        with p["density"].open(encoding="utf-8") as fh:
            header = fh.readline().strip()
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        T, G = self.query_points, self.grid_points
        if header != "v_id,y,density" or body.shape != (T * G, 3):
            return math.nan, [f"density CSV has header {header!r} and shape "
                              f"{body.shape}, expected {T * G} rows of 3"]
        ids, ys, dens = (body[:, k].reshape(T, G) for k in range(3))
        grid = ys[0]
        problems = []
        if not (ids == np.arange(T)[:, None]).all() or not (ys == grid).all():
            problems.append("density CSV rows are not one shared grid per query")
        if not np.isfinite(dens).all():
            problems.append("density CSV holds non-finite values")
        vq = np.loadtxt(p["query"], delimiter=",", skiprows=1, ndmin=2)
        model = load_model(str(p["model"]))
        # The analytic mass counts every kernel bump in full; the written grid
        # cuts off the tails of bumps near its ends, so integrate those tails
        # on 8-bandwidth extensions and add them.
        reach = 8.0 * model.kernel_y.bandwidth
        quad = np.trapezoid(dens, grid, axis=1)
        for lo, hi in ((grid[0] - reach, grid[0]), (grid[-1], grid[-1] + reach)):
            tail = np.linspace(lo, hi, 401)
            quad += np.trapezoid(density_matrix(model, vq, tail), tail, axis=1)
        worst = float(np.max(np.abs(density_mass(model, vq) - quad)))
        if not worst <= MASS_TOL:
            problems.append(f"mass identity off by {worst:.3g} (> {MASS_TOL})")
        truth = GroundTruth().density_matrix(vq, grid)
        return float(np.mean((dens - truth) ** 2)), problems


# Largest accepted gap between a curve's analytic mass and its quadrature.
MASS_TOL = 1e-4


WORKLOADS = {
    "sweep-rr": SweepWorkload(
        "sweep-rr",
        "Large-n closed-form path: forest, n=5000 Cholesky and Gram work, "
        "density over 5000 bumps; nets bypassed",
        [(["rr"], ["dr", "ipw", "pi", "onestep"], ["b", "c"], 5000)]),
    "sweep-nets": SweepWorkload(
        "sweep-nets",
        "SGD-bound path: train_mlp, df_trace_loss, nk_loss_grad, build_k_xi; "
        "small propensity and Cholesky costs",
        [(["df", "nk"], ["dr", "ipw", "pi", "onestep"], ["a"], 200),
         (["df"], ["dr"], ["a"], 500)]),
    "cli-rr": CliWorkload(
        "cli-rr",
        "Single-fit user path sweeps bypass: process start, CSV parse, model "
        "save and load, density curves and CSV writing"),
}
