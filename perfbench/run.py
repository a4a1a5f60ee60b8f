"""ccme benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-rr                # untraced
    python3 perfbench/run.py --workload cli-rr --trace 1        # traced
    python3 perfbench/run.py --workload sweep-nets --seed 7919 --seconds 30

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics untraced,
the per-layer metrics with ``--trace 1``.  The lines before it give the
environment and every metric by name and unit.  The full result (and, when
traced, every span) is written under ``.perfbench/`` in the current
directory.  Exit code 0 means the outputs passed every check, 1 that a check
failed, 2 that there is no ``src/ccme`` to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import EXTRA_COUNTS, TARGETS, extra_counts, layer_table  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import STEP_TIMEOUT_S, WORKLOADS, Context, Iteration  # noqa: E402

DEFAULT_SEED = 20261017
DEFAULT_SECONDS = 30
SETUP_REPEATS = 7
STARTUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fit_s": "s",
                    "peak_rss_mb": "MB"}
UNBOUNDED_UNITS = {"density_s": "s", "mse_mean": "1"}

# Layers every workload runs; their times go into the result line.  The
# others are timed too, but read 0 on a workload that bypasses them, so only
# their call counts go there; every time is in the printed table and the
# result file.
TIMED_ON_EVERY_WORKLOAD = [
    "data.split_data", "data.compute_omega", "propensity.fit_forest",
    "estimators.fit_first_stage", "estimators.fit_second_stage",
    "kernels.gram", "kernels.SpdFactor", "density.density_matrix",
]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED_ON_EVERY_WORKLOAD:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for target in TARGETS:
        units[f"{target.name}.calls"] = "count"
    for name in EXTRA_COUNTS:
        units[name] = ("B" if name.endswith("bytes") else
                       "flop" if name.endswith("flops") else "count")
    units["cli.startup_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment


def _openblas_threads() -> dict[str, int | None]:
    """Thread count of each loaded OpenBLAS copy (numpy's and scipy's)."""
    import numpy
    import scipy.linalg

    out: dict[str, int | None] = {}
    for pkg in (numpy, scipy):
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            count = None
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    count = int(fn())
                    break
            out[f"{pkg.__name__}:{os.path.basename(path)}"] = count
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# runs


def _timed_subprocess(argv: list[str], ctx: Context) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=ctx.env(), cwd=ctx.root, capture_output=True,
                          text=True, timeout=STEP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return elapsed


def setup_seconds(args: argparse.Namespace, ctx: Context, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports ccme, makes a
    warm-up call and writes the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(ctx.workdir)]
    return statistics.median(_timed_subprocess(argv, ctx) for _ in range(repeats))


def untraced(workload, ctx: Context, seconds: float, in_process: bool = False
             ) -> tuple[list[Iteration], float, list[str]]:
    """Repeat the body while another iteration fits in ``seconds``; the first
    iteration's outputs are checked and scored, later ones must match it."""
    iters: list[Iteration] = []
    busy = 0.0
    mse, problems = float("nan"), []
    while True:
        it = workload.body(ctx, in_process=in_process)
        iters.append(it)
        busy += it.wall_s
        problems += it.problems
        if len(iters) == 1:
            if not it.problems:
                mse, found = workload.evaluate(ctx, it)
                problems += found
        elif it.digest != iters[0].digest:
            problems.append(f"iteration {len(iters)} outputs differ from the first")
        if busy + it.wall_s > seconds:
            return iters, mse, problems


def end_to_end(workload, ctx: Context, args: argparse.Namespace) -> dict:
    setup_s = setup_seconds(args, ctx, SETUP_REPEATS)
    iters, mse, problems = untraced(workload, ctx, args.seconds)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(it.wall_s for it in iters),
        "fit_s": statistics.median(it.fit_s for it in iters),
        "peak_rss_mb": (child_rss if workload.in_children else self_rss) / 1024.0,
    }
    # Printed but not bounded: see README.md.
    extra = {"density_s": statistics.median(it.density_s for it in iters),
             "mse_mean": mse}
    return {"metrics": metrics, "unbounded": extra, "iterations": iters,
            "problems": problems}


def traced(workload, ctx: Context, args: argparse.Namespace) -> dict:
    """Repeat the body untraced for ``seconds``, as the end-to-end run does
    but in this process, then run it once traced.  The tracing overhead is
    the traced wall time minus the median untraced one."""
    setup_seconds(args, ctx, 1)
    iters, _, problems = untraced(workload, ctx, args.seconds, in_process=True)
    plain_wall = statistics.median(it.wall_s for it in iters)
    tracer = Tracer()
    with tracer.traced(TARGETS):
        seen = workload.body(ctx, in_process=True)
    problems += seen.problems
    if not problems:
        if seen.digest != iters[0].digest:
            problems.append("the traced run's outputs differ from the untraced run's")
        problems += workload.evaluate(ctx, seen)[1]
    startup = statistics.median(
        _timed_subprocess([sys.executable, "-c", "import ccme.cli"], ctx)
        for _ in range(STARTUP_REPEATS))
    table = layer_table(tracer.spans, TARGETS)
    calls = {name: row["calls"] for name, row in table.items()}
    metrics: dict[str, float] = {}
    for name in TIMED_ON_EVERY_WORKLOAD:
        metrics[f"{name}.s"] = table[name]["s"]
        metrics[f"{name}.self_s"] = table[name]["self_s"]
    for name, count in calls.items():
        metrics[f"{name}.calls"] = count
    metrics.update(extra_counts(tracer.counts, calls))
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = seen.wall_s - plain_wall
    spans_path = ctx.root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "trace_id", "span_id", "parent_id", "start", "end"],
         "spans": tracer.spans}), encoding="utf-8")
    return {"metrics": metrics, "iterations": [*iters, seen], "problems": problems,
            "layers": table, "missing_targets": tracer.missing,
            "untraced_wall_s": plain_wall, "traced_wall_s": seen.wall_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; 7919 is held out for re-checking "
                             "a claimed gain")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ccme" / "__init__.py").is_file():
        print(f"no ccme sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import ccme.cli  # noqa: F401  - every traced module is loaded before patching

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(Context(root, Path(args.workdir), args.seed))
        return 0

    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench"))
    try:
        ctx = Context(root, workdir, args.seed)
        workload.warm_up(ctx)
        result = (traced if args.trace else end_to_end)(workload, ctx, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iters = result.pop("iterations")
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    correct = not result["problems"]
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    env = environment()
    full = {"workload": args.workload, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "correct": correct, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "iterations": [{"wall_s": it.wall_s, "fit_s": it.fit_s,
                            "density_s": it.density_s, "steps": it.steps}
                           for it in iters],
            **result}
    out = root / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1, default=str) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: {len(iters)} iteration(s), {attempted} operations, "
          f"{failed} failed")
    print(f"error_rate {full['error_rate']:.6g} ratio")
    for name, value in result.get("unbounded", {}).items():
        print(f"{name} {value:.6g} {UNBOUNDED_UNITS[name]}")
    if args.trace:
        print(f"{'layer':<30}{'calls':>9}{'s':>11}{'self_s':>11}")
        for name, row in result["layers"].items():
            print(f"{name:<30}{row['calls']:>9}{row['s']:>11.4f}{row['self_s']:>11.4f}")
        print(f"tracing overhead {result['metrics']['trace.overhead_s']:.4f} s "
              f"(traced {result['traced_wall_s']:.4f} s - median untraced "
              f"{result['untraced_wall_s']:.4f} s)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
