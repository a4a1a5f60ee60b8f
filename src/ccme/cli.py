"""Command-line interface.

Commands: simulate, fit, density, sweep, report.  A setting's flag overrides
the optional JSON --config file, which overrides the default.  Status goes to
stderr, data to stdout; each file output is a temp file renamed into place.

Exit codes: 0 success, 2 I/O failure, 3 parse failure (flags, config files,
CSV inputs, dimension mismatches), 4 degenerate data or configuration,
5 numeric failure, 6 internal error (any other exception: a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import fields

import numpy as np

from .config import (_SCALAR, comma_list, config_json, load_config_file,
                     parse_override, validate_config)
from .data import dataset_to_csv, load_dataset, numeric_rows, split_data
from .density import curves_to_csv, default_grid, density_curves
from .errors import (ConfigError, DegenerateDataError, InvalidArgumentError,
                     NumericError)
from .estimators import Hyper, fit_ccme
from .serialize import atomic_write, load_model, save_model
from .synthbench import (SweepRecord, _check_sweep, check_scenario, generate,
                         loglog_slope, plan_cells, run_sweep)

__all__ = ["main"]

# A sweep CSV has one column per SweepRecord field, each parsed by its type
# and written with str() or, for two floats, these formats.
_SWEEP_FIELDS = fields(SweepRecord)
_SWEEP_COLUMNS = [f.name for f in _SWEEP_FIELDS]
_SWEEP_FORMATS = {"mse": ".17g", "seconds": ".3f"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as parse errors instead of exiting."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidArgumentError(message)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def build_parser() -> _Parser:
    # a flag sets its dest only when given, so one after the command wins
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="FILE",
                        help="JSON file of config fields")
    common.add_argument("--print-config", action="store_true",
                        help="print the resolved config as JSON and exit")
    for f in fields(Hyper):
        flag = "--" + f.name.replace("_", "-")
        common.add_argument(flag, dest=f"cfg_{f.name}", metavar="V",
                            help=argparse.SUPPRESS)

    parser = _Parser(prog="ccme", parents=[common], allow_abbrev=False,
                     description=(
        "Doubly robust conditional density estimation for treated outcomes: "
        "simulate benchmark data, fit two-stage models, evaluate densities, "
        "and sweep convergence grids."))
    sub = parser.add_subparsers(dest="command", metavar="command")

    sim = sub.add_parser("simulate", parents=[common], allow_abbrev=False,
                         help="draw a benchmark dataset to CSV")
    sim.add_argument("--out", default="sim.csv", help="output CSV path")

    fit = sub.add_parser("fit", parents=[common], allow_abbrev=False,
                         help="fit a two-stage model on a dataset CSV")
    fit.add_argument("data", help="dataset CSV (x1..xd,a,y)")
    fit.add_argument("--model-out", default="model.npz",
                     help="where to write the fitted model archive")

    den = sub.add_parser("density", parents=[common], allow_abbrev=False,
                         help="evaluate conditional densities from a model")
    den.add_argument("model", help="model archive written by fit")
    den.add_argument("--v", help="one query point, comma-separated")
    den.add_argument("--v-file", help="CSV of query points, one per row")
    den.add_argument("--grid-lo", type=float, help="outcome grid lower bound")
    den.add_argument("--grid-hi", type=float, help="outcome grid upper bound")
    den.add_argument("--out", default="density.csv",
                     help="output CSV path (v_id,y,density)")

    sw = sub.add_parser("sweep", parents=[common], allow_abbrev=False,
                        help="run a (method, variant, scenario, n, seed) grid")
    sw.add_argument("--out", default="sweep.csv", help="results CSV path")

    rep = sub.add_parser("report", parents=[common], allow_abbrev=False,
                         help="summarize a sweep CSV: medians and slopes")
    rep.add_argument("results", help="sweep CSV written by the sweep command")
    rep.add_argument("--out", help="optional medians CSV path")
    return parser


def _resolve_config(args: argparse.Namespace) -> Hyper:
    """The flags laid over the --config file's settings, over the defaults."""
    values = load_config_file(args.config) if "config" in args else {}
    for f in fields(Hyper):
        if f"cfg_{f.name}" in args:
            values[f.name] = parse_override(f.name, getattr(args, f"cfg_{f.name}"))
    cfg = Hyper(**values)
    for scenario in (cfg.scenario, *cfg.scenarios):
        check_scenario(scenario)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: Hyper, args: argparse.Namespace) -> int:
    data, _ = generate(cfg)
    atomic_write(args.out, dataset_to_csv(data))
    _status(f"wrote {cfg.n} rows to {args.out}")
    return 0


def cmd_fit(cfg: Hyper, args: argparse.Namespace) -> int:
    if cfg.scenario != "a":
        raise ConfigError(f"fits read no scenario, got {cfg.scenario!r}: scenarios "
                          "are sweep rules; use --propensity logistic to fit one")
    with open(args.data, "r", encoding="utf-8") as fh:
        data = load_dataset(fh.read())
    split = split_data(data, cfg.seed, cfg.v_cols)
    model = fit_ccme(split, cfg)
    save_model(model, args.model_out)
    _status(f"fitted {cfg.method}/{cfg.variant} on {len(data)} rows "
            f"({split.m} treated nuisance rows, {split.n} regression rows); "
            f"model -> {args.model_out}")
    return 0


def _parse_v_args(args: argparse.Namespace) -> np.ndarray:
    if (args.v is None) == (args.v_file is None):
        raise InvalidArgumentError("density needs exactly one of --v or --v-file")
    if args.v is not None:
        tokens = comma_list("--v", args.v)
        if not tokens:
            raise InvalidArgumentError("--v is empty")
        try:
            point = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise InvalidArgumentError(f"--v wants comma-separated floats: {exc}")
        return np.asarray(point, dtype=np.float64).reshape(1, -1)
    with open(args.v_file, "r", encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if ln.strip()]
    if rows and not any(map(_is_number, rows[0].split(","))):
        rows = rows[1:]                  # a first line without a number is a header
    return numeric_rows(rows, f"query file {args.v_file}")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def cmd_density(cfg: Hyper, args: argparse.Namespace) -> int:
    model = load_model(args.model)
    vq = _parse_v_args(args)
    if (args.grid_lo is None) != (args.grid_hi is None):
        raise InvalidArgumentError("--grid-lo and --grid-hi come together")
    if args.grid_lo is not None:
        if not np.isfinite(args.grid_hi - args.grid_lo):   # or either bound
            raise InvalidArgumentError("--grid-lo and --grid-hi must be finite, "
                                       "as must their difference")
        if not args.grid_lo < args.grid_hi:
            raise InvalidArgumentError("--grid-lo must be below --grid-hi")
        grid = np.linspace(args.grid_lo, args.grid_hi, cfg.grid_points)
    else:
        grid = default_grid(model, cfg.grid_points, cfg.grid_pad)
    values, masses = density_curves(model, vq, grid)
    atomic_write(args.out, curves_to_csv(grid, values))
    shown = ", ".join(f"{m:.4f}" for m in masses[:8])
    more = "..." if len(masses) > 8 else ""
    _status(f"wrote {len(masses)} density curves ({len(grid)} grid points) "
            f"to {args.out}; masses: {shown}{more}")
    return 0


def cmd_sweep(cfg: Hyper, args: argparse.Namespace) -> int:
    cells = plan_cells(cfg.methods, cfg.variants, cfg.scenarios,
                       cfg.n_list, cfg.seeds)
    if not cells:
        raise ConfigError("the sweep plans no cells")
    _check_sweep(cells, cfg)
    _status(f"running {len(cells)} cells "
            f"({cfg.test_points} eval points, {cfg.grid_points} grid points, "
            f"threads={cfg.threads})")

    def progress(rec) -> None:
        tag = f"mse={rec.mse:.6g}" if rec.error == "" else f"FAILED {rec.error}"
        _status(f"  {rec.method}/{rec.variant}/{rec.scenario} n={rec.n} "
                f"seed={rec.seed}: {tag} ({rec.seconds:.1f}s)")

    records = run_sweep(cells, cfg, cfg.test_points, cfg.grid_points,
                        cfg.eval_seed, cfg.threads, progress)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    writer.writerows([format(getattr(r, c), _SWEEP_FORMATS.get(c, ""))
                      for c in _SWEEP_COLUMNS] for r in records)
    atomic_write(args.out, buf.getvalue())
    ok = sum(1 for r in records if r.error == "" and np.isfinite(r.mse))
    _status(f"{ok}/{len(records)} cells succeeded; results -> {args.out}")
    return 0 if ok >= 1 else 5


def _read_sweep_csv(path: str) -> tuple[list[SweepRecord], int]:
    """The successful records of a sweep CSV, and the count of failed ones."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                [c.strip() for c in reader.fieldnames] != _SWEEP_COLUMNS:
            raise InvalidArgumentError(
                f"{path} lacks the sweep header {','.join(_SWEEP_COLUMNS)}")
        records, skipped = [], 0
        for lineno, raw in enumerate(reader, start=2):
            if None in raw or None in raw.values():    # extra or missing fields
                raise InvalidArgumentError(f"{path}:{lineno}: wrong field count")
            try:
                rec = SweepRecord(*(_SCALAR[f.type](raw[f.name])
                                    for f in _SWEEP_FIELDS))
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: {exc}")
            if rec.error != "" or not np.isfinite(rec.mse):
                skipped += 1
                continue
            records.append(rec)
    return records, skipped


def cmd_report(cfg: Hyper, args: argparse.Namespace) -> int:
    records, skipped = _read_sweep_csv(args.results)
    if skipped:
        _status(f"excluded {skipped} failed rows")
    if not records:
        raise DegenerateDataError("no successful rows to report")
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r.method, r.variant, r.scenario, r.n), []).append(r.mse)
    # (method, variant, scenario, n, cells, median mse), sorted by key, so
    # each key's n's below come in ascending order
    table = [(*key, len(mses), float(np.median(mses)))
             for key, mses in sorted(groups.items())]

    out = io.StringIO()
    out.write(f"{'method':<8}{'variant':<9}{'scenario':<10}{'n':>7}"
              f"{'cells':>7}  {'median_mse':<12}\n")
    by_key: dict[tuple, dict[int, float]] = {}
    for method, variant, scenario, n, cells, med in table:
        out.write(f"{method:<8}{variant:<9}{scenario:<10}{n:>7}"
                  f"{cells:>7}  {med:<12.6g}\n")
        by_key.setdefault((method, variant, scenario), {})[n] = med
    slopes = [(key, loglog_slope(np.array(list(by_n)), np.array(list(by_n.values()))))
              for key, by_n in by_key.items()
              if len(by_n) >= 3 and all(v > 0 for v in by_n.values())]
    if slopes:
        out.write("\nlog-log slope of median mse vs n:\n")
        for (method, variant, scenario), slope in slopes:
            out.write(f"{method:<8}{variant:<9}{scenario:<10}{slope:>8.3f}\n")
    sys.stdout.write(out.getvalue())

    if args.out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "variant", "scenario", "n", "cells", "median_mse"])
        writer.writerows([*row[:-1], f"{row[-1]:.17g}"] for row in table)
        atomic_write(args.out, buf.getvalue())
        _status(f"medians -> {args.out}")
    return 0


_COMMANDS = {"simulate": cmd_simulate, "fit": cmd_fit, "density": cmd_density,
             "sweep": cmd_sweep, "report": cmd_report}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        if "print_config" in args:
            sys.stdout.write(config_json(cfg))
            return 0
        if args.command is None:
            raise InvalidArgumentError("a command is required "
                                       "(simulate, fit, density, sweep, report)")
        return _COMMANDS[args.command](cfg, args)
    except NumericError as exc:
        _status(f"numeric failure: {exc}")
        return 5
    except (DegenerateDataError, ConfigError) as exc:
        _status(f"degenerate data or configuration: {exc}")
        return 4
    except (InvalidArgumentError, UnicodeDecodeError) as exc:  # or text not in UTF-8
        _status(f"parse failure: {exc}")
        return 3
    except OSError as exc:
        _status(f"i/o failure: {exc}")
        return 2
    except Exception as exc:  # noqa: BLE001 - the last resort, MemoryError too
        _status(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}")
        return 6


if __name__ == "__main__":
    sys.exit(main())
