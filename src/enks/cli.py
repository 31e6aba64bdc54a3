"""Command-line interface.

Subcommands
-----------
simulate : generate and persist synthetic truth and measurements
run      : twin experiment with the selected filters
sweep    : convergence sweep in ensemble size or step length
compare  : multi-filter run plus an RMSE summary table

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .configfile import experiment_config, parse_config_file
from .errors import ConfigError, NumericFailure
from .harness import convergence_sweep, make_twin_data, run_experiment
from .record import emit_dataset, emit_sweep, load_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_command(sub, name: str, fn, help_: str) -> argparse.ArgumentParser:
    """Subcommand ``name``, run by ``fn``, with the flags all commands share."""
    p = sub.add_parser(name, help=help_)
    p.set_defaults(fn=fn)
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--problem", help="problem id")
    p.add_argument("--filter", action="append", dest="filters",
                   help="filter to run (repeatable): enks | enks-iter | enkf")
    p.add_argument("--ensemble", type=int, help="ensemble size N")
    p.add_argument("--dt", type=float, help="assimilation step")
    p.add_argument("--alpha", type=float, help="denominator blend weight")
    p.add_argument("--kappa", type=int, help="inner iterations for enks-iter")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--horizon", type=float, help="run length T")
    p.add_argument("--out", help="output directory")
    return p


def _build_cfg(args, force_filters=None):
    settings = parse_config_file(args.config) if args.config else {}
    overrides = {
        "problem": args.problem,
        "filter": tuple(args.filters) if args.filters else None,
        "ensemble": args.ensemble,
        "dt": args.dt,
        "alpha": args.alpha,
        "kappa": args.kappa,
        "seed": args.seed,
        "horizon": args.horizon,
        "out": args.out,
    }
    if force_filters is not None:
        overrides["filter"] = force_filters
    return experiment_config(settings, overrides)


def cmd_simulate(args) -> int:
    cfg = _build_cfg(args)
    problem, truth, series, _ = make_twin_data(cfg)
    out = emit_dataset(cfg.out_dir, truth, series, problem.noise_std, cfg.seed)
    print(f"wrote truth ({truth.shape[0]} channels x {truth.shape[1]} steps), "
          f"measurements, noise levels and seed to {out}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _build_cfg(args)
    data = load_dataset(args.data) if args.data else None
    record = run_experiment(cfg, data=data)
    summary = record.summary_rmse()
    print(f"problem={cfg.problem} seed={record.seed} "
          f"steps={record.steps.size} wall={record.wall_time:.2f}s")
    for name, vals in summary.items():
        print(f"  {name}: mean rmse over channels = {np.mean(vals):.6g}")
    print(f"artifacts in {cfg.out_dir}/")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _build_cfg(args)
    try:
        values = [float(v) if args.variable == "dt" else int(v)
                  for v in args.values.split(",")]
    except ValueError as err:
        raise ConfigError(f"bad --values {args.values!r}: {err}") from err
    report = convergence_sweep(cfg, args.variable, values, args.repeats)
    path = emit_sweep(report, Path(cfg.out_dir) / f"sweep_{args.variable}.csv")
    print(f"{args.variable}-sweep over {values}: "
          f"log-log slope = {report.slope:.4f} (intercept {report.intercept:.3f})")
    print(f"per-value errors written to {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _build_cfg(args, force_filters=tuple(args.filters)
                     if args.filters else ("enks", "enks-iter", "enkf"))
    record = run_experiment(cfg)
    summary = record.summary_rmse()
    names = record.filters
    print(f"problem={cfg.problem} seed={record.seed} steps={record.steps.size}")
    header = f"{'channel':>10s} " + " ".join(f"{n:>12s}" for n in names)
    print(header)
    for c in range(record.n_channels):
        print(f"{record.channel_names[c]:>10s} "
              + " ".join(f"{summary[n][c]:12.5g}" for n in names))
    print(f"{'mean':>10s} " + " ".join(f"{np.mean(summary[n]):12.5g}" for n in names))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enks",
        description="Ensemble Kushner-Stratonovich filtering benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "simulate", cmd_simulate,
                 "generate synthetic truth and data")
    p_run = _add_command(sub, "run", cmd_run, "run filters on a twin experiment")
    p_run.add_argument("--data", help="directory with a 'simulate' dataset to "
                                      "filter instead of regenerating")
    p_sweep = _add_command(sub, "sweep", cmd_sweep, "convergence sweep")
    p_sweep.add_argument("--variable", choices=("N", "dt"), required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--repeats", type=int, default=5)
    _add_command(sub, "compare", cmd_compare, "multi-filter summary table")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
