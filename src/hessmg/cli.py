"""Command line entry points.

Subcommands: demo-data, synth, optimize, experiments, export-mps. A JSON
config file carries paths and parameters; flags override its entries.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import run as runner
from .builder import build
from .data import SIGNAL_FILES, Horizon, load_dataset, make_demo_dataset, write_demo_files
from .mps import write_mps
from .scenario import build_scenario


def _add_data_flags(p):
    p.add_argument("--config", help="run configuration JSON")
    for f in SIGNAL_FILES:
        p.add_argument(f"--{f.label}", help=f"{f.label} CSV ({','.join(f.header)})")
    p.add_argument("--catalog", help="storage technology catalog (INI)")
    p.add_argument("--seed", type=int, help="override config seed")


def _merged_config(args) -> dict:
    cfg = (runner.load_run_config(args.config) if args.config
           else runner.run_config({}, "command line"))
    for key in ("prices", "demand", "pv", "catalog"):
        val = getattr(args, key, None)
        if val:
            cfg[key] = val
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "scenario", None):
        cfg["scenario"] = args.scenario
    # a scenario file replaces the historical data: only the catalog is read
    required = ("catalog",) if cfg.get("scenario") else ("prices", "demand", "pv", "catalog")
    for key in required:
        if key not in cfg:
            raise ValueError(f"missing input: --{key} or config entry '{key}'")
    return cfg


def cmd_demo_data(args):
    days = make_demo_dataset(args.seed or 0, args.days)
    paths = write_demo_files(days, args.out_dir)
    print("wrote", *paths)
    return 0


def cmd_synth(args):
    cfg = _merged_config(args)
    horizon = Horizon(**{**cfg["horizon"],
                         **({"t_syn": args.days} if args.days else {})})
    days = load_dataset(cfg["prices"], cfg["demand"], cfg["pv"], horizon)
    w = args.clusters or cfg["clusters"]
    scenario = build_scenario(days, w, horizon.t_syn, cfg["seed"])
    with open(args.out, "w") as fh:
        fh.write(scenario.to_json())
    print(f"wrote {args.out}: {w} clusters over {len(days)} historical days, "
          f"{horizon.t_syn} synthetic days")
    return 0


def cmd_optimize(args):
    cfg = _merged_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    ctx = runner.context_from_config(cfg, cache_dir=args.out_dir)
    ess = args.ess.split(",") if args.ess else list(ctx.catalog)
    exp = runner.ExperimentConfig(id="design", ess_subset=tuple(ess))
    result = runner.run_one(ctx, exp)
    runner.write_results_json([result], os.path.join(args.out_dir, "result.json"))
    runner.emit_traces(result, os.path.join(args.out_dir, "traces.csv"))
    runner.write_summary([result], list(ctx.catalog),
                         os.path.join(args.out_dir, "summary.csv"))
    print(f"status={result.status} objective={result.objective:.4f} kEUR")
    return 0 if result.status == "optimal" and not result.error else 1


def cmd_experiments(args):
    cfg = _merged_config(args)
    experiments = runner.experiments_from_config(cfg)
    if not experiments:
        raise ValueError("missing input: config defines no experiments")
    os.makedirs(args.out_dir, exist_ok=True)
    ctx = runner.context_from_config(cfg, cache_dir=args.out_dir)
    results = runner.run_experiments(ctx, experiments, jobs=args.jobs)
    runner.write_summary(results, list(ctx.catalog),
                         os.path.join(args.out_dir, "summary.csv"))
    runner.write_results_json(results, os.path.join(args.out_dir, "results.json"))
    for r in results:
        runner.emit_traces(r, os.path.join(args.out_dir, f"traces_{r.exp_id}.csv"))
        note = f" ({r.error})" if r.error else ""
        print(f"exp {r.exp_id}: status={r.status} "
              f"total={r.objective:.4f} kEUR{note}")
    return 0 if all(r.status == "optimal" and not r.error for r in results) else 1


def cmd_export_mps(args):
    cfg = _merged_config(args)
    ctx = runner.context_from_config(cfg)
    ess = args.ess.split(",") if args.ess else list(ctx.catalog)
    exp = runner.ExperimentConfig(id="export", ess_subset=tuple(ess))
    write_mps(build(runner.problem_data(ctx, exp)), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessmg",
        description="Joint sizing and dispatch optimization of a truck-charging "
                    "microgrid with hybrid storage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-data", help="generate the bundled synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_demo_data)

    p = sub.add_parser("synth", help="cluster history into a synthetic period")
    _add_data_flags(p)
    p.add_argument("--clusters", type=int)
    p.add_argument("--days", type=int, help="synthetic period length T_syn")
    p.add_argument("--out", required=True, help="scenario JSON output")
    p.set_defaults(func=cmd_synth)

    for name, func in (("optimize", cmd_optimize), ("experiments", cmd_experiments)):
        p = sub.add_parser(name)
        _add_data_flags(p)
        p.add_argument("--scenario", help="reuse a scenario JSON instead of re-clustering")
        p.add_argument("--out-dir", required=True)
        if name == "optimize":
            p.add_argument("--ess", help="comma-separated technology subset")
        else:
            p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=func)

    p = sub.add_parser("export-mps", help="write the model in free MPS format")
    _add_data_flags(p)
    p.add_argument("--scenario")
    p.add_argument("--ess")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_mps)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A fault in the inputs (a malformed file, field
    or flag, a missing input, or a path that cannot be read) prints one
    line and gives 2; a design that is not optimal gives 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"hessmg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
