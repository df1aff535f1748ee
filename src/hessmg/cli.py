"""Command line entry points.

Subcommands: demo-data, synth, optimize, experiments, export-mps. A JSON
config file carries paths and parameters; flags override its entries.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import run as runner
from .builder import build
from .data import SIGNAL_FILES, make_demo_dataset, write_demo_files
from .mps import write_mps


_CSVS = tuple(f.label for f in SIGNAL_FILES)

# the config entries a flag replaces, each the flag's dest; "section.entry" inside a section
_FLAG_ENTRIES = (*_CSVS, "catalog", "scenario", "seed", "clusters", "horizon.t_syn")


def _data_command(sub, name, func, builds, **kw):
    """A subcommand taking the synthesis inputs, and the model inputs where it `builds` one."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(func=func)
    p.add_argument("--config", help="run configuration JSON")
    for f in SIGNAL_FILES:
        p.add_argument(f"--{f.label}", help=f"{f.label} CSV ({','.join(f.header)})")
    p.add_argument("--seed", type=int, help="override config seed")
    if builds:
        p.add_argument("--catalog", help="storage technology catalog (INI)")
        p.add_argument("--scenario", help="reuse a scenario JSON instead of re-clustering")
    return p


def _merged_config(args, builds) -> dict:
    """The --config file (checked as written) with each given flag written into
    its entry, all checked again. It must name each input the subcommand opens:
    the CSVs, and where it `builds` a model the catalog and a scenario file or
    the CSVs."""
    cfg = runner.load_run_config(args.config) if args.config is not None else {}
    for entry in _FLAG_ENTRIES:
        if getattr(args, entry, None) is not None:
            section, _, key = entry.rpartition(".")
            (cfg.setdefault(section, {}) if section else cfg)[key] = getattr(args, entry)
    cfg = runner.run_config(cfg, "command line")
    required = _CSVS
    if builds:
        required = ("catalog",) if "scenario" in cfg else (*_CSVS, "catalog")
    for key in required:
        if key not in cfg:
            raise ValueError(f"missing input: --{key} or config entry '{key}'")
    return cfg


def cmd_demo_data(args):
    print("wrote", *write_demo_files(make_demo_dataset(args.seed, args.days), args.out_dir))
    return 0


def cmd_synth(args):
    _, scenario = runner.synthesize(_merged_config(args, builds=False))
    runner.write_whole(args.out, scenario.to_json())
    print(f"wrote {args.out}: {scenario.n_clusters} clusters over "
          f"{len(scenario.labels)} historical days, {len(scenario.sequence)} synthetic days")
    return 0


def _one_design(args, exp_id):
    """The context and the one experiment (--ess, or all the catalog) of a model."""
    ctx = runner.context_from_config(_merged_config(args, builds=True))
    ess = args.ess.split(",") if args.ess is not None else list(ctx.catalog)
    return ctx, runner.ExperimentConfig(id=exp_id, ess_subset=tuple(ess))


def _solve(ctx, experiments, out_dir, jobs=1):
    """Solve, write the outputs to `out_dir` (made first, so that one that
    cannot be made fails before any solve) and report each design; 1 unless
    every design is optimal and passes its checks."""
    os.makedirs(out_dir, exist_ok=True)
    results = runner.run_experiments(ctx, experiments, jobs)
    runner.write_outputs(results, list(ctx.catalog), out_dir)
    for r in results:  # a failed design has no total, as in the output files
        total = f" total={r.objective:.4f} kEUR" if r.breakdown is not None else ""
        note = f" ({r.error})" if r.error else ""
        if r.optimum_from is not None:
            note += f" (optimum of {r.optimum_from})"
        print(f"exp {r.exp_id}: status={r.status}{total}{note}")
    return 0 if all(r.status == "optimal" and not r.error for r in results) else 1


def cmd_optimize(args):
    ctx, exp = _one_design(args, "design")
    return _solve(ctx, [exp], args.out_dir)


def cmd_experiments(args):
    cfg = _merged_config(args, builds=True)
    experiments = runner.experiments_from_config(cfg)
    if not experiments:
        raise ValueError("missing input: config defines no experiments")
    ctx = runner.context_from_config(cfg)
    return _solve(ctx, experiments, args.out_dir, args.jobs)


def cmd_export_mps(args):
    ctx, exp = _one_design(args, "export")
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

    p = _data_command(sub, "synth", cmd_synth, builds=False,
                      help="cluster history into a synthetic period")
    p.add_argument("--clusters", type=int)
    p.add_argument("--days", dest="horizon.t_syn", metavar="DAYS", type=int,
                   help="synthetic period length T_syn")
    p.add_argument("--out", required=True, help="scenario JSON output")

    for name, func in (("optimize", cmd_optimize), ("experiments", cmd_experiments)):
        p = _data_command(sub, name, func, builds=True)
        p.add_argument("--out-dir", required=True)
        if name == "optimize":
            p.add_argument("--ess", help="comma-separated technology subset")
        else:
            p.add_argument("--jobs", type=int, default=1)

    p = _data_command(sub, "export-mps", cmd_export_mps, builds=True,
                      help="write the model in free MPS format")
    p.add_argument("--ess", help="comma-separated technology subset")
    p.add_argument("--out", required=True)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` for the command line: the message alone, in
    the form of the ``hessmg: error:`` line."""
    print(f"hessmg: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand. A fault in the inputs (a malformed file, field
    or flag, a missing input, or a path that cannot be read) prints one
    line and gives 2; a design that is not optimal gives 1. A warning that
    the filters show prints as one line too; one they turn into an error
    is raised."""
    args = build_parser().parse_args(argv)
    if getattr(args, "ess", None):  # bytes the locale left undecoded are UTF-8, as the catalog
        args.ess = args.ess.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")
    with warnings.catch_warnings():    # restores the display on the way out
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"hessmg: error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
