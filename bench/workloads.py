"""The three benchmark workloads.

Each workload writes its CSV inputs once (`prepare`), then runs rounds.
A round is the timed part (`run`): every call into `hessmg`, from the
first to the last output file closed, with designs solved one after
another. `check` then verifies the round's outputs; it is not timed. All
calls go through module attributes (`hessmg.run.run_one`, ...) so that an
installed tracer sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import hessmg.builder
import hessmg.cli
import hessmg.data
import hessmg.mps
import hessmg.run
import hessmg.scenario
from hessmg.data import GridSpec, Horizon, PvSpec, SourceSpec

import checks
import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOG = os.path.join(ROOT, "src", "hessmg", "resources", "catalog_case_study.ini")

PORTFOLIOS = (("1_B", ("battery",)),
              ("2_BS", ("battery", "supercapacitor")),
              ("3_BF", ("battery", "flywheel")),
              ("4_BSF", ("battery", "supercapacitor", "flywheel")))
GRID_CAP = 2.8     # MW, contract ceiling of the matrix and export workloads
PV_CAP = 5.0       # MW
ETA_DEMAND = 1.0


def _paths(in_dir):
    return tuple(os.path.join(in_dir, name) for name in inputs.FILES)


@dataclass(frozen=True)
class Round:
    """What a round's check reports: operations failed, and a fingerprint
    of the results that must repeat in every round of a run."""

    failed: int
    fingerprint: tuple


# -- matrix_month -------------------------------------------------------------

@dataclass(frozen=True)
class MatrixMonth:
    """The paper's portfolio matrix through the `hessmg experiments` CLI."""

    name: str = "matrix_month"
    n_days: int = 365
    clusters: int = 10
    t_syn: int = 30

    @property
    def ops(self) -> int:
        """Operations per round: one per design."""
        return len(PORTFOLIOS)

    def prepare(self, in_dir, seed):
        prices, demand, pv = inputs.write_inputs(in_dir, seed, self.n_days, 24)
        config = {
            "prices": prices, "demand": demand, "pv": pv, "catalog": CATALOG,
            "clusters": self.clusters, "seed": seed,
            "horizon": {"tau_minutes": 60, "t_syn": self.t_syn},
            "sources": {"grid": {"p_cap_max": GRID_CAP}, "pv": {"p_cap_max": PV_CAP},
                        "eta_demand": ETA_DEMAND},
            "experiments": [{"id": pid, "ess": list(ess)} for pid, ess in PORTFOLIOS],
        }
        with open(os.path.join(in_dir, "config.json"), "w") as fh:
            json.dump(config, fh, indent=1)

    def run(self, in_dir, out_dir, seed):
        argv = ["experiments", "--config", os.path.join(in_dir, "config.json"),
                "--out-dir", out_dir, "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            hessmg.cli.main(argv)

    def check(self, in_dir, out_dir, seed, detail) -> Round:
        with open(os.path.join(out_dir, "results.json")) as fh:
            results = json.load(fh)
        summary = checks.read_summary(os.path.join(out_dir, "summary.csv"))
        ceilings = checks.catalog_ceilings(CATALOG)
        ok = [r for r in results if r["status"] == "optimal" and "error" not in r]
        for r in ok:
            traces = checks.read_trace_csv(
                os.path.join(out_dir, f"traces_{r['exp_id']}.csv"))
            checks.check_design(r, traces, ceilings, GRID_CAP, PV_CAP, ETA_DEMAND)
        checks.check_summary_matches(summary, results)
        checks.check_nested({r["exp_id"]: r["objective_keur"] for r in ok})
        if len(results) != len(PORTFOLIOS):
            raise checks.CheckError(f"{len(results)} designs, expected {len(PORTFOLIOS)}")
        return Round(len(results) - len(ok),
                     tuple((r["exp_id"], r["objective_keur"]) for r in ok))


# -- sweep_day ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepDay:
    """One-day what-if designs: monthly medoid days x portfolios x ceilings."""

    name: str = "sweep_day"
    n_days: int = 365
    months: tuple = (1, 3, 5, 7, 9, 11)
    ceilings: tuple = (2.8, 3.6)   # MW, GridSpec.p_cap_max

    @property
    def ops(self) -> int:
        """Operations per round: one per design."""
        return len(self.months) * len(self.ceilings) * len(PORTFOLIOS)

    def prepare(self, in_dir, seed):
        inputs.write_inputs(in_dir, seed, self.n_days, 24)

    def run(self, in_dir, out_dir, seed):
        horizon = Horizon(tau_minutes=60, t_syn=1)
        days = hessmg.data.load_dataset(*_paths(in_dir), horizon)
        catalog = hessmg.data.load_catalog(CATALOG)
        designs, results = [], []
        for month in self.months:
            in_month = [d for d in days if d.date.month == month]
            # one cluster, one synthetic day: the month's medoid day
            medoid = hessmg.scenario.build_scenario(in_month, 1, 1, seed)
            for cap in self.ceilings:
                ctx = hessmg.run.RunContext(
                    horizon=horizon, catalog=catalog, scenario=medoid,
                    sources=SourceSpec(grid=GridSpec(p_cap_max=cap),
                                       pv=PvSpec(p_cap_max=PV_CAP),
                                       eta_demand=ETA_DEMAND))
                for pid, ess in PORTFOLIOS:
                    exp = hessmg.run.ExperimentConfig(
                        id=f"m{month:02d}_g{cap:g}_{pid}", ess_subset=ess)
                    results.append(hessmg.run.run_one(ctx, exp))
                    designs.append((exp, ctx, month, cap, pid))
        hessmg.run.write_summary(results, list(catalog),
                                 os.path.join(out_dir, "summary.csv"))
        hessmg.run.write_results_json(results, os.path.join(out_dir, "results.json"))
        for r in results:
            hessmg.run.emit_traces(r, os.path.join(out_dir, f"traces_{r.exp_id}.csv"))
        return designs

    def check(self, in_dir, out_dir, seed, designs) -> Round:
        with open(os.path.join(out_dir, "results.json")) as fh:
            results = {r["exp_id"]: r for r in json.load(fh)}
        summary = checks.read_summary(os.path.join(out_dir, "summary.csv"))
        checks.check_summary_matches(summary, list(results.values()))
        ceilings = checks.catalog_ceilings(CATALOG)
        if len(results) != len(designs):
            raise checks.CheckError(f"{len(results)} designs, expected {len(designs)}")
        ok, by_day = {}, {}
        for exp, ctx, month, cap, pid in designs:
            r = results[exp.id]
            if r["status"] != "optimal" or "error" in r:
                continue
            ok[exp.id] = r
            traces = checks.read_trace_csv(os.path.join(out_dir, f"traces_{exp.id}.csv"))
            checks.check_design(r, traces, ceilings, cap, PV_CAP, ETA_DEMAND)
            data = hessmg.builder.ProblemData.from_scenario(
                ctx.scenario, ctx.horizon, ctx.sources,
                {n: ctx.catalog[n] for n in exp.ess_subset})
            reference = checks.linprog_objective(hessmg.builder.build(data))
            if not checks.rel_close(r["objective_keur"], reference):
                raise checks.CheckError(
                    f"{exp.id}: objective {r['objective_keur']:.9g} != "
                    f"reference solve {reference:.9g}")
            by_day.setdefault((month, pid), []).append((cap, r["objective_keur"]))
        for (month, pid), costs in by_day.items():
            checks.check_monotone_in_ceiling(costs, f"month {month} {pid}")
        return Round(len(designs) - len(ok),
                     tuple((k, r["objective_keur"]) for k, r in sorted(ok.items())))


# -- export_month_15min -------------------------------------------------------

@dataclass(frozen=True)
class ExportMonth15:
    """15-minute ingest and synthesis, all-technology build, MPS round trip."""

    name: str = "export_month_15min"
    n_days: int = 365
    clusters: int = 10
    t_syn: int = 30
    ops: int = 1    # one export round trip per round

    def prepare(self, in_dir, seed):
        inputs.write_inputs(in_dir, seed, self.n_days, 96)

    def run(self, in_dir, out_dir, seed):
        horizon = Horizon(tau_minutes=15, t_syn=self.t_syn)
        days = hessmg.data.load_dataset(*_paths(in_dir), horizon)
        scenario = hessmg.scenario.build_scenario(days, self.clusters, self.t_syn, seed)
        catalog = hessmg.data.load_catalog(CATALOG)
        sources = SourceSpec(grid=GridSpec(p_cap_max=GRID_CAP),
                             pv=PvSpec(p_cap_max=PV_CAP), eta_demand=ETA_DEMAND)
        data = hessmg.builder.ProblemData.from_scenario(scenario, horizon, sources, catalog)
        model = hessmg.builder.build(data)
        path = os.path.join(out_dir, "model.mps")
        hessmg.mps.write_mps(model, path)
        back = hessmg.mps.read_mps(path)
        return model, back, path, horizon.n_steps

    def check(self, in_dir, out_dir, seed, detail) -> Round:
        model, back, path, n_steps = detail
        checks.check_models_equal(model, back)
        checks.check_finite(back)
        checks.check_balance_rows(model, n_steps)
        checks.check_balance_rows(back, n_steps)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return Round(0, (digest,))


WORKLOADS = {w.name: w for w in (MatrixMonth(), SweepDay(), ExportMonth15())}

# Small sizes for the smoke tests: the same code paths in a few seconds.
TINY = {
    "matrix_month": MatrixMonth(n_days=40, clusters=3, t_syn=4),
    "sweep_day": SweepDay(n_days=60, months=(2,), ceilings=(2.8, 3.6)),
    "export_month_15min": ExportMonth15(n_days=20, clusters=3, t_syn=3),
}
