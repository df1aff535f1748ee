"""End-to-end orchestration: ingest -> synthesize -> build -> solve -> audit,
plus the storage-combination experiment matrix and file outputs.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .builder import GRID, PV, ProblemData, build
from .costs import CostBreakdown, audit
from .data import (EssSpec, GridSpec, Horizon, HistoricalDay, PvSpec,
                   SourceSpec, load_catalog, load_dataset)
from .scenario import ScenarioModel, build_scenario
from .solve import SolveOptions, solve as solve_model, verify

TRACE_HEADER = ("step", "series", "value")


@dataclass(frozen=True)
class ExperimentConfig:
    """One row of the experiment matrix: which storage technologies to allow."""

    id: str
    ess_subset: tuple[str, ...]
    fixed: dict = field(default_factory=dict, hash=False)


@dataclass
class DesignResult:
    """Sized capacities, audited costs, and dispatch traces for one experiment."""

    exp_id: str
    status: str
    e_max: dict[str, float]          # MWh per technology
    p_max: dict[str, float]          # MW per technology
    p_grid_max: float                # MW
    p_pv_max: float                  # MW
    breakdown: CostBreakdown | None
    traces: dict[str, np.ndarray]    # series name -> length-K values
    objective: float
    solve_seconds: float
    error: str | None = None

    def as_dict(self):
        out = {
            "exp_id": self.exp_id,
            "status": self.status,
            "e_max_mwh": self.e_max,
            "p_max_mw": self.p_max,
            "p_grid_max_mw": self.p_grid_max,
            "p_pv_max_mw": self.p_pv_max,
            "objective_keur": self.objective,
            "solve_seconds": self.solve_seconds,
            "traces": {k: v.tolist() for k, v in self.traces.items()},
        }
        if self.breakdown is not None:
            out["costs"] = self.breakdown.as_dict()
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class RunContext:
    """Shared inputs for a batch of experiments: one scenario, one catalog."""

    horizon: Horizon
    sources: SourceSpec
    catalog: dict[str, EssSpec]
    scenario: ScenarioModel


def scenario_cache_key(days: list[HistoricalDay], w: int, t_syn: int, seed: int) -> str:
    """Digest of the historical data and synthesis parameters."""
    h = hashlib.sha256()
    h.update(f"w={w};t={t_syn};seed={seed};".encode())
    for day in days:
        h.update(day.date.isoformat().encode())
        for arr in (day.price, day.demand_ch, day.demand_wh, day.pv_cf):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def cached_scenario(days, w, t_syn, seed, cache_dir=None) -> ScenarioModel:
    """Build (or reload) the scenario; cache keyed by data hash + parameters."""
    if cache_dir is None:
        return build_scenario(days, w, t_syn, seed)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir,
                        f"scenario-{scenario_cache_key(days, w, t_syn, seed)}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return ScenarioModel.from_json(fh.read())
    model = build_scenario(days, w, t_syn, seed)
    with open(path, "w") as fh:
        fh.write(model.to_json())
    return model


def extract_traces(x, model, data: ProblemData) -> dict[str, np.ndarray]:
    """Plot-ready per-step series for demands, sources, storage, and SoE."""
    k_steps = data.horizon.n_steps
    grid = data.sources.grid

    def series(kind, entity, steps):
        return np.array([x[model.var(kind, entity, k).column] for k in steps])

    imports = series("P_src_plus", GRID, range(k_steps))
    exports = series("P_src_minus", GRID, range(k_steps))
    traces = {
        "demand_CH": data.demand_ch.copy(),
        "demand_WH": data.demand_wh.copy(),
        "source_G": grid.eta_c * imports - exports / grid.eta_d,
        "source_PV": series("P_pv", PV, range(k_steps)),
    }
    for name in data.ess:
        plus = series("P_ess_plus", name, range(k_steps))
        minus = series("P_ess_minus", name, range(k_steps))
        traces[f"ess_{name}"] = plus - minus
        traces[f"soe_{name}"] = series("E_soe", name, range(k_steps))
    return traces


def run_one(ctx: RunContext, exp: ExperimentConfig,
            options: SolveOptions | None = None) -> DesignResult:
    """Build, solve, verify and audit a single experiment."""
    unknown = set(exp.ess_subset) - set(ctx.catalog)
    if unknown:
        raise ValueError(f"{exp.id}: technologies not in catalog: {sorted(unknown)}")
    ess = {name: ctx.catalog[name] for name in exp.ess_subset}
    data = ProblemData.from_scenario(ctx.scenario, ctx.horizon, ctx.sources, ess)
    # JSON configs spell pinned design variables as "kind.entity" strings
    fixed = {tuple(k.split(".")) if isinstance(k, str) else k: v
             for k, v in exp.fixed.items()}
    model = build(data, fixed=fixed or None)
    sol = solve_model(model, options)
    if not sol.optimal:
        return DesignResult(
            exp_id=exp.id, status=sol.status, e_max={}, p_max={},
            p_grid_max=float("nan"), p_pv_max=float("nan"), breakdown=None,
            traces={}, objective=float("nan"), solve_seconds=sol.wall_time,
            error=f"solver status {sol.status}")
    report = verify(model, sol.x)
    breakdown = audit(sol.x, model, data, solver_objective=sol.objective)
    return DesignResult(
        exp_id=exp.id, status=sol.status,
        e_max={n: sol.value(model, "E_max", n) for n in ess},
        p_max={n: sol.value(model, "P_max_ess", n) for n in ess},
        p_grid_max=sol.value(model, "P_max_src", GRID),
        p_pv_max=sol.value(model, "P_max_src", PV),
        breakdown=breakdown, traces=extract_traces(sol.x, model, data),
        objective=sol.objective, solve_seconds=sol.wall_time,
        error=None if report.max_violation <= 1e-6 else
        f"feasibility check: violation {report.max_violation:.3g}")


def run_experiments(ctx: RunContext, experiments: list[ExperimentConfig],
                    options: SolveOptions | None = None,
                    jobs: int = 1) -> list[DesignResult]:
    """Run the matrix; failures are isolated per experiment; sorted by id."""
    ids = [e.id for e in experiments]
    if len(set(ids)) != len(ids):
        raise ValueError("experiment ids must be unique")

    def guarded(exp):
        try:
            return run_one(ctx, exp, options)
        except Exception as exc:  # isolate per-experiment failures
            return DesignResult(
                exp_id=exp.id, status="error", e_max={}, p_max={},
                p_grid_max=float("nan"), p_pv_max=float("nan"), breakdown=None,
                traces={}, objective=float("nan"), solve_seconds=0.0,
                error=str(exc))

    if jobs <= 1:
        results = [guarded(e) for e in experiments]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(guarded, experiments))
    return sorted(results, key=lambda r: r.exp_id)


def summary_columns(catalog_order: list[str]) -> list[str]:
    cols = ["exp_id"]
    cols += [f"e_max_mwh_{n}" for n in catalog_order]
    cols += [f"p_max_mw_{n}" for n in catalog_order]
    cols += ["p_grid_max_mw", "p_pv_max_mw"]
    cols += list(CostBreakdown.CSV_COLUMNS)
    cols += ["status"]
    return cols


def write_summary(results: list[DesignResult], catalog_order: list[str], path):
    """Stable-order CSV mirroring the result-table columns."""
    def fmt(v):
        return "" if v is None else f"{v:.10g}"

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(summary_columns(catalog_order))
        for r in results:
            row = [r.exp_id]
            row += [fmt(r.e_max.get(n, 0.0)) for n in catalog_order]
            row += [fmt(r.p_max.get(n, 0.0)) for n in catalog_order]
            row += [fmt(r.p_grid_max), fmt(r.p_pv_max)]
            if r.breakdown is not None:
                row += [fmt(v) for v in r.breakdown.as_csv_values()]
            else:
                row += [""] * len(CostBreakdown.CSV_COLUMNS)
            row.append(r.status)
            w.writerow(row)


def emit_traces(result: DesignResult, path):
    """Long-format CSV (step, series, value) for external plotting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        n = max((len(v) for v in result.traces.values()), default=0)
        for step in range(n):
            for series, values in result.traces.items():
                w.writerow([step, series, f"{values[step]:.10g}"])


def write_results_json(results: list[DesignResult], path):
    with open(path, "w") as fh:
        json.dump([r.as_dict() for r in results], fh, indent=2)


# -- configuration file ----------------------------------------------------

def sources_from_dict(raw: dict) -> SourceSpec:
    return SourceSpec(
        grid=GridSpec(**raw.get("grid", {})),
        pv=PvSpec(**raw.get("pv", {})),
        eta_demand=raw.get("eta_demand", 1.0),
    )


def load_run_config(path) -> dict:
    """Read the run configuration JSON; fill defaults, leave paths untouched."""
    with open(path) as fh:
        raw = json.load(fh)
    raw.setdefault("clusters", 20)
    raw.setdefault("seed", 0)
    raw.setdefault("horizon", {})
    raw.setdefault("sources", {})
    raw.setdefault("experiments",
                   [{"id": "1", "ess": ["battery"]},
                    {"id": "2", "ess": ["battery", "supercapacitor"]},
                    {"id": "3", "ess": ["battery", "flywheel"]},
                    {"id": "4", "ess": ["battery", "supercapacitor", "flywheel"]}])
    return raw


def context_from_config(cfg: dict, cache_dir=None) -> RunContext:
    """Load the catalog named in a config dict and the scenario: read from
    the JSON file under ``scenario`` if given, else synthesized from the
    historical data."""
    horizon = Horizon(**cfg["horizon"])
    sources = sources_from_dict(cfg["sources"])
    catalog = load_catalog(cfg["catalog"])
    if cfg.get("scenario"):
        with open(cfg["scenario"]) as fh:
            scenario = ScenarioModel.from_json(fh.read())
    else:
        days = load_dataset(cfg["prices"], cfg["demand"], cfg["pv"], horizon)
        scenario = cached_scenario(days, cfg["clusters"], horizon.t_syn,
                                   cfg["seed"], cache_dir)
    return RunContext(horizon=horizon, sources=sources, catalog=catalog,
                      scenario=scenario)


def experiments_from_config(cfg: dict) -> list[ExperimentConfig]:
    return [ExperimentConfig(id=str(e["id"]), ess_subset=tuple(e.get("ess", [])),
                             fixed=e.get("fixed", {}))
            for e in cfg["experiments"]]
