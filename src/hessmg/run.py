"""End-to-end orchestration: ingest -> synthesize -> build -> solve -> audit,
plus the storage-combination experiment matrix and file outputs.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import copy
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .builder import GRID, PV, ProblemData, build, design_pins
from .costs import AUDIT_REL_TOL, CostBreakdown, audit
from .data import (INTEGER, NUMBER, OBJECT, SERIES, STRING, EssSpec, GridSpec, Horizon,
                   HistoricalDay, JsonType, PvSpec, SourceSpec, check_object,
                   list_of, load_catalog, load_dataset, not_utf8)
from .scenario import ScenarioModel, build_scenario
from .solve import OPTIMAL, VerifyReport, solve as solve_model, verify

TRACE_HEADER = ("step", "series", "value")


@dataclass(frozen=True)
class ExperimentConfig:
    """One row of the experiment matrix: which storage technologies to allow."""

    id: str
    ess_subset: tuple[str, ...]
    fixed: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if set("/\\\0") & set(self.id):
            raise ValueError(f"experiment id {self.id!r} holds '/', '\\' or NUL, "
                             "but it names the file traces_<id>.csv")


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
    warnings: list[str] = field(default_factory=list)
    optimum_from: str | None = None  # id of the design whose optimum this one took

    @classmethod
    def failed(cls, exp_id, status, error, solve_seconds=0.0) -> "DesignResult":
        """A design without a solution: no sizes, costs or traces."""
        return cls(exp_id=exp_id, status=status, e_max={}, p_max={}, p_grid_max=math.nan,
                   p_pv_max=math.nan, breakdown=None, traces={}, objective=math.nan,
                   solve_seconds=solve_seconds, error=error)

    def record(self):
        """The design's results.json record; its traces go to traces_<id>.csv alone."""
        out = {
            "exp_id": self.exp_id,
            "status": self.status,
            "e_max_mwh": self.e_max,
            "p_max_mw": self.p_max,
            "p_grid_max_mw": self.p_grid_max,
            "p_pv_max_mw": self.p_pv_max,
            "objective_keur": self.objective,
            "solve_seconds": self.solve_seconds,
            "optimum_from": self.optimum_from,
        }
        if self.breakdown is not None:
            out["costs"] = self.breakdown.as_dict()
        if self.error:
            out["error"] = self.error
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return _json_ready(out)

    def as_dict(self):
        """``record()`` plus every trace as a list: the whole result as one dict."""
        return {**self.record(), "traces": {k: v.tolist() for k, v in self.traces.items()}}


def _reported(value: float | None) -> float | None:
    """A number as outputs write it: -0.0 as 0.0, and None (an empty CSV cell,
    JSON null) for one the design does not have (None, NaN or infinite)."""
    return None if value is None or not math.isfinite(value) else value + 0.0


def _json_ready(value):
    """`value` with every float, also inside dicts, ``_reported``."""
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return _reported(value) if isinstance(value, float) else value


def _cell(value: float | None) -> str:
    """A CSV cell holding a ``_reported`` number."""
    value = _reported(value)
    return "" if value is None else f"{value:.10g}"


@dataclass
class RunContext:
    """Shared inputs for a batch of experiments: one scenario, one catalog."""

    horizon: Horizon
    sources: SourceSpec
    catalog: dict[str, EssSpec]
    scenario: ScenarioModel


def scenario_cache_key(days: list[HistoricalDay], w: int, t_syn: int, seed: int) -> str:
    """Digest of the scenario file layout (a tag: a cache file of an older
    layout is rebuilt), the historical data and the synthesis parameters."""
    h = hashlib.sha256()
    h.update(f"scenario-v2;w={w};t={t_syn};seed={seed};".encode())
    for day in days:
        h.update(day.date.isoformat().encode())
        for name in SERIES:
            h.update(np.ascontiguousarray(getattr(day, name)).tobytes())
    return h.hexdigest()[:16]


def write_whole(path, text: str):
    """Write `text` to `path` whole or not at all: into a temporary file
    beside it, renamed onto it."""
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "w") as fh:
            fh.write(text)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def cached_scenario(days, w, t_syn, seed, cache_dir=None) -> ScenarioModel:
    """Build (or reload) the scenario; cache keyed by data hash + parameters,
    each file ``write_whole``."""
    if cache_dir is None:
        return build_scenario(days, w, t_syn, seed)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir,
                        f"scenario-{scenario_cache_key(days, w, t_syn, seed)}.json")
    if os.path.exists(path):
        return _read_json(path, ScenarioModel.from_json)
    model = build_scenario(days, w, t_syn, seed)
    write_whole(path, model.to_json())
    return model


def extract_traces(x, model, data: ProblemData) -> dict[str, np.ndarray]:
    """Plot-ready per-step series for demands, sources, storage, and SoE."""
    k_steps = data.horizon.n_steps
    grid = data.sources.grid

    def series(kind, entity):
        return x[model.columns(kind, entity)[:k_steps]]

    imports = series("P_src_plus", GRID)
    exports = series("P_src_minus", GRID)
    traces = {
        "demand_CH": data.demand_ch.copy(),
        "demand_WH": data.demand_wh.copy(),
        "source_G": grid.eta_c * imports - exports / grid.eta_d,
        "source_PV": series("P_pv", PV),
    }
    for name in data.ess:
        traces[f"ess_{name}"] = series("P_ess_plus", name) - series("P_ess_minus", name)
        traces[f"soe_{name}"] = series("E_soe", name)
    return traces


PAIR_TOL = 1e-6      # largest product of a +/- pair that counts as unpaired
PAIR_STEPS_SHOWN = 5  # offending steps a paired-flow warning lists
BOUND_SNAP = 1e-9    # reported design values this close to a bound sit on it
VIOLATION_TOL = 1e-6  # largest verify violation of a design reported without error


def paired_flow_warnings(report: VerifyReport) -> list[str]:
    """One line per pair of ``report.pair_products`` whose two flows are
    nonzero together at some step. The gross converter rows forbid pairing
    at full rating but not below it, where the optimum can still use it to
    dump energy as conversion losses."""
    out = []
    for (entity, flows), products in report.pair_products.items():
        steps = np.flatnonzero(products > PAIR_TOL)
        if len(steps):
            shown = ", ".join(map(str, steps[:PAIR_STEPS_SHOWN].tolist()))
            more = (f" and {len(steps) - PAIR_STEPS_SHOWN} more"
                    if len(steps) > PAIR_STEPS_SHOWN else "")
            out.append(f"{entity}: simultaneous {flows} at steps {shown}{more} "
                       f"(largest product {products.max():.3g})")
    return out


def _design_values(model, x, kind, names) -> dict[str, float]:
    """Reported design values: within BOUND_SNAP of a column bound they are
    that bound."""
    cols = [model.var(kind, n) for n in names]
    lower, upper = model.bounds_arrays()
    v, lo, hi = x[cols], lower[cols], upper[cols]
    v = np.where(np.abs(v - lo) <= BOUND_SNAP, lo, np.where(np.abs(v - hi) <= BOUND_SNAP, hi, v))
    return dict(zip(names, v.tolist()))


def problem_data(ctx: RunContext, exp: ExperimentConfig) -> ProblemData:
    """The model inputs of one experiment: the context's scenario with the
    experiment's storage technologies, each of which the catalog must hold."""
    unknown = set(exp.ess_subset) - set(ctx.catalog)
    if unknown:
        raise ValueError(f"{exp.id}: technologies not in catalog: {sorted(unknown)}")
    ess = {name: ctx.catalog[name] for name in exp.ess_subset}
    return ProblemData.from_scenario(ctx.scenario, ctx.horizon, ctx.sources, ess)


@dataclass(frozen=True)
class Optimum:
    """The point of an optimal, error-free design, kept while
    ``run_experiments`` runs so that a design with a subset of its
    technologies can take it."""

    exp_id: str
    x: np.ndarray
    columns: dict[str, int]  # column name -> its index in `x`
    objective: float


def _restricted(model, donor: Optimum) -> np.ndarray | None:
    """`donor`'s point on the columns of `model`, matched by name; None
    unless the donor has every column of `model` and each donor column
    that `model` lacks is exactly 0."""
    try:
        cols = np.fromiter(map(donor.columns.__getitem__, model.col_names), np.int64,
                           model.n_vars)
    except KeyError:
        return None
    dropped = np.ones(len(donor.x), dtype=bool)
    dropped[cols] = False
    return None if np.any(donor.x[dropped] != 0.0) else donor.x[cols]


def _taken_optimum(model, donors) -> tuple[str, np.ndarray, float] | None:
    """(donor id, point, objective) of the first of `donors` whose
    ``_restricted`` point has an objective in `model` within AUDIT_REL_TOL
    of the donor's; None when no donor gives one."""
    for donor in donors:
        x = _restricted(model, donor)
        if x is None:
            continue
        objective = float(model.objective_vector() @ x) + model.objective_constant
        if abs(objective - donor.objective) <= AUDIT_REL_TOL * max(1.0, abs(donor.objective)):
            return donor.exp_id, x, objective
    return None


def run_one(ctx: RunContext, exp: ExperimentConfig, data: ProblemData | None = None,
            donors=(), optima: dict | None = None) -> DesignResult:
    """Build, solve, verify and audit a single experiment; `data` is its
    ``problem_data`` when the caller has made that already.

    `donors` are ``Optimum``s of designs whose technologies contain this
    one's, with its pins. The design takes the point of the first that
    leaves every technology it lacks at exactly 0 and whose objective it
    keeps within AUDIT_REL_TOL (``run_experiments`` says why that point is
    optimal); it reports ``optimum_from`` that donor and ``solve_seconds``
    0.0. Otherwise HiGHS solves it. Either way the point is verified and
    audited in this design's own model. An optimal, error-free design puts
    its ``Optimum`` into `optima` under its id when that is given.
    """
    if data is None:
        data = problem_data(ctx, exp)
    model = build(data, fixed=exp.fixed or None)
    taken = _taken_optimum(model, donors)
    if taken is not None:
        donor, x, objective = taken
        seconds = 0.0
    else:
        sol = solve_model(model)
        if not sol.optimal:
            return DesignResult.failed(exp.id, sol.status, f"solver status {sol.status}",
                                       sol.wall_time)
        donor, x, objective, seconds = None, sol.x, sol.objective, sol.wall_time
    report = verify(model, x)
    breakdown = audit(x, model, data, solver_objective=objective)
    sources = _design_values(model, x, "P_max_src", [GRID, PV])
    result = DesignResult(
        exp_id=exp.id, status=OPTIMAL,
        e_max=_design_values(model, x, "E_max", list(data.ess)),
        p_max=_design_values(model, x, "P_max_ess", list(data.ess)),
        p_grid_max=sources[GRID], p_pv_max=sources[PV],
        breakdown=breakdown, traces=extract_traces(x, model, data),
        objective=objective, solve_seconds=seconds,
        error=None if report.max_violation <= VIOLATION_TOL else
        f"feasibility check: violation {report.max_violation:.3g}",
        warnings=paired_flow_warnings(report), optimum_from=donor)
    if optima is not None and result.error is None:
        optima[exp.id] = Optimum(exp.id, x, dict(zip(model.col_names, range(model.n_vars))),
                                 objective)
    return result


def run_experiments(ctx: RunContext, experiments: list[ExperimentConfig],
                    jobs: int = 1) -> list[DesignResult]:
    """Run the matrix; sorted by id. An input fault of any experiment (a
    technology the catalog lacks) raises before the first design is solved;
    a failure while solving is isolated to its experiment's result.

    Experiments run in levels of decreasing technology count, each level
    through the pool of `jobs` threads. A design's donors are the optimal,
    error-free designs of earlier levels whose technologies contain its
    own and whose pins equal its own, fewest technologies first, then by
    id, so any `jobs` gives the same results; ``run_one`` takes the first
    donor point that leaves every technology it lacks at exactly 0. That
    point is optimal. Every row that names a technology holds when all of
    that technology's columns are 0, and no cost term of a technology is
    independent of its size. So the zero-extension of any subset point is
    feasible for the superset at the same cost, and the subset's optimum
    costs at least the superset's. A restricted point that is feasible and
    reaches that cost is therefore optimal. Donor points are dropped when
    this call returns.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if len({e.id for e in experiments}) != len(experiments):
        raise ValueError("experiment ids must be unique")
    data = {exp.id: problem_data(ctx, exp) for exp in experiments}
    techs = {exp.id: frozenset(exp.ess_subset) for exp in experiments}
    fixed = {exp.id: exp.fixed for exp in experiments}
    optima: dict[str, Optimum] = {}

    def donors(exp):
        fits = [o for o in optima.values()
                if techs[exp.id] <= techs[o.exp_id] and fixed[exp.id] == fixed[o.exp_id]]
        return sorted(fits, key=lambda o: (len(techs[o.exp_id]), o.exp_id))

    def guarded(exp, offered):
        try:
            return run_one(ctx, exp, data[exp.id], offered, optima)
        except Exception as exc:  # isolate per-experiment failures
            return DesignResult.failed(exp.id, "error", str(exc))

    results = []
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        for size in sorted({len(t) for t in techs.values()}, reverse=True):
            level = [e for e in experiments if len(techs[e.id]) == size]
            offered = [donors(e) for e in level]  # before any design of this level ends
            results += (pool.map if pool else map)(guarded, level, offered)
    return sorted(results, key=lambda r: r.exp_id)


def summary_columns(catalog_order: list[str]) -> list[str]:
    return ["exp_id", *(f"e_max_mwh_{n}" for n in catalog_order),
            *(f"p_max_mw_{n}" for n in catalog_order), "p_grid_max_mw", "p_pv_max_mw",
            *CostBreakdown.CSV_COLUMNS, "status"]


def write_summary(results: list[DesignResult], catalog_order: list[str], path):
    """Stable-order CSV mirroring the result-table columns."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        columns = summary_columns(catalog_order)
        w.writerow(columns)
        for r in results:
            values = [None] * (len(columns) - 2)  # a failed design has no numbers
            if r.breakdown is not None:  # a technology outside the subset has size 0
                values = [*(r.e_max.get(n, 0.0) for n in catalog_order),
                          *(r.p_max.get(n, 0.0) for n in catalog_order),
                          r.p_grid_max, r.p_pv_max, *r.breakdown.as_csv_values()]
            w.writerow([r.exp_id, *map(_cell, values), r.status])


def _csv_field(text: str) -> str:
    """`text` as a field of ``csv.writer``'s default dialect: quoted, with
    its quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_traces(result: DesignResult, path):
    """Long-format CSV (step, series, value) for external plotting, in
    ``csv.writer``'s default dialect (``\r\n`` line ends), made in memory
    and written at once. A value is its ``_cell``: -0.0 as 0, NaN and
    infinities as an empty cell, anything else as ``%.10g``."""
    names = [f",{_csv_field(name)}," for name in result.traces]
    values = np.atleast_2d(np.array(list(result.traces.values()), dtype=float))
    n = values.shape[1]
    values = values.T.ravel() + 0.0    # step-major: every series at step 0, then step 1
    cells = list(map("%.10g".__mod__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = ""
    steps = [step for step in map(str, range(n)) for _ in names]
    lines = [step + name + cell for step, name, cell in zip(steps, names * n, cells)]
    header = ",".join(map(_csv_field, TRACE_HEADER))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *lines]) + "\r\n")


def write_results_json(results: list[DesignResult], path):
    with open(path, "w") as fh:
        json.dump([r.record() for r in results], fh, indent=2, allow_nan=False)


def write_outputs(results: list[DesignResult], catalog_order: list[str], out_dir):
    """The output files of every solving command: summary.csv, results.json
    and traces_<id>.csv per design, in `out_dir`."""
    os.makedirs(out_dir, exist_ok=True)
    write_summary(results, catalog_order, os.path.join(out_dir, "summary.csv"))
    write_results_json(results, os.path.join(out_dir, "results.json"))
    for r in results:
        emit_traces(r, os.path.join(out_dir, f"traces_{r.exp_id}.csv"))


# -- configuration file ----------------------------------------------------

# run config field -> its JSON type
_CONFIG_FIELDS = {
    "prices": STRING, "demand": STRING, "pv": STRING, "catalog": STRING, "scenario": STRING,
    "clusters": INTEGER, "horizon": OBJECT, "sources": OBJECT,
    "seed": JsonType("a non-negative integer", lambda v: INTEGER.check(v) and v >= 0),
    "experiments": list_of("a list of objects", OBJECT),
}
_SOURCES_FIELDS = {"grid": OBJECT, "pv": OBJECT, "eta_demand": NUMBER}
_EXPERIMENT_FIELDS = {
    "id": JsonType("an integer or a string", lambda v: INTEGER.check(v) or STRING.check(v)),
    "ess": list_of("a list of strings", STRING),
    "fixed": JsonType("an object of numbers", lambda value: OBJECT.check(value)
                      and all(map(NUMBER.check, value.values()))),
}


def _spec_fields(cls) -> dict:
    """The fields of a settings dataclass: integers where it declares int."""
    return {f.name: INTEGER if f.type in (int, "int") else NUMBER for f in fields(cls)}


# what a run config leaves unset; "experiments" is the paper's storage matrix
RUN_DEFAULTS = {
    "clusters": 20, "seed": 0, "horizon": {}, "sources": {},
    "experiments": [{"id": "1", "ess": ["battery"]},
                    {"id": "2", "ess": ["battery", "supercapacitor"]},
                    {"id": "3", "ess": ["battery", "flywheel"]},
                    {"id": "4", "ess": ["battery", "supercapacitor", "flywheel"]}],
}


def _read_json(path, parse=json.loads):
    """`parse` applied to the text of the JSON file at `path`; a file that
    is not UTF-8 text or not JSON raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise ValueError(not_utf8(path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


def load_run_config(path) -> dict:
    """Read the run configuration JSON and pass it through ``run_config``."""
    return run_config(_read_json(path), path)


def run_config(raw: dict, path) -> dict:
    """`raw` with RUN_DEFAULTS filled in; paths are left untouched. A field
    that no setting takes, or that has another JSON type, an experiment
    without an id, and a pin that is not one of the experiment's
    ``design_pins`` raise ValueError naming it and `path`."""
    check_object(raw, _CONFIG_FIELDS, path)
    check_object(raw.get("horizon", {}), _spec_fields(Horizon), path, "horizon.")
    sources = raw.get("sources", {})
    check_object(sources, _SOURCES_FIELDS, path, "sources.")
    check_object(sources.get("grid", {}), _spec_fields(GridSpec), path, "sources.grid.")
    check_object(sources.get("pv", {}), _spec_fields(PvSpec), path, "sources.pv.")
    for i, exp in enumerate(raw.get("experiments", [])):
        check_object(exp, _EXPERIMENT_FIELDS, path, f"experiments[{i}].", required=("id",))
        pins = design_pins(exp.get("ess", []))
        for pin in exp.get("fixed", {}):
            if pin not in pins:
                raise ValueError(f"{path}: experiments[{i}].fixed: unknown pin {pin!r}; "
                                 f"this experiment has {', '.join(pins)}")
    return {**copy.deepcopy(RUN_DEFAULTS), **raw}


def synthesize(cfg: dict, cache_dir=None) -> tuple[Horizon, ScenarioModel]:
    """The config's horizon and the scenario synthesized from its
    historical data, cached under `cache_dir` if given."""
    horizon = Horizon(**cfg["horizon"])
    days = load_dataset(cfg["prices"], cfg["demand"], cfg["pv"], horizon)
    return horizon, cached_scenario(days, cfg["clusters"], horizon.t_syn, cfg["seed"], cache_dir)


def context_from_config(cfg: dict, cache_dir=None) -> RunContext:
    """Load the catalog named in a config dict and the scenario: read from
    the JSON file under ``scenario`` if given, else ``synthesize``d from the
    historical data. With a scenario file, a horizon field the config leaves
    unset comes from the scenario: ``t_syn`` is its sequence length and
    ``tau_minutes`` follows from its steps per day."""
    raw = cfg["sources"]
    sources = SourceSpec(**{**raw, "grid": GridSpec(**raw.get("grid", {})),
                            "pv": PvSpec(**raw.get("pv", {}))})
    catalog = load_catalog(cfg["catalog"])
    if "scenario" in cfg:
        scenario = _read_json(cfg["scenario"], ScenarioModel.from_json)
        horizon = Horizon(**{"t_syn": len(scenario.sequence),
                             "tau_minutes": 1440 // len(scenario.representatives[0].price),
                             **cfg["horizon"]})
    else:
        horizon, scenario = synthesize(cfg, cache_dir)
    return RunContext(horizon=horizon, sources=sources, catalog=catalog, scenario=scenario)


def experiments_from_config(cfg: dict) -> list[ExperimentConfig]:
    return [ExperimentConfig(id=str(e["id"]), ess_subset=tuple(e.get("ess", [])),
                             fixed=e.get("fixed", {}))
            for e in cfg["experiments"]]
