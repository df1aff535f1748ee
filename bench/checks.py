"""Correctness checks run after the timed part of every round.

Each check compares the program's outputs with a computation made here,
apart from the program, or with a property the method must have. None of
them compares against a stored copy of earlier output. A failed check
raises CheckError.
"""

from __future__ import annotations

import configparser
import csv
import math

import numpy as np
import scipy.optimize
import scipy.sparse as sp

TOL = 1e-6


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def rel_close(a: float, b: float, rel: float = TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def not_above(a: float, b: float, rel: float = TOL) -> bool:
    """a <= b, allowing a relative slack of `rel`."""
    return a <= b + rel * max(1.0, abs(b))


# -- inputs read independently of the program -------------------------------

def catalog_ceilings(path) -> dict[str, dict[str, float]]:
    """Energy and power ceilings (MWh, MW) and DoD floor per technology."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise CheckError(f"cannot read catalog {path}")
    return {name: {"e_max": float(sec["max_energy_kwh"]) / 1000.0,
                   "p_max": float(sec["max_power_kw"]) / 1000.0,
                   "dod": float(sec["dod_min_frac"])}
            for name, sec in parser.items() if name != parser.default_section}


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Long-format `step,series,value` CSV back into per-series arrays."""
    series: dict[str, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == ["step", "series", "value"],
                 f"{path}: unexpected trace header")
        for step, name, value in reader:
            series.setdefault(name, {})[int(step)] = float(value)
    out = {}
    for name, by_step in series.items():
        _require(sorted(by_step) == list(range(len(by_step))),
                 f"{path}: series {name} has missing steps")
        out[name] = np.array([by_step[k] for k in range(len(by_step))])
    return out


def read_summary(path) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        return {row["exp_id"]: row for row in csv.DictReader(fh)}


# -- one design ---------------------------------------------------------------

def check_balance(traces, eta_demand: float, where: str = ""):
    """Bus balance at every step: G + PV + sum(ess) = (CH + WH) / eta_demand."""
    supply = traces["source_G"] + traces["source_PV"]
    for name, values in traces.items():
        if name.startswith("ess_"):
            supply = supply + values
    demand = (traces["demand_CH"] + traces["demand_WH"]) / eta_demand
    gap = np.abs(supply - demand)
    worst = int(np.argmax(gap)) if len(gap) else 0
    _require(len(gap) and gap[worst] <= TOL,
             f"{where}: bus balance off by {gap[worst] if len(gap) else 'n/a'} "
             f"at step {worst}")


def check_soe(traces, e_max: dict[str, float], ceilings, where: str = ""):
    """Every state of energy lies in [dod * e_max, e_max]."""
    for name, cap in e_max.items():
        soe = traces[f"soe_{name}"]
        floor = ceilings[name]["dod"] * cap
        _require(np.all(soe >= floor - TOL) and np.all(soe <= cap + TOL),
                 f"{where}: soe_{name} leaves [{floor:.6g}, {cap:.6g}] "
                 f"(range {soe.min():.6g}..{soe.max():.6g})")


def check_sizes(design: dict, ceilings, grid_cap: float, pv_cap: float,
                where: str = ""):
    """Every sized value lies in [0, its catalog or contract ceiling]."""
    sized = [(f"e_max.{n}", v, ceilings[n]["e_max"])
             for n, v in design["e_max_mwh"].items()]
    sized += [(f"p_max.{n}", v, ceilings[n]["p_max"])
              for n, v in design["p_max_mw"].items()]
    sized += [("p_grid_max", design["p_grid_max_mw"], grid_cap),
              ("p_pv_max", design["p_pv_max_mw"], pv_cap)]
    for label, value, cap in sized:
        _require(-TOL <= value <= cap + TOL,
                 f"{where}: {label} = {value:.6g} outside [0, {cap:.6g}]")


def check_design(design: dict, traces, ceilings, grid_cap, pv_cap, eta_demand):
    """All per-design checks on one optimal result."""
    where = design["exp_id"]
    _require(design["status"] == "optimal" and "error" not in design,
             f"{where}: status {design['status']} {design.get('error', '')}")
    check_balance(traces, eta_demand, where)
    check_soe(traces, design["e_max_mwh"], ceilings, where)
    check_sizes(design, ceilings, grid_cap, pv_cap, where)


# -- across designs -----------------------------------------------------------

def check_summary_matches(summary: dict, results: list[dict]):
    """summary.csv totals equal the results.json objectives."""
    _require(set(summary) == {r["exp_id"] for r in results},
             "summary.csv and results.json list different designs")
    for r in results:
        total = float(summary[r["exp_id"]]["total_cost_keur"])
        _require(rel_close(total, r["objective_keur"]),
                 f"{r['exp_id']}: summary total {total} != objective "
                 f"{r['objective_keur']}")


def check_nested(cost: dict[str, float]):
    """A portfolio with more technologies never costs more than its subset."""
    for small, big in (("1_B", "2_BS"), ("1_B", "3_BF"),
                       ("2_BS", "4_BSF"), ("3_BF", "4_BSF")):
        if small in cost and big in cost:
            _require(not_above(cost[big], cost[small]),
                     f"{big} costs {cost[big]:.9g} > {small} {cost[small]:.9g}")


def check_monotone_in_ceiling(costs_by_cap: list[tuple[float, float]], where=""):
    """Raising the grid-contract ceiling never raises the optimal cost."""
    ordered = sorted(costs_by_cap)
    for (cap_a, a), (cap_b, b) in zip(ordered, ordered[1:]):
        _require(not_above(b, a),
                 f"{where}: cost {b:.9g} at ceiling {cap_b} exceeds "
                 f"{a:.9g} at ceiling {cap_a}")


# -- models -------------------------------------------------------------------

def csr_of(model) -> sp.csr_matrix:
    """Canonical CSR of a model's rows, assembled here from the row lists."""
    rows, cols, vals = [], [], []
    for i, row in enumerate(model.rows):
        rows.extend([i] * len(row.cols))
        cols.extend(row.cols)
        vals.extend(row.coefs)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(len(model.rows), len(model.lower)))
    a = a.tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return a


def objective_of(model) -> np.ndarray:
    c = np.zeros(len(model.lower))
    for col, coef in model.objective.items():
        c[col] += coef
    return c


def linprog_objective(model) -> float:
    """Optimal objective of `model` from scipy's HiGHS, posed here."""
    a = csr_of(model)
    senses = [r.sense for r in model.rows]
    rhs = np.array([r.rhs for r in model.rows])
    le = [i for i, s in enumerate(senses) if s == "<="]
    ge = [i for i, s in enumerate(senses) if s == ">="]
    eq = [i for i, s in enumerate(senses) if s == "=="]
    a_ub = sp.vstack([a[le], -a[ge]]) if le or ge else None
    b_ub = np.concatenate([rhs[le], -rhs[ge]]) if le or ge else None
    res = scipy.optimize.linprog(
        objective_of(model), A_ub=a_ub, b_ub=b_ub,
        A_eq=a[eq] if eq else None, b_eq=rhs[eq] if eq else None,
        bounds=list(zip(model.lower, model.upper)), method="highs")
    _require(res.status == 0, f"reference solve failed: {res.message}")
    return float(res.fun) + model.objective_constant


def check_models_equal(built, back):
    """The MPS read-back equals the built model exactly, field by field."""
    _require(list(built.col_names) == list(back.col_names), "column names differ")
    _require(np.array_equal(np.array(built.lower), np.array(back.lower)),
             "lower bounds differ")
    _require(np.array_equal(np.array(built.upper), np.array(back.upper)),
             "upper bounds differ")
    _require([r.name for r in built.rows] == [r.name for r in back.rows],
             "row names differ")
    _require([r.sense for r in built.rows] == [r.sense for r in back.rows],
             "row senses differ")
    _require(np.array_equal(np.array([r.rhs for r in built.rows]),
                            np.array([r.rhs for r in back.rows])),
             "right-hand sides differ")
    a, b = csr_of(built), csr_of(back)
    _require(a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
             and np.array_equal(a.indices, b.indices)
             and np.array_equal(a.data, b.data),
             f"constraint matrices differ ({a.nnz} vs {b.nnz} nonzeros, "
             f"{(a != b).nnz if a.shape == b.shape else 'n/a'} entries)")
    _require(np.array_equal(objective_of(built), objective_of(back)),
             "objective coefficients differ")
    _require(built.objective_constant == back.objective_constant,
             "objective constants differ")


def check_finite(model):
    """Every coefficient, right-hand side and bound is a finite number
    (bounds may also be +-inf)."""
    a = csr_of(model)
    _require(np.all(np.isfinite(a.data)), "non-finite matrix coefficient")
    _require(all(math.isfinite(r.rhs) for r in model.rows), "non-finite rhs")
    _require(np.all(np.isfinite(objective_of(model)))
             and math.isfinite(model.objective_constant),
             "non-finite objective coefficient")
    _require(not np.any(np.isnan(np.array(model.lower + model.upper))),
             "NaN bound")


def check_balance_rows(model, n_steps: int):
    """Exactly one bus balance row per time step."""
    names = sorted(r.name for r in model.rows if r.name.startswith("balance."))
    want = sorted(f"balance.k{k}" for k in range(n_steps))
    _require(names == want,
             f"{len(names)} balance rows, expected one per step ({n_steps})")
