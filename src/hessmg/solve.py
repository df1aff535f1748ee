"""Solver front end: solves a ModelInstance with scipy's HiGHS backend and
verifies solutions independently of the solver.

The dense embedded simplex stays as a reference engine that tests compare
HiGHS against (``SolveOptions(engine="simplex")``); nothing selects it by
default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .lp import EQ, GE, LE, ModelInstance
from . import simplex


@dataclass(frozen=True)
class SolveOptions:
    engine: str = "highs"       # highs | simplex (reference)
    feas_tol: float = 1e-7
    opt_tol: float = 1e-7
    max_iter: int | None = None


@dataclass
class Solution:
    status: str                 # optimal | infeasible | unbounded | iteration-limit
    x: np.ndarray               # structural variable values
    objective: float            # includes the model's constant term
    max_residual: float
    iterations: int
    wall_time: float
    engine: str

    @property
    def optimal(self) -> bool:
        return self.status == simplex.OPTIMAL

    def value(self, model: ModelInstance, kind, entity, step=None) -> float:
        return float(self.x[model.var(kind, entity, step).column])


def to_equality_form(model: ModelInstance):
    """Append one slack column per row: Ax = b with sense-encoded slack bounds."""
    m, n = model.n_rows, model.n_vars
    a = model.row_matrix().toarray()
    a_std = np.hstack([a, np.eye(m)])
    lower, upper = model.bounds_arrays()
    slack_lo = np.zeros(m)
    slack_hi = np.zeros(m)
    for i, row in enumerate(model.rows):
        if row.sense == LE:
            slack_hi[i] = np.inf
        elif row.sense == GE:
            slack_lo[i] = -np.inf
    c = np.concatenate([model.objective_vector(), np.zeros(m)])
    return (a_std, model.rhs_vector(),
            np.concatenate([lower, slack_lo]),
            np.concatenate([upper, slack_hi]), c, n)


def _solve_simplex(model, options):
    a, b, lo, hi, c, n = to_equality_form(model)
    status, x, obj, iters = simplex.simplex_solve(
        c, a, b, lo, hi, feas_tol=options.feas_tol, opt_tol=options.opt_tol,
        max_iter=options.max_iter)
    return status, x[:n], obj, iters


def _solve_highs(model, options):
    senses = model.senses()
    a = model.row_matrix().tocsr()
    rhs = model.rhs_vector()
    le_rows = [i for i, s in enumerate(senses) if s == LE]
    ge_rows = [i for i, s in enumerate(senses) if s == GE]
    eq_rows = [i for i, s in enumerate(senses) if s == EQ]
    a_ub = sp.vstack([a[le_rows], -a[ge_rows]]) if le_rows or ge_rows else None
    b_ub = np.concatenate([rhs[le_rows], -rhs[ge_rows]]) if a_ub is not None else None
    a_eq = a[eq_rows] if eq_rows else None
    b_eq = rhs[eq_rows] if eq_rows else None
    lower, upper = model.bounds_arrays()
    highs_options = {"primal_feasibility_tolerance": options.feas_tol,
                     "dual_feasibility_tolerance": options.opt_tol}
    if options.max_iter is not None:
        highs_options["maxiter"] = options.max_iter
    res = scipy.optimize.linprog(
        model.objective_vector(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lower, upper]), method="highs",
        options=highs_options)
    status = {0: simplex.OPTIMAL, 1: simplex.ITERATION_LIMIT,
              2: simplex.INFEASIBLE, 3: simplex.UNBOUNDED}.get(res.status, res.message)
    x = res.x if res.x is not None else np.zeros(model.n_vars)
    obj = float(res.fun) if res.fun is not None else float("nan")
    iters = int(getattr(res, "nit", 0))
    return status, x, obj, iters


def solve(model: ModelInstance, options: SolveOptions | None = None) -> Solution:
    """Solve to proven optimality; deterministic for a fixed model+options."""
    options = options or SolveOptions()
    engine = options.engine
    if engine not in ("simplex", "highs"):
        raise ValueError(f"unknown engine {engine!r}")
    start = time.perf_counter()
    if engine == "simplex":
        status, x, obj, iters = _solve_simplex(model, options)
    else:
        status, x, obj, iters = _solve_highs(model, options)
    elapsed = time.perf_counter() - start
    resid = max_primal_residual(model, x) if status == simplex.OPTIMAL else float("nan")
    return Solution(status=status, x=np.asarray(x),
                    objective=obj + model.objective_constant,
                    max_residual=resid, iterations=iters,
                    wall_time=elapsed, engine=engine)


def max_primal_residual(model: ModelInstance, x) -> float:
    """Largest constraint or bound violation of a candidate point."""
    act = model.row_activities(x)
    rhs = model.rhs_vector()
    worst = 0.0
    for i, row in enumerate(model.rows):
        if row.sense == LE:
            worst = max(worst, act[i] - rhs[i])
        elif row.sense == GE:
            worst = max(worst, rhs[i] - act[i])
        else:
            worst = max(worst, abs(act[i] - rhs[i]))
    lower, upper = model.bounds_arrays()
    x = np.asarray(x)
    worst = max(worst, float(np.max(np.maximum(lower - x, 0.0), initial=0.0)))
    worst = max(worst, float(np.max(np.maximum(x - upper, 0.0), initial=0.0)))
    return worst


@dataclass
class VerifyReport:
    """Independent feasibility scan of a solution, grouped by row family."""

    family_violation: dict[str, float]
    worst_row: dict[str, str]
    bound_violation: float
    complementarity: dict[tuple, float]  # (entity, step) -> product of +/- pair

    @property
    def max_violation(self) -> float:
        vals = list(self.family_violation.values()) + [self.bound_violation]
        return max(vals) if vals else 0.0

    @property
    def max_complementarity(self) -> float:
        return max(self.complementarity.values()) if self.complementarity else 0.0


def verify(model: ModelInstance, x) -> VerifyReport:
    """Recompute every row activity and the import/export product pairs.

    Report-only: nothing here reuses the solver's residuals or objective.
    """
    x = np.asarray(x)
    act = model.row_activities(x)
    family_violation: dict[str, float] = {}
    worst_row: dict[str, str] = {}
    for i, row in enumerate(model.rows):
        if row.sense == LE:
            v = act[i] - row.rhs
        elif row.sense == GE:
            v = row.rhs - act[i]
        else:
            v = abs(act[i] - row.rhs)
        v = max(v, 0.0)
        if v > family_violation.get(row.family, -1.0):
            family_violation[row.family] = v
            worst_row[row.family] = row.name
        else:
            family_violation.setdefault(row.family, v)
            worst_row.setdefault(row.family, row.name)

    lower, upper = model.bounds_arrays()
    bound_violation = float(max(
        np.max(np.maximum(lower - x, 0.0), initial=0.0),
        np.max(np.maximum(x - upper, 0.0), initial=0.0)))

    complementarity = {}
    for ref in model.variables():
        if ref.kind == "P_src_plus":
            other = model.var("P_src_minus", ref.entity, ref.step)
            complementarity[(ref.entity, ref.step)] = float(
                x[ref.column] * x[other.column])
        elif ref.kind == "P_ess_plus":
            other = model.var("P_ess_minus", ref.entity, ref.step)
            complementarity[(ref.entity, ref.step)] = float(
                x[ref.column] * x[other.column])
    return VerifyReport(family_violation, worst_row, bound_violation, complementarity)
