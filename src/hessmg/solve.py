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

from .lp import EQ, GE, LE, SENSES, ModelInstance


# Solution.status; HiGHS may also end with a message of its own
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

FEAS_TOL = 1e-7     # primal feasibility tolerance of both engines
OPT_TOL = 1e-7      # dual feasibility (optimality) tolerance of both engines


@dataclass(frozen=True)
class SolveOptions:
    engine: str = "highs"       # highs | simplex (reference)


@dataclass
class Solution:
    status: str                 # optimal | infeasible | unbounded | iteration-limit
    x: np.ndarray               # structural variable values
    objective: float            # includes the model's constant term
    iterations: int
    wall_time: float
    engine: str

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    def value(self, model: ModelInstance, kind, entity, step=None) -> float:
        return float(self.x[model.var(kind, entity, step)])


def to_equality_form(model: ModelInstance):
    """Append one slack column per row: Ax = b with sense-encoded slack bounds."""
    m, n = model.n_rows, model.n_vars
    a = model.row_matrix().toarray()
    a_std = np.hstack([a, np.eye(m)])
    lower, upper = model.bounds_arrays()
    codes = model.sense_codes()
    slack_lo = np.where(codes == SENSES.index(GE), -np.inf, 0.0)
    slack_hi = np.where(codes == SENSES.index(LE), np.inf, 0.0)
    c = np.concatenate([model.objective_vector(), np.zeros(m)])
    return (a_std, model.rhs_vector(),
            np.concatenate([lower, slack_lo]),
            np.concatenate([upper, slack_hi]), c, n)


def _solve_simplex(model):
    from . import simplex  # the reference engine, loaded only when selected

    a, b, lo, hi, c, n = to_equality_form(model)
    status, x, obj, iters = simplex.simplex_solve(
        c, a, b, lo, hi, feas_tol=FEAS_TOL, opt_tol=OPT_TOL)
    return status, x[:n], obj, iters


def _row_violations(model: ModelInstance, x) -> np.ndarray:
    """Per-row violation of a point: how far each row misses its sense."""
    gap = model.row_matrix() @ x - model.rhs_vector()
    codes = model.sense_codes()
    gap[codes == SENSES.index(GE)] *= -1.0
    eq = codes == SENSES.index(EQ)
    gap[eq] = np.abs(gap[eq])
    return gap


def _bound_violation(model: ModelInstance, x) -> float:
    lower, upper = model.bounds_arrays()
    return float(max(np.max(np.maximum(lower - x, 0.0), initial=0.0),
                     np.max(np.maximum(x - upper, 0.0), initial=0.0)))


def _solve_highs(model):
    a = model.row_matrix()
    rhs = model.rhs_vector()
    codes = model.sense_codes()
    le_rows, eq_rows, ge_rows = (np.flatnonzero(codes == i) for i in range(len(SENSES)))
    a_ub = sp.vstack([a[le_rows], -a[ge_rows]]) if len(le_rows) or len(ge_rows) else None
    b_ub = np.concatenate([rhs[le_rows], -rhs[ge_rows]]) if a_ub is not None else None
    a_eq = a[eq_rows] if len(eq_rows) else None
    b_eq = rhs[eq_rows] if len(eq_rows) else None
    lower, upper = model.bounds_arrays()
    res = scipy.optimize.linprog(
        model.objective_vector(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lower, upper]), method="highs",
        options={"primal_feasibility_tolerance": FEAS_TOL,
                 "dual_feasibility_tolerance": OPT_TOL})
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}.get(
        res.status, res.message)
    x = res.x if res.x is not None else np.zeros(model.n_vars)
    obj = float(res.fun) if res.fun is not None else float("nan")
    iters = int(getattr(res, "nit", 0))
    return status, x, obj, iters


def solve(model: ModelInstance, options: SolveOptions | None = None) -> Solution:
    """Solve to proven optimality; deterministic for a fixed model+options."""
    engine = (options or SolveOptions()).engine
    engines = {"highs": _solve_highs, "simplex": _solve_simplex}
    if engine not in engines:
        raise ValueError(f"unknown engine {engine!r}")
    start = time.perf_counter()
    status, x, obj, iters = engines[engine](model)
    elapsed = time.perf_counter() - start
    return Solution(status=status, x=np.asarray(x),
                    objective=obj + model.objective_constant, iterations=iters,
                    wall_time=elapsed, engine=engine)


def max_primal_residual(model: ModelInstance, x) -> float:
    """Largest constraint or bound violation of a candidate point:
    ``verify``'s ``max_violation``."""
    return verify(model, x).max_violation


@dataclass
class VerifyReport:
    """Independent feasibility scan of a solution, grouped by row family."""

    family_violation: dict[str, float]
    worst_row: dict[str, str]
    bound_violation: float
    pair_products: dict[tuple[str, str], np.ndarray]  # (entity, PAIRS flows) -> product

    @property
    def max_violation(self) -> float:
        return max([self.bound_violation, *self.family_violation.values()])

    @property
    def max_complementarity(self) -> float:
        return max((float(p.max(initial=0.0)) for p in self.pair_products.values()),
                   default=0.0)


# (plus kind, minus kind) -> the two flows, which should not both be nonzero at a step
PAIRS = {("P_src_plus", "P_src_minus"): "import and export",
         ("P_ess_plus", "P_ess_minus"): "charge and discharge"}


def verify(model: ModelInstance, x) -> VerifyReport:
    """Recompute every row activity and each converter's ``PAIRS`` products.

    Report-only: nothing here reuses the solver's residuals or objective.
    """
    x = np.asarray(x)
    violation = np.maximum(_row_violations(model, x), 0.0)
    codes = model.family_codes()
    family_violation: dict[str, float] = {}
    worst_row: dict[str, str] = {}
    for f, family in enumerate(model.families):
        rows = np.flatnonzero(codes == f)
        worst = rows[np.argmax(violation[rows])]
        family_violation[family] = float(violation[worst])
        worst_row[family] = model.row_names[worst]

    pair_products = {}
    for (plus, minus), words in PAIRS.items():
        for entity in model.entities(plus):
            pair_products[entity, words] = (x[model.columns(plus, entity)]
                                            * x[model.columns(minus, entity)])
    return VerifyReport(family_violation, worst_row, _bound_violation(model, x),
                        pair_products)
