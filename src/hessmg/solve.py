"""Solver front end: solves a ModelInstance with HiGHS and verifies solutions
independently of the solver.

A model reaches HiGHS through SciPy's bundled bindings
(``scipy.optimize._highspy._core``, the module behind SciPy's own
``method="highs"`` LP function): a fresh ``Highs`` per solve, with the
options that function sets, takes the model through the pointer overload of
``passModel``, which reads the NumPy buffers (the CSR row matrix with int32
indices, each row as its ``row_bounds`` pair) without a Python-level copy.
Rows go in that function's order, all ``<=`` then ``>=`` then ``==``,
because HiGHS's pivots, and so its optimum and iteration count, follow the
row order; the permuted CSR is gathered with NumPy from the model's one
cached CSR. SciPy's LP function stays only as an independent reference in
the tests and the benchmark's checks.

The dense embedded simplex stays as a reference engine that tests compare
HiGHS against (``SolveOptions(engine="simplex")``); nothing selects it by
default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs

from .lp import EQ, GE, LE, ModelInstance


# Solution.status; HiGHS may also end with a message of its own
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

FEAS_TOL = 1e-7     # primal feasibility tolerance of both engines
OPT_TOL = 1e-7      # dual feasibility (optimality) tolerance of both engines

# the HiGHS options SciPy's method="highs" LP function sets away from their defaults
_HIGHS_OPTIONS = {"output_flag": False, "presolve": "on",
                  "primal_feasibility_tolerance": FEAS_TOL,
                  "dual_feasibility_tolerance": OPT_TOL}
_HIGHS_STATUS = {highs.HighsModelStatus.kOptimal: OPTIMAL,
                 highs.HighsModelStatus.kInfeasible: INFEASIBLE,
                 highs.HighsModelStatus.kUnbounded: UNBOUNDED,
                 highs.HighsModelStatus.kIterationLimit: ITERATION_LIMIT}
_HIGHS_ROW_RANK = np.argsort([LE, GE, EQ])    # sense code -> place in SciPy's LP row order


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
    """Append one slack column per row: Ax + s = b, s in [b - upper, b - lower]."""
    m, n = model.n_rows, model.n_vars
    a = model.row_matrix().toarray()
    a_std = np.hstack([a, np.eye(m)])
    lower, upper = model.bounds_arrays()
    rhs = model.rhs_vector()
    row_lower, row_upper = model.row_bounds()
    c = np.concatenate([model.objective_vector(), np.zeros(m)])
    return (a_std, rhs,
            np.concatenate([lower, rhs - row_upper]),
            np.concatenate([upper, rhs - row_lower]), c, n)


def _solve_simplex(model):
    from . import simplex  # the reference engine, loaded only when selected

    a, b, lo, hi, c, n = to_equality_form(model)
    status, x, obj, iters = simplex.simplex_solve(
        c, a, b, lo, hi, feas_tol=FEAS_TOL, opt_tol=OPT_TOL)
    return status, x[:n], obj, iters


def _row_violations(model: ModelInstance, x) -> np.ndarray:
    """Per-row violation of a point: how far Ax lies outside the row bounds."""
    activity = model.row_matrix() @ x
    lower, upper = model.row_bounds()
    return np.maximum(lower - activity, activity - upper)


def _bound_violation(model: ModelInstance, x) -> float:
    lower, upper = model.bounds_arrays()
    return float(max(np.max(np.maximum(lower - x, 0.0), initial=0.0),
                     np.max(np.maximum(x - upper, 0.0), initial=0.0)))


def _solve_highs(model):
    # SciPy's LP row order (all <=, then >=, then ==) keeps HiGHS's pivots, and so
    # every optimum and iteration count, as they were through that function
    order = np.argsort(_HIGHS_ROW_RANK[model.sense_codes()], kind="stable")
    a = model.row_matrix()
    counts = (a.indptr[1:] - a.indptr[:-1])[order]
    start = np.zeros(model.n_rows + 1, dtype=np.int32)
    np.cumsum(counts, out=start[1:])
    take = np.repeat(a.indptr[order] - start[:-1], counts) + np.arange(a.nnz)
    row_lower, row_upper = model.row_bounds()
    lower, upper = model.bounds_arrays()
    h = highs._Highs()    # one per solve: threads under --jobs never share one
    for name, value in _HIGHS_OPTIONS.items():
        h.setOptionValue(name, value)
    passed = h.passModel(
        model.n_vars, model.n_rows, a.nnz, int(highs.MatrixFormat.kRowwise),
        int(highs.ObjSense.kMinimize), 0.0, model.objective_vector(), lower, upper,
        row_lower[order], row_upper[order],
        start, a.indices[take].astype(np.int32, copy=False), a.data[take],
        np.zeros(model.n_vars, dtype=np.int32))    # every column continuous
    if passed == highs.HighsStatus.kError:    # run() would solve an empty model
        model_status = highs.HighsModelStatus.kModelError
    else:
        h.run()
        model_status = h.getModelStatus()
    info = h.getInfo()
    iters = max(info.simplex_iteration_count, 0)    # -1 when HiGHS never ran
    status = _HIGHS_STATUS.get(model_status) or h.modelStatusToString(model_status)
    if status != OPTIMAL:
        return status, np.zeros(model.n_vars), float("nan"), iters
    return (status, np.array(h.getSolution().col_value),
            float(info.objective_function_value), iters)


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
