import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

from hessmg.builder import GRID, ProblemData, build
from hessmg.data import EssSpec, Horizon, SourceSpec
from hessmg.lp import EQ, GE, LE, ModelInstance
from hessmg.solve import (_HIGHS_OPTIONS, FEAS_TOL, INFEASIBLE, ITERATION_LIMIT,
                          OPT_TOL, OPTIMAL, UNBOUNDED, SolveOptions,
                          max_primal_residual, solve, to_equality_form, verify)

BATTERY = EssSpec(
    name="battery", eta_c=0.83, eta_d=0.88, cost_energy=900.0,
    cost_power=1590.0, om_energy=3.0, om_power=30.0, e_cap_max=5.0,
    p_cap_max=10.0, crate_max=3.0, dod_min_frac=0.15, cycle_life=5000.0,
    resale_factor=0.85)


def _model(t_syn=1, ess=True):
    horizon = Horizon(t_syn=t_syn)
    k = horizon.n_steps
    data = ProblemData(
        horizon=horizon, sources=SourceSpec(),
        ess={"battery": BATTERY} if ess else {},
        price=np.tile(np.linspace(20.0, 120.0, horizon.steps_per_day), t_syn),
        demand_ch=np.full(k, 1.0), demand_wh=np.full(k, 0.2),
        pv_cf=np.tile(np.clip(np.sin(np.linspace(0, np.pi, horizon.steps_per_day)), 0, 1), t_syn))
    return data, build(data)


def test_equality_form_slack_bounds():
    m = ModelInstance()
    x = m.add_var("a", "x", lb=0.0, ub=2.0)
    m.add_row([(x, 1.0)], LE, 1.0, "le", "t")
    m.add_row([(x, 1.0)], GE, 0.5, "ge", "t")
    a, b, lo, hi, c, n = to_equality_form(m)
    assert n == 1 and a.shape == (2, 3)
    assert lo[1] == 0.0 and hi[1] == np.inf      # <= slack
    assert lo[2] == -np.inf and hi[2] == 0.0     # >= slack


class TestEngines:
    def test_import_leaves_the_reference_engine_unloaded(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import hessmg, sys; sys.exit('hessmg.simplex' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_default_engine_is_highs_for_small_models(self):
        _, model = _model(ess=False)
        sol = solve(model)
        assert sol.engine == "highs" and sol.optimal

    def test_default_engine_is_highs_for_large_models(self):
        _, model = _model(t_syn=3)
        sol = solve(model)
        assert sol.engine == "highs" and sol.optimal

    def test_engines_agree(self):
        _, model = _model(ess=False)
        a = solve(model, SolveOptions(engine="simplex"))
        b = solve(model, SolveOptions(engine="highs"))
        assert a.optimal and b.optimal
        assert a.objective == pytest.approx(b.objective, rel=1e-8)

    def test_engines_agree_with_storage(self):
        _, model = _model()
        a = solve(model, SolveOptions(engine="simplex"))
        b = solve(model, SolveOptions(engine="highs"))
        assert a.optimal and b.optimal
        assert a.objective == pytest.approx(b.objective, rel=1e-7)

    def test_unknown_engine(self):
        _, model = _model(ess=False)
        with pytest.raises(ValueError, match="engine"):
            solve(model, SolveOptions(engine="cplex"))

    def test_objective_includes_constant(self):
        _, model = _model(ess=False)
        sol = solve(model)
        raw = model.objective_vector() @ sol.x
        assert sol.objective == pytest.approx(raw + model.objective_constant, rel=1e-12)

    @pytest.mark.parametrize("t_syn", [1, 3, 4])
    def test_highs_matches_linprog_bit_for_bit(self, t_syn):
        # the rows as linprog takes them: <= rows, >= rows negated to <=, then ==;
        # a change to the row order or the options moves the pivots and fails here
        # (at t_syn=4, rows in model order take 175 iterations instead of 178)
        _, model = _model(t_syn=t_syn)
        a, rhs, codes = model.row_matrix(), model.rhs_vector(), model.sense_codes()
        le, ge, eq = (np.flatnonzero(codes == s) for s in (LE, GE, EQ))
        lower, upper = model.bounds_arrays()
        ref = scipy.optimize.linprog(
            model.objective_vector(), A_ub=sp.vstack([a[le], -a[ge]]),
            b_ub=np.concatenate([rhs[le], -rhs[ge]]), A_eq=a[eq], b_eq=rhs[eq],
            bounds=np.column_stack([lower, upper]), method="highs",
            options={"primal_feasibility_tolerance": FEAS_TOL,
                     "dual_feasibility_tolerance": OPT_TOL})
        sol = solve(model)
        assert ref.status == 0 and sol.optimal
        assert np.array_equal(sol.x, ref.x)
        assert sol.objective == ref.fun + model.objective_constant
        assert sol.iterations == ref.nit

    def test_highs_accepts_every_option(self):
        # a rejected option is no error at solve time, only a setting left at its default
        for name, value in _HIGHS_OPTIONS.items():
            assert highs._Highs().setOptionValue(name, value) == highs.HighsStatus.kOk, name

    def test_infeasible_model(self):
        m = ModelInstance()
        x = m.add_var("a", "x", lb=0.0, ub=1.0)
        m.add_row([(x, 1.0)], GE, 2.0, "r", "t")
        sol = solve(m)
        assert sol.status == INFEASIBLE
        assert np.array_equal(sol.x, [0.0]) and np.isnan(sol.objective)

    def test_unbounded_model(self):
        m = ModelInstance()
        x = m.add_var("a", "x")
        y = m.add_var("a", "y")
        m.add_objective([x, y], [-1.0, -1.0])
        m.add_row([(x, 1.0), (y, -1.0)], LE, 1.0, "r", "t")
        sol = solve(m)
        assert sol.status == UNBOUNDED
        assert np.array_equal(sol.x, [0.0, 0.0]) and np.isnan(sol.objective)

    def test_model_highs_refuses_is_not_solved_empty(self):
        # a coefficient of 1e16 passes the container, but HiGHS rejects the
        # model; it must not report the optimum of an empty model instead
        m = ModelInstance()
        x = m.add_var("a", "x")
        m.add_row([(x, 1e16)], LE, 1.0, "r", "t")
        sol = solve(m)
        assert sol.status not in (OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT)
        assert "error" in sol.status.lower() and sol.iterations == 0
        assert np.array_equal(sol.x, [0.0]) and np.isnan(sol.objective)

    def test_residual_reported(self):
        _, model = _model()
        sol = solve(model, SolveOptions(engine="highs"))
        assert max_primal_residual(model, sol.x) < 1e-7


class TestVerify:
    def test_clean_solution(self):
        _, model = _model()
        sol = solve(model, SolveOptions(engine="highs"))
        report = verify(model, sol.x)
        assert report.max_violation < 1e-7
        assert set(report.family_violation) == {r.family for r in model.rows}

    def test_corrupted_soe_lands_in_dynamics_family(self):
        _, model = _model()
        sol = solve(model, SolveOptions(engine="highs"))
        x = sol.x.copy()
        x[model.var("E_soe", "battery", 10)] += 0.5
        report = verify(model, x)
        assert report.family_violation["dynamics"] > 0.4
        assert report.worst_row["dynamics"].startswith("soe_dyn.battery")

    def test_matches_a_row_by_row_scan(self):
        _, model = _model()
        sol = solve(model)
        x = sol.x + np.random.default_rng(0).normal(0.0, 0.01, model.n_vars)
        act = model.row_matrix() @ x
        worst = {}
        for i, row in enumerate(model.rows):
            gap = max(0.0, {"<=": act[i] - row.rhs, ">=": row.rhs - act[i]}.get(
                row.sense, abs(act[i] - row.rhs)))
            if gap > worst.get(row.family, (-1.0, ""))[0]:
                worst[row.family] = (gap, row.name)
        report = verify(model, x)
        assert report.family_violation == {f: v for f, (v, _) in worst.items()}
        assert report.worst_row == {f: name for f, (_, name) in worst.items()}
        lower, upper = model.bounds_arrays()
        bounds = max(np.max(lower - x), np.max(x - upper), 0.0)
        assert max_primal_residual(model, x) == max(
            [v for v, _ in worst.values()] + [bounds])

    def test_rowless_model_reports_its_bound_violation(self):
        m = ModelInstance()
        m.add_var("a", "x", lb=0.0, ub=1.0)
        assert verify(m, [2.0]).max_violation == 1.0
        assert max_primal_residual(m, [2.0]) == 1.0

    def test_bound_violation_detected(self):
        _, model = _model()
        sol = solve(model, SolveOptions(engine="highs"))
        x = sol.x.copy()
        x[model.var("E_max", "battery")] = BATTERY.e_cap_max + 1.0
        assert verify(model, x).bound_violation >= 1.0

    def test_complementarity_of_import_export(self):
        _, model = _model()
        sol = solve(model, SolveOptions(engine="highs"))
        report = verify(model, sol.x)
        k = len(model.columns("P_src_plus", GRID))
        assert set(report.pair_products) == {("G", "import and export"),
                                             ("battery", "charge and discharge")}
        assert all(len(p) == k for p in report.pair_products.values())
        assert report.max_complementarity < 1e-6

    def test_forced_simultaneous_flow_is_flagged(self):
        _, model = _model(ess=False)
        sol = solve(model, SolveOptions(engine="highs"))
        x = sol.x.copy()
        imp = model.var("P_src_plus", GRID, 0)
        exp = model.var("P_src_minus", GRID, 0)
        x[imp] = max(x[imp], 1.0)
        x[exp] = 1.0
        assert verify(model, x).pair_products["G", "import and export"][0] >= 1.0
