import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmg.builder import GRID, PV, ProblemData, build
from hessmg.costs import (AuditError, annualization, audit, eol_discount,
                          npv_factor)
from hessmg.data import EssSpec, Horizon, SourceSpec
from hessmg.solve import SolveOptions, solve

BATTERY = EssSpec(
    name="battery", eta_c=0.83, eta_d=0.88, cost_energy=900.0,
    cost_power=1590.0, om_energy=3.0, om_power=30.0, e_cap_max=5.0,
    p_cap_max=10.0, crate_max=3.0, dod_min_frac=0.15, cycle_life=5000.0,
    resale_factor=0.85)


def _data(price, ch=1.0, cf=0.0, ess=None, horizon=None, sources=None):
    horizon = horizon or Horizon(t_syn=1)
    k = horizon.n_steps
    price = np.broadcast_to(np.asarray(price, float), (k,)).copy()
    return ProblemData(
        horizon=horizon, sources=sources or SourceSpec(), ess=dict(ess or {}),
        price=price, demand_ch=np.full(k, float(ch)),
        demand_wh=np.zeros(k), pv_cf=np.full(k, float(cf)))


class TestFactors:
    def test_npv_zero_rate_is_year_count(self):
        assert npv_factor(0.0, 20) == 20.0

    def test_npv_two_years(self):
        # frozen oracle: 1/1.04 + 1/1.04^2
        assert npv_factor(0.04, 2) == pytest.approx(1.8860946745562130, abs=1e-12)
        assert 100.0 * npv_factor(0.04, 2) == pytest.approx(188.6095, abs=1e-4)

    def test_npv_monotone_in_years(self):
        vals = [npv_factor(0.04, y) for y in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_eol_discount(self):
        assert eol_discount(0.04, 20) == pytest.approx(1.04 ** -20, abs=1e-15)
        assert eol_discount(0.0, 7) == 1.0

    def test_annualization(self):
        assert annualization(Horizon(t_syn=30)) == pytest.approx(365.0 / 30.0)
        assert annualization(Horizon(t_syn=365)) == 1.0


class TestObjectiveCoefficients:
    def test_import_coefficient(self):
        h = Horizon(t_syn=1)
        data = _data(price=80.0, horizon=h)
        model = build(data)
        c = model.objective_vector()
        col = model.var("P_src_plus", GRID, 5)
        expected = npv_factor(0.04, 20) * 365.0 * 1.0 * 80.0 / 1000.0
        assert c[col] == pytest.approx(expected, rel=1e-12)

    def test_export_credited_at_sell_fraction(self):
        data = _data(price=80.0)
        model = build(data)
        c = model.objective_vector()
        imp = c[model.var("P_src_plus", GRID, 5)]
        exp = c[model.var("P_src_minus", GRID, 5)]
        assert exp == pytest.approx(-0.9 * imp, rel=1e-12)

    def test_capex_is_epigraph_of_max(self):
        data = _data(price=50.0, ess={"battery": BATTERY})
        model = build(data)
        rows = {r.name: r for r in model.rows}
        e_row = rows["capex_energy.battery"]
        p_row = rows["capex_power.battery"]
        coefs_e = dict(zip(e_row.cols, e_row.coefs))
        coefs_p = dict(zip(p_row.cols, p_row.coefs))
        assert coefs_e[model.var("E_max", "battery")] == -900.0
        assert coefs_p[model.var("P_max_ess", "battery")] == -1590.0
        assert model.objective[model.var("capex_epigraph", "battery")] == 1.0

    def test_resale_coefficient(self):
        data = _data(price=50.0, ess={"battery": BATTERY})
        model = build(data)
        c = model.objective_vector()
        col = model.var("E_max", "battery")
        # capacity resale minus the opex/capex contributions that also touch
        # E_max: here E_max only carries the resale term
        resale = 0.85 * 900.0 * 1.04 ** -20
        assert resale == pytest.approx(349.1360138439885, abs=1e-10)
        assert c[col] == pytest.approx(-resale, rel=1e-12)

    def test_throughput_wear_coefficient(self):
        # O&M and lost resale are each charged per MWh of gross flow on the
        # storage powers: (tau/eta_d) P+ and tau eta_c P- at tau = 15 min
        om = npv_factor(0.04, 20) * 365.0 * 3.0
        lost_resale = eol_discount(0.04, 20) * 0.85 * 900.0 / 5000.0
        for spec, wear in ((BATTERY, om + lost_resale),
                           (dataclasses.replace(BATTERY, resale_factor=0.0), om),
                           (dataclasses.replace(BATTERY, om_energy=0.0), lost_resale)):
            model = build(_data(price=50.0, ess={"battery": spec},
                                horizon=Horizon(tau_minutes=15, t_syn=1)))
            c = model.objective_vector()
            for k in (0, 95):
                plus = model.var("P_ess_plus", "battery", k)
                minus = model.var("P_ess_minus", "battery", k)
                assert c[plus] == pytest.approx(wear * 0.25 / 0.88, rel=1e-12)
                assert c[minus] == pytest.approx(wear * 0.25 * 0.83, rel=1e-12)

    def test_fixed_connection_fees_enter_the_constant(self):
        data = _data(price=50.0)
        model = build(data)
        assert model.objective_constant == pytest.approx(
            npv_factor(0.04, 20) * (1.2 + 1.8), rel=1e-12)

    def test_pv_net_coefficient(self):
        data = _data(price=50.0)
        model = build(data)
        c = model.objective_vector()
        col = model.var("P_max_src", PV)
        fac = npv_factor(0.04, 20)
        expected = 300.0 + fac * 15.0 - eol_discount(0.04, 20) * 0.75 * 300.0
        assert c[col] == pytest.approx(expected, rel=1e-12)


class TestAudit:
    def _solved(self, **kwargs):
        data = _data(**kwargs)
        model = build(data)
        sol = solve(model, SolveOptions(engine="highs"))
        assert sol.optimal
        return data, model, sol

    def test_audit_matches_solver_objective(self):
        data, model, sol = self._solved(
            price=np.linspace(20, 120, 24), ch=1.0, cf=0.4,
            ess={"battery": BATTERY})
        breakdown = audit(sol.x, model, data, solver_objective=sol.objective)
        assert breakdown.total == pytest.approx(sol.objective, rel=1e-9)
        assert breakdown.total == pytest.approx(
            breakdown.capex + breakdown.opex_npv - breakdown.eol_value, rel=1e-12)

    def test_audit_energy_accounting(self):
        data, model, sol = self._solved(price=50.0, ch=1.0)
        b = audit(sol.x, model, data, solver_objective=sol.objective)
        # constant 1 MW for 24 h through a 0.95 converter
        assert b.energy_purchased == pytest.approx(24.0 / 0.95, abs=1e-6)
        assert b.energy_sold == pytest.approx(0.0, abs=1e-9)

    def test_audit_peak_from_dispatch_not_epigraph(self):
        data, model, sol = self._solved(price=50.0, ch=1.0)
        x = sol.x.copy()
        # inflate the epigraph variable: audit must ignore it
        x[model.var("P_peak", GRID)] += 100.0
        b = audit(x, model, data)
        assert b.grid_connection["peak"] == pytest.approx(
            9.03 / 0.95, rel=1e-9)

    def test_audit_throughput_from_storage_powers(self):
        cheap = dataclasses.replace(BATTERY, cost_energy=5.0, cost_power=5.0,
                                    om_energy=0.001)
        data, model, sol = self._solved(
            price=np.tile([20.0, 150.0], 12), ch=1.0, ess={"battery": cheap})
        plus = sol.x[model.columns("P_ess_plus", "battery")]
        minus = sol.x[model.columns("P_ess_minus", "battery")]
        gross = plus.sum() / 0.88 + 0.83 * minus.sum()   # tau = 1 h
        assert gross > 1.0
        assert audit(sol.x, model, data).total == pytest.approx(sol.objective, rel=1e-9)
        # one more MWh through the cell costs its wear, O&M plus lost resale,
        # in the audit and in the objective alike
        x = sol.x.copy()
        x[model.var("P_ess_minus", "battery", 0)] += 1.0 / 0.83
        wear = (npv_factor(0.04, 20) * 365.0 * 0.001
                + eol_discount(0.04, 20) * 0.85 * 5.0 / 5000.0)
        assert audit(x, model, data).total - sol.objective == pytest.approx(wear, rel=1e-9)
        c = model.objective_vector()
        moved = (c @ x + model.objective_constant) - (c @ sol.x + model.objective_constant)
        assert moved == pytest.approx(wear, rel=1e-9)

    def test_corrupted_solution_raises(self):
        data, model, sol = self._solved(price=50.0, ch=1.0)
        x = sol.x.copy()
        x[model.var("P_src_plus", GRID, 3)] *= 2.0
        with pytest.raises(AuditError, match="audit failure"):
            audit(x, model, data, solver_objective=sol.objective)

    @pytest.mark.parametrize("objective", [float("nan"), float("inf")])
    def test_non_finite_solver_objective_raises(self, objective):
        data, model, sol = self._solved(price=50.0, ch=1.0)
        with pytest.raises(AuditError, match="audit failure"):
            audit(sol.x, model, data, solver_objective=objective)

    def test_non_finite_recomputed_total_raises(self):
        data, model, sol = self._solved(price=50.0, ch=1.0)
        x = sol.x.copy()
        x[model.var("P_src_plus", GRID, 3)] = np.nan
        with pytest.raises(AuditError, match="recomputed nan"):
            audit(x, model, data, solver_objective=sol.objective)

    @settings(max_examples=10, deadline=None)
    @given(scale=st.floats(0.25, 4.0))
    def test_energy_bill_scales_linearly_with_prices(self, scale):
        base = np.linspace(30, 90, 24)
        data_a = _data(price=base, ch=1.0)
        data_b = _data(price=base * scale, ch=1.0)
        model_a, model_b = build(data_a), build(data_b)
        # same dispatch is optimal in both: inflexible demand, no storage
        sol = solve(model_a, SolveOptions(engine="highs"))
        bill_a = audit(sol.x, model_a, data_a).opex_npv
        bill_b = audit(sol.x, model_b, data_b).opex_npv
        fac = npv_factor(0.04, 20)
        fixed = fac * (1.2 + 1.8 + 3.0 * sol.value(model_a, "P_max_src", GRID)
                       + 9.03 * max(sol.x[model_a.var("P_src_plus", GRID, k)]
                                    for k in range(24)))
        assert bill_b - fixed == pytest.approx(scale * (bill_a - fixed), rel=1e-9)
