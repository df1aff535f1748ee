import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmg.builder import (GRID, PV, BuildError, ProblemData, build)
from hessmg.costs import eol_discount, npv_factor
from hessmg.data import EssSpec, Horizon, SourceSpec, make_demo_dataset
from hessmg.lp import GE, LE, ModelError, Row
from hessmg.scenario import build_scenario
from hessmg.solve import SolveOptions, max_primal_residual, solve
from test_wear import _gross

BATTERY = EssSpec(
    name="battery", eta_c=0.83, eta_d=0.88, cost_energy=900.0,
    cost_power=1590.0, om_energy=3.0, om_power=30.0, e_cap_max=5.0,
    p_cap_max=10.0, crate_max=3.0, dod_min_frac=0.15, cycle_life=5000.0,
    resale_factor=0.85)


def _data(n_days=1, price=50.0, ch=1.0, wh=0.0, cf=0.0, ess=None, sources=None):
    horizon = Horizon(t_syn=n_days)
    k = horizon.n_steps
    return ProblemData(
        horizon=horizon,
        sources=sources or SourceSpec(),
        ess=dict(ess or {}),
        price=np.full(k, float(price)),
        demand_ch=np.full(k, float(ch)),
        demand_wh=np.full(k, float(wh)),
        pv_cf=np.full(k, float(cf)))


def _row(model, name):
    matches = [r for r in model.rows if r.name == name]
    assert len(matches) == 1, name
    return matches[0]


def _coef(model, row, kind, entity, step=None):
    col = model.var(kind, entity, step)
    return dict(zip(row.cols, row.coefs)).get(col, 0.0)


class TestStructure:
    def test_deterministic(self):
        a = build(_data(ess={"battery": BATTERY}))
        b = build(_data(ess={"battery": BATTERY}))
        assert a.signature() == b.signature()

    def test_variable_count(self):
        data = _data(ess={"battery": BATTERY})
        k = data.horizon.n_steps
        model = build(data)
        # sources: 2 capacities + peak + 3 per step; storage: 3 designs,
        # K+1 states, 2 per step (wear is an expression of the powers)
        assert model.n_vars == 3 + 3 * k + 3 + (k + 1) + 2 * k
        # one gross converter row per step each for the grid and the battery
        assert (model.n_vars, model.n_rows) == (151, 221)
        assert not [n for n in model.col_names
                    if n.startswith(("R_crate.", "q_aux.", "Q_throughput."))]

    def test_row_families_present(self):
        model = build(_data(ess={"battery": BATTERY}))
        families = {r.family for r in model.rows}
        assert families == {"bounds", "balance", "dynamics", "mccormick",
                            "peak", "capex"}

    @pytest.mark.parametrize("series, message", [
        ("pv_cf", "non-finite coefficient in row pv_avail.k5"),
        ("price", "non-finite objective coefficient for P_src_plus.G.k5"),
        ("demand_ch", "non-finite rhs in row balance.k5")])
    def test_build_error_names_the_row(self, series, message):
        # the whole model arrives in one block, and a fault still names its row
        data = _data(cf=0.3, ess={"battery": BATTERY})
        getattr(data, series)[5] = np.nan
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            build(data)

    def test_mismatched_series_length(self):
        with pytest.raises(BuildError, match="steps"):
            ProblemData(horizon=Horizon(t_syn=2), sources=SourceSpec(), ess={},
                        price=np.zeros(24), demand_ch=np.zeros(24),
                        demand_wh=np.zeros(24), pv_cf=np.zeros(24))

    def test_from_scenario_length_check(self):
        days = make_demo_dataset(seed=0, n_days=10)
        scenario = build_scenario(days, w=2, t_syn=3, seed=0)
        with pytest.raises(BuildError, match="days"):
            ProblemData.from_scenario(scenario, Horizon(t_syn=5), SourceSpec(), {})


class TestCoefficients:
    def test_pv_availability_row(self):
        data = _data(cf=0.5)
        model = build(data)
        row = _row(model, "pv_avail.k5")
        assert row.sense == "<=" and row.rhs == 0.0
        assert _coef(model, row, "P_pv", PV, 5) == 1.0
        # bus-side availability is eta_pv * cf * installed capacity
        assert _coef(model, row, "P_max_src", PV) == pytest.approx(-0.9 * 0.5)

    def test_balance_row(self):
        data = _data(ch=1.2, wh=0.3, ess={"battery": BATTERY})
        model = build(data)
        row = _row(model, "balance.k0")
        assert row.sense == "=="
        assert row.rhs == pytest.approx(1.5)
        assert _coef(model, row, "P_src_plus", GRID, 0) == pytest.approx(0.95)
        assert _coef(model, row, "P_src_minus", GRID, 0) == pytest.approx(-1 / 0.95)
        assert _coef(model, row, "P_pv", PV, 0) == 1.0
        assert _coef(model, row, "P_ess_plus", "battery", 0) == 1.0
        assert _coef(model, row, "P_ess_minus", "battery", 0) == -1.0

    def test_demand_conversion_efficiency(self):
        sources = SourceSpec(eta_demand=0.9)
        model = build(_data(ch=0.9, wh=0.0, sources=sources))
        assert _row(model, "balance.k3").rhs == pytest.approx(1.0)

    def test_dynamics_row(self):
        model = build(_data(ess={"battery": BATTERY}))
        row = _row(model, "soe_dyn.battery.k2")
        assert row.sense == "==" and row.rhs == 0.0
        assert _coef(model, row, "E_soe", "battery", 3) == 1.0
        assert _coef(model, row, "E_soe", "battery", 2) == -1.0
        # tau = 1 h: discharge drains 1/eta_d MWh per MW, charge stores eta_c
        assert _coef(model, row, "P_ess_plus", "battery", 2) == pytest.approx(1 / 0.88)
        assert _coef(model, row, "P_ess_minus", "battery", 2) == pytest.approx(-0.83)

    def test_subhourly_dynamics_scale_with_tau(self):
        horizon = Horizon(tau_minutes=15, t_syn=1)
        data = ProblemData(
            horizon=horizon, sources=SourceSpec(), ess={"battery": BATTERY},
            price=np.zeros(96), demand_ch=np.zeros(96), demand_wh=np.zeros(96),
            pv_cf=np.zeros(96))
        model = build(data)
        row = _row(model, "soe_dyn.battery.k0")
        assert _coef(model, row, "P_ess_plus", "battery", 0) == pytest.approx(0.25 / 0.88)
        assert _coef(model, row, "P_ess_minus", "battery", 0) == pytest.approx(-0.25 * 0.83)

    def test_depth_of_discharge_row(self):
        model = build(_data(ess={"battery": BATTERY}))
        row = _row(model, "soe_dod.battery.k7")
        assert row.sense == ">="
        assert _coef(model, row, "E_max", "battery") == pytest.approx(-0.15)

    def test_no_dod_row_when_floor_is_zero(self):
        import dataclasses
        free = dataclasses.replace(BATTERY, dod_min_frac=0.0)
        model = build(_data(ess={"battery": free}))
        assert not any(r.name.startswith("soe_dod") for r in model.rows)

    def test_mccormick_rows(self):
        # one row per step bounds the gross energy through the cell:
        # P+/eta_d + eta_c P- <= crate_max * E_max at tau = 1 h
        model = build(_data(ess={"battery": BATTERY}))
        row = _row(model, "q_crate.battery.k4")
        assert row.sense == "<=" and row.rhs == 0.0
        assert _coef(model, row, "P_ess_plus", "battery", 4) == pytest.approx(1 / 0.88)
        assert _coef(model, row, "P_ess_minus", "battery", 4) == pytest.approx(0.83)
        assert _coef(model, row, "E_max", "battery") == pytest.approx(-3.0)
        assert len(row.cols) == 3
        assert [r.name for r in model.rows if r.family == "mccormick"] == [
            f"q_crate.battery.k{k}" for k in range(24)]

    def test_gross_converter_rows(self):
        # one row per converter and step caps the gross flow by the rating:
        # grid eta_c P+ + P-/eta_d <= P_max_src.G, storage P+ + P- <= P_max_ess
        model = build(_data(ess={"battery": BATTERY}))
        grid = _row(model, "grid_cap.k6")
        assert grid.sense == "<=" and grid.rhs == 0.0 and grid.family == "bounds"
        assert _coef(model, grid, "P_src_plus", GRID, 6) == pytest.approx(0.95)
        assert _coef(model, grid, "P_src_minus", GRID, 6) == pytest.approx(1 / 0.95)
        assert _coef(model, grid, "P_max_src", GRID) == -1.0
        ess = _row(model, "ess_pow.battery.k6")
        assert ess.sense == "<=" and ess.rhs == 0.0 and ess.family == "bounds"
        assert _coef(model, ess, "P_ess_plus", "battery", 6) == 1.0
        assert _coef(model, ess, "P_ess_minus", "battery", 6) == 1.0
        assert _coef(model, ess, "P_max_ess", "battery") == -1.0
        assert len(grid.cols) == len(ess.cols) == 3
        names = model.row_names
        assert [n for n in names if n.startswith("grid_cap")] == [
            f"grid_cap.k{k}" for k in range(24)]
        assert [n for n in names if n.startswith("ess_pow")] == [
            f"ess_pow.battery.k{k}" for k in range(24)]

    def test_throughput_row(self):
        # no throughput row: the objective charges wear per MWh of gross
        # flow on the storage powers, (tau/eta_d) P+ and tau eta_c P-
        horizon = Horizon(tau_minutes=15, t_syn=1)
        data = ProblemData(
            horizon=horizon, sources=SourceSpec(), ess={"battery": BATTERY},
            price=np.zeros(96), demand_ch=np.zeros(96), demand_wh=np.zeros(96),
            pv_cf=np.zeros(96))
        model = build(data)
        assert not any(name.startswith("throughput") for name in model.row_names)
        wear = (npv_factor(0.04, 20) * 365.0 * 3.0
                + eol_discount(0.04, 20) * 0.85 * 900.0 / 5000.0)
        c = model.objective_vector()
        for k in (0, 95):
            plus = model.var("P_ess_plus", "battery", k)
            minus = model.var("P_ess_minus", "battery", k)
            assert c[plus] == pytest.approx(wear * 0.25 / 0.88, rel=1e-12)
            assert c[minus] == pytest.approx(wear * 0.25 * 0.83, rel=1e-12)

    def test_static_grid_converter_bounds(self):
        model = build(_data())
        imp = model.var("P_src_plus", GRID, 0)
        exp = model.var("P_src_minus", GRID, 0)
        assert model.upper[imp] == pytest.approx(2.8 / 0.95)
        assert model.upper[exp] == pytest.approx(2.8 * 0.95)

    def test_apply_fixed_values(self):
        model = build(_data(ess={"battery": BATTERY}),
                      fixed={"E_max.battery": 2.0, "P_max_src.PV": 0.0})
        col = model.var("E_max", "battery")
        assert model.lower[col] == model.upper[col] == 2.0
        # a pin is the column's name and nothing else
        with pytest.raises(BuildError, match="unknown pin"):
            build(_data(ess={"battery": BATTERY}), fixed={("E_max", "battery"): 2.0})


class TestSmallSolves:
    def test_grid_only_import_matches_conversion_loss(self):
        # constant 1 MW bus demand, no PV, no storage: every step imports
        # exactly demand / grid charging efficiency
        data = _data(ch=1.0, cf=0.0)
        sol = solve(build(data))
        assert sol.optimal
        for k in (0, 7, 23):
            assert sol.value(build(data), "P_src_plus", GRID, k) == pytest.approx(
                1.0526315789473684, abs=1e-7)

    def test_empty_storage_set_is_feasible(self):
        data = _data(ch=0.5, wh=0.2, cf=0.3)
        model = build(data)
        sol = solve(model)
        assert sol.optimal
        assert max_primal_residual(model, sol.x) < 1e-7

    def test_balance_holds_at_optimum(self):
        data = _data(ch=0.8, wh=0.1, cf=0.4, ess={"battery": BATTERY})
        model = build(data)
        sol = solve(model, SolveOptions(engine="highs"))
        assert sol.optimal
        act = model.row_matrix() @ sol.x
        for i, row in enumerate(model.rows):
            if row.family == "balance":
                assert act[i] == pytest.approx(row.rhs, abs=1e-7)

    def test_step_zero_peak_is_paid_back(self, case_catalog):
        # 4 MW at step 0 against a 2.8 MW grid ceiling: storage must serve
        # the excess, and the energy it takes at step 0 must be stored again
        # within the period, so no technology ends with less than it began
        ch = np.full(24, 1.0)
        ch[0] = 4.0
        data = _data(ess=case_catalog)
        data.demand_ch = ch
        model = build(data)
        sol = solve(model)
        assert sol.optimal
        tau = data.horizon.tau_hours
        served = 0.0
        for name, ess in data.ess.items():
            soe = sol.x[model.columns("E_soe", name)]
            plus = sol.x[model.columns("P_ess_plus", name)]
            minus = sol.x[model.columns("P_ess_minus", name)]
            assert soe[-1] >= soe[0] - 1e-9, name
            net = tau * (ess.eta_c * minus.sum() - plus.sum() / ess.eta_d)
            assert net >= -1e-9, name
            served += plus[0] - minus[0]
        assert served >= 4.0 - 2.8 - 1e-9


def _with_net_rows(model):
    """The same LP with each gross converter row, a*P+ + b*P- - cap <= 0,
    replaced by the two net rows +-(a*P+ - b*P-) - cap <= 0 that leave
    pairing free up to the rating."""
    rows = []
    for r in model.rows:
        if not r.name.startswith(("grid_cap.", "ess_pow.")):
            rows.append(r)
            continue
        flows = [(c, v) for c, v in zip(r.cols, r.coefs) if v > 0]
        cap = [(c, v) for c, v in zip(r.cols, r.coefs) if v < 0]
        (plus, a), (minus, b) = flows
        head, _, tail = r.name.partition(".")
        for side, sign in (("_hi", 1.0), ("_lo", -1.0)):
            terms = [(plus, sign * a), (minus, -sign * b)] + cap
            rows.append(Row([c for c, _ in terms], [v for _, v in terms], r.sense, r.rhs,
                            f"{head}{side}.{tail}", r.family))
    model.rows = rows
    return model


def _demo_day(price, ess):
    """The first demo day (its charger peak exceeds the grid ceiling) with
    its prices replaced."""
    day = make_demo_dataset(seed=0, n_days=1)[0]
    return ProblemData(horizon=Horizon(t_syn=1), sources=SourceSpec(), ess=ess,
                       price=np.asarray(price, dtype=float), demand_ch=day.demand_ch,
                       demand_wh=day.demand_wh, pv_cf=day.pv_cf)


class TestGrossConverterRows:
    """Each converter gets one gross row per step, the convex hull of "one
    direction at a time, up to the rating". The two net rows it replaced
    admit every gross-row dispatch, so the gross optimum is never below
    the net one; without negative prices pairing gains nothing, and the
    optima agree."""

    @settings(max_examples=30, deadline=None)
    @given(price=st.lists(st.floats(-200.0, 400.0), min_size=24, max_size=24),
           floor=st.sampled_from([-200.0, 0.0]), supercapacitor=st.booleans())
    def test_never_below_the_net_rows(self, case_catalog, price, floor, supercapacitor):
        ess = {"battery": BATTERY}
        if supercapacitor:
            ess["supercapacitor"] = case_catalog["supercapacitor"]
        data = _demo_day(np.maximum(price, floor), ess)
        gross, net = solve(build(data)), solve(_with_net_rows(build(data)))
        assert gross.optimal and net.optimal
        scale = max(1.0, abs(net.objective))
        assert gross.objective >= net.objective - 1e-9 * scale
        if (data.price >= 0).all():
            assert gross.objective == pytest.approx(net.objective, rel=1e-9)

    def test_negative_prices_do_not_pair_at_full_rating(self):
        # prices shifted down by 80 EUR/MWh go negative at night, where the
        # net rows let the grid import and export at once beyond the rating
        data = _demo_day(make_demo_dataset(seed=0, n_days=1)[0].price - 80.0,
                         {"battery": BATTERY})
        assert (data.price < 0).any()
        grid = data.sources.grid
        excess = []
        for model in (build(data), _with_net_rows(build(data))):
            sol = solve(model)
            assert sol.optimal
            gross = (grid.eta_c * sol.x[model.columns("P_src_plus", GRID)]
                     + sol.x[model.columns("P_src_minus", GRID)] / grid.eta_d)
            excess.append(gross.max() - sol.value(model, "P_max_src", GRID))
        assert excess[0] <= 1e-9 < excess[1]


def _lifted(data, fixed=None):
    """The C-rate limit as the full McCormick envelope of E_max * R over
    [0, E_cap] x [0, R_cap] on the gross flow g_k, with one R column per
    step, added on top of the projected model."""
    model = build(data, fixed=fixed)
    tau = data.horizon.tau_hours
    for name, ess in data.ess.items():
        e_cap, r_cap = ess.e_cap_max, ess.crate_max
        e_max = model.var("E_max", name)
        model.add_vars([("R_crate", name, 0.0, r_cap)], data.horizon.n_steps)
        for k in range(data.horizon.n_steps):
            g = [(model.var("P_ess_plus", name, k), tau / ess.eta_d),
                 (model.var("P_ess_minus", name, k), tau * ess.eta_c)]
            r = model.var("R_crate", name, k)
            model.add_row(g + [(r, -e_cap), (e_max, -r_cap)], GE,
                          -e_cap * r_cap, f"q_mcc2.{name}.k{k}", "mccormick")
            model.add_row(g + [(r, -e_cap)], LE, 0.0,
                          f"q_mcc3.{name}.k{k}", "mccormick")
            model.add_row(g + [(e_max, -r_cap)], LE, 0.0,
                          f"q_mcc4.{name}.k{k}", "mccormick")
    return model


def _random_instance(seed, crate_max=None):
    rng = np.random.default_rng(seed)
    ess = {}
    for name in ("battery", "flywheel")[:1 + seed % 2]:
        ess[name] = EssSpec(
            name=name, eta_c=rng.uniform(0.8, 0.98), eta_d=rng.uniform(0.8, 0.98),
            cost_energy=rng.uniform(5.0, 60.0), cost_power=rng.uniform(5.0, 60.0),
            om_energy=rng.uniform(0.0, 0.01), om_power=rng.uniform(0.0, 5.0),
            e_cap_max=rng.uniform(1.0, 8.0), p_cap_max=rng.uniform(1.0, 5.0),
            crate_max=crate_max or rng.uniform(0.1, 3.0),
            dod_min_frac=rng.uniform(0.0, 0.2), cycle_life=rng.uniform(1e3, 1e4),
            resale_factor=rng.uniform(0.0, 0.9))
    horizon = Horizon(t_syn=1)
    k = horizon.n_steps
    return ProblemData(
        horizon=horizon, sources=SourceSpec(), ess=ess,
        price=rng.uniform(-80.0, 400.0, k), demand_ch=rng.uniform(0.0, 3.0, k),
        demand_wh=rng.uniform(0.0, 0.5, k),
        pv_cf=np.clip(np.sin(np.linspace(0, np.pi, k)) + rng.normal(0, 0.1, k), 0, 1))


class TestCrateProjection:
    """The single q_crate row is the exact projection of the lifted envelope."""

    @pytest.mark.parametrize("seed", range(6))
    def test_projected_matches_lifted(self, seed):
        data = _random_instance(seed)
        fixed = None
        if seed == 4:   # a pin at the ceiling keeps E_max <= E_cap
            fixed = {"E_max.battery": data.ess["battery"].e_cap_max}
        projected = solve(build(data, fixed=fixed))
        lifted = solve(_lifted(data, fixed=fixed))
        assert projected.optimal and lifted.optimal
        assert projected.objective == pytest.approx(lifted.objective, rel=1e-7)

    def test_projected_matches_lifted_when_crate_binds(self):
        data = _random_instance(0, crate_max=0.05)
        model = build(data)
        projected = solve(model)
        lifted = solve(_lifted(data))
        assert projected.optimal and lifted.optimal
        assert projected.objective == pytest.approx(lifted.objective, rel=1e-7)
        e_max = projected.value(model, "E_max", "battery")
        slack = 0.05 * e_max - _gross(model, data, "battery", projected.x)
        assert e_max > 0.1 and min(slack) == pytest.approx(0.0, abs=1e-7)
