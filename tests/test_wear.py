"""Storage wear on the gross flow through each cell.

The model counts wear on g_k = (tau/eta_d) * P+ + tau * eta_c * P-, an
expression of the storage powers. The earlier model epigraphed the swing
|E[k+1] - E[k]| with a lifted column and two rows per step; it survives
here only as a reference builder.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessmg import builder, costs
from hessmg.builder import ProblemData, build
from hessmg.data import EssSpec, Horizon, SourceSpec
from hessmg.lp import GE, INF, LE, ModelInstance
from hessmg.solve import max_primal_residual, solve, verify


def _swing_build(data):
    """The swing-epigraph reference: q_k >= |E[k+1] - E[k]| through two rows
    per step and q_k <= crate_max * E_max in place of the gross-flow rows,
    with sum_k q_k priced at the per-MWh wear price. Everything else is the
    model's own; its cost functions see specs without energy O&M or resale,
    so they charge no wear on the storage powers, and the capacity's resale
    value is priced here."""
    h = data.horizon
    k_steps = h.n_steps
    om_scale = costs.npv_factor(h.discount_rate, h.years) * costs.annualization(h)
    disc = costs.eol_discount(h.discount_rate, h.years)
    model = ModelInstance()
    builder.register_variables(model, data)
    for name in data.ess:
        model.add_vars([("q_aux", name, 0.0, INF)], k_steps)
    blocks = [*builder.source_flow_rows(model, data), *builder.balance_rows(model, data),
              *builder.capacity_rows(model, data), *builder.dynamics_rows(model, data)]
    for name, ess in data.ess.items():
        q = model.columns("q_aux", name)
        soe = model.columns("E_soe", name)
        nxt, cur = soe[1:], soe[:-1]
        blocks.append(builder._step_rows(
            "mccormick", k_steps,
            (f"q_epi_up.{name}.k", GE, 0.0, [(q, 1.0), (nxt, -1.0), (cur, 1.0)]),
            (f"q_epi_dn.{name}.k", GE, 0.0, [(q, 1.0), (nxt, 1.0), (cur, -1.0)]),
            (f"q_crate.{name}.k", LE, 0.0,
             [(q, 1.0), (model.var("E_max", name), -ess.crate_max)])))
        model.add_objective(q, om_scale * ess.om_energy
                            + disc * ess.resale_factor * ess.cost_energy / ess.cycle_life)
        model.add_objective(model.var("E_max", name),
                            -disc * ess.resale_factor * ess.cost_energy)
    blocks += builder.peak_rows(model, data)
    wear_free = dataclasses.replace(data, ess={
        name: dataclasses.replace(ess, om_energy=0.0, resale_factor=0.0)
        for name, ess in data.ess.items()})
    blocks += costs.capex_rows(model, wear_free)
    builder.add_blocks(model, blocks)
    cols, coefs, model.objective_constant = costs.objective(model, wear_free)
    model.add_objective(cols, coefs)
    return model


def _gross(model, data, name, x):
    """Gross energy through the cell per step, from the powers in x."""
    tau, ess = data.horizon.tau_hours, data.ess[name]
    return tau * (x[model.columns("P_ess_plus", name)] / ess.eta_d
                  + ess.eta_c * x[model.columns("P_ess_minus", name)])


def _storage(name, rng, crate_max=None):
    return EssSpec(
        name=name, eta_c=rng.uniform(0.7, 0.98), eta_d=rng.uniform(0.7, 0.98),
        cost_energy=rng.uniform(5.0, 60.0), cost_power=rng.uniform(5.0, 60.0),
        om_energy=rng.uniform(0.0, 0.02), om_power=rng.uniform(0.0, 5.0),
        e_cap_max=rng.uniform(1.0, 8.0), p_cap_max=rng.uniform(1.0, 5.0),
        crate_max=crate_max or rng.uniform(0.1, 3.0),
        dod_min_frac=rng.uniform(0.0, 0.2), cycle_life=rng.uniform(1e3, 1e4),
        resale_factor=rng.uniform(0.0, 0.9))


def _instance(seed, crate_max=None, horizon=None, zero_pv=False, price_low=-120.0):
    """A seeded instance whose prices dip below zero on about a fifth of
    the steps; the demand never exceeds what the grid alone can serve."""
    rng = np.random.default_rng(seed)
    names = ("battery", "supercapacitor", "flywheel")[:1 + seed % 3]
    ess = {name: _storage(name, rng, crate_max) for name in names}
    horizon = horizon or Horizon(t_syn=1)
    k = horizon.n_steps
    phase = np.linspace(0, 2 * np.pi * horizon.t_syn, k, endpoint=False)
    price = 120.0 + 150.0 * np.sin(phase) + rng.normal(0.0, 40.0, k)
    price = np.maximum(price, price_low)
    pv_cf = np.zeros(k) if zero_pv else np.clip(
        -np.cos(phase) + rng.normal(0, 0.1, k), 0.0, 1.0)
    return ProblemData(
        horizon=horizon, sources=SourceSpec(), ess=ess, price=price,
        demand_ch=rng.uniform(0.0, 2.2, k), demand_wh=rng.uniform(0.0, 0.3, k),
        pv_cf=pv_cf)


def _storage_pairing(model, data, x):
    """Largest charge * discharge product of any storage at any step."""
    products = verify(model, x).pair_products
    return max(float(products[name, "charge and discharge"].max()) for name in data.ess)


class TestSwingReference:
    """Gross-flow wear is never cheaper than swing wear, and equal to it
    whenever the swing optimum does not charge and discharge at once: that
    dispatch is feasible in the gross model, where g_k = |E[k+1] - E[k]|.
    Grid pairing has the same cost in both models."""

    @pytest.mark.parametrize("seed", range(12))
    def test_gross_agrees_with_swing(self, seed):
        data = _instance(seed)
        assert (data.price < 0).any()
        gross_model, swing_model = build(data), _swing_build(data)
        gross, swing = solve(gross_model), solve(swing_model)
        assert gross.optimal and swing.optimal
        scale = max(1.0, abs(swing.objective))
        assert gross.objective >= swing.objective - 1e-9 * scale
        if _storage_pairing(swing_model, data, swing.x) <= 1e-9:
            assert gross.objective == pytest.approx(swing.objective, rel=1e-7)

    def test_some_swing_optima_pair_and_some_do_not(self):
        paired = []
        for seed in range(12):
            data = _instance(seed)
            model = _swing_build(data)
            paired.append(_storage_pairing(model, data, solve(model).x) > 1e-9)
        assert any(paired) and not all(paired)

    def test_gross_agrees_with_swing_when_crate_binds(self):
        # prices stay above 5 EUR/MWh here, so neither optimum pairs
        data = _instance(0, crate_max=0.05, price_low=5.0)
        gross_model, swing_model = build(data), _swing_build(data)
        gross, swing = solve(gross_model), solve(swing_model)
        assert gross.optimal and swing.optimal
        assert _storage_pairing(swing_model, data, swing.x) <= 1e-9
        assert gross.objective == pytest.approx(swing.objective, rel=1e-7)
        e_max = gross.value(gross_model, "E_max", "battery")
        slack = 0.05 * e_max - _gross(gross_model, data, "battery", gross.x)
        assert e_max > 0.1 and min(slack) == pytest.approx(0.0, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       tau=st.sampled_from([15, 60, 240]),
       t_syn=st.sampled_from([1, 2]),
       zero_pv=st.booleans(),
       price_low=st.floats(-200.0, 50.0))
def test_optimal_designs_respect_physics(seed, tau, t_syn, zero_pv, price_low):
    """Every optimum is feasible, audits to its objective and ends each
    period with at least its starting energy."""
    data = _instance(seed, horizon=Horizon(tau_minutes=tau, t_syn=t_syn),
                     zero_pv=zero_pv, price_low=price_low)
    model = build(data)
    sol = solve(model)
    assert sol.optimal
    assert max_primal_residual(model, sol.x) <= 1e-6
    breakdown = costs.audit(sol.x, model, data)
    assert abs(breakdown.total - sol.objective) <= 1e-6 * max(1.0, abs(sol.objective))
    for name in data.ess:
        soe = sol.x[model.columns("E_soe", name)]
        assert soe[-1] >= soe[0] - 1e-6, name


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       price_low=st.floats(-200.0, 50.0),
       keep=st.lists(st.booleans(), min_size=3, max_size=3),
       added=st.integers(0, 2))
def test_adding_a_technology_never_costs_more(seed, price_low, keep, added):
    """On one hourly day, a portfolio plus one more technology has an
    optimum no worse than the portfolio alone: the new one may stay unbuilt."""
    data = _instance(seed, price_low=price_low)
    names = list(data.ess)
    new = names[added % len(names)]
    portfolio = {n: data.ess[n] for n, k in zip(names, keep) if k and n != new}
    without = solve(build(dataclasses.replace(data, ess=portfolio)))
    with_new = solve(build(dataclasses.replace(data, ess={**portfolio, new: data.ess[new]})))
    assert without.optimal and with_new.optimal
    assert with_new.objective <= without.objective + 1e-7 * max(1.0, abs(without.objective))
