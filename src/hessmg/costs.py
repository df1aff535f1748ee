"""Total-cost-of-ownership objective and the independent solution audit.

Money is k EUR throughout. The synthetic period (t_syn days) is scaled to a
calendar year by 365/t_syn before discounting; yearly operating cost is then
multiplied by the annuity factor sum_{y=1..Y} (1+r)^-y, and end-of-life
resale is discounted by (1+r)^-Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builder import GRID, PV, ProblemData, gross_flow_terms
from .lp import GE, ModelInstance, Rows

EUR_PER_KEUR = 1000.0
AUDIT_REL_TOL = 1e-6     # largest relative gap between audit and solver objective


def npv_factor(rate: float, years: int) -> float:
    """Present value of 1 unit per year for `years` years at `rate`."""
    if rate == 0.0:
        return float(years)
    return sum((1.0 + rate) ** -y for y in range(1, years + 1))


def eol_discount(rate: float, years: int) -> float:
    return (1.0 + rate) ** -years


def annualization(horizon) -> float:
    """Scale from the synthetic period to one calendar year."""
    return 365.0 / horizon.t_syn


def capex_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """Storage capex epigraphs: capex_epigraph >= the energy- and the
    power-priced cost of each technology."""
    names, cols, coefs = [], [], []
    for name, ess in data.ess.items():
        cap = model.var("capex_epigraph", name)
        names += [f"capex_energy.{name}", f"capex_power.{name}"]
        cols += [cap, model.var("E_max", name), cap, model.var("P_max_ess", name)]
        coefs += [1.0, -ess.cost_energy, 1.0, -ess.cost_power]
    n = len(names)
    return [Rows("capex", names, np.arange(0, 2 * n + 1, 2), cols, coefs,
                 [GE] * n, np.zeros(n))]


def objective_capex(model: ModelInstance, data: ProblemData):
    """Storage capex (the epigraph columns of ``capex_rows``) + PV, as
    ``(columns, coefficients)`` terms."""
    return [([model.var("capex_epigraph", name) for name in data.ess], 1.0),
            (model.var("P_max_src", PV), data.sources.pv.cost_per_mw)]


def objective_opex(model: ModelInstance, data: ProblemData):
    """NPV-weighted yearly operating cost as ``(columns, coefficients)``
    terms.

    Yearly cost = annualized grid energy bill (exports credited at
    f_sell * price) + storage O&M (fixed on installed power, variable on
    the annualized gross flow g_k through the cell, charged on the storage
    powers through ``gross_flow_terms``) + PV O&M + grid connection tariff
    components. The fixed connection charges are ``objective``'s constant.
    """
    h = data.horizon
    grid = data.sources.grid
    fac = npv_factor(h.discount_rate, h.years)
    ann = annualization(h)

    price_keur = data.price / EUR_PER_KEUR
    terms = [(model.columns("P_src_plus", GRID), fac * ann * h.tau_hours * price_keur),
             (model.columns("P_src_minus", GRID),
              -fac * ann * h.tau_hours * grid.f_sell * price_keur)]
    for name, ess in data.ess.items():
        terms.append((model.var("P_max_ess", name), fac * ess.om_power))
        for cols, mwh in gross_flow_terms(model, data, name):
            terms.append((cols, fac * ann * ess.om_energy * mwh))
    terms += [(model.var("P_max_src", PV), fac * data.sources.pv.om_per_mw_yr),
              (model.var("P_max_src", GRID), fac * grid.var_per_mw),
              (model.var("P_peak", GRID), fac * grid.peak_per_mw)]
    return terms


def objective_resale(model: ModelInstance, data: ProblemData):
    """Discounted end-of-life value of storage and PV, subtracted, as
    ``(columns, coefficients)`` terms.

    Storage resale scales with remaining cycle life: energy-priced value of
    the installed capacity minus the cycle-weighted value of the gross flow
    g_k through the cell over the optimization period, charged on the
    storage powers through ``gross_flow_terms``.
    """
    h = data.horizon
    disc = eol_discount(h.discount_rate, h.years)
    terms = []
    for name, ess in data.ess.items():
        terms.append((model.var("E_max", name), -disc * ess.resale_factor * ess.cost_energy))
        wear = disc * ess.resale_factor * ess.cost_energy / ess.cycle_life
        for cols, mwh in gross_flow_terms(model, data, name):
            terms.append((cols, wear * mwh))
    pv = data.sources.pv
    terms.append((model.var("P_max_src", PV), -disc * pv.resale_factor * pv.cost_per_mw))
    return terms


def objective(model: ModelInstance, data: ProblemData):
    """The whole objective as ``(columns, coefficients, constant)``: the
    capex, opex and resale terms in that order, joined into two flat
    arrays, whose coefficients ``add_objective`` sums per column in that
    order, and the fixed yearly connection charges' present value."""
    terms = [*objective_capex(model, data), *objective_opex(model, data),
             *objective_resale(model, data)]
    cols = [np.array(c, dtype=np.int64, ndmin=1) for c, _ in terms]
    coefs = [v if isinstance(v, np.ndarray) else np.full(len(c), v)
             for c, (_, v) in zip(cols, terms)]
    h, grid = data.horizon, data.sources.grid
    constant = npv_factor(h.discount_rate, h.years) * (grid.conn_fixed + grid.tran_fixed)
    return np.concatenate(cols), np.concatenate(coefs), constant


@dataclass
class CostBreakdown:
    """Audit of one solution into the result-table cost/energy columns."""

    total: float                 # kEUR
    capex: float                 # kEUR
    opex_npv: float              # kEUR
    eol_value: float             # kEUR
    energy_sold: float           # MWh over the synthetic period
    energy_purchased: float      # MWh over the synthetic period
    capex_per_ess: dict[str, float] = field(default_factory=dict)
    grid_connection: dict[str, float] = field(default_factory=dict)  # yearly, kEUR

    CSV_COLUMNS = ("total_cost_keur", "capex_keur", "opex_keur", "eol_value_keur",
                   "energy_sold_mwh", "energy_purchased_mwh")

    def as_csv_values(self):
        return (self.total, self.capex, self.opex_npv, self.eol_value,
                self.energy_sold, self.energy_purchased)

    def as_dict(self):
        return {**dict(zip(self.CSV_COLUMNS, self.as_csv_values())),
                "capex_per_ess_keur": dict(self.capex_per_ess),
                "grid_connection_yearly_keur": dict(self.grid_connection)}


class AuditError(AssertionError):
    """Recomputed objective disagrees with the solver objective."""


def audit(x, model: ModelInstance, data: ProblemData,
          solver_objective: float | None = None) -> CostBreakdown:
    """Recompute every cost term from primal values, bypassing the objective row.

    Peak offtake and per-storage capex are re-derived from the dispatch and
    sizing values rather than read from their epigraph variables, and each
    storage's throughput is the gross energy through its cell recomputed
    from ``P_ess_plus``/``P_ess_minus`` and the catalog efficiencies, not
    taken from the builder's ``gross_flow_terms`` or the objective vector.
    When `solver_objective` is given, a mismatch beyond AUDIT_REL_TOL
    (relative), or a total or objective that is not finite, raises
    AuditError with per-term detail.
    """
    x = np.asarray(x)
    h = data.horizon
    grid, pv = data.sources.grid, data.sources.pv
    fac = npv_factor(h.discount_rate, h.years)
    ann = annualization(h)
    disc = eol_discount(h.discount_rate, h.years)

    def val(kind, entity):
        return x[model.var(kind, entity)]

    imports = x[model.columns("P_src_plus", GRID)]
    exports = x[model.columns("P_src_minus", GRID)]
    price_keur = data.price / EUR_PER_KEUR

    energy_purchased = h.tau_hours * imports.sum()
    energy_sold = h.tau_hours * exports.sum()
    energy_bill = h.tau_hours * float(
        price_keur @ imports - grid.f_sell * (price_keur @ exports))

    p_grid_max = val("P_max_src", GRID)
    p_pv_max = val("P_max_src", PV)
    peak = float(imports.max()) if h.n_steps else 0.0
    connection = {
        "conn_fixed": grid.conn_fixed,
        "tran_fixed": grid.tran_fixed,
        "var": grid.var_per_mw * p_grid_max,
        "peak": grid.peak_per_mw * peak,
    }

    yearly = ann * energy_bill + sum(connection.values()) + pv.om_per_mw_yr * p_pv_max
    capex_per_ess = {}
    eol = disc * pv.resale_factor * pv.cost_per_mw * p_pv_max
    for name, ess in data.ess.items():
        e_max = val("E_max", name)
        p_max = val("P_max_ess", name)
        q_total = h.tau_hours * (x[model.columns("P_ess_plus", name)].sum() / ess.eta_d
                                 + ess.eta_c * x[model.columns("P_ess_minus", name)].sum())
        yearly += ess.om_power * p_max + ess.om_energy * ann * q_total
        capex_per_ess[name] = max(ess.cost_energy * e_max, ess.cost_power * p_max)
        eol += disc * ess.resale_factor * ess.cost_energy * (
            e_max - q_total / ess.cycle_life)

    capex = sum(capex_per_ess.values()) + pv.cost_per_mw * p_pv_max
    opex = fac * yearly
    total = capex + opex - eol
    breakdown = CostBreakdown(
        total=total, capex=capex, opex_npv=opex, eol_value=eol,
        energy_sold=energy_sold, energy_purchased=energy_purchased,
        capex_per_ess=capex_per_ess, grid_connection=connection)

    if solver_objective is not None:
        # the gap is finite only when both totals are
        gap = abs(total - solver_objective)
        if not (np.isfinite(gap)
                and gap <= AUDIT_REL_TOL * max(1.0, abs(solver_objective))):
            raise AuditError(
                "objective audit failure: "
                f"recomputed {total:.9g} vs solver {solver_objective:.9g} "
                f"(capex {capex:.6g}, opex {opex:.6g}, eol {eol:.6g})")
    return breakdown
