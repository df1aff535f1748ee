"""Assembly of the co-design LP: power flows, storage dynamics, C-rate
limit, throughput accounting, and the total-cost-of-ownership objective.

Conventions: bus-side storage powers are decision variables (discharge
``P_ess_plus`` and charge ``P_ess_minus`` in MW at the DC bus), while grid
flows are grid-side (``P_src_plus`` import, ``P_src_minus`` export) and are
mapped to the bus through the converter efficiencies. PV bus power is a
variable bounded above by availability, so curtailment is free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EssSpec, Horizon, SourceSpec
from .lp import ModelInstance, EQ, GE, LE
from .scenario import ScenarioModel

GRID = "G"
PV = "PV"


class BuildError(ValueError):
    """Inconsistent build configuration."""


@dataclass
class ProblemData:
    """Everything the builder and cost model need for one instance."""

    horizon: Horizon
    sources: SourceSpec
    ess: dict[str, EssSpec]
    price: np.ndarray        # EUR/MWh, length K
    demand_ch: np.ndarray    # MW, length K
    demand_wh: np.ndarray    # MW, length K
    pv_cf: np.ndarray        # fraction, length K

    def __post_init__(self):
        k = self.horizon.n_steps
        for name in ("price", "demand_ch", "demand_wh", "pv_cf"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if len(arr) != k:
                raise BuildError(f"{name} has {len(arr)} steps, horizon needs {k}")

    @classmethod
    def from_scenario(cls, scenario: ScenarioModel, horizon: Horizon,
                      sources: SourceSpec, ess: dict[str, EssSpec]) -> "ProblemData":
        days = scenario.synthetic_days
        if len(days) != horizon.t_syn:
            raise BuildError(
                f"scenario supplies {len(days)} days, horizon needs {horizon.t_syn}")
        return cls(
            horizon=horizon, sources=sources, ess=dict(ess),
            price=np.concatenate([d.price for d in days]),
            demand_ch=np.concatenate([d.demand_ch for d in days]),
            demand_wh=np.concatenate([d.demand_wh for d in days]),
            pv_cf=np.concatenate([d.pv_cf for d in days]),
        )


def register_variables(model: ModelInstance, data: ProblemData):
    """Create every column with its static bounds."""
    k_steps = data.horizon.n_steps
    grid, pv = data.sources.grid, data.sources.pv

    model.add_var("P_max_src", GRID, lb=0.0, ub=grid.p_cap_max)
    model.add_var("P_max_src", PV, lb=0.0, ub=pv.p_cap_max)
    model.add_var("P_peak", GRID, lb=0.0)

    # Static grid-side caps: the contracted-capacity rows couple the *net*
    # bus flow, which leaves a paired import+export ray unbounded when
    # prices go negative. The converter hardware cannot exceed the largest
    # contractable rating, which closes that ray.
    import_cap = grid.p_cap_max / grid.eta_c
    export_cap = grid.p_cap_max * grid.eta_d
    for k in range(k_steps):
        model.add_var("P_src_plus", GRID, k, lb=0.0, ub=import_cap)
        model.add_var("P_src_minus", GRID, k, lb=0.0, ub=export_cap)
        model.add_var("P_pv", PV, k, lb=0.0)

    for name, ess in data.ess.items():
        model.add_var("E_max", name, lb=0.0, ub=ess.e_cap_max)
        model.add_var("P_max_ess", name, lb=0.0, ub=ess.p_cap_max)
        model.add_var("Q_throughput", name, lb=0.0)
        model.add_var("capex_epigraph", name, lb=0.0)
        for k in range(k_steps + 1):
            model.add_var("E_soe", name, k, lb=0.0, ub=ess.e_cap_max)
        for k in range(k_steps):
            model.add_var("P_ess_plus", name, k, lb=0.0, ub=ess.p_cap_max)
            model.add_var("P_ess_minus", name, k, lb=0.0, ub=ess.p_cap_max)
            model.add_var("q_aux", name, k, lb=0.0)


def add_source_flows(model: ModelInstance, data: ProblemData):
    """PV availability and contracted-capacity envelopes for the grid.

    Bus-side grid power is eta_c*P+ - P-/eta_d; its magnitude is limited by
    the contracted capacity variable. PV bus power is limited by
    eta_pv * cf_k * P_pv_max (curtailment allowed).
    """
    grid, pv = data.sources.grid, data.sources.pv
    pv_max = model.var("P_max_src", PV)
    g_max = model.var("P_max_src", GRID)
    for k in range(data.horizon.n_steps):
        p_pv = model.var("P_pv", PV, k)
        model.add_row([(p_pv, 1.0), (pv_max, -pv.eta * data.pv_cf[k])],
                      LE, 0.0, f"pv_avail.k{k}", "bounds")
        imp = model.var("P_src_plus", GRID, k)
        exp = model.var("P_src_minus", GRID, k)
        net = [(imp, grid.eta_c), (exp, -1.0 / grid.eta_d)]
        model.add_row(net + [(g_max, -1.0)], LE, 0.0, f"grid_cap_hi.k{k}", "bounds")
        model.add_row([(c, -v) for c, v in net] + [(g_max, -1.0)],
                      LE, 0.0, f"grid_cap_lo.k{k}", "bounds")


def add_balance(model: ModelInstance, data: ProblemData):
    """DC bus balance: storage + PV + grid bus power equals bus demand."""
    grid = data.sources.grid
    eta_d = data.sources.eta_demand
    for k in range(data.horizon.n_steps):
        terms = [
            (model.var("P_src_plus", GRID, k), grid.eta_c),
            (model.var("P_src_minus", GRID, k), -1.0 / grid.eta_d),
            (model.var("P_pv", PV, k), 1.0),
        ]
        for name in data.ess:
            terms.append((model.var("P_ess_plus", name, k), 1.0))
            terms.append((model.var("P_ess_minus", name, k), -1.0))
        rhs = (data.demand_ch[k] + data.demand_wh[k]) / eta_d
        model.add_row(terms, EQ, rhs, f"balance.k{k}", "balance")


def add_capacity_bounds(model: ModelInstance, data: ProblemData):
    """Couplings whose right-hand sides are design variables."""
    for name in data.ess:
        e_max = model.var("E_max", name)
        p_max = model.var("P_max_ess", name)
        dod = data.ess[name].dod_min_frac
        for k in range(data.horizon.n_steps + 1):
            soe = model.var("E_soe", name, k)
            model.add_row([(soe, 1.0), (e_max, -1.0)], LE, 0.0,
                          f"soe_cap.{name}.k{k}", "bounds")
            if dod > 0.0:
                model.add_row([(soe, 1.0), (e_max, -dod)], GE, 0.0,
                              f"soe_dod.{name}.k{k}", "bounds")
        for k in range(data.horizon.n_steps):
            plus = model.var("P_ess_plus", name, k)
            minus = model.var("P_ess_minus", name, k)
            model.add_row([(plus, 1.0), (minus, -1.0), (p_max, -1.0)],
                          LE, 0.0, f"ess_pow_hi.{name}.k{k}", "bounds")
            model.add_row([(plus, -1.0), (minus, 1.0), (p_max, -1.0)],
                          LE, 0.0, f"ess_pow_lo.{name}.k{k}", "bounds")


def add_ess_dynamics(model: ModelInstance, data: ProblemData):
    """State-of-energy recursion and the end-vs-start periodicity row.

    E[k+1] = E[k] - (tau/eta_d) * p_plus + tau * eta_c * p_minus.
    """
    tau = data.horizon.tau_hours
    k_steps = data.horizon.n_steps
    for name, ess in data.ess.items():
        discharge_coef = tau / ess.eta_d   # MWh removed per MW delivered to bus
        charge_coef = tau * ess.eta_c      # MWh stored per MW drawn from bus
        for k in range(k_steps):
            model.add_row([
                (model.var("E_soe", name, k + 1), 1.0),
                (model.var("E_soe", name, k), -1.0),
                (model.var("P_ess_plus", name, k), discharge_coef),
                (model.var("P_ess_minus", name, k), -charge_coef),
            ], EQ, 0.0, f"soe_dyn.{name}.k{k}", "dynamics")
        model.add_row([
            (model.var("E_soe", name, k_steps), 1.0),
            (model.var("E_soe", name, 1), -1.0),
        ], GE, 0.0, f"soe_periodic.{name}", "dynamics")


def add_crate_mccormick(model: ModelInstance, data: ProblemData):
    """Per-step energy-swing variable q and its C-rate limit q <= R_cap * E_max.

    q epigraphs the swing |E[k+1]-E[k]|. The swing limit is the bilinear
    E_max * R with a rate R in [0, R_cap], relaxed to its McCormick envelope
    over [0, E_cap] x [0, R_cap]. R appears in no other row, and eliminating
    it from the envelope leaves q <= R_cap * E_max plus E_max <= E_cap, which
    is E_max's column bound (apply_fixed_values keeps pins inside it). So
    this one row is exact and no R column is built. At E_max = E_cap the
    envelope is the product itself, q = E_max * R.
    """
    for name, ess in data.ess.items():
        if ess.e_cap_max <= 0 or ess.crate_max <= 0:
            raise BuildError(f"{name}: capacity and C-rate ceilings must be positive")
        e_max = model.var("E_max", name)
        for k in range(data.horizon.n_steps):
            q = model.var("q_aux", name, k)
            nxt = model.var("E_soe", name, k + 1)
            cur = model.var("E_soe", name, k)
            model.add_row([(q, 1.0), (nxt, -1.0), (cur, 1.0)], GE, 0.0,
                          f"q_epi_up.{name}.k{k}", "mccormick")
            model.add_row([(q, 1.0), (nxt, 1.0), (cur, -1.0)], GE, 0.0,
                          f"q_epi_dn.{name}.k{k}", "mccormick")
            model.add_row([(q, 1.0), (e_max, -ess.crate_max)], LE, 0.0,
                          f"q_crate.{name}.k{k}", "mccormick")


def add_throughput(model: ModelInstance, data: ProblemData):
    """Q_e equals the summed per-step energy swings."""
    for name in data.ess:
        terms = [(model.var("Q_throughput", name), 1.0)]
        terms += [(model.var("q_aux", name, k), -1.0)
                  for k in range(data.horizon.n_steps)]
        model.add_row(terms, EQ, 0.0, f"throughput.{name}", "throughput")


def add_peak(model: ModelInstance, data: ProblemData):
    """Peak offtake epigraph over the grid-side import series."""
    peak = model.var("P_peak", GRID)
    for k in range(data.horizon.n_steps):
        model.add_row([(peak, 1.0), (model.var("P_src_plus", GRID, k), -1.0)],
                      GE, 0.0, f"peak.k{k}", "peak")


def apply_fixed_values(model: ModelInstance, fixed: dict):
    """Pin design variables, e.g. {("E_max", "battery"): 1.0}.

    A pin must lie within the column's declared bounds: the C-rate row is
    exact only while E_max stays under its catalog ceiling.
    """
    for (kind, entity), value in fixed.items():
        ref = model.var(kind, entity)
        lb, ub = model.lower[ref.column], model.upper[ref.column]
        if not lb <= value <= ub:
            raise BuildError(f"pinned {ref.name} = {value} lies outside [{lb}, {ub}]")
        model.set_bounds(ref, value, value)


def add_initial_soe(model: ModelInstance, data: ProblemData, frac: float):
    """Optionally anchor E[0] at a fixed fraction of installed capacity."""
    for name in data.ess:
        model.add_row([
            (model.var("E_soe", name, 0), 1.0),
            (model.var("E_max", name), -frac),
        ], EQ, 0.0, f"soe_init.{name}", "dynamics")


def build(data: ProblemData, fixed: dict | None = None,
          initial_soe_frac: float | None = None) -> ModelInstance:
    """Assemble the full co-design LP, objective included."""
    from . import costs

    model = ModelInstance()
    register_variables(model, data)
    add_source_flows(model, data)
    add_balance(model, data)
    add_capacity_bounds(model, data)
    add_ess_dynamics(model, data)
    add_crate_mccormick(model, data)
    add_throughput(model, data)
    add_peak(model, data)
    if initial_soe_frac is not None:
        add_initial_soe(model, data, initial_soe_frac)
    if fixed:
        apply_fixed_values(model, fixed)
    costs.objective_capex(model, data)
    costs.objective_opex(model, data)
    costs.objective_resale(model, data)
    return model
