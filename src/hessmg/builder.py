"""Assembly of the co-design LP: power flows, storage dynamics, C-rate
limit, and the total-cost-of-ownership objective.

Conventions: bus-side storage powers are decision variables (discharge
``P_ess_plus`` and charge ``P_ess_minus`` in MW at the DC bus), while grid
flows are grid-side (``P_src_plus`` import, ``P_src_minus`` export) and are
mapped to the bus through the converter efficiencies. PV bus power is a
variable bounded above by availability, so curtailment is free.

Storage wear is counted on the gross energy through the cell in step k,
``g_k = (tau/eta_d) * P_ess_plus[k] + tau * eta_c * P_ess_minus[k]`` (MWh
drawn from plus MWh stored). g_k is a linear expression, not a column,
defined once by ``gross_flow_terms``: the SoE recursion and the C-rate row
use it, and the objective prices wear on it directly. It is never below the
net change |E[k+1] - E[k]| and equals it whenever the cell does not charge
and discharge in the same step, so losses burnt by paired flows pay wear.

``build`` makes a model in three calls to the container: the columns in one
``add_layout``, every row in one ``add_rows`` and the whole objective in one
``add_objective``. The stage functions (``source_flow_rows``,
``balance_rows``, ``capacity_rows``, ``dynamics_rows``, ``crate_rows``,
``peak_rows`` and ``costs.capex_rows``) each return their rows as
``lp.Rows`` blocks, each row with exactly its own terms in any order;
``add_rows`` takes them in declaration order and sorts the terms.
``costs.objective`` returns every cost term in the order its coefficients
are summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SERIES, EssSpec, Horizon, SourceSpec
from .lp import EQ, GE, INF, LE, ModelInstance, Rows, step_names
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
        for name in SERIES:
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
        return cls(horizon=horizon, sources=sources, ess=dict(ess),
                   **{name: np.concatenate([getattr(d, name) for d in days])
                      for name in SERIES})


def _step_rows(family: str, n: int, *groups) -> Rows:
    """Rows for steps 0..n-1, step-major: row k of every group in group
    order, then step k+1. A group is ``(name prefix, sense, rhs, terms)``;
    a term is ``(columns, coefficient)``, each a scalar or one value per
    step. Each row holds its group's terms in the order given."""
    widths = [len(g[3]) for g in groups]
    cols = np.empty((n, sum(widths)), dtype=np.int64)
    coefs = np.empty((n, sum(widths)))
    sense = np.empty((n, len(groups)), dtype=np.int8)
    rhs = np.empty((n, len(groups)))
    t = 0
    for g, (_, s, r, terms) in enumerate(groups):
        sense[:, g], rhs[:, g] = s, r
        for col, coef in terms:
            cols[:, t], coefs[:, t] = col, coef
            t += 1
    # row (k, g) ends after the terms of groups 0..g of step k
    ends = np.arange(0, cols.size, cols.shape[1])[:, None] + np.cumsum(widths)
    return Rows(family, step_names([g[0] for g in groups], n),
                np.concatenate(([0], ends.ravel())), cols.ravel(), coefs.ravel(),
                sense.ravel(), rhs.ravel())


def register_variables(model: ModelInstance, data: ProblemData):
    """Create every column with its static bounds."""
    k_steps = data.horizon.n_steps
    grid, pv = data.sources.grid, data.sources.pv

    # Static column caps at the largest rating: the gross converter rows
    # (grid_cap, ess_pow) already imply them and close the paired
    # import+export and charge+discharge rays, so these stay only as bounds
    # that HiGHS uses (dropping them costs it more iterations).
    import_cap = grid.p_cap_max / grid.eta_c
    export_cap = grid.p_cap_max * grid.eta_d
    layout = [([("P_max_src", GRID, 0.0, grid.p_cap_max),
                ("P_max_src", PV, 0.0, pv.p_cap_max),
                ("P_peak", GRID, 0.0, INF)], None),
              ([("P_src_plus", GRID, 0.0, import_cap),
                ("P_src_minus", GRID, 0.0, export_cap),
                ("P_pv", PV, 0.0, INF)], k_steps)]
    for name, ess in data.ess.items():
        layout += [([("E_max", name, 0.0, ess.e_cap_max),
                     ("P_max_ess", name, 0.0, ess.p_cap_max),
                     ("capex_epigraph", name, 0.0, INF)], None),
                   ([("E_soe", name, 0.0, ess.e_cap_max)], k_steps + 1),
                   ([("P_ess_plus", name, 0.0, ess.p_cap_max),
                     ("P_ess_minus", name, 0.0, ess.p_cap_max)], k_steps)]
    model.add_layout(layout)


def source_flow_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """PV availability and the contracted-capacity row of the grid.

    The grid converter moves power one way at a time, up to the contracted
    capacity: import eta_c*P+ or export P-/eta_d at the bus. One gross row,
    eta_c*P+ + P-/eta_d <= P_max_src.G, is the convex hull of that
    disjunction, so the LP admits no paired flow at full rating. PV bus
    power is limited by eta_pv * cf_k * P_pv_max (curtailment allowed).
    """
    grid, pv = data.sources.grid, data.sources.pv
    pv_max = model.var("P_max_src", PV)
    g_max = model.var("P_max_src", GRID)
    return [_step_rows(
        "bounds", data.horizon.n_steps,
        ("pv_avail.k", LE, 0.0, [(model.columns("P_pv", PV), 1.0),
                                 (pv_max, -pv.eta * data.pv_cf)]),
        ("grid_cap.k", LE, 0.0, [(model.columns("P_src_plus", GRID), grid.eta_c),
                                 (model.columns("P_src_minus", GRID), 1.0 / grid.eta_d),
                                 (g_max, -1.0)]))]


def balance_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """DC bus balance: storage + PV + grid bus power equals bus demand."""
    grid = data.sources.grid
    terms = [(model.columns("P_src_plus", GRID), grid.eta_c),
             (model.columns("P_src_minus", GRID), -1.0 / grid.eta_d),
             (model.columns("P_pv", PV), 1.0)]
    for name in data.ess:
        terms.append((model.columns("P_ess_plus", name), 1.0))
        terms.append((model.columns("P_ess_minus", name), -1.0))
    rhs = (data.demand_ch + data.demand_wh) / data.sources.eta_demand
    return [_step_rows("balance", data.horizon.n_steps, ("balance.k", EQ, rhs, terms))]


def capacity_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """Couplings whose right-hand sides are design variables."""
    blocks = []
    for name, ess in data.ess.items():
        e_max = model.var("E_max", name)
        p_max = model.var("P_max_ess", name)
        soe = model.columns("E_soe", name)
        groups = [(f"soe_cap.{name}.k", LE, 0.0, [(soe, 1.0), (e_max, -1.0)])]
        if ess.dod_min_frac > 0.0:
            groups.append((f"soe_dod.{name}.k", GE, 0.0,
                           [(soe, 1.0), (e_max, -ess.dod_min_frac)]))
        blocks.append(_step_rows("bounds", data.horizon.n_steps + 1, *groups))
        # one direction at a time, up to the rating: the gross row is the
        # hull of "discharge or charge", as for the grid in source_flow_rows
        blocks.append(_step_rows(
            "bounds", data.horizon.n_steps,
            (f"ess_pow.{name}.k", LE, 0.0, [(model.columns("P_ess_plus", name), 1.0),
                                            (model.columns("P_ess_minus", name), 1.0),
                                            (p_max, -1.0)])))
    return blocks


def gross_flow_terms(model: ModelInstance, data: ProblemData, name: str):
    """The terms of g_k, the gross energy through the cell in each step:
    MWh removed per MW delivered to the bus, MWh stored per MW drawn, as
    ``[(P_ess_plus columns, MWh per MW), (P_ess_minus columns, MWh per MW)]``."""
    tau, ess = data.horizon.tau_hours, data.ess[name]
    return [(model.columns("P_ess_plus", name), tau / ess.eta_d),
            (model.columns("P_ess_minus", name), tau * ess.eta_c)]


def dynamics_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """State-of-energy recursion and the end-vs-start periodicity row.

    E[k+1] = E[k] - (tau/eta_d) * p_plus + tau * eta_c * p_minus, and
    E[K] >= E[0]: the period ends with at least the energy it started with.
    """
    k_steps = data.horizon.n_steps
    blocks = []
    for name in data.ess:
        (plus, discharge_coef), (minus, charge_coef) = gross_flow_terms(model, data, name)
        soe = model.columns("E_soe", name)
        blocks.append(_step_rows("dynamics", k_steps, (
            f"soe_dyn.{name}.k", EQ, 0.0,
            [(soe[1:], 1.0), (soe[:-1], -1.0),
             (plus, discharge_coef), (minus, -charge_coef)])))
        blocks.append(Rows("dynamics", [f"soe_periodic.{name}"], [0, 2],
                           [soe[k_steps], soe[0]], [1.0, -1.0], [GE], [0.0]))
    return blocks


def crate_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """C-rate limit on the gross energy through the cell: g_k <= R_cap * E_max.

    The per-step limit is the bilinear E_max * R with a rate R in
    [0, R_cap], relaxed to its McCormick envelope over [0, E_cap] x
    [0, R_cap]. R appears in no other row, and eliminating it from the
    envelope leaves g_k <= R_cap * E_max plus E_max <= E_cap, which is
    E_max's column bound (apply_fixed_values keeps pins inside it). So this
    one row per step is exact and no R column is built. At E_max = E_cap
    the envelope is the product itself, g_k = E_max * R.
    """
    return [_step_rows("mccormick", data.horizon.n_steps,
                       (f"q_crate.{name}.k", LE, 0.0,
                        gross_flow_terms(model, data, name)
                        + [(model.var("E_max", name), -ess.crate_max)]))
            for name, ess in data.ess.items()]


def peak_rows(model: ModelInstance, data: ProblemData) -> list[Rows]:
    """Peak offtake epigraph over the grid-side import series."""
    return [_step_rows("peak", data.horizon.n_steps, (
        "peak.k", GE, 0.0, [(model.var("P_peak", GRID), 1.0),
                            (model.columns("P_src_plus", GRID), -1.0)]))]


def design_pins(ess) -> list[str]:
    """The names of the design columns a study may pin in a model with the
    storage technologies `ess`: the grid and PV contract sizes and each
    technology's energy and power ratings."""
    return [f"P_max_src.{GRID}", f"P_max_src.{PV}"] + [
        f"{kind}.{name}" for kind in ("E_max", "P_max_ess") for name in ess]


def apply_fixed_values(model: ModelInstance, data: ProblemData, fixed: dict):
    """Pin design sizes by column name, e.g. {"E_max.battery": 1.0}.

    A pin must be one of ``design_pins(data.ess)`` and lie within its
    declared bounds: the C-rate row is exact only while E_max stays under
    its catalog ceiling.
    """
    pins = design_pins(data.ess)
    lower, upper = model.bounds_arrays()
    for name, value in fixed.items():
        if name not in pins:
            raise BuildError(f"unknown pin {name}: not a design size of this model")
        col = model.col_names.index(name)
        lb, ub = float(lower[col]), float(upper[col])
        if not lb <= value <= ub:
            raise BuildError(f"pinned {name} = {value} lies outside [{lb}, {ub}]")
        model.set_bounds(col, value, value)


def build(data: ProblemData, fixed: dict | None = None) -> ModelInstance:
    """Assemble the full co-design LP, objective included: the columns in
    one layout, every row in one block and the objective in one sum."""
    from . import costs

    model = ModelInstance()
    register_variables(model, data)
    model.add_rows([*source_flow_rows(model, data), *balance_rows(model, data),
                    *capacity_rows(model, data), *dynamics_rows(model, data),
                    *crate_rows(model, data), *peak_rows(model, data),
                    *costs.capex_rows(model, data)])
    if fixed:
        apply_fixed_values(model, data, fixed)
    cols, coefs, constant = costs.objective(model, data)
    model.add_objective(cols, coefs)
    model.objective_constant = constant
    return model
