"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import dataclasses
import pathlib
import time

import numpy as np
import pytest

from hessmg.builder import ProblemData, build
from hessmg.costs import audit, eol_discount, npv_factor
from hessmg.data import (EssSpec, GridSpec, Horizon, HistoricalDay, SourceSpec,
                         load_catalog, make_demo_dataset)
from hessmg.lp import GE, INF, ModelInstance
from hessmg.mps import read_mps, write_mps
from hessmg.run import ExperimentConfig, RunContext, run_experiments
from hessmg.scenario import build_scenario, extract_features, kmeans, standardize
from hessmg.solve import SolveOptions, solve, verify

RESOURCES = pathlib.Path(__file__).resolve().parents[1] / "src" / "hessmg" / "resources"


def _report(num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def case_matrix():
    """Three-run storage matrix on the bundled demo data at K = 168."""
    catalog = load_catalog(RESOURCES / "catalog_case_study.ini")
    days = make_demo_dataset(seed=0, n_days=120)
    horizon = Horizon(t_syn=7)
    scenario = build_scenario(days, w=5, t_syn=7, seed=0)
    ctx = RunContext(horizon=horizon, sources=SourceSpec(), catalog=catalog,
                     scenario=scenario)
    experiments = [
        ExperimentConfig(id="B", ess_subset=("battery",)),
        ExperimentConfig(id="BS", ess_subset=("battery", "supercapacitor")),
        ExperimentConfig(id="BSF",
                         ess_subset=("battery", "supercapacitor", "flywheel")),
    ]
    start = time.perf_counter()
    results = run_experiments(ctx, experiments)
    elapsed = time.perf_counter() - start
    return ctx, results, elapsed


def test_1_oracle_equivalence():
    """LP optimum vs exhaustive discretized dispatch on a 6-step instance."""
    start = time.perf_counter()
    battery = EssSpec(
        name="battery", eta_c=0.8, eta_d=1.0, cost_energy=900.0,
        cost_power=1590.0, om_energy=0.005, om_power=30.0, e_cap_max=40.0,
        p_cap_max=10.0, crate_max=3.0, dod_min_frac=0.0, cycle_life=5000.0,
        resale_factor=0.85)
    horizon = Horizon(tau_minutes=240, t_syn=1)  # six 4-hour steps
    tau = horizon.tau_hours
    price = np.array([200.0, 10.0, 200.0, 10.0, 200.0, 10.0])
    demand = np.full(6, 1.0)
    data = ProblemData(
        horizon=horizon, sources=SourceSpec(), ess={"battery": battery},
        price=price, demand_ch=demand, demand_wh=np.zeros(6), pv_cf=np.zeros(6))
    fixed = {"E_max.battery": 40.0, "P_max_ess.battery": 1.0,
             "P_max_src.PV": 0.0, "P_max_src.G": 2.8}
    model = build(data, fixed=fixed)
    model.set_bounds(model.columns("E_soe", "battery")[0], 20.0, 20.0)  # half of E_max
    sol = solve(model, SolveOptions(engine="highs"))
    assert sol.optimal

    # exhaustive search over 11 dispatch levels per step (net bus power,
    # positive = discharge), replicating every cost term independently
    fac = npv_factor(0.04, 20)
    ann = 365.0
    disc = eol_discount(0.04, 20)
    levels = np.linspace(-1.0, 1.0, 11)
    plan = np.stack(np.meshgrid(*[levels] * 6, indexing="ij"),
                    axis=-1).reshape(-1, 6)
    n = len(plan)
    soe = np.full(n, 20.0)
    feasible = np.ones(n, dtype=bool)
    trajectory = [soe.copy()]
    for k in range(6):
        p = plan[:, k]
        delta = np.where(p >= 0, -(tau / battery.eta_d) * p,
                         tau * battery.eta_c * (-p))
        soe = soe + delta
        feasible &= (soe >= -1e-12) & (soe <= 40.0 + 1e-12)
        trajectory.append(soe.copy())
    feasible &= trajectory[6] >= trajectory[0] - 1e-12
    need = demand[None, :] - plan
    imports = np.where(need > 0, need / 0.95, 0.0)
    exports = np.where(need < 0, -need * 0.95, 0.0)
    feasible &= (0.95 * imports - exports / 0.95).max(axis=1) <= 2.8 + 1e-12
    swings = np.abs(np.diff(np.array(trajectory).T, axis=1))
    throughput = swings.sum(axis=1)
    bill = tau * ((price / 1000.0) * imports).sum(axis=1) \
        - tau * 0.9 * ((price / 1000.0) * exports).sum(axis=1)
    yearly = (ann * bill + 1.2 + 1.8 + 3.0 * 2.8 + 9.03 * imports.max(axis=1)
              + battery.om_power * 1.0 + battery.om_energy * ann * throughput)
    capex = max(battery.cost_energy * 40.0, battery.cost_power * 1.0)
    eol = disc * battery.resale_factor * battery.cost_energy * (
        40.0 - throughput / battery.cycle_life)
    total = capex + fac * yearly - eol
    total[~feasible] = np.inf
    oracle_best = float(total.min())

    elapsed = time.perf_counter() - start
    gap = (oracle_best - sol.objective) / abs(oracle_best)
    ok = (sol.objective <= oracle_best + 1e-6 * abs(oracle_best)
          and gap <= 0.02 and elapsed < 10.0)
    _report(1, "oracle equivalence",
            ok, f"lp={sol.objective:.6g} oracle={oracle_best:.6g} "
                f"gap={gap:.2%} time={elapsed:.1f}s")


def test_2_complementarity():
    """Import*export and charge*discharge vanish on 20 randomized instances."""
    catalog = load_catalog(RESOURCES / "catalog_case_study.ini")
    worst = 0.0
    solved = 0
    for seed in range(20):
        day = make_demo_dataset(seed=100 + seed, n_days=1)[0]
        data = ProblemData(
            horizon=Horizon(t_syn=1), sources=SourceSpec(),
            ess={"battery": catalog["battery"]},
            price=day.price, demand_ch=day.demand_ch,
            demand_wh=day.demand_wh, pv_cf=day.pv_cf)
        sol = solve(build(data), SolveOptions(engine="highs"))
        assert sol.optimal, seed
        report = verify(build(data), sol.x)
        worst = max(worst, report.max_complementarity)
        solved += 1
    ok = solved >= 20 and worst <= 1e-6
    _report(2, "complementarity of paired flows", ok,
            f"{solved} instances, max product {worst:.3g}")


def test_3_feasibility_audit(case_matrix):
    """Residuals <= 1e-6 and independent cost audit on every optimal solve."""
    ctx, results, _ = case_matrix
    worst_resid = 0.0
    worst_gap = 0.0
    for res in results:
        assert res.status == "optimal" and res.error is None
    # re-derive one solution end to end instead of trusting run_one
    catalog = ctx.catalog
    data = ProblemData.from_scenario(ctx.scenario, ctx.horizon, ctx.sources,
                                     {"battery": catalog["battery"]})
    model = build(data)
    sol = solve(model)
    assert sol.optimal
    report = verify(model, sol.x)
    worst_resid = max(report.family_violation["balance"],
                      report.family_violation["dynamics"])
    breakdown = audit(sol.x, model, data)
    worst_gap = abs(breakdown.total - sol.objective) / max(1.0, abs(sol.objective))
    ok = worst_resid <= 1e-6 and worst_gap <= 1e-6
    _report(3, "feasibility and cost audit", ok,
            f"residual={worst_resid:.3g} audit gap={worst_gap:.3g}")


def test_4_subset_monotonicity(case_matrix):
    """Richer storage portfolios never cost more; matrix finishes in time."""
    _, results, elapsed = case_matrix
    obj = {r.exp_id: r.objective for r in results}
    tol = 1e-6 * max(1.0, abs(obj["B"]))
    ok = (obj["BSF"] <= obj["BS"] + tol and obj["BS"] <= obj["B"] + tol
          and elapsed < 300.0)
    _report(4, "storage-subset monotonicity", ok,
            f"J(B)={obj['B']:.6g} J(BS)={obj['BS']:.6g} "
            f"J(BSF)={obj['BSF']:.6g} kEUR, matrix {elapsed:.1f}s")


def test_5_mccormick_tightness():
    """With capacity at its ceiling the envelope collapses to g = Ecap * R.

    g_k is the gross energy through the cell in step k, (tau/eta_d) * P+ +
    tau * eta_c * P-. The model keeps the envelope in its projection
    g <= R_cap * E_max. The lifted rows, g <= E_cap * R and
    g >= E_cap * R + R_cap * E_max - E_cap * R_cap with 0 <= R <= R_cap,
    leave R the interval
    [g / E_cap, min(R_cap, (g + R_cap * (E_cap - E_max)) / E_cap)]. At
    E_max = E_cap it must shrink to the single point R = g / E_cap inside
    [0, R_cap], so that g is exactly the bilinear E_max * R.

    The ceiling binds on its merits: prices alternate 10 and 300 EUR/MWh
    every hour, storage costs 1 kEUR/MWh and wears at no cost, and the grid
    contract (10 MW) lets a whole E_cap charge in one cheap hour. Every
    installed MWh then earns twelve arbitrage cycles a day for far more than
    it costs, which a larger ceiling confirms by giving a lower objective.
    """
    battery = EssSpec(
        name="battery", eta_c=0.95, eta_d=0.95, cost_energy=1.0,
        cost_power=1.0, om_energy=0.0, om_power=0.0, e_cap_max=2.0,
        p_cap_max=10.0, crate_max=3.0, dod_min_frac=0.0, cycle_life=1e6,
        resale_factor=0.0)
    horizon = Horizon(t_syn=1)
    k = horizon.n_steps

    def solved(spec):
        data = ProblemData(
            horizon=horizon, sources=SourceSpec(grid=GridSpec(p_cap_max=10.0)),
            ess={"battery": spec}, price=np.tile([10.0, 300.0], k // 2),
            demand_ch=np.full(k, 1.0), demand_wh=np.zeros(k), pv_cf=np.zeros(k))
        model = build(data)
        sol = solve(model)
        assert sol.optimal
        return model, sol

    model, sol = solved(battery)
    _, roomier = solved(dataclasses.replace(battery, e_cap_max=2.5))
    e_cap, r_cap = battery.e_cap_max, battery.crate_max
    e_max = sol.value(model, "E_max", "battery")
    tau = horizon.tau_hours
    gross = tau * (sol.x[model.columns("P_ess_plus", "battery")] / battery.eta_d
                   + battery.eta_c * sol.x[model.columns("P_ess_minus", "battery")])
    worst = 0.0
    for g in gross:
        lo = g / e_cap
        hi = min(r_cap, (g + r_cap * (e_cap - e_max)) / e_cap)
        worst = max(worst, abs(hi - lo), lo - r_cap, -lo)
    binds = roomier.objective < sol.objective - 1e-6 * abs(sol.objective)
    ok = abs(e_max - e_cap) <= 1e-9 and worst <= 1e-6 and binds
    _report(5, "McCormick tightness at capacity ceiling", ok,
            f"E_max={e_max:.9g} max width of the R interval={worst:.3g} "
            f"J(E_cap=2)={sol.objective:.6g} J(E_cap=2.5)={roomier.objective:.6g}")


def test_6_scenario_invariants():
    """Weights, transition rows, coverage, determinism, blob recovery."""
    days = make_demo_dataset(seed=0, n_days=120)
    a = build_scenario(days, w=5, t_syn=7, seed=0)
    b = build_scenario(days, w=5, t_syn=7, seed=0)

    weights_exact = float(np.sum(a.weights)) == 1.0
    rows_ok = bool(np.all(np.abs(a.transition.sum(axis=1) - 1.0) <= 1e-12))
    coverage = set(a.sequence.tolist()) == set(range(5))
    deterministic = a == b

    # two well-separated synthetic regimes must be recovered exactly
    rng = np.random.default_rng(42)
    blob_days = []
    for i in range(16):
        lo = i < 8
        price = rng.normal(30.0 if lo else 300.0, 2.0, 24)
        demand = np.abs(rng.normal(0.5 if lo else 3.0, 0.05, 24))
        pv = np.clip(rng.normal(0.2 if lo else 0.7, 0.02, 24), 0, 1)
        blob_days.append(HistoricalDay(
            date=make_demo_dataset(seed=0, n_days=20)[i].date,
            price=price, demand_ch=demand, demand_wh=np.zeros(24), pv_cf=pv))
    feats = standardize(np.array([extract_features(d) for d in blob_days]))
    _, labels = kmeans(feats, 2, seed=0)
    truth = np.array([0] * 8 + [1] * 8)
    blob_ok = bool(np.all(labels == truth) or np.all(labels == 1 - truth))

    ok = weights_exact and rows_ok and coverage and deterministic and blob_ok
    _report(6, "scenario-synthesis invariants", ok,
            f"sum(pi)==1:{weights_exact} rows:{rows_ok} cover:{coverage} "
            f"det:{deterministic} blobs:{blob_ok}")


def test_7_npv_correctness():
    """Zero-rate audit equals years x yearly cost; the textbook annuity value."""
    factor_ok = abs(100.0 * npv_factor(0.04, 2) - 188.6095) <= 1e-4

    def solved_audit(years):
        horizon = Horizon(t_syn=1, years=years, discount_rate=0.0)
        k = horizon.n_steps
        data = ProblemData(
            horizon=horizon, sources=SourceSpec(), ess={},
            price=np.full(k, 60.0), demand_ch=np.full(k, 1.0),
            demand_wh=np.zeros(k), pv_cf=np.zeros(k))
        model = build(data, fixed={"P_max_src.PV": 0.0})
        sol = solve(model, SolveOptions(engine="highs"))
        assert sol.optimal
        return audit(sol.x, model, data, solver_objective=sol.objective)

    one, five = solved_audit(1), solved_audit(5)
    scaling_ok = abs(five.opex_npv - 5.0 * one.opex_npv) <= 1e-9 * five.opex_npv
    ok = factor_ok and scaling_ok
    _report(7, "NPV correctness", ok,
            f"annuity(100,4%,2y)={100 * npv_factor(0.04, 2):.4f} "
            f"opex(5y)/opex(1y)={five.opex_npv / one.opex_npv:.9f}")


GOLDEN_MPS = """NAME ACCEPT
ROWS
 N COST
 G floor
COLUMNS
 x COST 1
 x floor 1
RHS
 RHS floor 3
BOUNDS
ENDATA
"""


def test_8_mps_round_trip(tmp_path):
    """Golden single-variable file byte-exact; full model re-parses identically."""
    tiny = ModelInstance()
    tiny.add_columns(["x"], [0.0], [INF])
    x = 0
    tiny.add_row([(x, 1.0)], GE, 3.0, "floor", "t")
    tiny.add_objective(x, 1.0)
    golden_path = tmp_path / "tiny.mps"
    write_mps(tiny, golden_path, name="ACCEPT")
    golden_ok = golden_path.read_text() == GOLDEN_MPS

    catalog = load_catalog(RESOURCES / "catalog_case_study.ini")
    days = make_demo_dataset(seed=0, n_days=30)
    scenario = build_scenario(days, w=3, t_syn=3, seed=0)
    data = ProblemData.from_scenario(
        scenario, Horizon(t_syn=3), SourceSpec(),
        {"battery": catalog["battery"], "flywheel": catalog["flywheel"]})
    model = build(data)
    path = tmp_path / "full.mps"
    write_mps(model, path)
    round_trip_ok = read_mps(path).signature() == model.signature()

    ok = golden_ok and round_trip_ok
    _report(8, "MPS export round-trip", ok,
            f"golden byte-exact:{golden_ok} structure identical:{round_trip_ok}")
