"""Each correctness check passes on real program output and rejects a
planted fault."""

import json
import os

import numpy as np
import pytest

from hessmg.builder import ProblemData, build
from hessmg.data import Horizon, SourceSpec, load_catalog, load_dataset
from hessmg.mps import read_mps, write_mps
from hessmg.run import ExperimentConfig, RunContext, run_one
from hessmg.scenario import build_scenario
from hessmg.solve import SolveOptions, solve

import checks
import inputs
import workloads


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """A two-day context built from the benchmark's own generated CSVs."""
    paths = inputs.write_inputs(tmp_path_factory.mktemp("in"), 3, 20, 24)
    horizon = Horizon(t_syn=2)
    days = load_dataset(*paths, horizon)
    return RunContext(horizon=horizon, sources=SourceSpec(),
                      catalog=load_catalog(workloads.CATALOG),
                      scenario=build_scenario(days, 2, 2, 3))


@pytest.fixture(scope="module")
def design(ctx):
    res = run_one(ctx, ExperimentConfig(id="2_BS",
                                        ess_subset=("battery", "supercapacitor")))
    as_json = json.loads(json.dumps(res.as_dict()))
    return as_json, {k: np.array(v) for k, v in as_json["traces"].items()}


@pytest.fixture(scope="module")
def ceilings():
    return checks.catalog_ceilings(workloads.CATALOG)


def test_design_checks_pass_on_program_output(design, ceilings):
    result, traces = design
    checks.check_design(result, traces, ceilings, 2.8, 5.0, 1.0)


def test_unbalanced_step_is_rejected(design):
    _, traces = design
    bad = {k: v.copy() for k, v in traces.items()}
    bad["source_G"][17] += 1e-4
    with pytest.raises(checks.CheckError, match="step 17"):
        checks.check_balance(bad, 1.0)


def test_soe_outside_its_range_is_rejected(design, ceilings):
    result, traces = design
    bad = {k: v.copy() for k, v in traces.items()}
    bad["soe_battery"][5] = result["e_max_mwh"]["battery"] * 1.01 + 1e-3
    with pytest.raises(checks.CheckError, match="soe_battery"):
        checks.check_soe(bad, result["e_max_mwh"], ceilings)


def test_size_above_its_ceiling_is_rejected(design, ceilings):
    result, _ = design
    bad = json.loads(json.dumps(result))
    bad["p_grid_max_mw"] = 2.9
    with pytest.raises(checks.CheckError, match="p_grid_max"):
        checks.check_sizes(bad, ceilings, 2.8, 5.0)


def test_non_monotone_matrix_is_rejected():
    checks.check_nested({"1_B": 100.0, "2_BS": 90.0, "3_BF": 100.0, "4_BSF": 90.0})
    with pytest.raises(checks.CheckError, match="4_BSF"):
        checks.check_nested({"1_B": 100.0, "2_BS": 90.0, "3_BF": 95.0, "4_BSF": 91.0})


def test_cost_rising_with_the_ceiling_is_rejected():
    checks.check_monotone_in_ceiling([(3.6, 80.0), (2.8, 100.0)])
    with pytest.raises(checks.CheckError, match="ceiling 3.6"):
        checks.check_monotone_in_ceiling([(2.8, 100.0), (3.6, 100.01)])


def test_summary_total_must_match_the_objective():
    results = [{"exp_id": "1_B", "objective_keur": 100.0}]
    checks.check_summary_matches({"1_B": {"total_cost_keur": "100.00000001"}}, results)
    with pytest.raises(checks.CheckError, match="summary total"):
        checks.check_summary_matches({"1_B": {"total_cost_keur": "100.01"}}, results)


def test_reference_solve_agrees_with_the_program(ctx):
    data = ProblemData.from_scenario(ctx.scenario, ctx.horizon, ctx.sources,
                                     {"battery": ctx.catalog["battery"]})
    model = build(data)
    ours = solve(model, SolveOptions(engine="highs")).objective
    assert checks.rel_close(checks.linprog_objective(model), ours)


def test_mps_with_one_changed_coefficient_is_rejected(ctx, tmp_path):
    data = ProblemData.from_scenario(ctx.scenario, ctx.horizon, ctx.sources,
                                     dict(ctx.catalog))
    model = build(data)
    path = tmp_path / "model.mps"
    write_mps(model, path)
    back = read_mps(path)
    checks.check_models_equal(model, back)
    checks.check_finite(back)
    checks.check_balance_rows(back, ctx.horizon.n_steps)

    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith(" E_soe.battery.k3 soe_dyn.battery.k3 "))
    name, row, value = lines[i].split()
    lines[i] = f" {name} {row} {float(value) * (1 + 1e-12)!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="constraint matrices differ"):
        checks.check_models_equal(model, read_mps(path))


def test_missing_balance_row_is_rejected(ctx):
    data = ProblemData.from_scenario(ctx.scenario, ctx.horizon, ctx.sources,
                                     {"battery": ctx.catalog["battery"]})
    model = build(data)
    model.rows = [r for r in model.rows if r.name != "balance.k4"]
    with pytest.raises(checks.CheckError, match="balance rows"):
        checks.check_balance_rows(model, ctx.horizon.n_steps)


def test_inputs_repeat_for_a_seed(tmp_path):
    a = inputs.write_inputs(tmp_path / "a", 5, 3, 96)
    b = inputs.write_inputs(tmp_path / "b", 5, 3, 96)
    c = inputs.write_inputs(tmp_path / "c", 6, 3, 96)
    read = [[open(p, "rb").read() for p in paths] for paths in (a, b, c)]
    assert read[0] == read[1] and read[0] != read[2]
    assert len(read[0][0].splitlines()) == 1 + 3 * 96
    assert os.path.basename(a[0]) == "prices.csv"
