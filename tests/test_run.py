import csv
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

import hessmg.run as run_module
from hessmg.builder import BuildError, build
from hessmg.cli import main
from hessmg.data import (SERIES, SIGNAL_FILES, GridSpec, Horizon, IncompleteDayWarning,
                         SourceSpec, make_demo_dataset, write_demo_files)
from hessmg.run import (VIOLATION_TOL, ExperimentConfig, RunContext,
                        context_from_config, paired_flow_warnings, problem_data,
                        run_experiments, run_one,
                        emit_traces, write_outputs, write_results_json,
                        write_summary, summary_columns)
from hessmg.scenario import ScenarioModel, build_scenario
from hessmg.solve import solve, verify

import pathlib

RESOURCES = pathlib.Path(__file__).resolve().parents[1] / "src" / "hessmg" / "resources"


@pytest.fixture(scope="module")
def ctx(case_catalog):
    days = make_demo_dataset(seed=11, n_days=30)
    horizon = Horizon(t_syn=4)
    scenario = build_scenario(days, w=4, t_syn=4, seed=0)
    return RunContext(horizon=horizon, sources=SourceSpec(),
                      catalog=case_catalog, scenario=scenario)


# the paper's storage matrix: B, BS, BF, BSF
MATRIX = [
    ExperimentConfig(id="1", ess_subset=("battery",)),
    ExperimentConfig(id="2", ess_subset=("battery", "supercapacitor")),
    ExperimentConfig(id="3", ess_subset=("battery", "flywheel")),
    ExperimentConfig(id="4", ess_subset=("battery", "supercapacitor", "flywheel")),
]


@pytest.fixture(scope="module")
def matrix_results(ctx):
    return run_experiments(ctx, MATRIX)


def _without_timing(result):
    out = result.as_dict()
    del out["solve_seconds"]
    return out


class TestRunOne:
    def test_clean_result(self, ctx):
        res = run_one(ctx, ExperimentConfig(id="x", ess_subset=("battery",)))
        assert res.status == "optimal" and res.error is None
        assert set(res.e_max) == {"battery"}
        assert 0.0 <= res.p_grid_max <= 2.8
        assert 0.0 <= res.p_pv_max <= 5.0
        assert np.isfinite(res.objective)
        assert res.breakdown.total == pytest.approx(res.objective, rel=1e-6)

    def test_traces_cover_every_series_and_step(self, ctx):
        res = run_one(ctx, ExperimentConfig(
            id="x", ess_subset=("battery", "supercapacitor", "flywheel")))
        k = ctx.horizon.n_steps
        expected = {"demand_CH", "demand_WH", "source_G", "source_PV"} | {
            f"{p}_{n}" for p in ("ess", "soe")
            for n in ("battery", "supercapacitor", "flywheel")}
        assert set(res.traces) == expected
        assert all(len(v) == k for v in res.traces.values())

    def test_power_balance_in_traces(self, ctx):
        res = run_one(ctx, ExperimentConfig(id="x", ess_subset=("battery",)))
        supply = (res.traces["source_G"] + res.traces["source_PV"]
                  + res.traces["ess_battery"])
        demand = res.traces["demand_CH"] + res.traces["demand_WH"]
        np.testing.assert_allclose(supply, demand, rtol=0, atol=1e-6)

    def test_fixed_design_values_respected(self, ctx):
        res = run_one(ctx, ExperimentConfig(
            id="x", ess_subset=("battery",),
            fixed={"E_max.battery": 3.0, "P_max_src.PV": 2.0}))
        assert res.status == "optimal"
        assert res.e_max["battery"] == pytest.approx(3.0, abs=1e-8)
        assert res.p_pv_max == pytest.approx(2.0, abs=1e-8)

    def test_pin_outside_bounds_rejected(self, ctx):
        ceiling = ctx.catalog["battery"].e_cap_max
        for value in (ceiling + 1.0, -1.0):
            with pytest.raises(BuildError, match="outside"):
                run_one(ctx, ExperimentConfig(
                    id="x", ess_subset=("battery",),
                    fixed={"E_max.battery": value}))

    def test_unknown_technology(self, ctx):
        with pytest.raises(ValueError, match="not in catalog"):
            run_one(ctx, ExperimentConfig(id="x", ess_subset=("gravity",)))

    @pytest.mark.parametrize("pin", ["E_max.nosuch", "E_max", "P_max_ess.flywheel",
                                     "E_soe.battery", "P_peak.G", "capex_epigraph.battery"])
    def test_unknown_pin_names_it(self, ctx, pin):
        with pytest.raises(BuildError, match=f"unknown pin {pin}:"):
            run_one(ctx, ExperimentConfig(id="x", ess_subset=("battery",),
                                          fixed={pin: 1.0}))


def _one_day_ctx(catalog, negative_hours=0):
    """The first demo day as a one-day scenario, its first hours priced at
    -80 EUR/MWh."""
    day = make_demo_dataset(seed=0, n_days=1)[0]
    price = day.price.copy()
    price[:negative_hours] = -80.0
    day = dataclasses.replace(day, price=price)
    return RunContext(horizon=Horizon(t_syn=1), sources=SourceSpec(),
                      catalog=catalog, scenario=build_scenario([day], 1, 1, 0))


class TestPairedFlows:
    def test_negative_prices_warn_of_paired_flows(self, case_catalog):
        res = run_one(_one_day_ctx(case_catalog, negative_hours=4),
                      ExperimentConfig(id="neg", ess_subset=("battery",)))
        assert res.status == "optimal" and res.error is None
        grid = next(w for w in res.warnings if w.startswith("G:"))
        assert "import and export at steps 0, 1, 2, 3 " in grid
        # the gross grid_cap row forbids pairing at full rating, not below it
        assert "largest product 1.95" in grid
        # wear is paid on the gross flow, so the battery does not burn the
        # cheap energy by charging and discharging at once
        assert not any(w.startswith("battery:") for w in res.warnings)
        assert res.record()["warnings"] == res.warnings

    def test_wear_free_storage_warns_of_paired_flows(self, case_catalog):
        catalog = dict(case_catalog)
        catalog["battery"] = dataclasses.replace(
            catalog["battery"], om_energy=0.0, resale_factor=0.0)
        res = run_one(_one_day_ctx(catalog, negative_hours=4),
                      ExperimentConfig(id="neg", ess_subset=("battery",)))
        assert res.status == "optimal" and res.error is None
        assert any(w.startswith("battery: simultaneous charge and discharge")
                   for w in res.warnings)

    def test_storage_named_like_the_grid_keeps_both_pairs(self, case_catalog):
        # each pair is keyed by its converter, so a storage named "G" does not
        # replace the grid's products, and the grid's pairing is still reported
        catalog = {"G": dataclasses.replace(case_catalog["battery"], name="G")}
        data = problem_data(_one_day_ctx(catalog), ExperimentConfig(id="g", ess_subset=("G",)))
        model = build(data)
        x = np.zeros(model.n_vars)
        x[model.columns("P_src_plus", "G")] = 1.0
        x[model.columns("P_src_minus", "G")] = 1.0
        report = verify(model, x)
        assert set(report.pair_products) == {("G", "import and export"),
                                             ("G", "charge and discharge")}
        assert report.max_complementarity == 1.0
        assert paired_flow_warnings(report) == [
            "G: simultaneous import and export at steps 0, 1, 2, 3, 4 and 19 more "
            "(largest product 1)"]

    def test_normal_day_has_no_warning(self, case_catalog):
        res = run_one(_one_day_ctx(case_catalog),
                      ExperimentConfig(id="day", ess_subset=("battery",)))
        assert res.status == "optimal"
        assert res.warnings == []
        assert "warnings" not in res.record()


class TestMatrix:
    def test_all_optimal(self, matrix_results):
        assert [r.exp_id for r in matrix_results] == ["1", "2", "3", "4"]
        assert all(r.status == "optimal" and r.error is None
                   for r in matrix_results)

    def test_larger_subset_never_costs_more(self, matrix_results):
        obj = {r.exp_id: r.objective for r in matrix_results}
        tol = 1e-6 * max(1.0, abs(obj["1"]))
        assert obj["2"] <= obj["1"] + tol
        assert obj["3"] <= obj["1"] + tol
        assert obj["4"] <= min(obj["2"], obj["3"]) + tol

    def test_parallel_matches_serial(self, ctx, matrix_results):
        # the same donors at any pool size: every value, the donor too, is equal
        parallel = run_experiments(ctx, MATRIX, jobs=4)
        assert [r.optimum_from for r in parallel] == ["2", "4", "4", None]
        assert list(map(_without_timing, parallel)) == list(map(_without_timing, matrix_results))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, ctx, jobs):
        # an input fault, found before any design is built
        with mock.patch("hessmg.run.build", side_effect=AssertionError("built")):
            with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
                run_experiments(ctx, MATRIX, jobs=jobs)

    def test_duplicate_ids_rejected(self, ctx):
        e = ExperimentConfig(id="1", ess_subset=("battery",))
        with pytest.raises(ValueError, match="unique"):
            run_experiments(ctx, [e, e])

    @pytest.mark.parametrize("exp_id", ["../escaped", "a/../../x", "a\\b", "nul\0"])
    def test_id_naming_a_path_rejected(self, exp_id):
        # the id names the file traces_<id>.csv in the output directory
        with pytest.raises(ValueError, match="names the file traces_<id>.csv"):
            ExperimentConfig(id=exp_id, ess_subset=("battery",))

    def test_failure_is_isolated(self, ctx):
        # a pin outside its bounds fails in the build, one design only
        ceiling = ctx.catalog["battery"].e_cap_max
        results = run_experiments(ctx, [
            ExperimentConfig(id="bad", ess_subset=("battery",),
                             fixed={"E_max.battery": ceiling + 1.0}),
            ExperimentConfig(id="good", ess_subset=("battery",)),
        ])
        by_id = {r.exp_id: r for r in results}
        assert by_id["bad"].status == "error" and "outside" in by_id["bad"].error
        assert by_id["good"].status == "optimal"

    def test_residual_scan_is_not_needed(self, ctx, monkeypatch):
        # verify is the one feasibility scan of a solved design
        monkeypatch.setattr(importlib.import_module("hessmg.solve"), "max_primal_residual",
                            mock.Mock(side_effect=AssertionError("scanned twice")))
        res = run_one(ctx, ExperimentConfig(id="x", ess_subset=("battery",)))
        assert res.status == "optimal" and res.error is None

    def test_unknown_technology_stops_before_any_solve(self, ctx, monkeypatch):
        solved = []
        monkeypatch.setattr("hessmg.run.run_one", lambda *args: solved.append(args))
        with pytest.raises(ValueError, match=r"bad: technologies not in catalog: \['gravity'\]"):
            run_experiments(ctx, [
                ExperimentConfig(id="good", ess_subset=("battery",)),
                ExperimentConfig(id="bad", ess_subset=("gravity",)),
            ])
        assert solved == []


def _point_in(model, sub, x_sub):
    """`x_sub`, a point of `sub`, on the columns of `model`: every column
    `sub` lacks at 0."""
    x = np.zeros(model.n_vars)
    x[[model.col_names.index(name) for name in sub.col_names]] = x_sub
    return x


class TestDonors:
    def test_zero_extension_keeps_feasibility_and_cost(self, ctx):
        # the lemma behind taking a subset's optimum from its superset
        b, bsf = (build(problem_data(ctx, exp)) for exp in (MATRIX[0], MATRIX[3]))
        sol = solve(b)
        assert sol.optimal
        x = _point_in(bsf, b, sol.x)
        assert verify(bsf, x).max_violation <= verify(b, sol.x).max_violation + 1e-12
        assert verify(bsf, x).max_violation <= VIOLATION_TOL
        cost = float(bsf.objective_vector() @ x) + bsf.objective_constant
        assert cost == pytest.approx(sol.objective, rel=1e-9)

    def test_reused_matrix_matches_all_highs(self, ctx, matrix_results):
        # on the demo data the hybrids leave supercapacitor and flywheel at 0,
        # so only the largest portfolio is solved
        assert [r.optimum_from for r in matrix_results] == ["2", "4", "4", None]
        for reused in matrix_results:
            solved = run_one(ctx, next(e for e in MATRIX if e.id == reused.exp_id))
            assert solved.optimum_from is None
            assert reused.objective == pytest.approx(solved.objective, rel=1e-9)
            assert reused.breakdown.as_csv_values() == pytest.approx(
                solved.breakdown.as_csv_values(), rel=1e-9)
            assert reused.breakdown.capex_per_ess == pytest.approx(
                solved.breakdown.capex_per_ess, rel=1e-9)
            assert reused.e_max == solved.e_max and reused.p_max == solved.p_max
        assert [r.solve_seconds == 0.0 for r in matrix_results] == [True] * 3 + [False]

    def test_superset_that_installs_the_technology_is_no_donor(self, case_catalog):
        # with 1/1000 of the battery wear cost and a 2.05 MW grid contract the
        # battery alone cannot serve the demand, and BSF installs supercapacitor
        catalog = dict(case_catalog)
        catalog["battery"] = dataclasses.replace(
            catalog["battery"], om_energy=catalog["battery"].om_energy / 1000)
        days = make_demo_dataset(seed=11, n_days=30)
        ctx = RunContext(horizon=Horizon(t_syn=4),
                         sources=SourceSpec(grid=GridSpec(p_cap_max=2.05)),
                         catalog=catalog, scenario=build_scenario(days, w=4, t_syn=4, seed=0))
        results = {r.exp_id: r for r in run_experiments(ctx, MATRIX)}
        assert results["4"].e_max["supercapacitor"] > 0.0
        assert results["2"].optimum_from == "4"
        # BF lacks the installed supercapacitor: HiGHS solves it
        assert results["3"].optimum_from is None and results["3"].status == "optimal"
        assert _without_timing(results["3"]) == _without_timing(run_one(ctx, MATRIX[2]))
        assert results["3"].objective > results["4"].objective
        # B's donors all install a technology it lacks; alone it is infeasible
        assert results["1"].optimum_from is None and results["1"].status == "infeasible"

    def test_checks_run_per_design_and_solve_only_without_donor(self, ctx, monkeypatch):
        calls = {"verify": 0, "audit": 0, "solve_model": 0}

        def counted(name):
            original = getattr(run_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(run_module, name, wrapper)
        for name in calls:
            counted(name)
        results = run_experiments(ctx, MATRIX)
        assert calls == {"verify": 4, "audit": 4,
                         "solve_model": sum(r.optimum_from is None for r in results)}
        assert calls["solve_model"] == 1

    def test_donor_point_is_checked_before_it_is_taken(self, ctx):
        optima = {}
        run_one(ctx, MATRIX[3], None, (), optima)
        donor = optima["4"]
        assert run_one(ctx, MATRIX[2], None, [donor]).optimum_from == "4"
        # a supercapacitor energy of 1e-12 costs nothing; only the zero test sees it
        x = donor.x.copy()
        x[donor.columns["E_soe.supercapacitor.k0"]] = 1e-12
        nudged = dataclasses.replace(donor, x=x)
        # an objective off by more than the audit tolerance
        off = dataclasses.replace(donor, objective=donor.objective * (1 + 1e-5))
        for bad in (nudged, off):
            res = run_one(ctx, MATRIX[2], None, [bad])
            assert res.optimum_from is None and res.solve_seconds > 0.0
            assert res.objective == pytest.approx(donor.objective, rel=1e-9)

    def test_pins_must_match(self, ctx):
        # a superset with other pins is no donor
        pinned = dataclasses.replace(MATRIX[3], fixed={"E_max.battery": 3.0})
        results = run_experiments(ctx, [MATRIX[0], pinned])
        assert [r.optimum_from for r in results] == [None, None]

    def test_each_optimum_reaches_its_subset_under_thread_switching(self, ctx):
        # pairs told apart by their pins: B_i can take only BSF_i's optimum,
        # so an optimum lost between worker threads shows as a solved B_i; the
        # six BSF designs solve at once, each in its own Highs, and must give
        # the records of one thread
        pairs = [{"P_max_src.PV": 0.5 * i} for i in range(6)]
        experiments = [ExperimentConfig(id=f"{kind}{i}", ess_subset=ess, fixed=pins)
                       for i, pins in enumerate(pairs)
                       for kind, ess in (("b", MATRIX[0].ess_subset), ("s", MATRIX[3].ess_subset))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_experiments(ctx, experiments, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert [(r.exp_id, r.optimum_from) for r in results] == [
            *((f"b{i}", f"s{i}") for i in range(6)), *((f"s{i}", None) for i in range(6))]
        serial = run_experiments(ctx, experiments, jobs=1)
        assert list(map(_without_timing, results)) == list(map(_without_timing, serial))

    def test_failed_superset_is_no_donor(self, ctx):
        ceiling = ctx.catalog["battery"].e_cap_max
        bad = ExperimentConfig(id="4", ess_subset=MATRIX[3].ess_subset,
                               fixed={"E_max.battery": ceiling + 1.0})
        sub = dataclasses.replace(MATRIX[1], fixed=bad.fixed)
        results = run_experiments(ctx, [sub, bad])
        assert [(r.status, r.optimum_from) for r in results] == [("error", None)] * 2


class TestOutputs:
    def test_summary_csv_layout(self, matrix_results, case_catalog, tmp_path):
        path = tmp_path / "summary.csv"
        order = list(case_catalog)
        write_summary(matrix_results, order, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == summary_columns(order)
        assert len(rows) == 5
        # technologies absent from a subset are reported as zero capacity
        row1 = dict(zip(rows[0], rows[1]))
        assert row1["exp_id"] == "1"
        assert float(row1["e_max_mwh_supercapacitor"]) == 0.0
        assert row1["status"] == "optimal"

    def test_summary_rerun_is_byte_identical(self, matrix_results, case_catalog, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_summary(matrix_results, list(case_catalog), a)
        write_summary(matrix_results, list(case_catalog), b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_negative_zero_is_written(self, ctx, matrix_results, case_catalog,
                                         tmp_path):
        # storage the optimum leaves unbuilt comes back from HiGHS as -0.0
        # or a few 1e-12 off its bound; reports show it as 0
        write_summary(matrix_results, list(case_catalog), tmp_path / "summary.csv")
        write_results_json(matrix_results, tmp_path / "results.json")
        with open(tmp_path / "summary.csv") as fh:
            fields = [f for row in csv.reader(fh) for f in row]
        assert "-0" not in fields
        text = (tmp_path / "results.json").read_text()
        assert "-0.0," not in text and "-0.0\n" not in text

        def floats(value):
            if isinstance(value, dict):
                return [f for v in value.values() for f in floats(v)]
            if isinstance(value, list):
                return [f for v in value for f in floats(v)]
            return [value] if isinstance(value, float) else []
        values = floats(json.loads(text))
        assert values and not any(v == 0.0 and str(v) == "-0.0" for v in values)

    def test_design_values_snap_to_their_bounds(self, ctx):
        res = run_one(ctx, ExperimentConfig(
            id="x", ess_subset=("battery", "supercapacitor", "flywheel")))
        ceilings = {"p_grid_max": 2.8, "p_pv_max": 5.0}
        for name, ceiling in ceilings.items():
            value = getattr(res, name)
            assert value == ceiling or abs(value - ceiling) > 1e-9
        for value in list(res.e_max.values()) + list(res.p_max.values()):
            assert value == 0.0 or value > 1e-9

    def test_failed_design_writes_no_numbers(self, ctx, case_catalog, tmp_path):
        # a pin outside its bounds fails the design: its numbers are null and
        # empty cells, never NaN, and results.json stays strict JSON
        ceiling = ctx.catalog["battery"].e_cap_max
        results = run_experiments(ctx, [
            ExperimentConfig(id="ok", ess_subset=("battery",)),
            ExperimentConfig(id="pinned", ess_subset=("battery",),
                             fixed={"E_max.battery": ceiling + 1.0})])
        write_outputs(results, list(case_catalog), tmp_path)

        def no_constant(name):
            raise ValueError(f"not JSON: {name}")
        ok, pinned = json.loads((tmp_path / "results.json").read_text(),
                                parse_constant=no_constant)
        assert pinned["status"] == "error" and "outside" in pinned["error"]
        assert pinned["objective_keur"] is None and pinned["p_grid_max_mw"] is None
        # each record holds the documented keys only: no traces
        record = {"exp_id", "status", "e_max_mwh", "p_max_mw", "p_grid_max_mw",
                  "p_pv_max_mw", "objective_keur", "solve_seconds", "optimum_from"}
        assert set(ok) == record | {"costs"} | ({"warnings"} if results[0].warnings else set())
        assert set(pinned) == record | {"error"}
        with open(tmp_path / "summary.csv") as fh:
            rows = {row[0]: row for row in csv.reader(fh)}
        assert rows["pinned"][1:] == [""] * (len(rows["exp_id"]) - 2) + ["error"]
        assert all(rows["ok"][1:-1])
        assert (tmp_path / "traces_pinned.csv").read_text().splitlines() == ["step,series,value"]

    def test_traces_csv(self, ctx, tmp_path):
        res = run_one(ctx, ExperimentConfig(id="x", ess_subset=("battery",)))
        path = tmp_path / "traces.csv"
        emit_traces(res, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "series", "value"]
        assert len(rows) == 1 + ctx.horizon.n_steps * len(res.traces)
        assert not any(row[2] == "-0" for row in rows[1:])

    def test_traces_csv_matches_csv_writer(self, tmp_path):
        # the one formatted write gives the bytes csv.writer gives, cell by cell
        res = run_module.DesignResult.failed("x", "optimal", None)
        res.traces = {
            "plain": np.array([-0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0, 2.0]),
            "a,b": np.array([1e-300, -2.5e17, 0.0, 123456.789012345, -1e16, 5e-5]),
            'say "hi"': np.array([7.0, -0.0, np.nan, 1e100, 0.1 + 0.2, -3.0]),
            "two\nlines": np.arange(6.0) - 2.5,
        }
        path = tmp_path / "traces.csv"
        emit_traces(res, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "series", "value"])
            for step in range(6):
                for series, values in res.traces.items():
                    w.writerow([step, series, run_module._cell(float(values[step]))])
        assert path.read_bytes() == reference.read_bytes()
        text = path.read_bytes().decode()
        assert text.startswith('step,series,value\r\n0,plain,0\r\n0,"a,b",1e-300\r\n')
        assert "\r\n1,plain,\r\n" in text and "\r\n2,plain,\r\n" in text


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    days = make_demo_dataset(seed=3, n_days=20)
    write_demo_files(days, root / "data")
    cfg = {
        "prices": str(root / "data" / "prices.csv"),
        "demand": str(root / "data" / "demand.csv"),
        "pv": str(root / "data" / "pv.csv"),
        "catalog": str(RESOURCES / "catalog_case_study.ini"),
        "clusters": 2,
        "seed": 0,
        "horizon": {"t_syn": 2},
        "experiments": [{"id": "a", "ess": ["battery"]},
                        {"id": "b", "ess": ["battery", "flywheel"]}],
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, cfg_path


def test_byte_order_mark_is_dropped_from_json_files(workspace, tmp_path):
    _, cfg_path = workspace
    bom = tmp_path / "config.json"
    bom.write_bytes(b"\xef\xbb\xbf" + cfg_path.read_bytes())
    assert run_module.load_run_config(bom) == run_module.load_run_config(cfg_path)
    scenario = build_scenario(make_demo_dataset(seed=0, n_days=4), 2, 2, 0)
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xef\xbb\xbf" + scenario.to_json().encode())
    assert run_module._read_json(path, ScenarioModel.from_json) == scenario


class TestCli:
    def test_demo_data(self, tmp_path, capsys):
        assert main(["demo-data", "--seed", "1", "--days", "3",
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "prices.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_synth(self, workspace, tmp_path):
        root, cfg_path = workspace
        out = tmp_path / "scenario.json"
        assert main(["synth", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        text = json.loads(out.read_text())
        assert set(text) == {"labels", "rep_days", "sequence", "representatives"}
        assert len(text["representatives"]) == 2 and len(text["sequence"]) == 2

    def test_synth_from_flags_matches_config(self, workspace, tmp_path):
        csvs = {key: json.loads(workspace[1].read_text())[key]
                for key in ("prices", "demand", "pv")}
        assert main(["synth", *(f"--{key}={path}" for key, path in csvs.items()),
                     "--out", str(tmp_path / "flags.json")]) == 0
        cfg_path = tmp_path / "csvs.json"
        cfg_path.write_text(json.dumps(csvs))
        assert main(["synth", "--config", str(cfg_path),
                     "--out", str(tmp_path / "config.json")]) == 0
        assert (tmp_path / "flags.json").read_bytes() == (tmp_path / "config.json").read_bytes()

    @pytest.mark.parametrize("before, failing", [
        (None, (ScenarioModel, "to_json")), (b"an older scenario", (ScenarioModel, "to_json")),
        (None, (os, "replace")), (b"an older scenario", (os, "replace")),
    ], ids=["new", "existing", "new-renaming", "existing-renaming"])
    def test_failed_synth_leaves_out_as_it_was(self, workspace, tmp_path, before, failing):
        # --out is written whole or not at all: a failure before the file is
        # written, or while it is renamed into place, leaves no partial file
        out = tmp_path / "scenario.json"
        if before is not None:
            out.write_bytes(before)
        with mock.patch.object(*failing, side_effect=OSError("disk full")):
            assert main(["synth", "--config", str(workspace[1]), "--out", str(out)]) == 2
        assert os.listdir(tmp_path) == ([] if before is None else ["scenario.json"])
        assert before is None or out.read_bytes() == before

    @pytest.mark.parametrize("extra, config, message", [
        (["--clusters", "3", "--days", "0"], None,
         "horizon: t_syn must be an integer in [1, inf), got 0"),
        (["--clusters", "0", "--days", "3"], None, "clusters <= 20, got 0"),
        (["--seed", "-1"], None,
         "command line: field 'seed' is not a non-negative integer"),
        ([], {"catalog": str(RESOURCES / "catalog_case_study.ini"),
              "scenario": "scenario.json"},
         "missing input: --prices or config entry 'prices'"),
    ], ids=["zero days", "zero clusters", "negative seed", "scenario for the CSVs"])
    def test_synth_faults_print_one_line(self, workspace, tmp_path, capsys,
                                         extra, config, message):
        cfg_path = workspace[1]
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config))
        out = tmp_path / "scenario.json"
        assert main(["synth", "--config", str(cfg_path), *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hessmg: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_optimize(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
        # the files `experiments` writes, for the one experiment "design", and
        # nothing else
        assert set(os.listdir(out)) == {"summary.csv", "results.json", "traces_design.csv"}
        assert "exp design: status=optimal" in capsys.readouterr().out

    def test_experiments(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        out = tmp_path / "exp"
        assert main(["experiments", "--config", str(cfg_path),
                     "--out-dir", str(out), "--jobs", "2"]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        # battery-only takes the optimum of battery+flywheel, which installs no flywheel
        results = json.loads((out / "results.json").read_text())
        assert [(r["optimum_from"], r["solve_seconds"] == 0.0) for r in results] == [
            ("b", True), (None, False)]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("exp a: status=optimal total=")
        assert lines[0].endswith(" kEUR (optimum of b)")
        assert lines[1].endswith(" kEUR")
        assert (out / "traces_a.csv").exists()
        assert (out / "traces_b.csv").exists()

    def test_experiments_twice_into_one_out_dir(self, workspace, tmp_path):
        # a second run from the same CSVs synthesizes the same scenario again and
        # overwrites the same files with the same bytes; nothing else is kept
        out = tmp_path / "exp"
        args = ["experiments", "--config", str(workspace[1]), "--out-dir", str(out)]
        assert main(args) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert set(first) == {"summary.csv", "results.json", "traces_a.csv", "traces_b.csv"}
        assert main(args) == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert set(second) == set(first)
        for name in ("summary.csv", "traces_a.csv", "traces_b.csv"):
            assert second[name] == first[name], name

    @pytest.mark.parametrize("command", ["optimize", "experiments"])
    @pytest.mark.parametrize("source", ["csv", "scenario"])
    def test_unusable_out_dir_fails_before_any_design(self, workspace, tmp_path, capsys,
                                                      command, source):
        # --out-dir is made before the first design, whatever the scenario's source
        args = [command, "--config", str(workspace[1])]
        if source == "scenario":
            scenario = tmp_path / "scenario.json"
            assert main(["synth", "--config", str(workspace[1]), "--out", str(scenario)]) == 0
            args += ["--scenario", str(scenario)]
        blocker = tmp_path / "file"
        blocker.write_text("")
        capsys.readouterr()
        with mock.patch("hessmg.run.run_one", wraps=run_one) as spy:
            assert main(args + ["--out-dir", str(blocker / "out")]) == 2
        assert spy.call_count == 0
        err = capsys.readouterr().err
        assert err.startswith("hessmg: error: ") and str(blocker / "out") in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_export_mps(self, workspace, tmp_path, monkeypatch):
        root, cfg_path = workspace
        monkeypatch.chdir(tmp_path)
        assert main(["export-mps", "--config", str(cfg_path), "--out", "model.mps"]) == 0
        text = (tmp_path / "model.mps").read_text()
        assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")
        # the MPS file is all it writes: no scenario file in the working directory
        assert os.listdir(tmp_path) == ["model.mps"]

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_warning_prints_one_line(self, tmp_path, capsys, action):
        # a warning that the filters show is one line on standard error, like
        # an input fault; one that they turn into an error is raised
        paths = write_demo_files(make_demo_dataset(seed=0, n_days=40), tmp_path)
        prices = pathlib.Path(paths[0]).read_text().splitlines(keepends=True)
        pathlib.Path(paths[0]).write_text("".join(prices[:1 + 20 * 24]))
        args = ["synth", *(f"--{f.label}={p}" for f, p in zip(SIGNAL_FILES, paths)),
                "--clusters", "2", "--days", "2", "--out", str(tmp_path / "scenario.json")]
        show = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter(action, IncompleteDayWarning)
            if action == "error":
                with pytest.raises(IncompleteDayWarning, match="^prices: lacks 20 days"):
                    main(args)
            else:
                assert main(args) == 0
            assert warnings.showwarning is show
        if action == "default":
            assert capsys.readouterr().err == (
                "hessmg: warning: prices: lacks 20 days that another file holds complete "
                "(2021-01-21 to 2021-02-09), left out of the dataset\n")

    def test_outputs_are_utf8_whatever_the_locale(self, workspace, tmp_path):
        # a technology name outside ASCII reaches every output as UTF-8 under
        # an ASCII locale, and the MPS export reads back into the same bytes
        name = "flywhéel"
        catalog = tmp_path / "catalog.ini"
        catalog.write_bytes((RESOURCES / "catalog_case_study.ini").read_bytes().replace(
            b"[flywheel]", f"[{name}]".encode()))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            **json.loads(workspace[1].read_text()), "catalog": str(catalog),
            "experiments": [{"id": "a", "ess": ["battery", name]}]}))
        out = tmp_path / "out"
        script = (
            "import codecs, locale, sys\n"
            "from hessmg.cli import main\n"
            "from hessmg.mps import read_mps, write_mps\n"
            "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'\n"
            "config, out = sys.argv[1:]\n"
            "assert main(['experiments', '--config', config, '--out-dir', out]) == 0\n"
            "assert main(['export-mps', '--config', config, '--out', out + '/model.mps']) == 0\n"
            "write_mps(read_mps(out + '/model.mps'), out + '/again.mps')\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH":
               os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUTF8", None)
        subprocess.run([sys.executable, "-X", "utf8=0", "-W", "error", "-c", script,
                        str(cfg_path), str(out)], env=env, check=True, capture_output=True)
        outputs = {f.name: f.read_bytes().decode("utf-8") for f in out.iterdir()}
        assert set(outputs) == {"summary.csv", "results.json", "traces_a.csv",
                                "model.mps", "again.mps"}
        assert f"e_max_mwh_{name}" in outputs["summary.csv"]
        assert f" E_max.{name} COST " in outputs["model.mps"]
        assert (out / "again.mps").read_bytes() == (out / "model.mps").read_bytes()

    @pytest.mark.parametrize("caller", ["command line", "python"])
    def test_ess_names_are_utf8_whatever_the_locale(self, workspace, tmp_path, caller):
        # under an ASCII locale the command line is decoded with the ASCII
        # codec, but a technology name outside ASCII still names its section
        # of the UTF-8 catalog, given on the command line or to main() as text
        name = "flywh\u00e9el"
        catalog = tmp_path / "catalog.ini"
        catalog.write_bytes((RESOURCES / "catalog_case_study.ini").read_bytes().replace(
            b"[flywheel]", f"[{name}]".encode()))
        out = tmp_path / "model.mps"
        args = ["export-mps", "--config", str(workspace[1]), "--catalog", str(catalog),
                "--out", str(out), "--ess"]
        command = (["-m", "hessmg.cli", *args, f"battery,{name}".encode()]
                   if caller == "command line" else
                   ["-c", f"import sys; from hessmg.cli import main; "
                          f"sys.exit(main({args!r} + ['battery,{ascii(name)[1:-1]}']))"])
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, *command], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        text = out.read_bytes().decode("utf-8")
        assert f" E_max.{name} COST " in text and " E_max.supercapacitor " not in text

    @pytest.mark.parametrize("given", ["flywhéel", "flywh\udcc3\udca9el"],
                             ids=["decoded", "escaped utf-8"])
    def test_ess_name_in_process(self, workspace, tmp_path, given):
        # a name the locale decoded stays as it is (a latin-1 or UTF-8
        # locale); one left as escaped UTF-8 bytes (an ASCII locale) is read
        # as UTF-8; both name [flywhéel] of the UTF-8 catalog
        name = "flywhéel"
        catalog = tmp_path / "catalog.ini"
        catalog.write_bytes((RESOURCES / "catalog_case_study.ini").read_bytes().replace(
            b"[flywheel]", f"[{name}]".encode()))
        out = tmp_path / "model.mps"
        assert main(["export-mps", "--config", str(workspace[1]), "--catalog", str(catalog),
                     "--out", str(out), "--ess", f"battery,{given}"]) == 0
        text = out.read_bytes().decode("utf-8")
        assert f" E_max.{name} COST " in text and " E_max.supercapacitor " not in text

    def test_optimize_reuses_scenario_json(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        scenario = tmp_path / "scenario.json"
        assert main(["synth", "--config", str(cfg_path), "--clusters", "1",
                     "--out", str(scenario)]) == 0
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg_path), "--scenario",
                     str(scenario), "--out-dir", str(out)]) == 0
        result = json.loads((out / "results.json").read_text())[0]
        assert result["status"] == "optimal"
        # a run given a scenario file writes its outputs and no scenario file
        assert set(os.listdir(out)) == {"summary.csv", "results.json", "traces_design.csv"}

    def test_optimize_with_scenario_needs_no_data_files(self, workspace, tmp_path):
        root, cfg_path = workspace
        scenario = tmp_path / "scenario.json"
        assert main(["synth", "--config", str(cfg_path),
                     "--out", str(scenario)]) == 0
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", str(scenario),
                     "--catalog", str(RESOURCES / "catalog_case_study.ini"),
                     "--ess", "battery", "--out-dir", str(out)]) == 0
        result = json.loads((out / "results.json").read_text())[0]
        assert result["status"] == "optimal"

    def test_optimize_takes_horizon_from_scenario(self, workspace, tmp_path):
        root, cfg_path = workspace
        scenario = tmp_path / "scenario.json"
        assert main(["synth", "--config", str(cfg_path), "--days", "3",
                     "--out", str(scenario)]) == 0
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", str(scenario),
                     "--catalog", str(RESOURCES / "catalog_case_study.ini"),
                     "--ess", "battery", "--out-dir", str(out)]) == 0
        result = json.loads((out / "results.json").read_text())[0]
        assert result["status"] == "optimal"
        steps = {}
        with open(out / "traces_design.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                steps.setdefault(row["series"], []).append(int(row["step"]))
        assert steps and all(s == list(range(3 * 24)) for s in steps.values())

    def test_config_horizon_wins_over_scenario(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace  # the config sets t_syn = 2
        scenario = tmp_path / "scenario.json"
        assert main(["synth", "--config", str(cfg_path), "--days", "3",
                     "--out", str(scenario)]) == 0
        assert main(["optimize", "--config", str(cfg_path), "--scenario", str(scenario),
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert "scenario supplies 3 days, horizon needs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, config, message", [
        ("optimize", ["--scenario", "{tmp}/bad.json"], {},
         "scenario: unknown field 'n_clusters'"),
        ("optimize", ["--scenario", "{tmp}/missing.json"], {}, "No such file or directory"),
        ("export-mps", ["--ess", "battery,foo", "--out", "{tmp}/m.mps"], {},
         "export: technologies not in catalog: ['foo']"),
        ("optimize", [], {"clusters": "3"}, "field 'clusters' is not an integer"),
        ("optimize", [], {"horizon": {"tau": 60}}, "unknown field 'horizon.tau'"),
        ("optimize", [], {"sources": {"grid": {"cap": 3}}},
         "unknown field 'sources.grid.cap'"),
        ("experiments", [], {"experiments": [{"id": "a", "ess": ["battery"],
                                              "fixed": {"E_max.nosuch": 1}}]},
         "experiments[0].fixed: unknown pin 'E_max.nosuch'"),
        ("experiments", [], {"experiments": [{"id": "a", "ess": ["battery"],
                                              "fixed": {"E_max": 1}}]},
         "experiments[0].fixed: unknown pin 'E_max'"),
        ("experiments", [], {"experiments": [{"id": "a", "ess": ["battery"],
                                              "fixed": {"capex_epigraph.battery": 0}}]},
         "experiments[0].fixed: unknown pin 'capex_epigraph.battery'"),
        ("experiments", [], {"experiments": [{"id": "../escaped", "ess": ["battery"]}]},
         "experiment id '../escaped' holds '/', '\\' or NUL, "
         "but it names the file traces_<id>.csv"),
        ("experiments", [], {"experiments": [{"id": "a", "ess": ["battery"]},
                                             {"id": "b", "ess": ["foo"]}]},
         "b: technologies not in catalog: ['foo']"),
        ("experiments", [], {"experiments": [{"ess": ["battery"]}]},
         "missing field 'experiments[0].id'"),
        ("optimize", ["--scenario", "{tmp}/no_steps.json"], {},
         "representatives hold no steps"),
        ("optimize", ["--scenario", "{tmp}/bad_date.json"], {},
         "field 'representatives[0].date' is not an ISO date"),
        ("optimize", ["--scenario", "{tmp}/seven_steps.json"], {},
         "representatives hold 7 steps a day, which does not divide 1440"),
        ("experiments", [], {"sources": {"grid": {"conn_fixed": float("nan")}}},
         "grid: conn_fixed must be a finite number in [0, inf), got nan"),
        ("experiments", ["--catalog", "{tmp}/nan_catalog.ini"], {},
         "battery: cost_energy_eur_per_kwh must be a finite number in [0, inf), got nan"),
        ("experiments", ["--catalog", "{tmp}/negative_catalog.ini"], {},
         "battery: max_energy_kwh must be a finite number in (0, inf), got -5.0"),
        ("optimize", [], {"seed": -1}, "field 'seed' is not a non-negative integer"),
        ("experiments", ["--jobs", "0"], {}, "jobs must be at least 1, got 0"),
        ("optimize", ["--scenario", ""], {}, "No such file or directory: ''"),
        ("optimize", ["--scenario", "{tmp}/bad_label.json"], {},
         "labels name cluster 99, outside 0..0"),
        ("export-mps", ["--catalog", "{tmp}/duplicate_key.ini", "--out", "{tmp}/m.mps"], {},
         "duplicate_key.ini:35: key eta_c repeated in [flywheel]"),
        ("export-mps", ["--catalog", "{tmp}/no_section.ini", "--out", "{tmp}/m.mps"], {},
         "no_section.ini:1: key before any [section]: eta_c = 0.9"),
        ("export-mps", ["--catalog", "{tmp}/spaced_name.ini", "--out", "{tmp}/m.mps"], {},
         "technology name 'fly wheel' is empty or holds whitespace"),
        ("experiments", ["--config", "{tmp}/broken.json"], {},
         "broken.json: not JSON (Expecting property name enclosed in double quotes"),
        ("optimize", ["--scenario", "{tmp}/not_json.json"], {}, "not_json.json: not JSON ("),
        ("export-mps", ["--catalog", "{tmp}/latin1.ini", "--out", "{tmp}/m.mps"], {},
         "latin1.ini: not UTF-8 text (byte 0xe9: "),
        ("experiments", ["--prices", "{tmp}/latin1.csv"], {},
         "latin1.csv: not UTF-8 text (byte 0xe9: "),
        ("experiments", ["--config", "{tmp}/latin1.json"], {},
         "latin1.json: not UTF-8 text (byte 0xe9: "),
        ("optimize", ["--scenario", "{tmp}/latin1_scenario.json"], {},
         "latin1_scenario.json: not UTF-8 text (byte 0xe9: "),
        ("optimize", ["--scenario", "{tmp}/ragged.json"], {},
         "demand_ch has 23 entries, expected 24"),
        ("export-mps", ["--catalog", "{tmp}/missing.ini", "--out", "{tmp}/m.mps"], {},
         "missing.ini"),
    ], ids=["incomplete scenario", "missing scenario", "unknown technology",
            "string clusters", "unknown horizon field", "unknown grid field",
            "unknown pin", "undotted pin", "epigraph pin", "path in experiment id",
            "experiment technology",
            "experiment without id", "scenario without steps", "scenario bad date",
            "scenario steps not dividing a day", "nan tariff", "nan catalog field",
            "negative catalog field", "negative seed", "zero jobs", "empty scenario path",
            "scenario label outside the clusters", "catalog duplicate key",
            "catalog key before any section", "technology name with a space",
            "config not JSON", "scenario not JSON", "catalog not UTF-8",
            "signal file not UTF-8", "config not UTF-8", "scenario not UTF-8",
            "scenario series of differing lengths", "missing catalog"])
    def test_input_faults_print_one_line(self, workspace, tmp_path, capsys,
                                         command, extra, config, message):
        root, cfg_path = workspace
        (tmp_path / "bad.json").write_text('{"n_clusters": 1}')
        raw = json.loads(build_scenario(make_demo_dataset(seed=0, n_days=2), 1, 2, 0).to_json())
        day = raw["representatives"][0]
        (tmp_path / "no_steps.json").write_text(json.dumps(
            {**raw, "representatives": [{**day, **dict.fromkeys(SERIES, [])}]}))
        (tmp_path / "bad_date.json").write_text(json.dumps(
            {**raw, "representatives": [{**day, "date": "2021-13-01"}]}))
        (tmp_path / "seven_steps.json").write_text(json.dumps(
            {**raw, "representatives": [{**day, **{n: day[n][:7] for n in SERIES}}]}))
        (tmp_path / "bad_label.json").write_text(json.dumps({**raw, "labels": [0, 99]}))
        (tmp_path / "ragged.json").write_text(json.dumps(
            {**raw, "representatives": [{**day, "demand_ch": day["demand_ch"][:-1]}]}))
        catalog = (RESOURCES / "catalog_case_study.ini").read_text()
        (tmp_path / "nan_catalog.ini").write_text(catalog.replace(
            "cost_energy_eur_per_kwh = 900", "cost_energy_eur_per_kwh = nan"))
        (tmp_path / "negative_catalog.ini").write_text(catalog.replace(
            "max_energy_kwh = 5000", "max_energy_kwh = -5"))
        (tmp_path / "duplicate_key.ini").write_text(catalog.replace(
            "[flywheel]\n", "[flywheel]\neta_c = 0.9\n"))
        (tmp_path / "no_section.ini").write_text("eta_c = 0.9\n" + catalog)
        (tmp_path / "spaced_name.ini").write_text(catalog.replace("[flywheel]", "[fly wheel]"))
        (tmp_path / "broken.json").write_text('{"clusters": 3,\n')
        (tmp_path / "not_json.json").write_text("labels: [0]\n")
        (tmp_path / "latin1.ini").write_bytes(
            catalog.replace("[flywheel]", "[flywheel]\n# caf\xe9").encode("latin-1"))
        (tmp_path / "latin1.json").write_bytes(
            cfg_path.read_bytes().replace(b'"seed"', b'"caf\xe9": 1, "seed"'))
        (tmp_path / "latin1_scenario.json").write_bytes(
            json.dumps(raw).encode().replace(b'"labels"', b'"caf\xe9": 1, "labels"'))
        prices = (root / "data" / "prices.csv").read_bytes().splitlines(keepends=True)
        (tmp_path / "latin1.csv").write_bytes(b"".join(prices[:3] + [b"caf\xe9\n"] + prices[3:]))
        if config:
            cfg = {**json.loads(cfg_path.read_text()), **config}
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(cfg))
        args = [command, "--config", str(cfg_path)]
        if command != "export-mps":
            args += ["--out-dir", str(tmp_path)]
        # each fault is found before any design is solved
        with mock.patch("hessmg.run.solve_model", side_effect=AssertionError("solved")):
            assert main(args + [a.format(tmp=tmp_path) for a in extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hessmg: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "m.mps").exists()

    def test_failed_design_reports_no_total(self, workspace, tmp_path, capsys):
        # the report line, like the output files, gives no number for a failed design
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**json.loads(workspace[1].read_text()), "experiments": [
            {"id": "ok", "ess": ["battery"]},
            {"id": "pinned", "ess": ["battery"], "fixed": {"E_max.battery": 99}}]}))
        assert main(["experiments", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "run")]) == 1
        ok, pinned = capsys.readouterr().out.splitlines()
        assert ok.startswith("exp ok: status=optimal total=") and ok.endswith(" kEUR")
        assert pinned == ("exp pinned: status=error "
                          "(pinned E_max.battery = 99 lies outside [0.0, 5.0])")

    def test_sub_hourly_scenario_sets_the_step(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        days = make_demo_dataset(seed=3, n_days=2, steps_per_day=96)
        scenario.write_text(build_scenario(days, 1, 2, 0).to_json())
        cfg = {"catalog": str(RESOURCES / "catalog_case_study.ini"),
               "scenario": str(scenario), "horizon": {}, "sources": {}}
        horizon = context_from_config(cfg).horizon
        assert (horizon.tau_minutes, horizon.t_syn) == (15, 2)
        cfg["horizon"] = {"tau_minutes": 60}
        assert context_from_config(cfg).horizon.tau_minutes == 60

    def test_missing_inputs_fail_fast(self, workspace, tmp_path, capsys):
        # a missing input is an input fault (2), unlike a design that is not
        # optimal (1)
        assert main(["optimize", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "hessmg: error: missing input: --prices or config entry 'prices'\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**json.loads(workspace[1].read_text()),
                                        "experiments": []}))
        assert main(["experiments", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "hessmg: error: missing input: config defines no experiments\n")

    def test_flags_only_experiments_run_the_default_matrix(self, workspace, tmp_path):
        # flags take the same defaults as a config file without the field
        cfg = json.loads(workspace[1].read_text())
        out = tmp_path / "exp"
        assert main(["experiments", *(f"--{key}={cfg[key]}"
                                      for key in ("prices", "demand", "pv", "catalog")),
                     "--out-dir", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert [(r["exp_id"], sorted(r["e_max_mwh"])) for r in results] == [
            ("1", ["battery"]), ("2", ["battery", "supercapacitor"]),
            ("3", ["battery", "flywheel"]), ("4", ["battery", "flywheel", "supercapacitor"])]
