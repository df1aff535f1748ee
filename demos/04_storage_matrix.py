"""Compare storage portfolios: battery alone vs hybrid combinations.

Runs the experiment matrix {B}, {B,S}, {B,F}, {B,S,F} against one shared
scenario and writes the summary CSV. Because every richer portfolio
contains the feasible set of the poorer one, total cost can only go down
(or stay flat) as technologies are added — the matrix output is checked
against that property, and the demo exits non-zero if a portfolio costs
more than one of its subsets. A design that took the optimum of a larger
portfolio (which left its extra technologies unused) is named as such.
"""

import pathlib
import sys

from hessmg import Horizon, SourceSpec, build_scenario, load_catalog, make_demo_dataset
from hessmg.run import (ExperimentConfig, RunContext, run_experiments,
                        write_summary)

HERE = pathlib.Path(__file__).parent


def main():
    resources = HERE.parents[0] / "src" / "hessmg" / "resources"
    catalog = load_catalog(resources / "catalog_case_study.ini")
    days = make_demo_dataset(seed=0, n_days=120)
    scenario = build_scenario(days, w=5, t_syn=7, seed=0)
    ctx = RunContext(horizon=Horizon(t_syn=7), sources=SourceSpec(),
                     catalog=catalog, scenario=scenario)

    experiments = [
        ExperimentConfig(id="1_B", ess_subset=("battery",)),
        ExperimentConfig(id="2_BS", ess_subset=("battery", "supercapacitor")),
        ExperimentConfig(id="3_BF", ess_subset=("battery", "flywheel")),
        ExperimentConfig(id="4_BSF",
                         ess_subset=("battery", "supercapacitor", "flywheel")),
    ]
    results = run_experiments(ctx, experiments, jobs=4)

    print(f"{'experiment':<10} {'total kEUR':>12} {'battery MWh':>12} "
          f"{'extra tech MW':>14}")
    for r in results:
        extra = sum(v for n, v in r.p_max.items() if n != "battery")
        source = f"  optimum of {r.optimum_from}" if r.optimum_from else ""
        print(f"{r.exp_id:<10} {r.objective:12.1f} "
              f"{r.e_max.get('battery', 0.0):12.2f} {extra:14.3f}{source}")

    techs = {e.id: set(e.ess_subset) for e in experiments}
    cost = {r.exp_id: r.objective for r in results}
    for small in cost:
        for big in cost:
            if techs[small] < techs[big] and not (
                    cost[big] <= cost[small] + 1e-6 * max(1.0, abs(cost[small]))):
                sys.exit(f"{big} costs {cost[big]:.9g} kEUR, more than its subset "
                         f"{small} at {cost[small]:.9g} kEUR")

    best = min(r.objective for r in results)
    base = next(r.objective for r in results if r.exp_id == "1_B")
    print(f"\nbest portfolio saves {base - best:.2f} kEUR "
          f"({(base - best) / base:.2%}) vs battery-only")

    out = HERE / "output"
    out.mkdir(parents=True, exist_ok=True)
    write_summary(results, list(catalog), out / "summary.csv")
    print(f"summary table written to {out / 'summary.csv'}")


if __name__ == "__main__":
    main()
