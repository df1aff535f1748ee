"""Export the co-design LP as a free-format MPS file for external solvers.

The same model that `solve` hands to HiGHS can be handed to any LP solver
that reads MPS (HiGHS, CPLEX, Gurobi, CBC, ...). Coefficients are written
with 17 significant digits, so reading the file back reproduces the model
bit for bit — demonstrated below with a structural round-trip check.
"""

import pathlib

from hessmg import Horizon, SourceSpec, build_scenario, load_catalog, make_demo_dataset
from hessmg.builder import ProblemData, build
from hessmg.mps import read_mps, write_mps

HERE = pathlib.Path(__file__).parent


def main():
    resources = HERE.parents[0] / "src" / "hessmg" / "resources"
    catalog = load_catalog(resources / "catalog_case_study.ini")
    days = make_demo_dataset(seed=0, n_days=120)
    scenario = build_scenario(days, w=5, t_syn=7, seed=0)
    data = ProblemData.from_scenario(
        scenario, Horizon(t_syn=7), SourceSpec(),
        ess={"battery": catalog["battery"], "flywheel": catalog["flywheel"]})
    model = build(data)

    out = HERE / "output"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "codesign.mps"
    write_mps(model, path, name="CODESIGN")

    print(f"model: {model.n_vars} variables, {model.n_rows} rows")
    print(f"wrote {path} ({path.stat().st_size} bytes)")

    back = read_mps(path)
    same = back.signature() == model.signature()
    print(f"round trip reproduces the structure exactly: {same}")

    text = path.read_text().splitlines()
    print("\nfirst lines of the file:")
    for line in text[:8]:
        print("  " + line)
    print("  ...")
    print("\nsolve it externally with, e.g.:  highs", path.name)


if __name__ == "__main__":
    main()
