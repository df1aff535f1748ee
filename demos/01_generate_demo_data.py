"""Generate the bundled synthetic dataset and look at one day of it.

The package ships no proprietary market or load data; instead it can
synthesize a deterministic stand-in with the same shape: day-ahead prices
with morning/evening peaks, truck-charger demand with shift-change spikes
that exceed the contractable grid capacity, a warehouse base load, and a
diurnal PV capacity factor. Everything downstream (clustering, sizing,
dispatch) runs on these three CSVs.
"""

import pathlib

from hessmg import make_demo_dataset
from hessmg.data import write_demo_files

OUT = pathlib.Path(__file__).parent / "output" / "data"


def main():
    days = make_demo_dataset(seed=0, n_days=120)
    paths = write_demo_files(days, OUT)
    print("wrote:")
    for p in paths:
        print("  ", p)

    day = days[10]
    print(f"\nsample day {day.date} (hourly):")
    print(f"  price   : min {day.price.min():6.1f}  max {day.price.max():6.1f} EUR/MWh")
    print(f"  chargers: min {day.demand_ch.min():6.2f}  max {day.demand_ch.max():6.2f} MW")
    print(f"  warehouse: mean {day.demand_wh.mean():.2f} MW")
    print(f"  pv cf   : noon {day.pv_cf[12]:.2f}, midnight {day.pv_cf[0]:.2f}")

    peak = max((d.demand_ch + d.demand_wh).max() for d in days)
    print(f"\nhighest combined demand over {len(days)} days: {peak:.2f} MW")
    print("contractable grid capacity is 2.8 MW, so the evening peak cannot")
    print("be served from the grid alone — storage or PV has to cover it.")


if __name__ == "__main__":
    main()
