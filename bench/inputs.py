"""Seeded input generator: the three signal CSVs that `hessmg` ingests.

The benchmark owns its inputs, so a change to the program's own demo data
generator cannot move the benchmark. The shapes follow the case study: a
spot price with morning and evening peaks and a seasonal midday dip, a
weekday truck-charger load whose evening shift peak exceeds the grid
contract ceiling (so storage or PV must serve it), a flat warehouse load,
and a PV capacity factor with a seasonal bell and daily cloud cover. The
seed only draws the noise; the same seed gives byte-identical files.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np

START = dt.date(2021, 1, 1)
FILES = ("prices.csv", "demand.csv", "pv.csv")


def make_signals(seed: int, n_days: int, steps_per_day: int) -> dict[str, np.ndarray]:
    """Per-step signals of shape (n_days, steps_per_day)."""
    rng = np.random.default_rng(seed)
    hours = np.arange(steps_per_day) * 24.0 / steps_per_day
    day = np.arange(n_days)
    season = (0.6 - 0.4 * np.cos(2 * np.pi * (day % 365) / 365.0))[:, None]
    weekday = np.array([(START + dt.timedelta(days=int(i))).weekday() < 5
                        for i in day])[:, None]
    shape = (n_days, steps_per_day)

    sun = np.sin(np.pi * (hours - 6.0) / 12.0)
    sun = np.where((hours >= 6.0) & (hours <= 18.0), np.maximum(sun, 0.0), 0.0)
    cloud = rng.uniform(0.55, 1.0, (n_days, 1))
    pv_cf = np.clip(sun * season * cloud * rng.uniform(0.9, 1.0, shape), 0.0, 1.0)

    peaks = 28.0 * np.exp(-0.5 * ((hours - 8.0) / 1.8) ** 2) \
        + 34.0 * np.exp(-0.5 * ((hours - 19.0) / 2.2) ** 2)
    dip = 18.0 * season * np.exp(-0.5 * ((hours - 13.0) / 2.5) ** 2)
    price = rng.uniform(35.0, 70.0, (n_days, 1)) + peaks - dip \
        + rng.normal(0.0, 3.0, shape)
    price = np.maximum(price, 5.0)

    shift = 1.6 * np.exp(-0.5 * ((hours - 7.0) / 1.5) ** 2) \
        + 3.1 * np.exp(-0.5 * ((hours - 18.0) / 2.0) ** 2)
    ch = np.where(weekday, 1.0, 0.35) * shift * rng.uniform(0.85, 1.15, shape)
    wh = np.where(weekday, 0.30, 0.18) \
        * (1.0 + 0.3 * np.sin(2 * np.pi * (hours - 9.0) / 24.0)) \
        * rng.uniform(0.9, 1.1, shape)
    return {"price": price, "ch": ch, "wh": wh, "pv": pv_cf}


def write_inputs(out_dir, seed: int, n_days: int, steps_per_day: int) -> tuple[str, ...]:
    """Write prices.csv, demand.csv and pv.csv in the layout `load_dataset` reads."""
    sig = make_signals(seed, n_days, steps_per_day)
    step = dt.timedelta(minutes=1440 // steps_per_day)
    t0 = dt.datetime.combine(START, dt.time())
    stamps = [(t0 + i * step).isoformat() for i in range(n_days * steps_per_day)]
    price, ch, wh, pv = (sig[k].ravel() for k in ("price", "ch", "wh", "pv"))
    os.makedirs(out_dir, exist_ok=True)
    bodies = (
        ("timestamp,price_eur_per_mwh",
         (f"{t},{p:.4f}" for t, p in zip(stamps, price))),
        ("timestamp,ch_mw,wh_mw",
         (f"{t},{c:.5f},{w:.5f}" for t, c, w in zip(stamps, ch, wh))),
        ("timestamp,pv_cf",
         (f"{t},{v:.5f}" for t, v in zip(stamps, pv))),
    )
    paths = tuple(os.path.join(out_dir, name) for name in FILES)
    for path, (header, lines) in zip(paths, bodies):
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.write("\n".join(lines) + "\n")
    return paths
