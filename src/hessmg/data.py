"""Input data model: time series, technology catalog, tariff parameters,
the one range check of numeric settings (``within``, ``check_within``)
and the one field check of JSON input objects (``check_object``).

Internal unit conventions: power in MW, energy in MWh, money in k EUR.
Catalog files use EUR/kWh and EUR/kW, which are numerically identical to
k EUR/MWh and k EUR/MW, so only capacity fields need rescaling. Spot
prices are kept in EUR/MWh as they appear in market exports; the cost
model converts them to k EUR when assembling objective coefficients.

Every input text file (signal CSVs, catalog, run configs, scenario files)
is read once, by ``read_text``. ``load_dataset`` reads each signal CSV of
``SIGNAL_FILES`` along one of two paths. A file in the regular layout (the
exact header line, ``\n`` or ``\r\n`` line ends, no blank lines, no quotes,
the same number of cells on every line, every timestamp a canonical
``YYYY-MM-DDTHH:MM:SS`` stamp of a real date and time, every value a finite
number) is read in bulk: one split of the whole text into cells, the stamps
checked and turned into integers with NumPy, the values parsed by ``float``
one column at a time. Any other text is read line by line with ``csv`` and
``datetime.fromisoformat``, which accept more (quotes, blank lines, a space
separator, stamps without seconds or with fractions of a second; a stamp
with a UTC offset is an error) and report every malformed row with its
``path:line``. Both paths give the same thing, each row's stamp in integer
microseconds and its values, and one grouping step turns that into days: it
keeps the last row of a repeated stamp, keeps the days that hold exactly
the step grid, drops a partial first or last day with a warning and rejects
any other day, including a calendar day with no rows between a file's first
and last. Only the dates complete in every file are kept; a file that lacks
dates another file holds warns about them.
"""

from __future__ import annotations

import configparser
import csv
import datetime as dt
import io
import math
import operator
import os
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

# The series of one day, in HistoricalDay's field order. Every reader and
# writer of a day (signal files, scenario files, the LP inputs) goes
# through this tuple.
SERIES = ("price", "demand_ch", "demand_wh", "pv_cf")


class SignalFile(NamedTuple):
    """One signal CSV: the label its messages, flag and config entry use,
    its header line, and the series its value columns hold, in order."""

    label: str
    header: tuple[str, ...]
    series: tuple[str, ...]


# the three signal CSVs, in load_dataset's and save_dataset's argument order
SIGNAL_FILES = (
    SignalFile("prices", ("timestamp", "price_eur_per_mwh"), ("price",)),
    SignalFile("demand", ("timestamp", "ch_mw", "wh_mw"), ("demand_ch", "demand_wh")),
    SignalFile("pv", ("timestamp", "pv_cf"), ("pv_cf",)),
)
_DAY_US = 86_400_000_000     # microseconds per day


class DataFormatError(ValueError):
    """Malformed or inconsistent input file."""


class _RangeFault(DataFormatError):
    """A value of a day's series outside its range: `day`, `series` and
    `step` say which, `words` what is wrong with it."""

    def __init__(self, day, series, step, words):
        super().__init__(f"{day}: {words}")
        self.day, self.series, self.step, self.words = day, series, int(step), words


class CatalogError(ValueError):
    """Missing or invalid technology catalog entry."""


def read_text(path) -> str:
    """The text of the input file at `path`: UTF-8, a leading byte-order mark
    dropped, line ends as written. A file that ``open`` fails on raises its
    OSError; one that is not UTF-8 a one-line DataFormatError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


class IncompleteDayWarning(UserWarning):
    """A partial day at the edge of a dataset, or a day that only some of
    its files hold, was dropped."""


def within(interval: str, default=MISSING):
    """A settings field whose value must lie in `interval`, written like
    "(0, 1]" or "[0, inf)"; ``check_fields`` holds it to that."""
    return field(default=default, metadata={"interval": interval})


def check_within(value, interval: str, owner: str, name: str, integer=False,
                 error=ValueError):
    """Raise `error` naming `owner`, `name`, `interval` and `value` unless
    `value` is a finite number inside `interval`: an integer that
    ``operator.index`` takes where `integer`, never a bool."""
    try:
        number = not isinstance(value, bool) and math.isfinite(
            operator.index(value) if integer else value)
    except (TypeError, OverflowError):   # not a number, or an int too big for a float
        number = False
    lo, hi = map(float, interval[1:-1].split(","))
    if not (number and (lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi)):
        words = "an integer" if integer else "a finite number"
        raise error(f"{owner}: {name} must be {words} in {interval}, got {value}")


def check_fields(spec, owner: str, error=ValueError):
    """``check_within`` each ``within`` field of the settings dataclass `spec`."""
    for f in fields(spec):
        if "interval" in f.metadata:
            check_within(getattr(spec, f.name), f.metadata["interval"], owner, f.name,
                         f.type in (int, "int"), error)


@dataclass(frozen=True)
class Horizon:
    """Temporal discretization and economic horizon of one study."""

    tau_minutes: int = within("[1, 1440]", 60)
    t_syn: int = within("[1, inf)", 30)
    years: int = within("[1, inf)", 20)
    discount_rate: float = within("[0, 1)", 0.04)

    def __post_init__(self):
        check_fields(self, "horizon")
        if 1440 % self.tau_minutes:
            raise ValueError(f"horizon: tau_minutes must divide 1440, got {self.tau_minutes}")

    @property
    def steps_per_day(self) -> int:
        return 1440 // self.tau_minutes

    @property
    def tau_hours(self) -> float:
        return self.tau_minutes / 60.0

    @property
    def n_steps(self) -> int:
        """Total step count K of the synthetic optimization period."""
        return self.t_syn * self.steps_per_day


@dataclass(frozen=True)
class EssSpec:
    """One storage technology: efficiencies, cost rates, ceilings, lifetime."""

    name: str
    eta_c: float = within("(0, 1]")           # charging efficiency, bus -> store
    eta_d: float = within("(0, 1]")           # discharging efficiency, store -> bus
    cost_energy: float = within("[0, inf)")   # capex, kEUR/MWh installed
    cost_power: float = within("[0, inf)")    # capex, kEUR/MW installed
    om_energy: float = within("[0, inf)")     # variable O&M, kEUR/MWh of gross throughput
    om_power: float = within("[0, inf)")      # fixed O&M, kEUR/MW/yr
    e_cap_max: float = within("(0, inf)")     # max installable energy, MWh
    p_cap_max: float = within("(0, inf)")     # max installable power, MW
    crate_max: float = within("(0, inf)")     # max per-step gross cell flow / capacity
    dod_min_frac: float = within("[0, 1)")    # min state of energy as fraction of capacity
    cycle_life: float = within("(0, inf)")    # full equivalent cycles until end of life
    resale_factor: float = within("[0, 1]")   # fraction of remaining value recovered at EOL

    def __post_init__(self):
        # the name is one token of LP column and row names, as MPS writes them
        if self.name.split() != [self.name]:
            raise CatalogError(f"technology name {self.name!r} is empty or holds whitespace")
        check_fields(self, self.name, CatalogError)


@dataclass(frozen=True)
class GridSpec:
    """Utility grid connection: converter efficiencies and tariff structure."""

    eta_c: float = within("(0, 1]", 0.95)          # AC/DC efficiency, grid -> bus
    eta_d: float = within("(0, 1]", 0.95)          # DC/AC efficiency, bus -> grid
    p_cap_max: float = within("(0, inf)", 2.8)     # max contractable capacity, MW
    conn_fixed: float = within("[0, inf)", 1.2)    # fixed connection fee, kEUR/yr
    tran_fixed: float = within("[0, inf)", 1.8)    # fixed transmission fee, kEUR/yr
    var_per_mw: float = within("[0, inf)", 3.0)    # capacity-dependent fee, kEUR/MW/yr
    peak_per_mw: float = within("[0, inf)", 9.03)  # peak-offtake fee, kEUR/MW/yr
    f_sell: float = within("(0, 1]", 0.9)          # fraction of spot price earned when exporting

    def __post_init__(self):
        check_fields(self, "grid")


@dataclass(frozen=True)
class PvSpec:
    """Photovoltaic generation: efficiency, costs, size ceiling."""

    eta: float = within("(0, 1]", 0.9)              # DC/DC converter efficiency, panel -> bus
    cost_per_mw: float = within("[0, inf)", 300.0)  # capex, kEUR/MW
    om_per_mw_yr: float = within("[0, inf)", 15.0)  # fixed O&M, kEUR/MW/yr
    p_cap_max: float = within("(0, inf)", 5.0)      # max installable, MW
    resale_factor: float = within("[0, 1]", 0.75)   # fraction of capex recovered at EOL

    def __post_init__(self):
        check_fields(self, "pv")


@dataclass(frozen=True)
class SourceSpec:
    """Grid and PV source parameters, plus demand-side conversion efficiency."""

    grid: GridSpec = field(default_factory=GridSpec)
    pv: PvSpec = field(default_factory=PvSpec)
    eta_demand: float = within("(0, 1]", 1.0)      # conversion efficiency of the demand feeders

    def __post_init__(self):
        check_fields(self, "sources")


@dataclass(frozen=True)
class HistoricalDay:
    """One calendar day of hourly (or sub-hourly) market and load profiles."""

    date: dt.date
    price: np.ndarray       # EUR/MWh per step, may be negative
    demand_ch: np.ndarray   # truck-charger demand, MW
    demand_wh: np.ndarray   # warehouse demand, MW
    pv_cf: np.ndarray       # PV capacity factor in [0, 1]

    def __post_init__(self):
        n = len(self.price)
        for name in SERIES[1:]:
            if len(getattr(self, name)) != n:
                raise DataFormatError(
                    f"{self.date}: {name} has {len(getattr(self, name))} entries, expected {n}")
        # one check over all four series, one row each in SERIES order (price,
        # two demands, capacity factor); the offending one is named only on failure
        values = np.array([getattr(self, name) for name in SERIES])
        if (np.isfinite(values).all() and values[1:].min(initial=0.0) >= 0
                and values[3].max(initial=1.0) <= 1):
            return
        for name, row in zip(SERIES, values):
            if not np.isfinite(row).all():
                raise DataFormatError(f"{self.date}: non-finite {name}")
        if values[1:3].min() < 0:
            row, step = np.argwhere(values[1:3] < 0)[0]
            raise _RangeFault(self.date, SERIES[1 + row], step, "negative demand")
        step = np.flatnonzero((values[3] < 0) | (values[3] > 1))[0]
        raise _RangeFault(self.date, "pv_cf", step, "capacity factor out of range")

    def __eq__(self, other):
        if not isinstance(other, HistoricalDay):
            return NotImplemented
        return self.date == other.date and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in SERIES)


class JsonType(NamedTuple):
    """The JSON type a field of a checked JSON object must have."""

    words: str                       # e.g. "a list of integers"
    check: Callable[[object], bool]


# JSON true and false load as bool, a subclass of int, but are not numbers
INTEGER = JsonType("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
NUMBER = JsonType("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
STRING = JsonType("a string", lambda v: isinstance(v, str))
OBJECT = JsonType("an object", lambda v: isinstance(v, dict))


def list_of(words: str, item: JsonType) -> JsonType:
    """The JSON type `words`: a list whose every entry has type `item`."""
    return JsonType(words, lambda value: isinstance(value, list) and all(map(item.check, value)))


def check_object(raw, fields: dict[str, JsonType], what, prefix="", required=()):
    """Raise ValueError unless `raw` is a JSON object that holds only
    fields of `fields`, each of the JSON type given there, and every field
    in `required`. The message starts with `what` and spells a field
    `prefix` + its name."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} is not a JSON object")
    for name in raw:
        if name not in fields:
            raise ValueError(f"{what}: unknown field {prefix + name!r}")
    for name in required:
        if name not in raw:
            raise ValueError(f"{what}: missing field {prefix + name!r}")
    for name, (words, check) in fields.items():
        if name in raw and not check(raw[name]):
            raise ValueError(f"{what}: field {prefix + name!r} is not {words}")


def _read_signal_file(path, header, n_values):
    """Parse a `timestamp,value...` CSV into (stamps in microseconds, one
    value array per column), one entry per row: in bulk when its text is in
    the regular layout, else line by line."""
    text = read_text(path)
    if (bulk := _read_bulk(text, header, n_values)) is not None:
        return bulk
    stamps, values = [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        got = next(reader, None)
        if got is None:
            raise DataFormatError(f"{path}: empty file")
        if tuple(h.strip() for h in got) != header:
            raise DataFormatError(
                f"{path}: header mismatch, expected {','.join(header)}, got {','.join(got)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + n_values:
                raise DataFormatError(f"{path}:{lineno}: expected {1 + n_values} columns")
            try:
                ts = dt.datetime.fromisoformat(row[0])
                vals = tuple(float(v) for v in row[1:])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: malformed row ({exc})") from None
            if ts.tzinfo is not None:
                raise DataFormatError(
                    f"{path}:{lineno}: timestamp {row[0]} carries a UTC offset; "
                    "stamps are local wall-clock times without one")
            if not all(map(math.isfinite, vals)):
                raise DataFormatError(f"{path}:{lineno}: non-finite value")
            stamps.append(ts.toordinal() * _DAY_US + ts.microsecond
                          + (ts.hour * 3600 + ts.minute * 60 + ts.second) * 1_000_000)
            values.extend(vals)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise DataFormatError(f"{path}:{reader.line_num}: malformed row ({exc})") from None
    return (np.array(stamps, dtype=np.int64),
            list(np.array(values, dtype=float).reshape(-1, n_values).T))


# Canonical stamp YYYY-MM-DDTHH:MM:SS: separator positions and codes, and
# the digit positions.
_STAMP_LEN = 19
_SEP_AT = [4, 7, 10, 13, 16]
_SEP_CODE = np.frombuffer(b"--T::", dtype=np.uint8)
_DIGIT_AT = np.array([i for i in range(_STAMP_LEN) if i not in _SEP_AT])
_EPOCH_SECONDS = dt.date(1970, 1, 1).toordinal() * 86400


def _stamp_seconds(codes):
    """Each stamp, given as one column of byte codes per stamp, in seconds
    such that ``seconds // 86400`` is its ``date.toordinal()``; None unless
    every column is ``YYYY-MM-DDTHH:MM:SS`` of a real date and time
    (exactly the stamps of that form that ``datetime.fromisoformat``
    takes)."""
    digits = codes - np.uint8(ord("0"))     # a code below "0" wraps above 9
    if ((codes[_SEP_AT] != _SEP_CODE[:, None]).any() or (digits[_DIGIT_AT] > 9).any()
            or (digits[:4] == 0).all(axis=0).any()):   # NumPy takes year 0000
        return None
    try:   # NumPy checks the calendar: month and day ranges, leap years, 24:00
        stamps = np.ascontiguousarray(codes.T).view(f"S{_STAMP_LEN}").astype("datetime64[s]")
    except ValueError:
        return None
    return stamps.ravel().astype(np.int64) + _EPOCH_SECONDS


def _read_bulk(text, header, n_values):
    """The text of a signal file in the regular layout (see the module
    docstring) as (stamps in microseconds, one value array per column), one
    entry per row; None for any other text."""
    head, _, body = text.replace("\r\n", "\n").partition("\n")
    body = body[:-1] if body.endswith("\n") else body
    if (head != ",".join(header) or not body or '"' in body or "\r" in body
            or "\n\n" in body or body[0] == "\n" or body[-1] == "\n"):
        return None
    # Cell boundaries from the UTF-8 bytes: "," and "\n" are single bytes
    # that no multi-byte character contains.
    width = 1 + n_values
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    ends = np.append(np.flatnonzero((raw == ord(",")) | (raw == ord("\n"))), len(raw))
    pattern = np.array([ord(",")] * n_values + [ord("\n")], dtype=np.uint8)
    if len(ends) % width or (
            np.append(raw[ends[:-1]], pattern[-1]).reshape(-1, width) != pattern).any():
        return None
    starts = np.append(0, ends[:-1] + 1)
    # csv rejects a cell longer than its field size limit
    if (ends - starts).max() >= csv.field_size_limit():
        return None
    stamp_at = starts[::width]
    if (ends[::width] - stamp_at != _STAMP_LEN).any():
        return None
    windows = np.lib.stride_tricks.sliding_window_view(raw, _STAMP_LEN)
    secs = _stamp_seconds(windows[stamp_at].T)
    if secs is None:
        return None
    cells = body.replace("\n", ",").split(",")
    try:
        columns = [np.array(list(map(float, cells[i::width]))) for i in range(1, width)]
    except ValueError:
        return None
    if not all(np.isfinite(c).all() for c in columns):
        return None
    return secs * 1_000_000, columns


def _stamp_text(stamp) -> str:
    """A stamp in microseconds (days counted as ``date.toordinal()``) as ISO text."""
    return (dt.datetime.fromordinal(stamp // _DAY_US)
            + dt.timedelta(microseconds=stamp % _DAY_US)).isoformat()


def _complete_days(stamps, columns, horizon, label):
    """{date: [one array per value column]} for the complete days of one
    file, from its rows in any order (stamps in microseconds). A repeated
    stamp keeps its last row. A day must hold exactly the stamps of the step
    grid; the first or last day may hold only part of them and is then
    dropped with a warning. Any other day is an error, a calendar day
    without rows between the first and the last too."""
    # the first of a stamp in reversed row order is its last row
    n_rows = len(stamps)
    stamps, first = np.unique(stamps[::-1], return_index=True)
    columns = [c[n_rows - 1 - first] for c in columns]
    spd = horizon.steps_per_day
    day_of = stamps // _DAY_US
    days, start, count = np.unique(day_of, return_index=True, return_counts=True)
    # a calendar day without rows between the first and the last holds 0 steps
    if len(days) and days[-1] - days[0] >= len(days):
        held = np.zeros((2, days[-1] - days[0] + 1), dtype=np.int64)
        held[:, days - days[0]] = start, count
        days, (start, count) = np.arange(days[0], days[-1] + 1), held
    off_grid = stamps % (60_000_000 * horizon.tau_minutes) != 0
    on_grid = ~np.isin(days, day_of[off_grid])
    complete = on_grid & (count == spd)
    for i in np.flatnonzero(~complete).tolist():
        day = dt.date.fromordinal(int(days[i]))
        if i in (0, len(days) - 1) and on_grid[i]:
            warnings.warn(
                f"{label}: dropping incomplete day {day} ({count[i]}/{spd} steps)",
                IncompleteDayWarning, stacklevel=3)
        elif on_grid[i]:
            raise DataFormatError(f"{label}: gap inside day {day} ({count[i]}/{spd} steps)")
        else:
            stamp = int(stamps[off_grid & (day_of == days[i])][0])
            raise DataFormatError(
                f"{label}: stamp {_stamp_text(stamp)} is off the "
                f"{horizon.tau_minutes}-minute step grid")
    return {dt.date.fromordinal(d): [c[s:s + spd] for c in columns]
            for d, s in zip(days[complete].tolist(), start[complete].tolist())}


def load_dataset(price_path, demand_path, pv_path, horizon: Horizon) -> list[HistoricalDay]:
    """Load the three signal CSVs into validated, date-sorted HistoricalDays.

    Incomplete days at either end of any file are dropped with a warning;
    only dates complete in all three files are returned, and a file without
    rows on dates another file holds complete warns once, naming how many
    and the first and last of them. A repeated timestamp keeps its last
    row; a non-finite value is an error, and so is a value outside its
    series' range, named with its file, stamp and column.
    """
    paths = (price_path, demand_path, pv_path)
    parsed = [_read_signal_file(path, f.header, len(f.series))
              for path, f in zip(paths, SIGNAL_FILES)]
    # a loop, not a comprehension: the warning's stacklevel counts frames
    per_file = []
    for (stamps, columns), f in zip(parsed, SIGNAL_FILES):
        per_file.append(_complete_days(stamps, columns, horizon, f.label))
    held = set().union(*per_file)
    for (stamps, _), f in zip(parsed, SIGNAL_FILES):
        # every day from the file's first row to its last has rows (else it
        # raised above), and one of them that is not complete was warned already
        with_rows = (range(int(stamps.min()) // _DAY_US, int(stamps.max()) // _DAY_US + 1)
                     if len(stamps) else range(0))
        lacking = sorted(day for day in held if day.toordinal() not in with_rows)
        if lacking:
            count, span = ((f"{len(lacking)} days", f"{lacking[0]} to {lacking[-1]}")
                           if len(lacking) > 1 else ("1 day", f"{lacking[0]}"))
            warnings.warn(f"{f.label}: lacks {count} that another file holds complete "
                          f"({span}), left out of the dataset", IncompleteDayWarning,
                          stacklevel=2)
    dates = sorted(held.intersection(*per_file))
    try:
        return [HistoricalDay(date=day, **{name: column
                                           for f, days in zip(SIGNAL_FILES, per_file)
                                           for name, column in zip(f.series, days[day])})
                for day in dates]
    except _RangeFault as fault:
        i = next(i for i, f in enumerate(SIGNAL_FILES) if fault.series in f.series)
        column = SIGNAL_FILES[i].series.index(fault.series)
        value = per_file[i][fault.day][column][fault.step]
        stamp = fault.day.toordinal() * _DAY_US + fault.step * 60_000_000 * horizon.tau_minutes
        raise DataFormatError(
            f"{paths[i]}: {_stamp_text(stamp)}: {fault.words} "
            f"({SIGNAL_FILES[i].header[1 + column]} = {value})") from None


def save_dataset(days, price_path, demand_path, pv_path):
    """Write days back out in the load_dataset CSV layout (exact round-trip)."""
    for path, f in zip((price_path, demand_path, pv_path), SIGNAL_FILES):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(f.header)
            for day in days:
                columns = [getattr(day, name) for name in f.series]
                for j, values in enumerate(zip(*columns)):
                    ts = dt.datetime.combine(day.date, dt.time()) + dt.timedelta(
                        minutes=j * (1440 // len(day.price)))
                    w.writerow([ts.isoformat()] + [f"{v:.17g}" for v in values])


# INI key -> (EssSpec field, scale): catalog files give EUR/kWh, EUR/kW,
# kWh and kW, converted on load
_CATALOG_FIELDS = {
    "eta_c": ("eta_c", 1.0), "eta_d": ("eta_d", 1.0),
    "cost_energy_eur_per_kwh": ("cost_energy", 1.0),
    "cost_power_eur_per_kw": ("cost_power", 1.0),
    "om_energy_eur_per_kwh": ("om_energy", 1.0),
    "om_power_eur_per_kw_yr": ("om_power", 1.0),
    "max_energy_kwh": ("e_cap_max", 1e-3), "max_power_kw": ("p_cap_max", 1e-3),
    "crate_max_per_step": ("crate_max", 1.0), "dod_min_frac": ("dod_min_frac", 1.0),
    "cycle_life": ("cycle_life", 1.0), "resale_factor": ("resale_factor", 1.0),
}


def _catalog_syntax_fault(path, exc: configparser.Error) -> CatalogError:
    """One line naming the catalog file, the line the parser blames (when
    it gives one) and what is wrong there."""
    lineno = getattr(exc, "lineno", None)
    if isinstance(exc, configparser.DuplicateOptionError):
        what = f"key {exc.option} repeated in [{exc.section}]"
    elif isinstance(exc, configparser.DuplicateSectionError):
        what = f"section [{exc.section}] repeated"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        what = f"key before any [section]: {exc.line.strip()}"
    elif isinstance(exc, configparser.ParsingError):
        lineno = exc.errors[0][0]
        what = "not a key = value line"
    else:
        what = " ".join(exc.message.split())
    return CatalogError(f"{path}:{lineno}: {what}" if lineno else f"{path}: {what}")


def load_catalog(catalog_path) -> dict[str, EssSpec]:
    """Read the storage technology catalog (one INI section per technology).
    Every section holds exactly the keys of `_CATALOG_FIELDS`, each value
    read as written (no `%` interpolation)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:   # lines split at any line end, as in a file opened in text mode
        parser.read_file(io.StringIO(read_text(catalog_path), newline=None), str(catalog_path))
        raw = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise _catalog_syntax_fault(catalog_path, exc) from None
    # a value is checked as written: every scale is positive, so its interval holds
    intervals = {f.name: f.metadata.get("interval") for f in fields(EssSpec)}
    catalog = {}
    for name, section in raw.items():
        for key in section:
            if key not in _CATALOG_FIELDS:
                raise CatalogError(f"{name}: unknown field {key}")
        vals = {}
        for key, (spec_field, scale) in _CATALOG_FIELDS.items():
            if key not in section:
                raise CatalogError(f"{name}: missing field {key}")
            try:
                value = float(section[key])
            except ValueError:
                raise CatalogError(f"{name}: field {key} is not a number") from None
            check_within(value, intervals[spec_field], name, key, error=CatalogError)
            vals[spec_field] = value * scale
        catalog[name] = EssSpec(name=name, **vals)
    if not catalog:
        raise CatalogError(f"{catalog_path}: no technology records")
    return catalog


def make_demo_dataset(seed: int, n_days: int, steps_per_day: int = 24) -> list[HistoricalDay]:
    """Generate a synthetic stand-in for the proprietary case-study data.

    Deterministic for a fixed seed. Prices show morning/evening peaks and
    stay strictly positive; charger demand follows a weekday pattern with
    shift peaks; PV is a diurnal bell with seasonal amplitude and clouds.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    hours = np.arange(steps_per_day) * 24.0 / steps_per_day
    start = dt.date(2021, 1, 1)
    days = []
    for i in range(n_days):
        date = start + dt.timedelta(days=i)
        weekday = date.weekday() < 5
        season = 0.6 - 0.4 * np.cos(2 * np.pi * (i % 365) / 365.0)  # peak mid-year

        sun = np.sin(np.pi * (hours - 6.0) / 12.0)
        sun = np.where((hours >= 6.0) & (hours <= 18.0), np.maximum(sun, 0.0), 0.0)
        cloud = rng.uniform(0.55, 1.0)
        pv_cf = np.clip(sun * season * cloud * rng.uniform(0.9, 1.0, steps_per_day), 0.0, 1.0)

        base = rng.uniform(35.0, 70.0)
        peaks = 28.0 * np.exp(-0.5 * ((hours - 8.0) / 1.8) ** 2) \
            + 34.0 * np.exp(-0.5 * ((hours - 19.0) / 2.2) ** 2)
        midday_dip = 18.0 * season * np.exp(-0.5 * ((hours - 13.0) / 2.5) ** 2)
        price = base + peaks - midday_dip + rng.normal(0.0, 3.0, steps_per_day)
        price = np.maximum(price, 5.0)  # strictly positive floor, EUR/MWh

        # evening shift change peaks above the contractable grid capacity,
        # so serving the chargers requires local storage or PV
        shift = 1.6 * np.exp(-0.5 * ((hours - 7.0) / 1.5) ** 2) \
            + 3.1 * np.exp(-0.5 * ((hours - 18.0) / 2.0) ** 2)
        ch_level = 1.0 if weekday else 0.35
        demand_ch = np.maximum(
            ch_level * shift * rng.uniform(0.85, 1.15, steps_per_day), 0.0)
        wh_level = 0.30 if weekday else 0.18
        demand_wh = np.maximum(
            wh_level * (1.0 + 0.3 * np.sin(2 * np.pi * (hours - 9.0) / 24.0))
            * rng.uniform(0.9, 1.1, steps_per_day), 0.0)

        days.append(HistoricalDay(date, price, demand_ch, demand_wh, pv_cf))
    return days


def write_demo_files(days, out_dir):
    """Write a demo dataset as the three CSVs load_dataset expects, each
    named after its label (prices.csv, demand.csv, pv.csv)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = tuple(os.path.join(out_dir, f"{f.label}.csv") for f in SIGNAL_FILES)
    save_dataset(days, *paths)
    return paths
