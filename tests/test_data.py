import contextlib
import csv
import dataclasses
import datetime as dt
import math
import pathlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmg import data
from hessmg.data import (SERIES, SIGNAL_FILES, CatalogError, DataFormatError, EssSpec,
                         GridSpec, Horizon, HistoricalDay, IncompleteDayWarning, PvSpec,
                         SourceSpec, load_catalog, load_dataset, make_demo_dataset,
                         save_dataset)

RESOURCES = pathlib.Path(__file__).resolve().parents[1] / "src" / "hessmg" / "resources"
LAYOUTS = tuple((f.header, len(f.series)) for f in SIGNAL_FILES)


def test_series_are_the_day_fields_each_in_one_signal_file():
    assert SERIES == tuple(f.name for f in dataclasses.fields(HistoricalDay))[1:]
    assert tuple(name for f in SIGNAL_FILES for name in f.series) == SERIES
    assert all(len(f.header) == 1 + len(f.series) for f in SIGNAL_FILES)


def test_horizon_basics():
    h = Horizon(tau_minutes=60, t_syn=30, years=20, discount_rate=0.04)
    assert h.steps_per_day == 24
    assert h.n_steps == 720
    assert h.tau_hours == 1.0


@pytest.mark.parametrize("kwargs", [
    {"tau_minutes": 0}, {"tau_minutes": 7}, {"t_syn": 0},
    {"years": 0}, {"discount_rate": 1.0}, {"discount_rate": -0.1},
    {"tau_minutes": 7.5}, {"t_syn": 2.0},
])
def test_horizon_rejects(kwargs):
    with pytest.raises(ValueError):
        Horizon(**kwargs)


def test_grid_spec_requires_positive_f_sell():
    with pytest.raises(ValueError):
        GridSpec(f_sell=0.0)
    GridSpec(f_sell=1.0)  # boundary allowed


# one valid instance of each settings class by the owner its messages name;
# every field declared with an interval is a case of
# test_declared_interval_is_enforced
SETTINGS = {
    "horizon": Horizon(),
    "cell": EssSpec(name="cell", eta_c=0.9, eta_d=0.9, cost_energy=100.0,
                    cost_power=100.0, om_energy=0.01, om_power=1.0, e_cap_max=2.0,
                    p_cap_max=1.0, crate_max=1.0, dod_min_frac=0.1, cycle_life=3000.0,
                    resale_factor=0.5),
    "grid": GridSpec(), "pv": PvSpec(), "sources": SourceSpec(),
}
DECLARED = [(owner, spec, f) for owner, spec in SETTINGS.items()
            for f in dataclasses.fields(spec) if "interval" in f.metadata]


@pytest.mark.parametrize("owner, spec, f", DECLARED,
                         ids=[f"{type(s).__name__}.{f.name}" for _, s, f in DECLARED])
def test_declared_interval_is_enforced(owner, spec, f):
    interval = f.metadata["interval"]
    error = CatalogError if isinstance(spec, EssSpec) else ValueError

    def rejected(value):
        with pytest.raises(error) as caught:
            dataclasses.replace(spec, **{f.name: value})
        assert str(caught.value).startswith(f"{owner}: {f.name} must be ")
        assert str(caught.value).endswith(f" in {interval}, got {value}")

    for value in (math.nan, math.inf, -math.inf, True, "1"):
        rejected(value)
    integer = f.type in (int, "int")
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    for end, closed in ((lo, interval[0] == "["), (hi, interval[-1] == "]")):
        if math.isinf(end):
            continue
        value = int(end) if integer else end
        if closed:
            assert getattr(dataclasses.replace(spec, **{f.name: value}), f.name) == value
        else:
            rejected(value)


def test_every_numeric_setting_declares_an_interval():
    for spec in SETTINGS.values():
        for f in dataclasses.fields(spec):
            numeric = f.type in (int, float, "int", "float")
            assert numeric == ("interval" in f.metadata), f.name


def test_settings_take_numpy_numbers():
    h = Horizon(tau_minutes=np.int64(15), t_syn=np.int32(2), years=np.int16(20))
    assert (h.steps_per_day, h.n_steps) == (96, 192)
    assert GridSpec(conn_fixed=np.float32(1.5), tran_fixed=2).conn_fixed == 1.5


class TestDemoDataset:
    def test_deterministic(self):
        a = make_demo_dataset(seed=1, n_days=2)
        b = make_demo_dataset(seed=1, n_days=2)
        assert a == b

    def test_invariants_hold_for_a_year(self):
        days = make_demo_dataset(seed=7, n_days=365)
        assert len(days) == 365
        for day in days:
            assert len(day.price) == 24
            assert np.all(day.pv_cf >= 0) and np.all(day.pv_cf <= 1)
            assert np.all(day.demand_ch >= 0)

    def test_pv_peaks_at_noon(self):
        days = make_demo_dataset(seed=3, n_days=60)
        noon = np.mean([d.pv_cf[11:14].mean() for d in days])
        midnight = np.mean([d.pv_cf[[0, 1, 23]].mean() for d in days])
        assert noon > midnight

    def test_needs_at_least_one_day(self):
        with pytest.raises(ValueError):
            make_demo_dataset(seed=0, n_days=0)


class TestLoadDataset:
    def _write(self, tmp_path, days):
        paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
        save_dataset(days, *paths)
        return paths

    def test_round_trip_exact(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=4)
        paths = self._write(tmp_path, days)
        again = load_dataset(*paths, Horizon(t_syn=1))
        assert again == days

    def test_partial_edge_day_dropped_with_warning(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=4)
        paths = self._write(tmp_path, days)
        # truncate the price file: last day keeps only 12 of 24 rows
        lines = paths[0].read_text().splitlines()
        paths[0].write_text("\n".join(lines[:-12]) + "\n")
        with pytest.warns(IncompleteDayWarning) as caught:
            got = load_dataset(*paths, Horizon(t_syn=1))
        assert len(got) == 3
        assert got == days[:3]
        # one warning, attributed to the caller of load_dataset: the dropped day
        # is not named again as a day the other files hold
        assert [w.filename for w in caught] == [__file__]

    def test_file_cut_short_warns_once(self, tmp_path):
        # demand and pv hold 40 days, prices only the first 20
        days = make_demo_dataset(seed=0, n_days=40)
        paths = self._write(tmp_path, days)
        save_dataset(days[:20], paths[0], tmp_path / "d20.csv", tmp_path / "pv20.csv")
        with pytest.warns(IncompleteDayWarning) as caught:
            got = load_dataset(*paths, Horizon(t_syn=1))
        assert got == days[:20]
        assert [(str(w.message), w.filename) for w in caught] == [
            ("prices: lacks 20 days that another file holds complete "
             "(2021-01-21 to 2021-02-09), left out of the dataset", __file__)]

    def test_each_file_names_the_days_it_lacks(self, tmp_path):
        # prices starts a day late and demand ends a day early; pv holds every day
        days = make_demo_dataset(seed=0, n_days=4)
        paths = self._write(tmp_path, days)
        save_dataset(days[1:], paths[0], tmp_path / "d.tmp", tmp_path / "pv.tmp")
        save_dataset(days[:-1], tmp_path / "p.tmp", paths[1], tmp_path / "pv.tmp")
        days_, caught = _outcome(paths, Horizon(t_syn=1))
        assert days_ == days[1:-1]
        assert [str(w[1]) for w in caught] == [
            "prices: lacks 1 day that another file holds complete (2021-01-01), "
            "left out of the dataset",
            "demand: lacks 1 day that another file holds complete (2021-01-04), "
            "left out of the dataset"]

    def test_gap_inside_day_is_an_error(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=3)
        paths = self._write(tmp_path, days)
        lines = paths[2].read_text().splitlines()
        del lines[30]  # hole in the middle day
        paths[2].write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="gap inside day"):
            load_dataset(*paths, Horizon(t_syn=1))

    def test_negative_price_is_legal(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=2)
        days[0].price[3] = -5.0  # negative day-ahead prices happen
        paths = self._write(tmp_path, days)
        got = load_dataset(*paths, Horizon(t_syn=1))
        assert got[0].price[3] == -5.0

    def test_capacity_factor_out_of_range(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=2)
        paths = self._write(tmp_path, days)
        text = paths[2].read_text().splitlines()
        stamp = text[5].split(",")[0]
        text[5] = f"{stamp},1.2"
        paths[2].write_text("\n".join(text) + "\n")
        with pytest.raises(DataFormatError, match="capacity factor out of range"):
            load_dataset(*paths, Horizon(t_syn=1))

    def test_malformed_row_reports_line(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=2)
        paths = self._write(tmp_path, days)
        text = paths[0].read_text().splitlines()
        text[7] = "not-a-timestamp,12.0"
        paths[0].write_text("\n".join(text) + "\n")
        with pytest.raises(DataFormatError, match=":8:"):
            load_dataset(*paths, Horizon(t_syn=1))

    @pytest.mark.parametrize("index, token, value", [
        (0, 1, "nan"), (1, 1, "inf"), (0, 1, "-inf"), (1, 2, "nan"), (2, 1, "inf")])
    def test_non_finite_value_reports_line(self, tmp_path, index, token, value):
        days = make_demo_dataset(seed=5, n_days=2)
        paths = self._write(tmp_path, days)
        text = paths[index].read_text().splitlines()
        cells = text[7].split(",")
        cells[token] = value
        text[7] = ",".join(cells)
        paths[index].write_text("\n".join(text) + "\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{paths[index]}:8: non-finite value")):
            load_dataset(*paths, Horizon(t_syn=1))

    def test_historical_day_rejects_non_finite(self):
        day = make_demo_dataset(seed=5, n_days=1)[0]
        for name in SERIES:
            values = {n: getattr(day, n).copy() for n in SERIES}
            values[name][2] = np.nan if name != "demand_wh" else np.inf
            with pytest.raises(DataFormatError, match=f"non-finite {name}"):
                HistoricalDay(date=day.date, **values)

    def test_header_mismatch(self, tmp_path):
        days = make_demo_dataset(seed=5, n_days=2)
        paths = self._write(tmp_path, days)
        body = paths[0].read_text().splitlines()
        body[0] = "timestamp,price_usd_per_mwh"
        paths[0].write_text("\n".join(body) + "\n")
        with pytest.raises(DataFormatError, match="header mismatch"):
            load_dataset(*paths, Horizon(t_syn=1))


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.lists(st.tuples(
        st.floats(-500, 4000, allow_nan=False),   # price EUR/MWh
        st.floats(0, 10, allow_nan=False),        # ch MW
        st.floats(0, 5, allow_nan=False),         # wh MW
        st.floats(0, 1, allow_nan=False),         # cf
    ), min_size=24, max_size=24),
    min_size=1, max_size=4))
def test_serialization_round_trip_property(tmp_path_factory, raw_days):
    days = []
    for i, rows in enumerate(raw_days):
        arr = np.array(rows)
        days.append(HistoricalDay(
            date=dt.date(2022, 1, 1) + dt.timedelta(days=i),
            price=arr[:, 0], demand_ch=arr[:, 1],
            demand_wh=arr[:, 2], pv_cf=arr[:, 3]))
    tmp = tmp_path_factory.mktemp("roundtrip")
    paths = (tmp / "p.csv", tmp / "d.csv", tmp / "pv.csv")
    save_dataset(days, *paths)
    assert load_dataset(*paths, Horizon(t_syn=1)) == days


def _outcome(paths, horizon, line=False):
    """What load_dataset gives: (days, warnings) or (exception type,
    message). With line=True every file is read line by line."""
    reader = (mock.patch.object(data, "_read_bulk", return_value=None) if line
              else contextlib.nullcontext())
    with reader, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            days = load_dataset(*paths, horizon)
        except Exception as exc:  # the outcome under test
            return type(exc), str(exc)
    return days, [(w.category, str(w.message), w.filename) for w in caught]


def _bulk_reads(paths):
    return [data._read_bulk(p, *layout) is not None for p, layout in zip(paths, LAYOUTS)]


@settings(max_examples=40, deadline=None)
@given(tau=st.sampled_from([15, 60, 240]), n_days=st.integers(1, 3),
       seed=st.integers(0, 2**16), crlf=st.booleans(), draw=st.data())
def test_bulk_and_line_paths_agree(tmp_path_factory, tau, n_days, seed, crlf, draw):
    """Shuffled rows, repeated stamps with new values and a cut edge day
    give the same days and warnings on both paths."""
    spd = 1440 // tau
    tmp = tmp_path_factory.mktemp("paths")
    paths = (tmp / "p.csv", tmp / "d.csv", tmp / "pv.csv")
    save_dataset(make_demo_dataset(seed, n_days, spd), *paths)
    for path, (_, n_values) in zip(paths, LAYOUTS):
        header, *rows = path.read_text().splitlines()
        cut = draw.draw(st.sampled_from(["none", "first", "last"]))
        k = draw.draw(st.integers(1, spd - 1))
        if cut == "first":
            rows = rows[k:]
        elif cut == "last":
            rows = rows[:-k]
        repeats = draw.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
        for i in repeats:
            values = draw.draw(st.lists(st.floats(0, 1), min_size=n_values,
                                        max_size=n_values))
            rows.append(",".join([rows[i].split(",")[0]] + [repr(v) for v in values]))
        rows = draw.draw(st.permutations(rows))
        end = "\r\n" if crlf else "\n"
        path.write_bytes((end.join([header, *rows]) + end).encode())
    assert _bulk_reads(paths) == [True] * 3
    horizon = Horizon(tau_minutes=tau, t_syn=1)
    assert _outcome(paths, horizon) == _outcome(paths, horizon, line=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.datetimes(dt.datetime(1, 1, 1), dt.datetime(9999, 12, 31, 23, 59, 59)).map(
        lambda t: t.replace(microsecond=0).isoformat()),
    st.builds("{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format,
              st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
              st.integers(0, 25), st.integers(0, 61), st.integers(0, 61)),
    st.text("0123456789-T: ", min_size=19, max_size=19)), min_size=1, max_size=5))
def test_stamp_check_matches_fromisoformat(stamps):
    """The bulk stamp check takes a list of YYYY-MM-DDTHH:MM:SS stamps
    exactly when fromisoformat takes each of them, and gives the same
    instants; it takes no stamp of another form."""
    def seconds(stamp):
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}", stamp):
            return None
        try:
            t = dt.datetime.fromisoformat(stamp)
        except ValueError:
            return None
        return t.date().toordinal() * 86400 + t.hour * 3600 + t.minute * 60 + t.second
    codes = np.frombuffer("".join(stamps).encode(), dtype=np.uint8).reshape(-1, 19).T
    expected = [seconds(s) for s in stamps]
    got = data._stamp_seconds(codes)
    assert (None if None in expected else expected) == (None if got is None else got.tolist())


def _blank_lines(lines):
    return lines[:4] + [""] + lines[4:] + [""]


def _quoted(lines):
    stamp, value = lines[5].split(",")
    return lines[:5] + [f'"{stamp}","{value}"'] + lines[6:]


def _space_and_minutes(lines):
    stamp, value = lines[5].split(",")
    return lines[:5] + [f"{stamp[:10]} {stamp[11:16]},{value}"] + lines[6:]


def _utc_offset(lines):
    stamp, value = lines[5].split(",")
    return lines[:5] + [f"{stamp}+01:00,{value}"] + lines[6:]


def _feb_30(lines):
    return lines[:5] + ["2021-02-30T00:00:00,12.0"] + lines[6:]


def _off_grid(lines):
    stamp, value = lines[30].split(",")
    return lines[:30] + [f"{stamp[:14]}30:00,{value}"] + lines[31:]


def _gap_in_middle_day(lines):
    return lines[:30] + lines[31:]


def _fraction_in_middle_day(lines):
    stamp, value = lines[30].split(",")
    return lines[:30] + [f"{stamp}.500,{value}"] + lines[31:]


def _extra_fraction_on_last_day(lines):
    stamp, value = lines[-3].split(",")
    return lines + [f"{stamp}.250,{value}"]


def _header_only(lines):
    return lines[:1]


@pytest.mark.parametrize("edit, crlf, bulk, expected", [
    (_blank_lines, False, False, list),
    (lambda lines: lines, True, True, list),
    (_quoted, False, False, list),
    (_space_and_minutes, False, False, list),
    (_utc_offset, False, False, DataFormatError),
    (_feb_30, False, False, DataFormatError),
    (_off_grid, False, True, DataFormatError),
    (_gap_in_middle_day, False, True, DataFormatError),
    (_fraction_in_middle_day, False, False, DataFormatError),
    (_extra_fraction_on_last_day, False, False, DataFormatError),
    (_header_only, False, False, list),
], ids=["blank lines", "crlf", "quoted cells", "space and minutes", "utc offset",
        "feb 30", "off grid", "gap in middle day", "fraction in middle day",
        "extra fraction on last day", "header only"])
def test_edited_price_file_matches_line_path(tmp_path, edit, crlf, bulk, expected):
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=3), *paths)
    end = "\r\n" if crlf else "\n"
    paths[0].write_bytes((end.join(edit(paths[0].read_text().splitlines())) + end).encode())
    assert _bulk_reads(paths) == [bulk, True, True]
    got = _outcome(paths, Horizon(t_syn=1))
    assert got == _outcome(paths, Horizon(t_syn=1), line=True)
    assert isinstance(got[0], list) if expected is list else got[0] is expected


@pytest.mark.parametrize("edit, expected", [
    (_fraction_in_middle_day, (DataFormatError, "prices: stamp 2021-01-02T05:00:00.500000 "
                                                "is off the 60-minute step grid")),
    (_extra_fraction_on_last_day, (DataFormatError, "prices: stamp 2021-01-03T21:00:00.250000 "
                                                    "is off the 60-minute step grid")),
    (_header_only, ([], [(IncompleteDayWarning,
                          "prices: lacks 3 days that another file holds complete "
                          "(2021-01-01 to 2021-01-03), left out of the dataset", __file__)])),
], ids=["fraction in middle day", "extra fraction on last day", "header only"])
def test_fractional_stamps_and_empty_files(tmp_path, edit, expected):
    """A stamp a fraction of a second off the grid is not truncated onto
    it, and a file with no rows gives no days and says which it lacks."""
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=3), *paths)
    paths[0].write_text("\n".join(edit(paths[0].read_text().splitlines())) + "\n")
    assert _outcome(paths, Horizon(t_syn=1)) == expected


def test_hourly_files_under_a_15_minute_step_say_how_many_steps_a_day_holds(tmp_path):
    """Hourly stamps sit on the 15-minute grid, so nothing is off it: each
    day is short, and the first inner one is an error that counts its steps."""
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=3), *paths)
    assert _outcome(paths, Horizon(tau_minutes=15, t_syn=1)) == (
        DataFormatError, "prices: gap inside day 2021-01-02 (24/96 steps)")


@pytest.mark.parametrize("files, label", [((0,), "prices"), ((1,), "demand"),
                                          ((0, 1, 2), "prices")],
                         ids=["prices", "demand", "all three files"])
@pytest.mark.parametrize("line", [False, True], ids=["bulk", "line"])
def test_a_day_without_rows_inside_a_file_is_a_gap(tmp_path, files, label, line):
    """A calendar day missing between a file's first and last day is a gap
    of 0 steps, also when every file leaves it out: the days on each side of
    it are no day-to-day transition."""
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=5), *paths)
    for i in files:
        lines = paths[i].read_text().splitlines()
        paths[i].write_text("\n".join(r for r in lines if not r.startswith("2021-01-03")) + "\n")
    assert _outcome(paths, Horizon(t_syn=1), line=line) == (
        DataFormatError, f"{label}: gap inside day 2021-01-03 (0/24 steps)")


@pytest.mark.parametrize("file", [0, 1, 2], ids=["prices", "demand", "pv"])
@pytest.mark.parametrize("line", [False, True], ids=["bulk", "line"])
def test_byte_order_mark_is_dropped_from_a_signal_file(tmp_path, file, line):
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=3), *paths)
    plain = _outcome(paths, Horizon(t_syn=1), line=line)
    paths[file].write_bytes(b"\xef\xbb\xbf" + paths[file].read_bytes())
    assert _bulk_reads(paths)[file] is True
    assert _outcome(paths, Horizon(t_syn=1), line=line) == plain
    assert isinstance(plain[0], list) and len(plain[0]) == 3


@pytest.mark.parametrize("file, cell, expected", [
    (1, "-0.5", "2021-01-02T05:00:00: negative demand (wh_mw = -0.5)"),
    (2, "1.2", "2021-01-02T05:00:00: capacity factor out of range (pv_cf = 1.2)"),
], ids=["negative demand", "capacity factor above 1"])
@pytest.mark.parametrize("line", [False, True], ids=["bulk", "line"])
def test_range_fault_names_file_stamp_and_value(tmp_path, file, cell, expected, line):
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=3), *paths)
    lines = paths[file].read_text().splitlines()
    lines[30] = ",".join(lines[30].split(",")[:-1] + [cell])
    paths[file].write_text("\n".join(lines) + "\n")
    kind, message = _outcome(paths, Horizon(t_syn=1), line=line)
    assert kind is DataFormatError and message == f"{paths[file]}: {expected}"


@pytest.mark.parametrize("line", [False, True], ids=["bulk", "line"])
def test_repeated_stamp_keeps_its_last_row(tmp_path, line):
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=2), *paths)
    lines = paths[0].read_text().splitlines()
    stamp = lines[5].split(",")[0]
    paths[0].write_text("\n".join(lines + [f"{stamp},-1.0", f"{stamp},-2.0"]) + "\n")
    days, caught = _outcome(paths, Horizon(t_syn=1), line=line)
    assert caught == [] and days[0].price[4] == -2.0


@pytest.mark.parametrize("edit, where", [
    (_utc_offset, r"p\.csv:6: timestamp \S+\+01:00 carries a UTC offset"),
    (lambda lines: lines[:1] + [r.replace(",", "Z,", 1) for r in lines[1:]],
     r"p\.csv:2: timestamp \S+Z carries a UTC offset"),
], ids=["one offset stamp", "every stamp offset"])
def test_utc_offset_stamps_name_their_line(tmp_path, edit, where):
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=3), *paths)
    paths[0].write_text("\n".join(edit(paths[0].read_text().splitlines())) + "\n")
    with pytest.raises(DataFormatError, match=where):
        load_dataset(*paths, Horizon(t_syn=1))


def test_malformed_row_deep_in_a_15_minute_file(tmp_path):
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=210, steps_per_day=96), *paths)
    lines = paths[1].read_text().splitlines()
    lines[20000] = lines[20000].replace(",", ";", 1)
    paths[1].write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"d\.csv:20001: expected 3 columns"):
        load_dataset(*paths, Horizon(tau_minutes=15, t_syn=1))


class TestCatalog:
    def test_case_study_battery(self, case_catalog):
        b = case_catalog["battery"]
        assert (b.eta_c, b.eta_d) == (0.83, 0.88)
        assert b.cost_energy == 900.0 and b.cost_power == 1590.0
        assert b.e_cap_max == 5.0 and b.p_cap_max == 10.0
        assert b.crate_max == 3.0 and b.dod_min_frac == 0.15

    def test_extended_li_ion(self, extended_catalog):
        li = extended_catalog["li_ion_battery"]
        assert (li.eta_c, li.eta_d) == (0.83, 0.88)
        assert li.cost_energy == 400.0 and li.cost_power == 800.0
        assert li.e_cap_max == 40.0 and li.p_cap_max == 40.0

    def test_extended_supercapacitor(self, extended_catalog):
        sc = extended_catalog["supercapacitor"]
        assert (sc.eta_c, sc.eta_d) == (0.95, 0.97)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "cat.ini"
        p.write_text("[x]\neta_c = 0.9\n")
        with pytest.raises(CatalogError, match="missing field"):
            load_catalog(p)

    def test_unknown_field_rejected(self, tmp_path):
        # a key that names no catalog field is a fault, as in a JSON config,
        # also when it comes from [DEFAULT]
        text = (RESOURCES / "catalog_case_study.ini").read_text()
        p = tmp_path / "cat.ini"
        p.write_text(text.replace("[battery]\n", "[battery]\ncrate_max_per_hour = 99\n"))
        with pytest.raises(CatalogError, match="^battery: unknown field crate_max_per_hour$"):
            load_catalog(p)
        p.write_text("[DEFAULT]\nlife = 1\n" + text)
        with pytest.raises(CatalogError, match="^battery: unknown field life$"):
            load_catalog(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("[flywheel]\n", "[flywheel]\neta_c = 0.9\n"),
         r"cat\.ini:\d+: key eta_c repeated in \[flywheel\]"),
        (lambda t: "eta_c = 0.9\n" + t, r"cat\.ini:1: key before any \[section\]"),
        (lambda t: t + "[battery]\n", r"cat\.ini:\d+: section \[battery\] repeated"),
        (lambda t: t.replace("[battery]\n", "[battery]\nno value here\n"),
         r"cat\.ini:\d+: not a key = value line"),
        (lambda t: t.replace("eta_c = 0.83", "eta_c = 83%"),
         r"^battery: field eta_c is not a number$"),
    ], ids=["duplicate key", "no section", "duplicate section", "no equals", "percent"])
    def test_malformed_ini_is_one_catalog_fault(self, tmp_path, edit, message):
        p = tmp_path / "cat.ini"
        p.write_text(edit((RESOURCES / "catalog_case_study.ini").read_text()))
        with pytest.raises(CatalogError, match=message) as info:
            load_catalog(p)
        assert "\n" not in str(info.value)

    def test_catalog_fields_map_onto_each_spec_field_once(self):
        targets = [spec_field for spec_field, _ in data._CATALOG_FIELDS.values()]
        assert sorted(targets) == sorted(
            f.name for f in dataclasses.fields(EssSpec) if f.name != "name")

    @pytest.mark.parametrize("name", ["fly wheel", "", " ", "fly\twheel", "flywheel\n"])
    def test_name_that_is_not_one_token_rejected(self, case_catalog, name):
        # a technology name is part of LP column names, which MPS splits at whitespace
        with pytest.raises(CatalogError, match=f"^technology name {re.escape(repr(name))} "):
            dataclasses.replace(case_catalog["flywheel"], name=name)

    def test_zero_efficiency_rejected(self, tmp_path, case_catalog):
        with pytest.raises(CatalogError, match="eta_c"):
            dataclasses.replace(case_catalog["battery"], eta_c=0.0)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = (RESOURCES / "catalog_case_study.ini").read_text()
        p = tmp_path / "cat.ini"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_catalog(p) == load_catalog(RESOURCES / "catalog_case_study.ini")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog(tmp_path / "nope.ini")


def test_cell_over_the_csv_field_limit_names_its_line(tmp_path):
    # the bulk reader leaves such a file to the line reader, where csv rejects it
    paths = (tmp_path / "p.csv", tmp_path / "d.csv", tmp_path / "pv.csv")
    save_dataset(make_demo_dataset(seed=5, n_days=2), *paths)
    lines = paths[0].read_text().splitlines()
    lines[3] += "0" * csv.field_size_limit()
    paths[0].write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"p\.csv:4: malformed row \(field larger"):
        load_dataset(*paths, Horizon(t_syn=1))
