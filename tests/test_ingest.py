"""CSV loading and grid alignment."""
import calendar
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantfit import DataError, RawSeries, align, load_series, make_grid
from plantfit.ingest import _epoch_seconds, _resample, format_timestamp, parse_timestamp


def read_value(path):
    return load_series(path, ["value"])["value"]


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseTimestamp:
    def test_accepted_forms(self):
        zulu = parse_timestamp("2018-01-01T12:30:00Z")
        offset = parse_timestamp("2018-01-01T13:30:00+01:00")
        naive = parse_timestamp("2018-01-01T12:30:00")
        assert zulu == offset == naive

    def test_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_timestamp("yesterday")

    def test_round_trip(self):
        stamp = parse_timestamp("2018-06-01T00:30:00Z")
        assert format_timestamp(stamp) == "2018-06-01T00:30:00Z"

    @settings(max_examples=300, deadline=None)
    @given(st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1)),
           st.one_of(st.none(), st.just("Z"), st.integers(-23 * 60 - 59, 23 * 60 + 59)))
    def test_whole_seconds_match_the_utc_instant(self, local, zone):
        """Z, +-hh:mm offsets and naive stamps, with microseconds dropped."""
        if zone is None:
            text, utc = local.isoformat(), local
        elif zone == "Z":
            text, utc = local.isoformat() + "Z", local
        else:
            offset = timezone(timedelta(minutes=zone))
            text = local.replace(tzinfo=offset).isoformat()
            utc = local - timedelta(minutes=zone)
        expected = calendar.timegm(utc.timetuple())  # whole seconds, earlier in time
        assert _epoch_seconds(text) == expected
        assert parse_timestamp(text) == np.datetime64(expected, "s")


class TestLoadSeries:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value",
            "2018-01-01T00:00:00Z,10.5",
            "2018-01-01T00:30:00Z,11.0",
            "2018-01-01T01:00:00Z,9.25",
        ])
        series = read_value(path)
        assert len(series) == 3
        assert series.values.tolist() == [10.5, 11.0, 9.25]

    def test_duplicate_timestamp_named(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value",
            "2018-01-01T00:00:00Z,1",
            "2018-01-01T00:00:00Z,2",
        ])
        with pytest.raises(DataError, match="duplicate timestamp 2018-01-01T00:00:00Z"):
            read_value(path)

    def test_decreasing_timestamp_rejected(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value",
            "2018-01-01T01:00:00Z,1",
            "2018-01-01T00:00:00Z,2",
        ])
        with pytest.raises(DataError, match="decreasing"):
            read_value(path)

    def test_nan_value_names_line(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value",
            "2018-01-01T00:00:00Z,1",
            "2018-01-01T00:30:00Z,NaN",
        ])
        with pytest.raises(DataError, match=r"s\.csv:3"):
            read_value(path)

    def test_columns_of_one_file(self, tmp_path):
        stamps = ["2018-01-01T00:00:00Z", "2018-01-01T01:30:00+01:00",
                  "2018-01-01T01:00:00", "2018-01-01T01:30:00.999999Z"]
        path = write(tmp_path / "s.csv", ["a,timestamp_utc,b,c"] + [
            f"{i},{t},{10 * i},x" for i, t in enumerate(stamps)])
        table = load_series(path, ["b", "a"])
        assert len(table) == 4
        assert table.timestamps.tolist() == [parse_timestamp(t).tolist() for t in stamps]
        assert table["a"].values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert table["b"].values.tolist() == [0.0, 10.0, 20.0, 30.0]
        assert np.array_equal(table["b"].timestamps, table.timestamps)

    def test_row_with_an_extra_field_rejected(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value",
            "2018-01-01T00:00:00Z,1",
            "2018-01-01T00:30:00Z,1,5",  # a decimal comma
        ])
        with pytest.raises(DataError, match=r"s\.csv:3: 3 fields but the header has 2"):
            read_value(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value",
            "2018-01-01T00:00:00Z,1",
            "",
            "2018-01-01T00:30:00Z,2",
            "",
            "2018-01-01T01:00:00Z,inf",
        ])
        with pytest.raises(DataError, match=r"s\.csv:6: non-finite value in column 'value'"):
            read_value(path)
        path.write_text(path.read_text().replace("inf", "3"))
        assert read_value(path).values.tolist() == [1.0, 2.0, 3.0]

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbftimestamp_utc,value\n2018-01-01T00:00:00Z,4.5\n")
        assert read_value(path).values.tolist() == [4.5]

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "s.csv", ["timestamp_utc,mw", "2018-01-01T00:00:00Z,1"])
        with pytest.raises(DataError, match="missing column"):
            read_value(path)

    @pytest.mark.parametrize("header,row,column", [
        ("value,timestamp_utc", "6", "timestamp_utc"),
        ("timestamp_utc,value", "2018-01-01T00:30:00Z", "value"),
    ])
    def test_short_row_names_its_missing_column(self, tmp_path, header, row, column):
        first = "1,2018-01-01T00:00:00Z" if header.startswith("value") else "2018-01-01T00:00:00Z,1"
        path = write(tmp_path / "s.csv", [header, first, row])
        with pytest.raises(DataError, match=rf"s\.csv:3: missing value in column '{column}'"):
            read_value(path)

    def test_row_short_of_a_column_not_read_rejected(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,value,note",
            "2018-01-01T00:00:00Z,1,ok",
            "2018-01-01T00:30:00Z,2",
        ])
        with pytest.raises(DataError, match=r"s\.csv:3: missing value in column 'note'"):
            read_value(path)

    @pytest.mark.parametrize("header", [
        "timestamp_utc,value,value",
        "timestamp_utc,value,timestamp_utc",
    ])
    def test_column_read_twice_in_the_header_rejected(self, tmp_path, header):
        path = write(tmp_path / "s.csv", [header, "2018-01-01T00:00:00Z,1,7"])
        column = header.split(",")[-1]
        with pytest.raises(DataError, match=rf"s\.csv: column '{column}' appears twice"):
            read_value(path)

    def test_repeated_name_of_a_column_not_read_accepted(self, tmp_path):
        path = write(tmp_path / "s.csv", [
            "timestamp_utc,note,value,note",
            "2018-01-01T00:00:00Z,a,1.5,b",
        ])
        assert read_value(path).values.tolist() == [1.5]

    @pytest.mark.parametrize("hours, resolution", [
        ([0, 0.5, 1], "half-hourly"),
        ([0, 1, 2], "hourly"),
        ([0, 1, 1.5, 2], "half-hourly"),  # the smallest spacing, not the first
        ([0, 24, 48], "daily"),
        ([0], "daily"),  # a single row can only be step-repeated
    ])
    def test_resolution_from_smallest_spacing(self, tmp_path, hours, resolution):
        t0 = parse_timestamp("2018-01-01T00:00:00Z")
        path = write(tmp_path / "s.csv", ["timestamp_utc,value"] + [
            f"{format_timestamp(t0 + np.timedelta64(int(h * 3600), 's'))},1" for h in hours])
        series = read_value(path)
        covered = int({"half-hourly": 0.5, "hourly": 1.0, "daily": 24.0}[resolution] / 0.5)
        last = series.timestamps[-1]  # the half-hours the last row covers, and no more
        on_grid = _resample(series, make_grid(last, covered, 0.5), "s", 0.0)
        assert on_grid.tolist() == [1.0] * covered
        with pytest.raises(DataError, match="gap in s at"):
            _resample(series, make_grid(last, covered + 1, 0.5), "s", 0.0)

    def test_round_trip(self, tmp_path):
        rows = [
            ("2018-03-01T00:00:00Z", 17.25),
            ("2018-03-01T00:30:00Z", 18.0),
            ("2018-03-01T01:00:00Z", 16.125),
        ]
        path = write(tmp_path / "s.csv", ["timestamp_utc,value"]
                     + [f"{t},{v}" for t, v in rows])
        series = read_value(path)
        path2 = write(tmp_path / "s2.csv", ["timestamp_utc,value"] + [
            f"{format_timestamp(t)},{v}"
            for t, v in zip(series.timestamps, series.values)
        ])
        series2 = read_value(path2)
        assert np.array_equal(series.timestamps, series2.timestamps)
        assert np.array_equal(series.values, series2.values)


def empty_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"")
    return path


@pytest.mark.parametrize("build, message", [
    (lambda tmp_path: make_grid("2018-01-01T00:00:00Z", 0, 0.5), "grid needs at least one period"),
    (lambda tmp_path: RawSeries(make_grid("2018-01-01T00:00:00Z", 2, 0.5), [1.0]),
     "timestamps and values length mismatch"),
    (lambda tmp_path: RawSeries([], []), "series is empty"),
    (lambda tmp_path: RawSeries(make_grid("2018-01-01T00:00:00Z", 2, 0.5)[::-1], [1.0, 2.0]),
     "timestamps must be strictly increasing"),
    (lambda tmp_path: RawSeries(make_grid("2018-01-01T00:00:00Z", 2, 0.5), [1.0, np.nan]),
     "series contains non-finite values"),
    (lambda tmp_path: load_series(empty_file(tmp_path), ["value"]), r"s\.csv: missing header row"),
], ids=["grid of no period", "values of another length", "empty series",
        "decreasing timestamps", "NaN value", "empty file"])
def test_guard_names_its_fault(tmp_path, build, message):
    with pytest.raises(DataError, match=message):
        build(tmp_path)


def raw(start, values, hours):
    """A series of ``values`` at a spacing of ``hours``."""
    return RawSeries(make_grid(start, len(values), hours), np.asarray(values, dtype=float))


def full_series_set(T=48, start="2018-01-01T00:00:00Z"):
    return {
        "electricity": raw(start, 40.0 + np.arange(T) % 7, 0.5),
        "fuel": raw(start, [20.0], 24.0),
        "carbon": raw(start, [18.0], 24.0),
        "production": raw(start, np.zeros(T), 0.5),
        "mel": raw(start, np.full(T, 400.0), 0.5),
        "sel": raw(start, np.full(T, 150.0), 0.5),
        "ramp_up": raw(start, np.full(T, 240.0), 0.5),
        "ramp_dn": raw(start, np.full(T, 300.0), 0.5),
    }


class TestAlign:
    def test_daily_price_repeats_over_day(self):
        series = full_series_set()
        market, _, _ = align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z")
        assert market.horizon == 48
        assert np.all(market.f == 20.0)

    def test_hourly_series_doubles_at_half_hour(self):
        series = full_series_set()
        series["electricity"] = raw("2018-01-01T00:00:00Z",
                                    [30.0, 50.0, 70.0], 1.0)
        market, _, _ = align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-01T03:00:00Z")
        assert market.w.tolist() == [30.0, 30.0, 50.0, 50.0, 70.0, 70.0]

    def test_production_gap_rejected(self):
        series = full_series_set()
        power = np.zeros(42)  # six missing settlement periods mid-horizon
        ts = np.concatenate([make_grid("2018-01-01T00:00:00Z", 20, 0.5),
                             make_grid("2018-01-01T13:00:00Z", 22, 0.5)])
        series["production"] = RawSeries(ts, power)
        with pytest.raises(DataError, match="gap in observed production"):
            align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z")

    def test_price_gap_within_limit_forward_fills(self):
        series = full_series_set()
        # hourly prices stopping 6 hours before the horizon end: filled
        series["electricity"] = raw("2018-01-01T00:00:00Z", np.full(18, 33.0), 1.0)
        market, _, _ = align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z")
        assert np.all(market.w == 33.0)

    def test_price_gap_beyond_limit_rejected(self):
        series = full_series_set(T=3 * 48)
        series["fuel"] = raw("2018-01-01T00:00:00Z", [20.0], 24.0)
        series["electricity"] = raw("2018-01-01T00:00:00Z",
                                    40.0 + np.zeros(3 * 48), 0.5)
        series["carbon"] = raw("2018-01-01T00:00:00Z", np.full(3, 18.0), 24.0)
        series["production"] = raw("2018-01-01T00:00:00Z", np.zeros(3 * 48), 0.5)
        for key in ("mel", "sel", "ramp_up", "ramp_dn"):
            values = {"mel": 400.0, "sel": 150.0, "ramp_up": 240.0, "ramp_dn": 300.0}[key]
            series[key] = raw("2018-01-01T00:00:00Z", np.full(3 * 48, values), 0.5)
        with pytest.raises(DataError, match="gap in fuel"):
            align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-04T00:00:00Z")

    def test_missing_series_named(self):
        series = full_series_set()
        del series["carbon"]
        with pytest.raises(DataError, match="carbon"):
            align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z")

    def test_ragged_horizon_rejected(self):
        series = full_series_set()
        with pytest.raises(DataError, match="whole number"):
            align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-01T00:20:00Z")

    @pytest.mark.parametrize("dt,message", [
        (0.0, "dt must be finite and positive"),
        (-0.5, "dt must be finite and positive"),
        (float("nan"), "dt must be finite and positive"),
        (float("inf"), "dt must be finite and positive"),
        (1e-13, "dt must be a positive whole number of seconds"),  # rounds to a 0 s step
    ])
    def test_bad_dt_named(self, dt, message):
        series = full_series_set()
        with pytest.raises(DataError, match=message):
            align(series, dt, "2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z")
        with pytest.raises(DataError, match=message):
            make_grid("2018-01-01T00:00:00Z", 4, dt)

    def test_ramp_rate_is_horizon_minimum(self):
        series = full_series_set()
        ramps = np.full(48, 240.0)
        ramps[10] = 180.0
        series["ramp_up"] = raw("2018-01-01T00:00:00Z", ramps, 0.5)
        _, dynamics, _ = align(series, 0.5, "2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z")
        assert dynamics.ramp_up == 180.0

    def test_idempotent_on_aligned_output(self):
        series = full_series_set()
        market, dynamics, observed = align(series, 0.5, "2018-01-01T00:00:00Z",
                                           "2018-01-02T00:00:00Z")
        grid = market.grid
        back = {
            "electricity": RawSeries(grid, market.w),
            "fuel": RawSeries(grid, market.f),
            "carbon": RawSeries(grid, market.e),
            "production": RawSeries(grid, observed.power),
            "mel": RawSeries(grid, dynamics.mel),
            "sel": RawSeries(grid, dynamics.sel),
            "ramp_up": RawSeries(grid, np.full(48, dynamics.ramp_up)),
            "ramp_dn": RawSeries(grid, np.full(48, dynamics.ramp_dn)),
        }
        market2, dynamics2, observed2 = align(back, 0.5, "2018-01-01T00:00:00Z",
                                              "2018-01-02T00:00:00Z")
        assert np.array_equal(market2.w, market.w)
        assert np.array_equal(market2.f, market.f)
        assert np.array_equal(observed2.power, observed.power)
        assert np.array_equal(dynamics2.mel, dynamics.mel)
        assert dynamics2.ramp_up == dynamics.ramp_up
