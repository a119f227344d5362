import datetime as dt
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobstats.aggregate import DEFAULT_BASELINE_END, DEFAULT_BASELINE_START, reduce_region_day
from mobstats.collate import date_to_day_number
from mobstats.errors import DataError
from mobstats.geocode import RegionKey
from mobstats.output import (
    CSV_HEADER,
    OutputRecord,
    read_csv,
    read_ndjson,
    write_csv,
    write_ndjson,
)


def rec(**overrides):
    base = dict(country_code="AA", admin_level="admin2", admin1="West",
                admin2="Westburg", region_id="W-01", date="2020-03-02",
                samples=12, m50=1.234, m50_index=98.7)
    base.update(overrides)
    return OutputRecord(**base)


def ndjson_text(records, verbose=False):
    sink = io.StringIO()
    write_ndjson(records, sink, verbose=verbose)
    return sink.getvalue()


def csv_text(records, verbose=False):
    sink = io.StringIO()
    write_csv(records, sink, verbose=verbose)
    return sink.getvalue()


class TestWriteNdjson:
    def test_one_record_one_line(self):
        text = ndjson_text([rec()])
        assert text.count("\n") == 1
        assert text.endswith("\n")
        obj = json.loads(text)
        assert obj["m50"] == 1.234
        assert obj["samples"] == 12

    def test_zero_records_empty_file(self):
        assert ndjson_text([]) == ""

    def test_key_order_fixed(self):
        line = ndjson_text([rec()]).rstrip("\n")
        assert line == ('{"country_code":"AA","admin_level":"admin2","admin1":"West",'
                        '"admin2":"Westburg","region_id":"W-01","date":"2020-03-02",'
                        '"samples":12,"m50":1.234,"m50_index":98.7}')

    def test_absent_index_serialized_null(self):
        line = ndjson_text([rec(m50_index=None)])
        assert '"m50_index":null' in line
        assert json.loads(line)["m50_index"] is None

    def test_zero_index_not_mistaken_for_null(self):
        line = ndjson_text([rec(m50_index=0.0)])
        assert '"m50_index":0.0' in line

    def test_rounding(self):
        line = ndjson_text([rec(m50=1.23456, m50_index=33.333)])
        obj = json.loads(line)
        assert obj["m50"] == 1.235
        assert obj["m50_index"] == 33.3

    def test_every_line_parses_independently(self):
        records = [rec(date=f"2020-03-{d:02d}") for d in range(1, 11)]
        for line in ndjson_text(records).splitlines():
            json.loads(line)

    def test_concatenation_stays_valid(self):
        both = ndjson_text([rec()]) + ndjson_text([rec(date="2020-03-03")])
        assert len([json.loads(line) for line in both.splitlines()]) == 2

    def test_verbose_appends_spread_fields(self):
        r = rec(m_max_mean=2.5, m_max_q1=1.0, m_max_q3=4.0)
        obj = json.loads(ndjson_text([r], verbose=True))
        assert list(obj)[-3:] == ["m_max_mean", "m_max_q1", "m_max_q3"]
        assert obj["m_max_q3"] == 4.0

    def test_verbose_values_written_only_under_verbose(self):
        spread = rec(m_max_mean=2.0, m_max_q1=1.0, m_max_q3=3.0)
        assert ndjson_text([spread]) == ndjson_text([rec()])
        assert csv_text([spread]) == csv_text([rec()])
        assert ndjson_text([spread], verbose=True) != ndjson_text([rec()], verbose=True)


class TestWriteCsv:
    def test_header(self):
        first = csv_text([]).splitlines()[0]
        assert first == "country_code,admin_level,admin1,admin2,region_id,date,samples,m50,m50_index"

    def test_row_values(self):
        lines = csv_text([rec()]).splitlines()
        assert lines[1] == "AA,admin2,West,Westburg,W-01,2020-03-02,12,1.234,98.7"

    def test_empty_cell_for_absent_index(self):
        lines = csv_text([rec(m50_index=None)]).splitlines()
        assert lines[1].endswith(",1.234,")

    def test_comma_in_name_quoted(self):
        lines = csv_text([rec(admin1="Region, The")]).splitlines()
        assert '"Region, The"' in lines[1]

    def test_lf_line_endings(self):
        text = csv_text([rec(), rec(date="2020-03-03")])
        assert "\r" not in text

    def test_values_match_ndjson_field_by_field(self):
        records = [rec(), rec(m50_index=None, date="2020-03-03"),
                   rec(m50=0.0005, date="2020-03-04")]
        csv_lines = csv_text(records).splitlines()[1:]
        json_lines = ndjson_text(records).splitlines()
        for csv_line, json_line in zip(csv_lines, json_lines):
            obj = json.loads(json_line)
            cells = csv_line.split(",")
            for i, field in enumerate(CSV_HEADER):
                want = obj[field]
                got = cells[i]
                if want is None:
                    assert got == ""
                elif isinstance(want, str):
                    assert got == want
                else:
                    assert float(got) == float(want)


class TestRoundTrip:
    def make_records(self):
        # in file order
        return [
            rec(admin1="East", admin2="Eastburg", region_id="E-01", m50=3.5,
                m50_index=100.0),
            rec(admin_level="admin1", admin2="", region_id="W", date="2020-03-03",
                samples=25, m50=0.125, m50_index=None),
            rec(),
        ]

    def test_ndjson_round_trip(self, tmp_path):
        records = self.make_records()
        p = tmp_path / "stats.ndjson"
        p.write_text(ndjson_text(records), encoding="utf-8")
        assert read_ndjson(str(p)) == records

    def test_csv_round_trip(self, tmp_path):
        records = self.make_records()
        p = tmp_path / "stats.csv"
        p.write_text(csv_text(records), encoding="utf-8")
        assert read_csv(str(p)) == records

    def test_formats_agree_after_parse(self, tmp_path):
        records = self.make_records()
        (tmp_path / "s.ndjson").write_text(ndjson_text(records), encoding="utf-8")
        (tmp_path / "s.csv").write_text(csv_text(records), encoding="utf-8")
        assert read_ndjson(str(tmp_path / "s.ndjson")) == read_csv(str(tmp_path / "s.csv"))

    def test_verbose_round_trip(self, tmp_path):
        records = [rec(m_max_mean=2.125, m_max_q1=1.5, m_max_q3=3.75)]
        p = tmp_path / "stats.csv"
        p.write_text(csv_text(records, verbose=True), encoding="utf-8")
        assert read_csv(str(p)) == records

    def test_bad_ndjson_rejected(self, tmp_path):
        p = tmp_path / "stats.ndjson"
        p.write_text("not json\n", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON"):
            read_ndjson(str(p))

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "stats.ndjson"
        p.write_text('{"country_code":"AA"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="missing fields"):
            read_ndjson(str(p))

    @pytest.mark.parametrize("field, value", [
        ("samples", "12.5"), ("m50", ""), ("m50_index", "high"), ("m50", "inf"),
    ])
    def test_bad_csv_cell_names_line_and_field(self, tmp_path, field, value):
        header, row = csv_text([rec()]).splitlines()
        cells = row.split(",")
        cells[CSV_HEADER.index(field)] = value
        p = tmp_path / "stats.csv"
        p.write_text(f"{header}\n{row}\n{','.join(cells)}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"stats.csv:3: bad {field} value"):
            read_csv(str(p))

    @pytest.mark.parametrize("field, value", [
        ("samples", "12"), ("samples", True), ("samples", 12.0), ("m50", None),
        ("m50", "1.2"), ("admin1", None), ("m50_index", [1]), ("m50_index", float("nan")),
    ])
    def test_wrong_typed_ndjson_value_names_line_and_field(self, tmp_path, field, value):
        obj = json.loads(ndjson_text([rec()]))
        obj[field] = value
        p = tmp_path / "stats.ndjson"
        p.write_text(ndjson_text([rec()]) + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"stats.ndjson:2: bad {field} value"):
            read_ndjson(str(p))

    def test_short_csv_row_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text(csv_text([rec()]) + "AA,admin1\n", encoding="utf-8")
        with pytest.raises(DataError, match="stats.csv:3: 2 cells"):
            read_csv(str(p))

    def test_non_utf8_csv_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_bytes(csv_text([rec()]).encode() + b"\xff\n")
        with pytest.raises(DataError, match="stats.csv: not valid UTF-8"):
            read_csv(str(p))

    def test_wrong_csv_header_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_csv(str(p))

    @given(st.lists(
        st.builds(
            rec,
            samples=st.integers(min_value=1, max_value=9999),
            m50=st.floats(min_value=0, max_value=500).map(lambda x: round(x, 3)),
            m50_index=st.one_of(
                st.none(),
                st.floats(min_value=0, max_value=400).map(lambda x: round(x, 1))),
            date=st.dates(dt.date(2020, 1, 1), dt.date(2020, 6, 30)).map(str),
        ),
        max_size=20,
    ))
    @settings(max_examples=40)
    def test_round_trip_property(self, tmp_path_factory, records):
        p = tmp_path_factory.mktemp("out") / "stats.ndjson"
        p.write_text(ndjson_text(records), encoding="utf-8")
        back = read_ndjson(str(p))
        assert [(r.date, r.samples, r.m50, r.m50_index) for r in back] == \
               [(r.date, r.samples, r.m50, r.m50_index) for r in records]


def reduced(key, m_max=(0.2, 1.0, 1.8, 3.0, 4.0)):
    """The one record reduce_region_day makes of a region's m_max values on 2020-03-02,
    a baseline day."""
    day = date_to_day_number(dt.date(2020, 3, 2))
    (record,) = reduce_region_day([key], np.zeros(len(m_max), np.int32),
                                  np.full(len(m_max), day), np.array(m_max),
                                  DEFAULT_BASELINE_START, DEFAULT_BASELINE_END)
    return record


class TestRecordFromStats:
    """Records as reduce_region_day builds them from a segment's statistics."""

    def test_admin2_level(self):
        r = reduced(RegionKey("AA", "West", "Westburg", "W-01"))
        assert r.admin_level == "admin2"
        assert r.date == "2020-03-02"
        assert r.m50 == 1.8
        assert "m_max_mean" not in json.loads(ndjson_text([r]))

    def test_admin1_level_has_empty_admin2(self):
        r = reduced(RegionKey("AA", "West", "", "W"))
        assert r.admin_level == "admin1"
        assert r.admin2 == ""
        # its only baseline day is its norm
        assert r.m50_index == 100.0

    def test_verbose_carries_spread(self):
        r = reduced(RegionKey("AA", "West", "", "W"))
        assert (r.m_max_mean, r.m_max_q1, r.m_max_q3) == (2.0, 1.0, 3.0)
        obj = json.loads(ndjson_text([r], verbose=True))
        assert (obj["m_max_mean"], obj["m_max_q1"], obj["m_max_q3"]) == (2.0, 1.0, 3.0)
