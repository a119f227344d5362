"""The columnar reader and the scatter/gather kernel against slow line-by-line references.

The references below are kept deliberately naive: a newline="" text reader
feeding ingest.parse_fields one line at a time, and a per-report route
that builds each device-day from sorted tuples and measures m_max with a
per-day haversine. The kernel must reproduce them exactly.
"""

import datetime as dt
import gzip
import io
import json
import math
import re
from collections import Counter
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapters import shard_rows
from mobstats import aggregate, ingest, pipeline
from mobstats.collate import day_number_to_date
from mobstats.geo import EARTH_RADIUS_KM, GeoPoint, solar_tz_offset_hours
from mobstats.geocode import RegionKey, load_gazetteer, reverse_geocode
from mobstats.ingest import parse_fields, read_shard
from mobstats.metrics import DEFAULT_MIN_REPORTS, DEFAULT_MIN_SPAN_HOURS, DEFAULT_TRIM_FRACTION
from mobstats.pipeline import PipelineConfig, run
from mobstats.synth import ELIGIBLE_STYLES, ScenarioSpec, generate, toy_gazetteer_records

T0 = 1584316800  # 2020-03-16T00:00:00Z

# the run report's device-day counters, in its order
GATHER_COUNTERS = (
    "device_days",
    "device_day_reports",
    "rejected_too_few_reports",
    "rejected_short_span",
    "eligible_device_days",
    "unmatched_geocode",
)


# ---------------------------------------------------------------- slow reader


def _header_like(line: str) -> bool:
    parts = line.rstrip("\r\n").split(",")
    if len(parts) < 2:
        return True
    try:
        int(parts[1])
    except ValueError:
        return True
    return False


def reference_read(path: str) -> tuple[dict, list]:
    """Counters and accepted (device_id, epoch, lat, lon) rows of one shard, one
    parse_fields call per line, with the 50 m accuracy filter."""
    counters = dict.fromkeys(("lines_read", "lines_malformed", "reports_accepted",
                              "reports_rejected_accuracy"), 0)
    rows = []
    raw = gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")
    # utf-8-sig: a BOM opening the shard is not part of its first line
    with io.TextIOWrapper(raw, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        first = fh.readline()
        if not first:
            return counters, rows
        for line in fh if _header_like(first) else chain([first], fh):
            counters["lines_read"] += 1
            row = parse_fields(line)
            if isinstance(row, str):
                counters["lines_malformed"] += 1
            elif row[4] > 50.0:
                counters["reports_rejected_accuracy"] += 1
            else:
                counters["reports_accepted"] += 1
                rows.append(row[:4])
    return counters, rows


# an independent statement of the shape the bulk path takes
EPOCH = re.compile(r"[0-9]{1,18}")


def canonical(line: bytes) -> bool:
    """Whether the bulk path takes a line: ASCII, five fields, a non-empty id, an
    epoch of 1 to 18 digits and three numbers float() reads, whatever its length."""
    if not line.isascii():
        return False
    parts = line.decode("ascii").split(",")
    if len(parts) != 5 or not parts[0] or not EPOCH.fullmatch(parts[1]):
        return False
    try:
        [float(part) for part in parts[2:]]
    except ValueError:
        return False
    return True


# near-misses of the canonical shape, field by field; parse_fields decides them
NEAR_MISS_NUMBERS = ["+1", "1_0", " 1.5", "1.5 ", "1e999", "-1e999", "nan", "inf", "-0.0",
                     "180", "180.0", "-180", "90.0000001", "-90", "", "0x10", "1e", ".", "-",
                     "\u0661\u0662", "1,5", "50.0", "50.1", "0", "-0", "00012", "4e1", "1."]
NEAR_MISS_IDS = ["", " ", "d\x00", "d\x85", "d ", "caf\u00e9", "a b", "+1", "\t"]

# a canonical line with one field swapped for each near-miss of its kind
_CANONICAL_FIELDS = ["d1", "1584316800", "1.5", "-2.5", "3e1"]
NEAR_MISS_LINES = [
    ",".join(_CANONICAL_FIELDS[:j] + [value] + _CANONICAL_FIELDS[j + 1:])
    for j, values in ((0, NEAR_MISS_IDS), *((k, NEAR_MISS_NUMBERS) for k in (2, 3, 4)))
    for value in values
]


def examples(values):
    """One hypothesis @example per value, run before any drawn input."""
    def apply(test):
        for value in values:
            test = example(value)(test)
        return test
    return apply


short_ids = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                  blacklist_characters=","), min_size=1, max_size=8)
# an id as long as a SHA-256 hex digest makes a line of about 100 bytes
ids = st.one_of(short_ids, short_ids.map(lambda s: s.ljust(64, "~")))
# 12 to 19 digits reach past ingest.MAX_EPOCH and past int64
epochs = st.one_of(st.integers(0, 2**40), st.integers(10**11, 10**19 - 1)).map(str)
numbers = st.one_of(
    st.floats(-200, 200, allow_nan=False).map(repr),
    st.floats(-100, 100, allow_nan=False).map(lambda x: f"{x:.3f}"),
    st.floats(0, 1e6, allow_nan=False).map(lambda x: f"{x:e}"),
    st.integers(-200, 200).map(str),
)
fields = st.tuples(
    st.one_of(ids, st.sampled_from(NEAR_MISS_IDS)),
    st.one_of(epochs, st.sampled_from(["-5", "+7", " 12", "1_0", "x", "", "9" * 18, str(2**63),
                                        str(ingest.MAX_EPOCH), str(ingest.MAX_EPOCH + 1)])),
    *[st.one_of(numbers, st.sampled_from(NEAR_MISS_NUMBERS))] * 3,
)
text_lines = st.one_of(
    fields.map(",".join),
    fields.map(lambda f: ",".join(f[:4])),
    fields.map(lambda f: ",".join(f) + ",extra"),
    st.sampled_from(["", "garbage", ",,,,", "device_id,epoch_s,lat,lon,accuracy_m"]),
)
byte_lines = st.one_of(
    text_lines.map(lambda s: s.encode("utf-8")),
    st.sampled_from([b"d\xff,1584316800,1.0,2.0,3.0", b"d1,15843\xe96800,1.0,2.0,3.0",
                     b"\xe2\x82,1,1.0,2.0,3.0", b"d\xc3\xa9,1,1.0,2.0,3.0"]),
)
headers = st.sampled_from([None, b"device_id,epoch_s,lat,lon,accuracy_m", b"a,b", b"x", b"",
                           b"d1,12,1.0,2.0,3.0", b"d1,+12,1.0,2.0,3.0", b"h,\xff"])
shards = st.tuples(
    headers,
    st.lists(st.tuples(byte_lines, st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=30),
    st.booleans(),  # final newline
)


def shard_bytes(header, lines, final_newline) -> bytes:
    parts = [] if header is None else [header + b"\n"]
    parts += [line + end for line, end in lines]
    data = b"".join(parts)
    if not final_newline and data.endswith(b"\n"):
        data = data[:-1]
    return data


class TestReaderParity:
    @settings(max_examples=300)
    @given(shard=shards, block=st.sampled_from([1, 2, 3, 7, 64, ingest.BLOCK_BYTES]),
           compressed=st.booleans())
    def test_columns_match_line_by_line_parse_fields(self, tmp_path_factory, shard, block,
                                                     compressed):
        data = shard_bytes(*shard)
        path = tmp_path_factory.mktemp("shard") / ("s.csv.gz" if compressed else "s.csv")
        path.write_bytes(gzip.compress(data) if compressed else data)
        want_counters, want_rows = reference_read(str(path))

        with mock.patch.object(ingest, "BLOCK_BYTES", block):
            got = read_shard(str(path))
        assert got[0] == want_counters
        # rows come in route order, not file order; == cannot tell -0.0 from 0.0, repr can
        assert (Counter(tuple(map(repr, r)) for r in shard_rows(got))
                == Counter(tuple(map(repr, r)) for r in want_rows))

    @staticmethod
    def parse_fields_reads(lines):
        """The lines of one block that _parse_block hands to parse_fields."""
        calls = []
        with mock.patch.object(ingest, "parse_fields",
                               lambda line: calls.append(line) or parse_fields(line)):
            ingest._parse_block(lines, {}, "s.csv")
        return calls

    @settings(max_examples=300)
    @given(text_lines)
    @examples(NEAR_MISS_LINES)
    def test_canonical_grammar_is_the_independent_statement(self, line):
        encoded = line.encode("utf-8")
        assert self.parse_fields_reads([encoded]) == ([] if canonical(encoded) else [line])

    @settings(max_examples=300)
    @given(st.lists(byte_lines, max_size=40))
    @example([line.encode("utf-8") for line in NEAR_MISS_LINES])
    def test_parse_fields_reads_exactly_a_blocks_non_canonical_lines(self, lines):
        # a whole block's lines go to parse_fields exactly when the statement above
        # rejects them
        assert self.parse_fields_reads(lines) == [line.decode("utf-8", "surrogateescape")
                                                  for line in lines if not canonical(line)]

    @staticmethod
    def line_of(length, canonical):
        """A line of `length` bytes, canonical or broken only in its last byte."""
        tail = b",1584316800,1.5,-2.5,30" if canonical else b",1584316800,1.5,-2.5,3x"
        return b"d" * (length - len(tail)) + tail

    @staticmethod
    def per_line_rows(path, lines, bulk):
        """read_shard's rows of a shard of `lines`, asserting that parse_fields reads
        exactly the lines not on the bulk route and that the rows are the reference's."""
        path.write_bytes(b"\n".join(lines) + b"\n")
        calls = []
        with mock.patch.object(ingest, "parse_fields",
                               lambda line: calls.append(line) or parse_fields(line)):
            got = read_shard(str(path))
        assert calls == [line.decode() for line, ok in zip(lines, bulk) if not ok]
        want_counters, want_rows = reference_read(str(path))
        assert got[0] == want_counters
        assert Counter(shard_rows(got)) == Counter(want_rows)
        return shard_rows(got)

    def test_line_length_does_not_change_the_route(self, tmp_path):
        # lines of any length, one longer than a read block included, take the bulk
        # route when canonical; parse_fields reads only the broken ones
        lines, bulk = [], []
        for length in (95, 96, 97, 1000, 2 * ingest.BLOCK_BYTES):
            for ok in (True, False):
                lines += [b"d1,1,1.0,2.0,3.0", self.line_of(length, ok), b"x"]
                bulk += [True, ok, False]
        # ten "d1" rows and one for each line_of(length, True)
        assert len(self.per_line_rows(tmp_path / "s.csv", lines, bulk)) == 15

    def test_block_of_long_lines_only(self, tmp_path):
        lines = [self.line_of(200, True), self.line_of(150, False), self.line_of(96, True)]
        rows = self.per_line_rows(tmp_path / "s.csv", lines, [True, False, True])
        assert [len(r[0]) for r in rows] == [200 - 23, 96 - 23]

    def test_an_unreadable_number_sends_only_its_line_to_parse_fields(self, tmp_path):
        lines = [b"d1,1,1.0,2.0,3.0", b"d1,1,x,2,3", b"d2,2,+1.0,2_0, 3.0", b"d3,3,1,nan,4"]
        rows = self.per_line_rows(tmp_path / "s.csv", lines, [True, False, True, True])
        assert rows == [("d1", 1, 1.0, 2.0), ("d2", 2, 1.0, 20.0)]

    def test_hash_long_ids_take_the_bulk_route(self, scenario, tmp_path):
        # generated shards with every id padded to 64 characters, as long as a
        # SHA-256 hex digest: parse_fields reads only the non-canonical lines
        lengths = []
        for k, shard in enumerate(scenario["shard_paths"]):
            header, *lines = open(shard, "rb").read().splitlines()
            for i, (device, comma, rest) in enumerate(line.partition(b",") for line in lines):
                if device and comma:  # an empty id stays empty, so its line stays malformed
                    lines[i] = device.ljust(64, b"~") + comma + rest
            lengths += map(len, lines)
            # the header is skipped, never parsed
            self.per_line_rows(tmp_path / f"s{k}.csv", [header, *lines],
                               [True] + list(map(canonical, lines)))
        assert sum(length >= 96 for length in lengths) > 0.9 * len(lengths)

    def test_range_boundaries_match_parse_fields(self, tmp_path):
        numbers = ["90", "90.0", "-90", "-90.0", "90.0000001", "-90.0000001", "180", "180.0",
                   "-180", "-180.0", "180.0000001", "-180.0000001", "0", "-0.0", "0.0",
                   "50", "50.0", "50.0000001", "-1e-300", "1e999", "-1e999", "1e-400"]
        # an ASCII id keeps every line on the bulk path, a non-ASCII one sends it to parse_fields
        for prefix, per_line in (("d", False), ("caf\u00e9", True)):
            lines = [f"{prefix}{i},{T0 + i},{lat},{lon},{acc}"
                     for i, (lat, lon, acc) in enumerate(
                         (a, b, c) for a in numbers for b in numbers for c in numbers[12:])]
            path = tmp_path / "s.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            want_counters, want_rows = reference_read(str(path))
            calls = []
            with mock.patch.object(ingest, "parse_fields",
                                   lambda line: calls.append(line) or parse_fields(line)):
                got = read_shard(str(path))
            assert len(calls) == per_line * len(lines)
            assert got[0] == want_counters
            assert want_counters["lines_malformed"] and want_counters["reports_rejected_accuracy"]
            assert ([tuple(map(repr, r)) for r in shard_rows(got)]
                    == [tuple(map(repr, r)) for r in want_rows])

    @pytest.mark.parametrize("data", [
        b"d1,1,1.0,2.0,3.0\r\nd2,2,1.0,2.0,3.0\rd3,3,1.0,2.0,3.0\n",
        b"\r\n\r\n\rd1,1,1.0,2.0,3.0",
        b"h,x\r\nd1,1,1.0,2.0,3.0\r",
        b"d1,1,1.0,2.0,3.0\r\r\n\n",
    ])
    @pytest.mark.parametrize("block", [1, 2, 5, 17])
    def test_line_endings_across_block_boundaries(self, tmp_path, data, block):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        want_counters, want_rows = reference_read(str(path))
        with mock.patch.object(ingest, "BLOCK_BYTES", block):
            got = read_shard(str(path))
        assert got[0] == want_counters
        assert shard_rows(got) == want_rows


# ------------------------------------------------------------- slow gather


def parent_m_max(rows, trim_fraction: float) -> float:
    """Per-day trimmed max distance: one anchor, one haversine_km_arr call, np.sort."""
    lat0, lon0 = rows[0][1], rows[0][2]
    lats = np.array([r[1] for r in rows])
    lons = np.array([r[2] for r in rows])
    phi0 = math.radians(lat0)
    phis = np.radians(lats)
    dphi = np.radians(lats - lat0)
    dlam = np.radians(lons - lon0)
    h = np.sin(dphi / 2.0) ** 2 + math.cos(phi0) * np.cos(phis) * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))
    n = d.shape[0]
    k = int(trim_fraction * n)
    return float(d.max()) if k == 0 else float(np.sort(d)[n - 1 - k])


def reference_gather(rows, gaz) -> tuple[dict, list]:
    """Counters and records of the per-report device-day route."""
    by_device: dict[str, list] = {}
    for device_id, epoch, lat, lon in rows:
        by_device.setdefault(device_id, []).append((epoch, lat, lon))
    a1_ids = {(r.key.country_code, r.key.admin1): r.key.region_id
              for r in gaz.regions if r.key.level == 1}
    counters = dict.fromkeys(GATHER_COUNTERS, 0)
    records = []
    for device_id in sorted(by_device):
        reports = sorted(by_device[device_id])
        tz = solar_tz_offset_hours(reports[0][2])
        days: dict[int, list] = {}
        for r in reports:
            days.setdefault((r[0] + 3600 * tz) // 86400, []).append(r)
        for day in sorted(days):
            day_rows = days[day]
            date = dt.date(1970, 1, 1) + dt.timedelta(days=day)
            counters["device_days"] += 1
            counters["device_day_reports"] += len(day_rows)
            if len(day_rows) < DEFAULT_MIN_REPORTS:
                counters["rejected_too_few_reports"] += 1
                continue
            if day_rows[-1][0] - day_rows[0][0] < DEFAULT_MIN_SPAN_HOURS * 3600.0:
                counters["rejected_short_span"] += 1
                continue
            counters["eligible_device_days"] += 1
            region = reverse_geocode(gaz, GeoPoint(day_rows[0][1], day_rows[0][2]))
            if region is None:
                counters["unmatched_geocode"] += 1
                continue
            m_max = parent_m_max(day_rows, DEFAULT_TRIM_FRACTION)
            a1_id = (a1_ids.get((region.country_code, region.admin1), "")
                     if region.admin1 else region.region_id)
            records.append((RegionKey(region.country_code, region.admin1, "", a1_id), date, m_max))
            if region.admin2:
                records.append((region, date, m_max))
    return counters, records


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernel")
    spec = ScenarioSpec(
        seed=23, devices=24, start_date=dt.date(2020, 2, 24), end_date=dt.date(2020, 3, 10),
        styles=ELIGIBLE_STYLES, malformed_fraction=0.05, accuracy_reject_fraction=0.1,
        ineligible_fraction=0.2, shards=3,
    )
    return {"root": root, "spec": spec, **generate(spec, str(root))}


def run_captured(cfg: PipelineConfig) -> tuple[dict, list]:
    """(gather counters, records) of a pipeline run, records as reduce sees them.

    Reduce takes columns; each row is mapped back through the key table to
    a (RegionKey, date, m_max) record.
    """
    captured = []
    reduce_region_day = aggregate.reduce_region_day

    def capture(keys, region, day, m_max):
        captured.extend(
            (keys[r], day_number_to_date(d), m)
            for r, d, m in zip(region.tolist(), day.tolist(), m_max.tolist())
        )
        return reduce_region_day(keys, region, day, m_max)

    with mock.patch.object(aggregate, "reduce_region_day", capture):
        (report,) = run(cfg)
    return {k: report[k] for k in GATHER_COUNTERS}, captured


class TestGatherKernel:
    @pytest.mark.parametrize("n_buckets", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_device_day_reference(self, scenario, tmp_path, monkeypatch, n_buckets,
                                          workers):
        monkeypatch.setattr(pipeline, "N_BUCKETS", n_buckets)
        cfg = PipelineConfig(
            inputs=[str(scenario["root"] / "shards" / "*.csv")],
            gazetteer=scenario["gazetteer_path"], output_dir=str(tmp_path / "out"),
            workers=workers,
        )
        rows = [r for p in scenario["shard_paths"] for r in reference_read(p)[1]]
        want_counters, want_records = reference_gather(
            rows, load_gazetteer(scenario["gazetteer_path"]))
        got_counters, got_records = run_captured(cfg)
        assert got_counters == want_counters
        assert want_counters["eligible_device_days"] > 0
        # m_max compares with ==: the kernel's values are the per-day formula's, bit for bit
        assert Counter(got_records) == Counter(want_records)

    def test_key_table_twins_without_region_records(self, scenario, tmp_path, monkeypatch):
        # no "East" admin1 record, so Eastburg County's admin1 twin has region_id "";
        # the Eastfield quarter is the country-only region BB, its own twin
        recs = [r for r in toy_gazetteer_records()
                if r["type"] == "region" and r["region_id"] not in ("AA-E", "AA-E-02")]
        recs.append({"type": "region", "country_code": "BB", "admin1": "", "admin2": "",
                     "region_id": "BB", "polygons": [[[4, -4], [8, -4], [8, 0], [4, 0], [4, -4]]]})
        gaz_path = tmp_path / "gaz.ndjson"
        gaz_path.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
        gaz = load_gazetteer(str(gaz_path))
        ghost = RegionKey("AA", "East", "", "")
        assert ghost in gaz.keys and ghost not in {r.key for r in gaz.regions}

        rows = [r for p in scenario["shard_paths"] for r in reference_read(p)[1]]
        outputs = set()
        for workers in (1, 2):
            for n_buckets in (1, 3, 8):
                monkeypatch.setattr(pipeline, "N_BUCKETS", n_buckets)
                out = tmp_path / f"out-{workers}-{n_buckets}"
                cfg = PipelineConfig(inputs=[str(scenario["root"] / "shards" / "*.csv")],
                                     gazetteer=str(gaz_path), output_dir=str(out),
                                     workers=workers)
                want_counters, want_records = reference_gather(rows, gaz)
                counters, records = run_captured(cfg)
                assert counters == want_counters
                assert Counter(records) == Counter(want_records)
                outputs.add(tuple((out / name).read_bytes()
                                  for name in ("stats.ndjson", "stats.csv", "run_report.ndjson")))
        assert len(outputs) == 1
        stats = outputs.pop()[0].decode()
        emitted = {(r["country_code"], r["admin1"], r["admin2"], r["region_id"])
                   for r in map(json.loads, stats.splitlines())}
        assert {("AA", "East", "", ""), ("AA", "East", "Eastburg County", "AA-E-01"),
                ("BB", "", "", "BB"), ("AA", "West", "", "AA-W")} <= emitted

    def test_device_ids_survive_scatter_and_gather(self, scenario, tmp_path, monkeypatch):
        # ids a numpy U array, str.splitlines or a strip would merge or split
        names = ["a", "a\x00", "b", "b\x85", "c", "c\u2028", "d", "d\x1c"]
        lines = [
            f"{name},{T0 + 8 * 3600 + i * 3600},{1.0 + 0.001 * i},{2.0 + 0.001 * k},5.0"
            for k, name in enumerate(names) for i in range(11)
        ]
        data = tmp_path / "data"
        data.mkdir()
        (data / "part-00.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(pipeline, "N_BUCKETS", 3)
        cfg = PipelineConfig(inputs=[str(data / "*.csv")], gazetteer=scenario["gazetteer_path"],
                             output_dir=str(tmp_path / "out"))
        counters, records = run_captured(cfg)
        want_counters, want_records = reference_gather(
            reference_read(str(data / "part-00.csv"))[1],
            load_gazetteer(scenario["gazetteer_path"]))
        assert counters == want_counters
        assert counters["device_days"] == counters["eligible_device_days"] == len(names)
        assert Counter(records) == Counter(want_records)

    def test_parse_fields_runs_only_on_non_canonical_lines(self, scenario, tmp_path):
        lines = non_canonical = 0
        for path in scenario["shard_paths"]:
            with open(path, encoding="utf-8", newline="") as fh:
                for i, line in enumerate(fh):
                    if i == 0 and _header_like(line):
                        continue
                    lines += 1
                    non_canonical += not canonical(line.rstrip("\r\n").encode("utf-8"))

        calls = []
        with mock.patch.object(ingest, "parse_fields",
                               lambda line: calls.append(line) or parse_fields(line)):
            (report,) = run(PipelineConfig(
                inputs=[str(scenario["root"] / "shards" / "*.csv")],
                gazetteer=scenario["gazetteer_path"], output_dir=str(tmp_path / "out")))
        assert report["lines_read"] == lines
        assert 0 < non_canonical < lines / 10
        assert len(calls) == non_canonical
