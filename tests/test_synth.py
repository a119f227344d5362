import datetime as dt
import gzip
import hashlib
import json
import math
import os
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from adapters import device_days, shard_rows, verdicts
from mobstats import ingest, metrics, oracle, pipeline, synth
from mobstats.errors import ConfigError
from mobstats.ingest import parse_fields, read_shard
from mobstats.metrics import day_box_and_hull, day_max_distances
from mobstats.pipeline import PipelineConfig
from mobstats.synth import (
    ELIGIBLE_STYLES,
    HEADER,
    INELIGIBLE_STYLES,
    MALFORMED_LINES,
    STYLES,
    ScenarioSpec,
    day_rows,
    destination,
    generate,
    random_day_rows,
)

T0 = 1583107200  # 2020-03-02T00:00:00Z


def file_hashes(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def pin_workers(monkeypatch, workers):
    """Make generate ask map_tasks for `workers` instead of the usable CPUs."""
    monkeypatch.setattr(synth, "map_tasks", lambda fn, tasks, _: pipeline.map_tasks(fn, tasks, workers))


def run_counters(result, out_dir):
    """The counters a one-worker run over a generated tree reports, keyed as
    its expected.json, and that file's counters."""
    shards = os.path.join(os.path.dirname(result["shard_paths"][0]), "*")
    (report,) = pipeline.run(PipelineConfig(inputs=[shards], gazetteer=result["gazetteer_path"],
                                            output_dir=str(out_dir), workers=1))
    with open(os.path.join(os.path.dirname(result["truth_path"]), "expected.json")) as fh:
        expected = json.load(fh)
    return {key: report[key] for key in expected}, expected


def small_spec(**kwargs):
    defaults = dict(seed=7, devices=6, start_date=dt.date(2020, 3, 2),
                    end_date=dt.date(2020, 3, 5), shards=2)
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = small_spec(malformed_fraction=0.1, accuracy_reject_fraction=0.2,
                          ineligible_fraction=0.3, styles=ELIGIBLE_STYLES)
        generate(spec, str(tmp_path / "a"))
        generate(spec, str(tmp_path / "b"))
        a = file_hashes(tmp_path / "a")
        assert a == file_hashes(tmp_path / "b")
        assert any(name.startswith("shards/") for name in a)
        assert "truth.ndjson" in a and "gazetteer.ndjson" in a and "expected.json" in a

    def test_different_seed_different_bytes(self, tmp_path):
        generate(small_spec(seed=1), str(tmp_path / "a"))
        generate(small_spec(seed=2), str(tmp_path / "b"))
        ha = file_hashes(tmp_path / "a")
        hb = file_hashes(tmp_path / "b")
        assert ha != hb
        assert ha["gazetteer.ndjson"] == hb["gazetteer.ndjson"]  # seed-independent

    def test_gzip_twin_same_reports(self, tmp_path):
        plain = generate(small_spec(), str(tmp_path / "plain"))
        packed = generate(small_spec(gzip_shards=True), str(tmp_path / "gz"))
        read = lambda paths: [r for p in paths for r in shard_rows(read_shard(p))]
        assert read(plain["shard_paths"]) == read(packed["shard_paths"])
        assert all(p.endswith(".csv.gz") for p in packed["shard_paths"])

    def test_gzip_shards_inflate_to_plain_bytes(self, tmp_path):
        # the container is the only difference: header, malformed and
        # rejected lines all come back byte for byte
        spec = dict(malformed_fraction=0.2, accuracy_reject_fraction=0.2)
        plain = generate(small_spec(**spec), str(tmp_path / "plain"))
        packed = generate(small_spec(gzip_shards=True, **spec), str(tmp_path / "gz"))
        assert plain["lines_malformed"] > 0 and plain["reports_rejected_accuracy"] > 0
        for txt, gz in zip(plain["shard_paths"], packed["shard_paths"], strict=True):
            data = Path(gz).read_bytes()
            assert gzip.decompress(data) == Path(txt).read_bytes()
            assert data[8] == 4  # gzip XFL byte: written at the fastest level

    def test_gzip_bytes_reproducible(self, tmp_path):
        # mtime is pinned, so even the compressed container is byte-stable
        generate(small_spec(gzip_shards=True), str(tmp_path / "a"))
        generate(small_spec(gzip_shards=True), str(tmp_path / "b"))
        assert file_hashes(tmp_path / "a") == file_hashes(tmp_path / "b")


# every style, all three fractions above 0, and fewer devices than shards,
# so part-03 holds only its header
GOLDEN_SPEC = dict(seed=11, devices=3, start_date=dt.date(2020, 3, 5),
                   end_date=dt.date(2020, 3, 9), styles=STYLES, malformed_fraction=0.15,
                   accuracy_reject_fraction=0.2, ineligible_fraction=0.3, shards=4)
# sha256 of each file the generator writes for GOLDEN_SPEC; a .csv.gz shard
# is pinned by its inflated bytes, since the deflate stream depends on zlib
GOLDEN_SHA256 = {
    "expected.json": "e8a3da35df8f7d8216fd08e3142d13e02b57529644e16df3a6d84e2a4c9b6460",
    "gazetteer.ndjson": "39ac91aae34345e1ad6d76e9534e3209f115976e0671ab502bb2da0a3fa6c363",
    "shards/part-00.csv": "f37eea7ad651390e5c65896075d14ba0f35c43658b305220b29047154656894c",
    "shards/part-01.csv": "259aba015e06064af398503c5468d94f8dc93d45e84dd8fd5d863064a21559bb",
    "shards/part-02.csv": "18179f6fa6addea5212dac4a94c5175669830b088acfe42f2f54587164d45a0b",
    "shards/part-03.csv": "7e59af84e3faa9dcf2fc5219c84fdafa0973a34e9f33fe49499a31ecccd7f53d",
    "truth.ndjson": "96a6941f9668bf20880c9f24d8354bd463d6d3e948666b955f56d9e632ee9424",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("gzip_shards", [False, True])
    def test_generator_bytes_pinned(self, tmp_path, gzip_shards):
        result = generate(ScenarioSpec(**GOLDEN_SPEC, gzip_shards=gzip_shards), str(tmp_path))
        assert (result["lines_malformed"], result["reports_rejected_accuracy"]) == (47, 43)
        assert 0 < result["eligible_device_days"] < result["device_days"]
        got = {}
        for p in sorted(tmp_path.rglob("*")):
            if p.is_file():
                data = gzip.decompress(p.read_bytes()) if p.suffix == ".gz" else p.read_bytes()
                got[str(p.relative_to(tmp_path)).removesuffix(".gz")] = hashlib.sha256(data).hexdigest()
        assert got == GOLDEN_SHA256
        assert got["shards/part-03.csv"] == hashlib.sha256(f"{HEADER}\n".encode()).hexdigest()

    def test_worker_count_changes_no_byte(self, tmp_path, monkeypatch):
        # inline, two processes, and a request for more workers than shards
        spec = ScenarioSpec(**GOLDEN_SPEC, gzip_shards=True)
        trees = []
        for workers in (1, 2, 9):
            pin_workers(monkeypatch, workers)
            generate(spec, str(tmp_path / str(workers)))
            trees.append(file_hashes(tmp_path / str(workers)))
        assert trees[0] == trees[1] == trees[2]

    def test_no_fork_runs_inline(self, tmp_path, monkeypatch):
        # where the platform cannot fork (Windows), a two-worker request runs inline
        monkeypatch.delattr(os, "fork")
        spec = ScenarioSpec(**GOLDEN_SPEC)
        pin_workers(monkeypatch, 2)
        generate(spec, str(tmp_path / "a"))
        pin_workers(monkeypatch, 1)
        generate(spec, str(tmp_path / "b"))
        assert file_hashes(tmp_path / "a") == file_hashes(tmp_path / "b")


class TestGeneratedCounters:
    def test_zero_malformed_fraction_end_to_end(self, tmp_path):
        result = generate(small_spec(), str(tmp_path))
        assert result["lines_malformed"] == 0
        stats = Counter()
        for p in result["shard_paths"]:
            stats.update(read_shard(p)[0])
        assert stats["lines_malformed"] == 0
        assert stats["lines_read"] == result["lines_read"]
        assert stats["reports_accepted"] == result["reports_accepted"]

    def test_counters_match_ingest(self, tmp_path):
        result = generate(small_spec(malformed_fraction=0.15,
                                     accuracy_reject_fraction=0.25), str(tmp_path))
        stats = Counter()
        for p in result["shard_paths"]:
            stats.update(read_shard(p)[0])
        for key in ("lines_read", "lines_malformed", "reports_accepted",
                    "reports_rejected_accuracy"):
            assert stats[key] == result[key], key
        assert result["lines_malformed"] > 0
        assert result["reports_rejected_accuracy"] > 0

    def test_expected_json_matches_return(self, tmp_path):
        result = generate(small_spec(), str(tmp_path))
        on_disk = json.loads((tmp_path / "expected.json").read_text())
        for key, value in on_disk.items():
            assert result[key] == value

    def test_header_always_first_line(self, tmp_path):
        result = generate(small_spec(malformed_fraction=0.5), str(tmp_path))
        for p in result["shard_paths"]:
            first = Path(p).read_text(encoding="utf-8").splitlines()[0]
            assert first == HEADER

    def test_malformed_samples_really_malformed(self):
        for line in MALFORMED_LINES:
            assert isinstance(parse_fields(line), str), line


class TestTruthSidecar:
    def test_truth_agrees_with_pipeline_modules(self, tmp_path):
        spec = small_spec(devices=10, styles=ELIGIBLE_STYLES,
                          ineligible_fraction=0.3, accuracy_reject_fraction=0.2,
                          malformed_fraction=0.1)
        result = generate(spec, str(tmp_path))
        truth = {}
        with open(result["truth_path"], encoding="utf-8") as fh:
            for line in fh:
                t = json.loads(line)
                truth[(t["device_id"], t["date"])] = t

        rows = [r for p in result["shard_paths"] for r in shard_rows(read_shard(p))]
        days, dd = device_days(rows)
        assert len(days) == len(truth)
        reasons = verdicts(dd)
        m_max = day_max_distances(dd.lat, dd.lon, dd.starts, dd.counts)

        for day, reason, day_m_max in zip(days, reasons, m_max.tolist()):
            t = truth[(day.device_id, day.local_date.isoformat())]
            assert (reason is None) == t["eligible"]
            assert len(day.reports) == t["report_count"]
            if reason is not None:
                assert reason == t["reason"]
                continue
            for name, got in zip(("m_max", "m_bb", "m_ch", "a_bb", "a_ch"),
                                 (day_m_max, *day_box_and_hull(day.reports))):
                assert got == pytest.approx(t[name], rel=1e-9, abs=1e-12), name
            # the first report, where gather geocodes the day
            assert day.reports[0][1:3] == (t["lat"], t["lon"])

    def test_truth_is_sorted_and_line_parseable(self, tmp_path):
        result = generate(small_spec(), str(tmp_path))
        keys = []
        with open(result["truth_path"], encoding="utf-8") as fh:
            for line in fh:
                t = json.loads(line)
                keys.append((t["device_id"], t["date"]))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestDayRows:
    def home(self):
        return 1.5, 2.5

    def test_planned_hits_exact_target(self):
        lat, lon = self.home()
        for seed in range(10):
            rng = random.Random(seed)
            target = 4.0 + seed * 0.5
            rows = day_rows(rng, "planned", lat, lon, T0, 14, target)
            assert len(rows) == 14
            assert (rows[0][1], rows[0][2]) == (lat, lon)
            ref = oracle.oracle_metrics(rows)
            assert ref["eligible"]
            # k decoys at 2x target are trimmed away; the planted point remains
            assert ref["m_max"] == pytest.approx(target, rel=1e-9)

    def test_eligible_styles_span_twelve_hours(self):
        lat, lon = self.home()
        for style in ELIGIBLE_STYLES:
            rows = day_rows(random.Random(3), style, lat, lon, T0, 12, 5.0)
            assert rows[0][0] == T0 + 8 * 3600
            assert rows[-1][0] == T0 + 20 * 3600
            epochs = [r[0] for r in rows]
            assert epochs == sorted(epochs)
            assert len(set(epochs)) == len(epochs)

    def test_short_style_below_span_threshold(self):
        rows = day_rows(random.Random(3), "short", 1.0, 2.0, T0, 15, 5.0)
        span_h = (rows[-1][0] - rows[0][0]) / 3600.0
        assert span_h < 8.0
        assert len(rows) == 15

    def test_sparse_style_below_report_threshold(self):
        for seed in range(8):
            rows = day_rows(random.Random(seed), "sparse", 1.0, 2.0, T0, 20, 5.0)
            assert 1 <= len(rows) < 10

    def test_tight_style_single_point(self):
        rows = day_rows(random.Random(3), "tight", 1.0, 2.0, T0, 12, 5.0)
        assert {(r[1], r[2]) for r in rows} == {(1.0, 2.0)}

    def test_collinear_style_degenerate_hull(self):
        rows = day_rows(random.Random(3), "collinear", 1.0, 2.0, T0, 12, 5.0)
        ref = oracle.oracle_metrics(rows)
        assert ref["a_ch"] == 0.0

    def test_duplicates_style_few_unique_points(self):
        rows = day_rows(random.Random(3), "duplicates", 1.0, 2.0, T0, 20, 5.0)
        assert len({(r[1], r[2]) for r in rows}) <= 4

    def test_antimeridian_style_crosses_dateline(self):
        # cloud radius min(25/111, 2) deg comfortably reaches past 180
        rng = random.Random(5)
        rows = day_rows(rng, "antimeridian", 0.0, 179.85, T0, 20, 25.0)
        lons = [r[2] for r in rows]
        assert max(lons) > 170 and min(lons) < -170
        ref = oracle.oracle_metrics(rows)
        # unwrap keeps the box tight instead of spanning the globe
        assert ref["m_bb"] < 100.0

    def test_accuracies_under_threshold(self):
        rows = day_rows(random.Random(3), "scatter", 1.0, 2.0, T0, 12, 5.0)
        assert all(2.0 <= r[3] <= 45.0 for r in rows)

    def test_random_day_rows_all_styles(self):
        seen = set()
        for i in range(60):
            rng = random.Random(i)
            rows = random_day_rows(rng)
            assert rows
            seen.add(len(rows) < 10 or (rows[-1][0] - rows[0][0]) < 8 * 3600)
        assert seen == {True, False}  # both eligible and ineligible days occur


class TestDestination:
    def test_distance_round_trip(self):
        for bearing in (0.0, 90.0, 217.3):
            lat, lon = destination(10.0, 20.0, bearing, 7.5)
            d = oracle.haversine_km(10.0, 20.0, lat, lon)
            assert d == pytest.approx(7.5, rel=1e-9)

    def test_zero_distance(self):
        assert destination(10.0, 20.0, 45.0, 0.0) == pytest.approx((10.0, 20.0))

    def test_longitude_wrapped(self):
        lat, lon = destination(0.0, 179.95, 90.0, 20.0)
        assert -180.0 <= lon < 180.0
        assert lon < -179.7


class TestScenarioSpec:
    def test_dates_inclusive(self):
        spec = small_spec()
        assert spec.dates() == [dt.date(2020, 3, 2) + dt.timedelta(days=i)
                                for i in range(4)]
        # counted, not stepped past the end
        assert ScenarioSpec(start_date=dt.date.max, end_date=dt.date.max).dates() == [dt.date.max]

    def test_lockdown_spec_windows(self):
        spec = ScenarioSpec(seed=1, devices=10, scale=0.3)
        assert (spec.start_date, synth.SCALE_START, spec.end_date) == (
            dt.date(2020, 2, 17), dt.date(2020, 3, 9), dt.date(2020, 3, 13))
        assert [spec.scale_for(d) for d in spec.dates()] == [1.0] * 21 + [0.3] * 5
        assert spec.scale_for(dt.date(2020, 3, 14)) == 0.3

    def test_scale_for(self):
        scaled = ScenarioSpec(start_date=synth.SCALE_START, scale=2.5)
        assert [scaled.scale_for(d) for d in scaled.dates()] == [2.5] * 5
        assert ScenarioSpec().scale_for(dt.date(2020, 3, 10)) == 1.0


# the CLI's out-of-domain cases as spec fields, an unknown style, an empty
# date range, and --reports-max past the free seconds of a day's window, on
# one ineligible device-day, so a missing check fails fast instead of
# running the oracle on 28,000 points
ONE_DAY = dict(devices=1, end_date=dt.date(2020, 3, 2))
OUT_OF_DOMAIN = [
    dict(shards=0), dict(shards=-1), dict(reports_min=0), dict(reports_min=30, reports_max=10),
    dict(malformed_fraction=2.0), dict(accuracy_reject_fraction=-0.1),
    dict(ineligible_fraction=math.nan), dict(scale=math.nan), dict(scale=math.inf),
    dict(devices=-2), dict(devices=0), dict(scale=-0.5), dict(styles=()),
    dict(styles=("planned", "bogus")),
    dict(start_date=dt.date(2020, 3, 6), end_date=dt.date(2020, 3, 5)),
    dict(ONE_DAY, styles=("short",), reports_min=28742, reports_max=28742),
    dict(ONE_DAY, styles=("short",), reports_max=28740),
    dict(ONE_DAY, styles=("sparse",), ineligible_fraction=0.1, reports_max=28740),
    dict(ONE_DAY, styles=("sparse",), reports_max=43200),
]


class TestDomain:
    @pytest.mark.parametrize("fields", OUT_OF_DOMAIN)
    def test_out_of_domain_raises_before_writing(self, tmp_path, fields):
        out = tmp_path / "gen"
        with pytest.raises(ConfigError):
            generate(small_spec(**fields), str(out))
        assert not out.exists()

    def test_reports_max_bounds_in_domain(self):
        ScenarioSpec(styles=("short",), reports_max=28739).validate()
        ScenarioSpec(ineligible_fraction=0.1, reports_max=28739).validate()
        ScenarioSpec(styles=ELIGIBLE_STYLES, reports_max=43199).validate()

    def test_short_day_at_its_bound_fills_its_window(self, tmp_path):
        # seed 1 draws reports_max + 2 reports for the day: one at each of the
        # window's 28,741 seconds, 08:00:00 to 15:59:00 inclusive
        spec = small_spec(seed=1, devices=1, styles=("short",), reports_min=28739,
                          reports_max=28739, end_date=dt.date(2020, 3, 2))
        result = generate(spec, str(tmp_path))
        assert result["reports_accepted"] == 28741

    # a field of the wrong type, against a tree generated beforehand. Unchecked,
    # gzip_shards="no" writes .csv.gz shards, a float count fails inside the
    # shard tasks after the old tree is removed, a str date does not compare
    # with a date, and devices=True writes one device
    @pytest.mark.parametrize("fields", [
        dict(gzip_shards="no"), dict(devices=2.5), dict(shards=2.0), dict(reports_min=10.5),
        dict(start_date="2020-02-17"), dict(devices=True), dict(end_date=dt.datetime(2020, 3, 5)),
    ])
    def test_wrong_type_raises_and_keeps_the_tree(self, tmp_path, fields):
        generate(small_spec(), str(tmp_path))
        before = file_hashes(tmp_path)
        with pytest.raises(ConfigError):
            generate(small_spec(**fields), str(tmp_path))
        assert file_hashes(tmp_path) == before

    # the first and last days whose every epoch, 08:00 to 20:00 at a solar
    # offset of -12 h to +12 h, lies in 0..ingest.MAX_EPOCH
    @pytest.mark.parametrize("day", [dt.date(1970, 1, 2), dt.date(9999, 12, 30)])
    def test_date_edges_reconcile_with_run(self, tmp_path, day):
        spec = small_spec(devices=24, styles=("antimeridian", "planned"), start_date=day,
                          end_date=day, accuracy_reject_fraction=0.2)
        got, expected = run_counters(generate(spec, str(tmp_path / "gen")), tmp_path / "out")
        assert got == expected
        assert expected["eligible_device_days"] == 24

    @pytest.mark.parametrize("dates", [
        dict(start_date=dt.date(1970, 1, 1)), dict(end_date=dt.date(9999, 12, 31)),
        dict(start_date=dt.date(9999, 12, 31), end_date=dt.date(9999, 12, 31)),
    ])
    def test_day_beyond_the_date_domain_raises_and_keeps_the_tree(self, tmp_path, dates):
        generate(small_spec(), str(tmp_path))
        before = file_hashes(tmp_path)
        with pytest.raises(ConfigError, match="1970-01-02 and 9999-12-30"):
            generate(small_spec(**dates), str(tmp_path))
        assert file_hashes(tmp_path) == before


class TestMethodConstants:
    """The ineligible styles, the planned style and the accuracy draws follow
    the method's constants as their modules hold them when generate runs."""

    def test_sparse_days_follow_min_reports(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_MIN_REPORTS", 5)
        for seed in range(30):
            rows = day_rows(random.Random(seed), "sparse", 1.0, 2.0, T0, 20, 5.0)
            assert 1 <= len(rows) < 5

    def test_short_days_follow_min_span(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_MIN_SPAN_HOURS", 6.0)
        for seed in range(10):
            rows = day_rows(random.Random(seed), "short", 1.0, 2.0, T0, 15, 5.0)
            assert rows[-1][0] - rows[0][0] < 6 * 3600
        # the free seconds of a short day's window shrink with it
        with pytest.raises(ConfigError, match="<= 21539"):
            ScenarioSpec(styles=("short",), reports_max=28739).validate()

    def test_planned_days_follow_trim_fraction(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_TRIM_FRACTION", 0.2)
        for seed in range(10):
            n, target = 10 + 3 * seed, 4.0 + seed * 0.5
            rows = day_rows(random.Random(seed), "planned", 1.5, 2.5, T0, n, target)
            lat, lon = (np.array([r[i] for r in rows]) for i in (1, 2))
            m_max = day_max_distances(lat, lon, np.array([0]), np.array([n]))
            assert m_max[0] == pytest.approx(target, rel=1e-9)

    def test_accuracy_draws_follow_the_filter(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "ACCURACY_MAX_M", 30.0)
        spec = small_spec(accuracy_reject_fraction=0.3, malformed_fraction=0.05)
        got, expected = run_counters(generate(spec, str(tmp_path / "gen")), tmp_path / "out")
        assert got == expected
        assert expected["reports_rejected_accuracy"] > 0
