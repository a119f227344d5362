import argparse
import dataclasses
import datetime as dt
import gzip
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mobstats import aggregate, pipeline
from mobstats.cli import CONFIG_DEFAULTS, build_parser, main
from mobstats.collate import bucket_index, day_number_to_date
from mobstats.errors import ConfigError, DataError
from mobstats.geo import GeoPoint
from mobstats.geocode import load_gazetteer, reverse_geocode
from mobstats.ingest import IngestStats, read_shard_columns
from mobstats.output import read_csv, read_ndjson, write_ndjson
from mobstats.pipeline import PipelineConfig, compare_stats, run, write_compare
from mobstats.synth import ELIGIBLE_STYLES, ScenarioSpec, generate, write_toy_gazetteer


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """One mixed-style scenario shared by the read-only pipeline tests."""
    root = tmp_path_factory.mktemp("scenario")
    spec = ScenarioSpec(
        seed=11, devices=14, start_date=dt.date(2020, 2, 17),
        end_date=dt.date(2020, 3, 10), styles=ELIGIBLE_STYLES,
        malformed_fraction=0.05, accuracy_reject_fraction=0.1,
        ineligible_fraction=0.15, shards=3,
    )
    result = generate(spec, str(root))
    return {"root": root, "spec": spec, **result}


def base_config(scenario, out_dir, **overrides):
    cfg = dict(
        inputs=[str(scenario["root"] / "shards" / "*.csv")],
        gazetteer=scenario["gazetteer_path"],
        output_dir=str(out_dir),
        workers=1,
        n_buckets=4,
    )
    cfg.update(overrides)
    return PipelineConfig(**cfg)


def reconcile(report):
    assert report["lines_read"] == (report["lines_malformed"]
                                    + report["reports_accepted"]
                                    + report["reports_rejected_accuracy"])
    assert report["device_day_reports"] == report["reports_accepted"]
    assert report["device_days"] == (report["date_filtered_days"]
                                     + report["rejected_too_few_reports"]
                                     + report["rejected_short_span"]
                                     + report["eligible_device_days"])
    assert report["eligible_device_days"] == (report["admin1_level_samples"]
                                              + report["unmatched_geocode"])


def fail_mid_scatter(scenario, tmp_path):
    """Output dir of an 8-bucket run that scattered shard 0, then failed on shard 1."""
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(scenario["shard_paths"][0], data / "part-00.csv")
    (data / "part-01.csv").mkdir()
    out = tmp_path / "out"
    with pytest.raises(OSError):
        run(base_config(scenario, out, inputs=[str(data / "*.csv")], n_buckets=8))
    return out


def small_scenario(root):
    """Config overrides for a generated 4-device, one-shard scenario."""
    generate(ScenarioSpec(seed=3, devices=4, start_date=dt.date(2020, 3, 2),
                          end_date=dt.date(2020, 3, 6), shards=1), str(root))
    return dict(inputs=[str(root / "shards" / "*.csv")], gazetteer=str(root / "gazetteer.ndjson"))


class TestRun:
    def test_end_to_end(self, scenario, tmp_path):
        out = tmp_path / "out"
        reports = run(base_config(scenario, out))
        assert len(reports) == 1
        report = reports[0]
        reconcile(report)

        # ingest counters equal the generator's ground truth
        for key in ("lines_read", "lines_malformed", "reports_accepted",
                    "reports_rejected_accuracy"):
            assert report[key] == scenario[key], key
        assert report["device_days"] == scenario["device_days"]
        assert report["eligible_device_days"] == scenario["eligible_device_days"]
        # antimeridian homes sit outside the toy country
        assert report["unmatched_geocode"] > 0

        records = read_ndjson(str(out / "stats.ndjson"))
        assert records == sorted(records, key=lambda r: (r.country_code, r.admin1, r.admin2,
                                                         r.date, r.region_id))
        assert records == read_csv(str(out / "stats.csv"))
        assert sum(r.samples for r in records if r.admin_level == "admin1") == \
            report["admin1_level_samples"]

        run_report = [json.loads(line)
                      for line in (out / "run_report.ndjson").read_text().splitlines()]
        assert run_report == reports

    def test_no_leftover_tmp_or_scratch(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(base_config(scenario, out))
        leftovers = [p for p in out.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
        assert not (out / ".scratch").exists()

    def test_given_scratch_dir_is_kept_without_its_spill(self, scenario, tmp_path):
        scratch = tmp_path / "scratch"
        run(base_config(scenario, tmp_path / "out", scratch_dir=str(scratch)))
        assert scratch.is_dir() and not (scratch / "spill").exists()

    def test_all_reports_rejected_still_reduces(self, scenario, tmp_path):
        out = tmp_path / "out"
        (report,) = run(base_config(scenario, out, accuracy_max_m=1e-9))
        reconcile(report)
        assert report["reports_accepted"] == 0 and report["device_days"] == 0
        assert (out / "stats.ndjson").read_bytes() == b""

    def test_scratch_kept_on_failure(self, scenario, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "part-00.csv").mkdir()  # unreadable shard: a directory
        cfg = PipelineConfig(inputs=[str(data / "*.csv")],
                             gazetteer=scenario["gazetteer_path"],
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(OSError):
            run(cfg)
        assert (tmp_path / "out" / ".scratch" / "spill").exists()

    def test_stale_spill_from_failed_run_is_not_read(self, scenario, tmp_path):
        out = fail_mid_scatter(scenario, tmp_path)
        assert list((out / ".scratch" / "spill").rglob("spill-*"))

        small_cfg = dict(small_scenario(tmp_path / "small"), n_buckets=8)
        after_failure = run(base_config(scenario, out, **small_cfg))
        clean = run(base_config(scenario, tmp_path / "clean", **small_cfg))
        assert after_failure == clean
        assert (out / "stats.ndjson").read_bytes() == \
            (tmp_path / "clean" / "stats.ndjson").read_bytes()

    def test_failed_run_keeps_one_spill_file_per_scattered_shard(self, scenario, tmp_path):
        out = fail_mid_scatter(scenario, tmp_path)
        # shard 0 was scattered into 8 buckets before shard 1 failed
        assert len(list((out / ".scratch" / "spill").rglob("spill-*"))) == 1

    def test_bucket_count_does_not_change_bytes(self, scenario, tmp_path):
        small_cfg = small_scenario(tmp_path / "small")
        outputs = set()
        for n_buckets in (1, 8, 4096, 2**63 - 1):
            out = tmp_path / f"out-{n_buckets}"
            run(base_config(scenario, out, n_buckets=n_buckets, **small_cfg))
            outputs.add(tuple((out / name).read_bytes()
                              for name in ("stats.ndjson", "stats.csv", "run_report.ndjson")))
        assert len(outputs) == 1

    def test_gather_opens_only_non_empty_sections_once(self, scenario, tmp_path, monkeypatch):
        # at 4096 buckets most (bucket, shard) pairs hold no report
        cfg = base_config(scenario, tmp_path / "out", n_buckets=4096)
        pairs = set()
        for s, path in enumerate(scenario["shard_paths"]):
            shard = read_shard_columns(path, cfg.accuracy_max_m, IngestStats())
            pairs |= {(s, bucket_index(shard.names[c], cfg.n_buckets))
                      for c in set(shard.code.tolist())}
        reads, sizes, gathered = [], {}, []

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def seek(self, pos):
                self.pos = pos
                return self.fh.seek(pos)

            def read(self, n):
                data = self.fh.read(n)
                reads.append((self.fh.name, self.pos, len(data)))
                return data

        def recording_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if mode != "rb":
                return fh
            sizes[path] = os.fstat(fh.fileno()).st_size
            return Recording(fh)

        gather_bucket = pipeline._gather_bucket

        def counting_gather(task):
            gathered.append(task)
            return gather_bucket(task)

        monkeypatch.setattr(pipeline, "open", recording_open, raising=False)
        monkeypatch.setattr(pipeline, "_gather_bucket", counting_gather)
        run(cfg)
        assert len(sizes) == len(scenario["shard_paths"])
        # one non-empty read per (bucket, shard) pair holding reports, none twice
        assert len(reads) == len(set(reads)) == len(pairs)
        assert all(n > 0 for _, _, n in reads)
        assert sum(n for _, _, n in reads) == sum(sizes.values())
        assert len(gathered) == len({b for _, b in pairs})

    def test_tied_reports_differing_in_accuracy_do_not_change_bytes(self, tmp_path):
        small_cfg = small_scenario(tmp_path / "small")
        (shard,) = Path(small_cfg["inputs"][0]).parent.glob("*.csv")
        lines = shard.read_text().splitlines(keepends=True)
        # one report twice, at the same second and place, with two accuracies
        i = len(lines) // 2
        fields = lines[i].split(",")[:4]
        twins = [",".join(fields + [acc]) + "\n" for acc in ("3.0", "7.5")]
        outputs = set()
        for name, pair in (("ab", twins), ("ba", twins[::-1])):
            data = tmp_path / name
            data.mkdir()
            (data / "part-00.csv").write_text("".join(lines[:i] + pair + lines[i + 1:]))
            out = tmp_path / f"out-{name}"
            run(PipelineConfig(inputs=[str(data / "*.csv")], gazetteer=small_cfg["gazetteer"],
                               output_dir=str(out)))
            outputs.add(tuple((out / f).read_bytes()
                              for f in ("stats.ndjson", "stats.csv", "run_report.ndjson")))
        assert len(outputs) == 1

    def test_weekend_only_baseline_rejected_before_any_work(self, scenario, tmp_path):
        sat = dt.date(2020, 2, 22)
        cfg = base_config(scenario, tmp_path / "out", baseline_start=sat,
                          baseline_end=sat + dt.timedelta(days=1))
        with pytest.raises(ConfigError, match="no weekdays"):
            run(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_production_m_max_matches_truth_sidecar(self, scenario, tmp_path, monkeypatch):
        captured = []
        reduce_region_day = aggregate.reduce_region_day

        def capture(keys, region, day, m_max, *args):
            captured.extend(zip((keys[r] for r in region.tolist()), day.tolist(), m_max.tolist()))
            return reduce_region_day(keys, region, day, m_max, *args)

        monkeypatch.setattr(aggregate, "reduce_region_day", capture)
        run(base_config(scenario, tmp_path / "out"))

        got: dict[str, list[float]] = {}
        for region, day, m_max in captured:
            if not region.admin2:
                got.setdefault(day_number_to_date(day).isoformat(), []).append(m_max)
        gaz = load_gazetteer(scenario["gazetteer_path"])
        want: dict[str, list[float]] = {}
        with open(scenario["truth_path"], encoding="utf-8") as fh:
            for line in fh:
                t = json.loads(line)
                if t["eligible"] and reverse_geocode(gaz, GeoPoint(t["lat"], t["lon"])):
                    want.setdefault(t["date"], []).append(t["m_max"])
        assert want
        assert sorted(got) == sorted(want)
        for date, values in want.items():
            assert sorted(got[date]) == pytest.approx(sorted(values), rel=1e-9), date

    def test_non_utf8_lines_counted_malformed_and_report_reconciles(self, scenario, tmp_path):
        data = tmp_path / "shards"
        shutil.copytree(scenario["root"] / "shards", data)
        first = sorted(data.glob("*.csv"))[0]
        with open(first, "ab") as fh:
            fh.write(b"dev-\xff\xfe,1583150400,1.0,2.0,3.0\n")  # device id not UTF-8
            fh.write(b"dev-1,15831\xe90400,1.0,2.0,3.0\n")      # epoch not UTF-8
        clean = run(base_config(scenario, tmp_path / "clean"))[0]
        report = run(base_config(scenario, tmp_path / "out", inputs=[str(data / "*.csv")]))[0]
        reconcile(report)
        assert report["lines_read"] == clean["lines_read"] + 2
        assert report["lines_malformed"] == clean["lines_malformed"] + 2
        assert (tmp_path / "out" / "stats.ndjson").read_bytes() == \
            (tmp_path / "clean" / "stats.ndjson").read_bytes()

    def test_box_and_hull_not_computed(self, scenario, tmp_path, monkeypatch):
        # no output carries a box or hull measure, so no run may build a hull
        from mobstats import metrics

        def no_hull(_pts):
            raise AssertionError("convex hull computed on the pipeline path")

        monkeypatch.setattr(metrics, "convex_hull_xy", no_hull)
        reports = run(base_config(scenario, tmp_path / "out", verbose_stats=True))
        assert reports[0]["eligible_device_days"] > 0

    def test_date_filter(self, scenario, tmp_path):
        lo, hi = dt.date(2020, 3, 2), dt.date(2020, 3, 6)
        reports = run(base_config(scenario, tmp_path / "out",
                                  date_start=lo, date_end=hi))
        report = reports[0]
        reconcile(report)
        assert report["date_filtered_days"] > 0
        records = read_ndjson(str(tmp_path / "out" / "stats.ndjson"))
        assert records
        assert all(lo.isoformat() <= r.date <= hi.isoformat() for r in records)

    def test_worker_and_bucket_counts_do_not_change_bytes(self, scenario, tmp_path):
        def run_with(tag, **kw):
            out = tmp_path / tag
            run(base_config(scenario, out, **kw))
            return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("stats.ndjson", "stats.csv", "run_report.ndjson")}

        assert run_with("a", workers=1, n_buckets=4) == \
            run_with("b", workers=3, n_buckets=7)

    def test_verbose_stats_columns(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(base_config(scenario, out, verbose_stats=True))
        line = (out / "stats.ndjson").read_text().splitlines()[0]
        obj = json.loads(line)
        assert {"m_max_mean", "m_max_q1", "m_max_q3"} <= set(obj)
        header = (out / "stats.csv").read_text().splitlines()[0]
        assert header.endswith("m50_index,m_max_mean,m_max_q1,m_max_q3")

    def test_format_selection(self, scenario, tmp_path):
        run(base_config(scenario, tmp_path / "nd", format="ndjson"))
        assert (tmp_path / "nd" / "stats.ndjson").exists()
        assert not (tmp_path / "nd" / "stats.csv").exists()
        run(base_config(scenario, tmp_path / "cv", format="csv"))
        assert (tmp_path / "cv" / "stats.csv").exists()
        assert not (tmp_path / "cv" / "stats.ndjson").exists()

    def test_empty_glob_rejected(self, scenario, tmp_path):
        cfg = base_config(scenario, tmp_path / "out")
        cfg.inputs = [str(tmp_path / "nothing" / "*.csv")]
        with pytest.raises(ConfigError, match="no input files"):
            run(cfg)

    def test_inputs_must_be_a_list_of_strings(self, tmp_path):
        # a bare string would be read as one glob per character
        for inputs in ["nomatch*.csv", [str(tmp_path / "*.csv"), 3]]:
            cfg = PipelineConfig(inputs=inputs, gazetteer="g", output_dir=str(tmp_path / "o"))
            with pytest.raises(ConfigError, match="list of glob strings"):
                run(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_config_validation(self, scenario, tmp_path):
        for field, value in [("format", "xml"), ("accuracy_max_m", 0.0),
                             ("min_reports", 0), ("trim_fraction", 1.0),
                             ("workers", 0), ("n_buckets", 0), ("n_buckets", 2**63)]:
            cfg = base_config(scenario, tmp_path / "out")
            setattr(cfg, field, value)
            with pytest.raises(ConfigError):
                run(cfg)

    def test_two_datasets_and_compare(self, scenario, tmp_path):
        out = tmp_path / "out"
        pattern = str(scenario["root"] / "shards" / "*.csv")
        cfg = base_config(scenario, out)
        cfg.inputs = [pattern, pattern]
        reports = run(cfg)
        assert [r["dataset"] for r in reports] == [0, 1]
        a = read_ndjson(str(out / "dataset-00" / "stats.ndjson"))
        b = read_ndjson(str(out / "dataset-01" / "stats.ndjson"))
        assert a == b
        lines = (out / "compare.ndjson").read_text().splitlines()
        assert len(lines) == len(a)
        for line in lines:
            row = json.loads(line)
            assert row["status"] == "both"
            if row["m50_index_a"] is not None:
                assert row["delta"] == 0.0
            else:
                assert row["delta"] is None

    def test_csv_only_run_writes_the_same_compare(self, scenario, tmp_path):
        pattern = str(scenario["root"] / "shards" / "*.csv")
        compare = {}
        for fmt in ("csv", "both"):
            cfg = base_config(scenario, tmp_path / fmt, format=fmt, date_end=dt.date(2020, 3, 5))
            cfg.inputs = [pattern, str(scenario["root"] / "shards" / "part-0[01].csv")]
            run(cfg)
            compare[fmt] = (tmp_path / fmt / "compare.ndjson").read_bytes()
        assert not (tmp_path / "csv" / "dataset-00" / "stats.ndjson").exists()
        assert b'"status":"only_a"' in compare["both"]
        assert compare["csv"] == compare["both"]

    def test_run_compare_matches_compare_subcommand(self, scenario, tmp_path):
        out = tmp_path / "out"
        pattern = str(scenario["root"] / "shards" / "*.csv")
        cfg = base_config(scenario, out, verbose_stats=True, date_end=dt.date(2020, 3, 5))
        cfg.inputs = [pattern, str(scenario["root"] / "shards" / "part-0[01].csv")]
        run(cfg)
        rc = main(["compare", str(out / "dataset-00" / "stats.ndjson"),
                   str(out / "dataset-01" / "stats.ndjson"), "--out", str(tmp_path / "c.ndjson")])
        assert rc == 0
        assert (tmp_path / "c.ndjson").read_bytes() == (out / "compare.ndjson").read_bytes()


class TestLockdownScenario:
    def test_index_tracks_scale(self, tmp_path):
        spec = ScenarioSpec(seed=5, devices=12, scale=0.3, shards=2)
        result = generate(spec, str(tmp_path / "data"))
        out = tmp_path / "out"
        run(PipelineConfig(inputs=[str(tmp_path / "data" / "shards" / "*.csv")],
                           gazetteer=result["gazetteer_path"],
                           output_dir=str(out), workers=1, n_buckets=4))
        records = read_ndjson(str(out / "stats.ndjson"))
        pre = [r for r in records if r.date < "2020-03-09" and r.m50_index is not None]
        post = [r for r in records if r.date >= "2020-03-09" and r.m50_index is not None]
        assert pre and post
        # planned style pins the trimmed max exactly, so the index is exact
        assert all(r.m50_index == 100.0 for r in pre)
        assert all(r.m50_index == 30.0 for r in post)


class TestCompare:
    def write_stats(self, path, records):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_ndjson(records, fh)

    def make_record(self, date, index, region_id="W-01", admin2="Westburg"):
        from mobstats.output import OutputRecord
        return OutputRecord("AA", "admin2" if admin2 else "admin1", "West",
                            admin2, region_id, date, 10, 2.0, index)

    def test_identical_all_deltas_zero(self, tmp_path):
        records = [self.make_record("2020-03-02", 100.0),
                   self.make_record("2020-03-09", 55.5)]
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        self.write_stats(a, records)
        self.write_stats(b, records)
        rows = compare_stats(a, b)
        assert [r["delta"] for r in rows] == [0.0, 0.0]
        assert {r["status"] for r in rows} == {"both"}

    def test_doubled_post_baseline_delta_equals_a_index(self, tmp_path):
        # if B's post-baseline m50 is twice A's, index_b = 2 * index_a,
        # so delta = index_b - index_a = index_a
        a_recs = [self.make_record("2020-03-02", 100.0),
                  self.make_record("2020-03-09", 50.0)]
        b_recs = [self.make_record("2020-03-02", 100.0),
                  self.make_record("2020-03-09", 100.0)]
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        self.write_stats(a, a_recs)
        self.write_stats(b, b_recs)
        rows = {r["date"]: r for r in compare_stats(a, b)}
        assert rows["2020-03-02"]["delta"] == 0.0
        assert rows["2020-03-09"]["delta"] == 50.0  # == A's index that day

    def test_disjoint_regions_flagged_without_deltas(self, tmp_path):
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        self.write_stats(a, [self.make_record("2020-03-02", 100.0, region_id="W-01")])
        self.write_stats(b, [self.make_record("2020-03-02", 100.0, region_id="E-01",
                                              admin2="Eastburg")])
        rows = compare_stats(a, b)
        assert sorted(r["status"] for r in rows) == ["only_a", "only_b"]
        assert all(r["delta"] is None for r in rows)

    def test_null_index_null_delta(self, tmp_path):
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        self.write_stats(a, [self.make_record("2020-03-02", None)])
        self.write_stats(b, [self.make_record("2020-03-02", 100.0)])
        rows = compare_stats(a, b)
        assert rows[0]["status"] == "both"
        assert rows[0]["delta"] is None

    def test_csv_stats_joined_and_duplicate_named_by_line(self, tmp_path):
        from mobstats.output import write_csv
        records = [self.make_record("2020-03-02", 100.0), self.make_record("2020-03-09", 55.5)]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.ndjson")
        with open(a, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(records + records[:1], fh)
        self.write_stats(b, records)
        # the header is line 1, so the third record is line 4
        with pytest.raises(DataError, match=r"a\.csv:4: duplicate key .*first on line 2"):
            compare_stats(a, b)
        with open(a, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(records, fh)
        assert [r["delta"] for r in compare_stats(a, b)] == [0.0, 0.0]

    def test_write_compare_format(self):
        rows = [{"country_code": "AA", "admin_level": "admin2", "admin1": "West",
                 "admin2": "Westburg", "region_id": "W-01", "date": "2020-03-09",
                 "m50_index_a": 50.0, "m50_index_b": 100.0, "delta": 50.0,
                 "status": "both"}]
        sink = io.StringIO()
        write_compare(rows, sink)
        obj = json.loads(sink.getvalue())
        assert obj["delta"] == 50.0
        assert obj["status"] == "both"

    def test_write_compare_line_exact(self):
        rows = [{"country_code": "AA", "admin_level": "admin2", "admin1": "West",
                 "admin2": "Westburg", "region_id": "W-01", "date": "2020-03-09",
                 "m50_index_a": 50.04, "m50_index_b": None, "delta": None,
                 "status": "only_a"}]
        sink = io.StringIO()
        write_compare(rows, sink)
        assert sink.getvalue() == (
            '{"country_code":"AA","admin_level":"admin2","admin1":"West",'
            '"admin2":"Westburg","region_id":"W-01","date":"2020-03-09",'
            '"m50_index_a":50.0,"m50_index_b":null,"delta":null,"status":"only_a"}\n')


class TestCli:
    def test_config_dump(self, capsys):
        assert main(["config-dump"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped == CONFIG_DEFAULTS
        assert dumped["accuracy_max_m"] == 50.0
        assert dumped["min_reports"] == 10
        assert dumped["min_span_hours"] == 8.0
        assert dumped["trim_fraction"] == 0.10
        assert dumped["baseline_start"] == "2020-02-17"
        assert dumped["baseline_end"] == "2020-03-07"

    def test_generate_then_run(self, tmp_path, capsys):
        data = tmp_path / "data"
        rc = main(["generate", "--out-dir", str(data), "--seed", "3",
                   "--devices", "6", "--start-date", "2020-03-02",
                   "--end-date", "2020-03-06", "--shards", "2"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["lines_malformed"] == 0

        out = tmp_path / "out"
        rc = main(["run", "--input", str(data / "shards" / "*.csv"),
                   "--gazetteer", str(data / "gazetteer.ndjson"),
                   "--output-dir", str(out), "--workers", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        reconcile(report)
        assert (out / "stats.ndjson").exists()

    def test_missing_gazetteer_exit_2_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ndjson")
        (tmp_path / "x.csv").write_text("d,0,0.0,0.0,1.0\n")
        rc = main(["run", "--input", str(tmp_path / "*.csv"),
                   "--gazetteer", missing, "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: io:")
        assert "nope.ndjson" in err

    @pytest.mark.parametrize("damage", ["truncated", "corrupt_deflate"])
    def test_damaged_gzip_shard_exit_2_names_path(self, scenario, tmp_path, capsys, damage):
        data = tmp_path / "data"
        data.mkdir()
        shard = sorted((scenario["root"] / "shards").glob("*.csv"))[0]
        packed = gzip.compress(shard.read_bytes())
        if damage == "truncated":
            packed = packed[: len(packed) // 2]
        else:
            packed = packed[:10] + b"\xff" * 64  # deflate block of reserved type 3
        (data / "part-00.csv.gz").write_bytes(packed)
        rc = main(["run", "--input", str(data / "*.csv.gz"),
                   "--gazetteer", scenario["gazetteer_path"],
                   "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: io:")
        assert "part-00.csv.gz" in err

    @pytest.mark.parametrize("bad_line", [
        b'{"type":"place","name":"Lost","lon":1.0,"region_id":"AA-W"}\n',
        b'{"type":"place","name":"Caf\xe9","lat":1.0,"lon":1.0,"region_id":"AA-W"}\n',
    ], ids=["place_without_lat", "non_utf8"])
    def test_bad_gazetteer_record_exit_3(self, scenario, tmp_path, capsys, bad_line):
        gaz = tmp_path / "gaz.ndjson"
        gaz.write_bytes(Path(scenario["gazetteer_path"]).read_bytes() + bad_line)
        rc = main(["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                   "--gazetteer", str(gaz), "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: data:")

    def test_wrong_typed_region_field_exit_3(self, scenario, tmp_path, capsys):
        gaz = tmp_path / "gaz.ndjson"
        bad = {"type": "region", "country_code": 5, "region_id": "R7",
               "polygons": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}
        gaz.write_bytes(Path(scenario["gazetteer_path"]).read_bytes()
                        + json.dumps(bad).encode() + b"\n")
        rc = main(["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                   "--gazetteer", str(gaz), "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        assert "region R7" in capsys.readouterr().err

    @pytest.mark.parametrize("ring", [
        [[0, 0], [10 ** 400, 0], [1, 1], [0, 0]],
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]],
        [[0, 0], [None, 0], [1, 1], [0, 0]],
        [[0, 0], 5, [1, 1], [0, 0]],
        [[0, 0], [1, 0, 0], [1, 1], [0, 0]],
    ], ids=["huge_int", "three_coordinates", "null_coordinate", "non_list_point", "ragged"])
    def test_bad_ring_point_exit_3(self, scenario, tmp_path, capsys, ring):
        gaz = tmp_path / "gaz.ndjson"
        bad = {"type": "region", "country_code": "AA", "region_id": "R8", "polygons": [ring]}
        gaz.write_bytes(Path(scenario["gazetteer_path"]).read_bytes()
                        + json.dumps(bad).encode() + b"\n")
        rc = main(["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                   "--gazetteer", str(gaz), "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "region R8" in err

    # no local day spans 24 h, so a min_span_hours of 24 or more would reject every day
    @pytest.mark.parametrize("key, value", [
        ("accuracy_max_m", "nan"), ("min_span_hours", "nan"),
        ("min_span_hours", "24"), ("min_span_hours", "inf"),
    ], ids=["accuracy_max_m", "min_span_hours", "min_span_hours_24", "min_span_hours_inf"])
    @pytest.mark.parametrize("source", ["flag", "config_file"])
    def test_nan_value_exit_1_before_any_shard_is_read(self, scenario, tmp_path, capsys,
                                                       monkeypatch, key, value, source):
        def no_read(*args):
            raise AssertionError("a shard was read")

        monkeypatch.setattr(pipeline, "read_shard_columns", no_read)
        args = ["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                "--gazetteer", scenario["gazetteer_path"], "--output-dir", str(tmp_path / "o")]
        if source == "flag":
            args += ["--" + key.replace("_", "-"), value]
        else:
            cfg_file = tmp_path / "cfg.json"
            json_value = {"nan": "NaN", "inf": "Infinity"}.get(value, value)
            cfg_file.write_text('{"%s": %s}' % (key, json_value))
            args += ["--config", str(cfg_file)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and key in err and value in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config_file"])
    def test_n_buckets_above_int64_exit_1_before_any_shard_is_read(self, scenario, tmp_path,
                                                                   capsys, monkeypatch, source):
        # 2**64 + 5 ended in an OverflowError traceback in scatter
        def no_read(*args):
            raise AssertionError("a shard was read")

        monkeypatch.setattr(pipeline, "read_shard_columns", no_read)
        text = str(2**64 + 5)
        args = ["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                "--gazetteer", scenario["gazetteer_path"], "--output-dir", str(tmp_path / "o")]
        if source == "flag":
            args += ["--n-buckets", text]
        else:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text('{"n_buckets": %s}' % text)
            args += ["--config", str(cfg_file)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "n_buckets" in err and text in err
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_missing_inputs_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert "input" in capsys.readouterr().err

    def test_bad_date_exit_1(self, tmp_path, capsys):
        rc = main(["run", "--input", "x", "--gazetteer", "g",
                   "--baseline-start", "03/02/2020"])
        assert rc == 1
        assert "yyyy-mm-dd" in capsys.readouterr().err

    def test_unknown_style_exit_1(self, tmp_path, capsys):
        rc = main(["generate", "--out-dir", str(tmp_path), "--styles", "warp"])
        assert rc == 1
        assert "warp" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["generate", "--out-dir", str(data), "--devices", "6",
              "--start-date", "2020-03-02", "--end-date", "2020-03-06",
              "--shards", "2"])
        capsys.readouterr()
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "inputs": [str(data / "shards" / "*.csv")],
            "gazetteer": str(data / "gazetteer.ndjson"),
            "output_dir": str(tmp_path / "from_file"),
            "format": "ndjson",
        }))
        rc = main(["run", "--config", str(cfg_file),
                   "--output-dir", str(tmp_path / "from_flag")])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "from_flag" / "stats.ndjson").exists()  # flag wins
        assert not (tmp_path / "from_file").exists()
        assert not (tmp_path / "from_flag" / "stats.csv").exists()  # file format used

    def test_config_defaults_follow_pipeline_config(self):
        cfg = PipelineConfig()
        assert list(CONFIG_DEFAULTS) == list(vars(cfg))
        assert CONFIG_DEFAULTS["baseline_start"] == cfg.baseline_start.isoformat()
        assert CONFIG_DEFAULTS["n_buckets"] == cfg.n_buckets

    @pytest.mark.parametrize("key, value", [
        ("min_reports", "ten"), ("baseline_start", 20200217),
        # each of these was coerced into a wrong value or ended in a traceback
        ("verbose_stats", "false"), ("gazetteer", 7), ("inputs", "data/*.csv"),
        ("inputs", ["a", 1]), ("workers", 2.7), ("workers", True), ("n_buckets", None),
        ("baseline_start", None), ("format", ["csv"]),
    ])
    def test_config_file_bad_value_type_exit_1(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"inputs": ["x"], "gazetteer": "g", key: value}))
        assert main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert key in err and repr(value) in err

    @pytest.mark.parametrize("text", ["5", '[{"a": 1}]'])
    def test_config_file_not_an_object_exit_1(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_config_file_int_for_float_and_null_for_null_default(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"inputs": [str(tmp_path / "none-*.csv")],
                                        "gazetteer": "g", "accuracy_max_m": 40,
                                        "date_start": None, "scratch_dir": None}))
        # the values are taken, and the run gets as far as globbing the inputs
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert "no input files match" in capsys.readouterr().err

    def test_config_file_not_utf8_exit_1(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b'{"workers": 1, "x": "\xff"}')
        proc = subprocess.run(
            [sys.executable, "-m", "mobstats.cli", "run", "--config", str(cfg_file)],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: config:") and str(cfg_file) in proc.stderr

    @pytest.mark.parametrize("command", ["run", "generate", "compare", "config-dump"])
    def test_closed_stdout_exit_0(self, scenario, tmp_path, command):
        # every file is written before stdout is; a reader that stopped reading is no failure
        from mobstats.output import OutputRecord
        stats = str(tmp_path / "stats.ndjson")
        with open(stats, "w", newline="\n") as fh:
            write_ndjson([OutputRecord("AA", "admin1", "W", "", "W", "2020-03-02",
                                       5, 1.0, 100.0)], fh)
        argv = {
            "run": ["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                    "--gazetteer", scenario["gazetteer_path"],
                    "--output-dir", str(tmp_path / "out"), "--workers", "1"],
            "generate": ["generate", "--out-dir", str(tmp_path / "gen"), "--devices", "2"],
            "compare": ["compare", stats, stats],
            "config-dump": ["config-dump"],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mobstats.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("args", [
        ["--shards", "0"], ["--shards", "-1"], ["--reports-min", "0"],
        ["--reports-min", "30", "--reports-max", "10"], ["--malformed-fraction", "2"],
        ["--accuracy-reject-fraction", "-0.1"], ["--ineligible-fraction", "nan"],
        ["--base-mobility-km", "nan"], ["--scale", "inf"],
        ["--devices", "-2"], ["--devices", "0"], ["--base-mobility-km", "0"],
        ["--base-mobility-km", "-1"], ["--scale", "-0.5"],
        ["--styles", ""], ["--styles", ","],
        ["--devices", "1", "--styles", "short", "--reports-min", "28742", "--reports-max", "28742",
         "--start-date", "2020-03-02", "--end-date", "2020-03-02"],
    ])
    def test_generate_out_of_domain_value_exit_1_before_writing(self, tmp_path, capsys, args):
        out = tmp_path / "gen"
        assert main(["generate", "--out-dir", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    def test_generate_pool_worker_failure_exit_2(self, tmp_path, capfd, monkeypatch):
        # the shard task that fails runs in a forked worker, on any machine;
        # its error reaches the parent as an I/O error, the pool leaves no
        # process behind, and the good run's expected.json does not stay to
        # mark the broken tree complete
        import multiprocessing

        from mobstats import synth
        monkeypatch.setattr(synth, "map_tasks", lambda fn, tasks, _: pipeline.map_tasks(fn, tasks, 2))
        out = tmp_path / "gen"
        argv = ["generate", "--out-dir", str(out), "--devices", "8",
                "--start-date", "2020-03-02", "--end-date", "2020-03-03"]
        assert main(argv) == 0
        assert (out / "expected.json").exists()
        (out / "shards" / "part-01.csv.tmp").mkdir()
        assert main(argv) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: io:") and "part-01.csv.tmp" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert not (out / "expected.json").exists()
        assert not (out / "shards" / "part-01.csv").exists()

    @pytest.mark.parametrize("first, second", [
        (["--shards", "8"], ["--shards", "4"]),
        (["--shards", "4"], ["--shards", "4", "--gzip"]),
        (["--shards", "8", "--gzip"], ["--shards", "4"]),
    ])
    def test_generate_removes_previous_shards(self, tmp_path, capsys, first, second):
        data = tmp_path / "data"
        argv = ["generate", "--out-dir", str(data), "--devices", "8",
                "--start-date", "2020-03-02", "--end-date", "2020-03-03"]
        assert main(argv + first) == 0
        assert main(argv + second) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert sorted(os.listdir(data / "shards")) == [os.path.basename(p) for p in summary["shard_paths"]]
        assert main(["run", "--input", str(data / "shards" / "*"),
                     "--gazetteer", str(data / "gazetteer.ndjson"),
                     "--output-dir", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lines_read"] == json.loads((data / "expected.json").read_text())["lines_read"]

    def test_generate_has_one_flag_per_spec_field(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["generate"]._actions} - {"help", "out_dir"}
        assert dests == {f.name for f in dataclasses.fields(ScenarioSpec)}

    def test_generate_without_flags_is_the_default_spec(self, tmp_path, capsys):
        # every flag not given takes ScenarioSpec's default
        assert main(["generate", "--out-dir", str(tmp_path / "cli")]) == 0
        generate(ScenarioSpec(), str(tmp_path / "lib"))
        trees = [{p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
                 for root in (tmp_path / "cli", tmp_path / "lib")]
        assert trees[0] == trees[1] and len(trees[0]) == 7

    def test_run_has_one_flag_per_config_field(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings for a in sub.choices["run"]._actions
                 if a.dest not in ("help", "config")}
        want = {f.name: ["--" + f.name.replace("_", "-")] for f in dataclasses.fields(PipelineConfig)}
        assert flags == {**want, "inputs": ["--input"]}

    def test_run_without_optional_flags_is_the_default_config(self, scenario, tmp_path, capsys):
        # every flag not given takes PipelineConfig's default
        glob = str(scenario["root"] / "shards" / "*.csv")
        assert main(["run", "--input", glob, "--gazetteer", scenario["gazetteer_path"],
                     "--output-dir", str(tmp_path / "cli")]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        reports = run(PipelineConfig(inputs=[glob], gazetteer=scenario["gazetteer_path"],
                                     output_dir=str(tmp_path / "lib")))
        assert printed == reports
        names = ("stats.ndjson", "stats.csv", "run_report.ndjson")
        assert all((tmp_path / "cli" / n).read_bytes() == (tmp_path / "lib" / n).read_bytes()
                   for n in names)

    @pytest.mark.parametrize("key", ["baseline_start", "baseline_end", "date_start", "date_end"])
    def test_config_file_invalid_date_exit_1(self, tmp_path, capsys, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"inputs": ["x"], "gazetteer": "g", key: "2020-02-30"}))
        assert main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "invalid date '2020-02-30'" in err
        assert str(cfg_file) in err and key in err

    @pytest.mark.parametrize("name", ["", "nope.json"])
    def test_config_file_unreadable_exit_2(self, tmp_path, capsys, name):
        path = str(tmp_path / name) if name else ""
        rc = main(["run", "--config", path, "--input", str(tmp_path / "nomatch-*.csv"),
                   "--gazetteer", "g", "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: io:")

    def test_config_file_unknown_key_exit_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"inputs": ["x"], "gazetteer": "g", "typo_key": 1}')
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path, capsys):
        from mobstats.output import OutputRecord
        rec = OutputRecord("AA", "admin1", "West", "", "W", "2020-03-02", 5, 1.0, 100.0)
        for name in ("a", "b"):
            with open(tmp_path / f"{name}.ndjson", "w", newline="\n") as fh:
                write_ndjson([rec], fh)
        out_file = tmp_path / "cmp.ndjson"
        rc = main(["compare", str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson"),
                   "--out", str(out_file)])
        assert rc == 0
        row = json.loads(out_file.read_text().splitlines()[0])
        assert row["delta"] == 0.0

    def test_compare_schema_mismatch_exit_3(self, tmp_path, capsys):
        good = tmp_path / "a.ndjson"
        from mobstats.output import OutputRecord
        with open(good, "w", newline="\n") as fh:
            write_ndjson([OutputRecord("AA", "admin1", "W", "", "W", "2020-03-02",
                                       5, 1.0, 100.0)], fh)
        bad = tmp_path / "b.ndjson"
        bad.write_text('{"country_code":"AA"}\n')
        rc = main(["compare", str(good), str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: data:")

    @pytest.mark.parametrize("bad", [
        b'{"samples":"x"}', b'{"m50":null}', b'{"country_code":5}', b'7', b'\xff',
    ])
    def test_compare_bad_stats_file_exit_3(self, tmp_path, capsys, bad):
        from mobstats.output import OutputRecord
        good = tmp_path / "a.ndjson"
        with open(good, "w", newline="\n") as fh:
            write_ndjson([OutputRecord("AA", "admin1", "W", "", "W", "2020-03-02",
                                       5, 1.0, 100.0)], fh)
        if bad.startswith(b"{"):
            bad = json.dumps({**json.loads(good.read_text()), **json.loads(bad)}).encode()
        (tmp_path / "b.ndjson").write_bytes(bad + b"\n")
        rc = main(["compare", str(good), str(tmp_path / "b.ndjson")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "b.ndjson" in err

    @staticmethod
    def fresh_python(code, env):
        """Standard output of `code` run by a new interpreter that imports this mobstats."""
        import mobstats
        env = {**env, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(mobstats.__file__)), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout.strip()

    def test_cli_import_leaves_multiprocessing_out(self):
        # the fork pool is imported only by a run that uses it, the generator
        # and the oracle only by generate
        code = ("import sys, mobstats.cli; print(sorted(m for m in sys.modules if m in "
                "('mobstats.synth', 'mobstats.oracle') or 'multiprocessing' in m))")
        assert self.fresh_python(code, os.environ) == "[]"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_import_starts_no_blas_thread(self):
        # mobstats makes no BLAS call; OpenBLAS would start one worker per core
        # as numpy loads. A value the caller set is left as it is.
        code = ("import os, mobstats; "
                "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert self.fresh_python(code, env) == "1 1"
        assert self.fresh_python(code, {**env, "OPENBLAS_NUM_THREADS": "2"}).split()[1] == "2"

    def test_package_root_exports_resolve(self):
        # a name left in __all__ after its definition goes breaks the star import
        import mobstats
        names: dict = {}
        exec("from mobstats import *", names)
        for name in mobstats.__all__:
            assert names[name] is getattr(mobstats, name), name

    @pytest.mark.parametrize("side", [0, 1])
    def test_compare_duplicate_key_exit_3(self, tmp_path, capsys, side):
        # two rows with the same key values must not silently collapse to the last
        from mobstats.output import OutputRecord
        rows = [OutputRecord("AA", "admin1", "W", "", "W", date, 5, 1.0, index)
                for date, index in (("2020-03-02", 90.0), ("2020-03-03", 95.0),
                                    ("2020-03-02", 110.0))]
        with open(tmp_path / "dup.ndjson", "w", newline="\n") as fh:
            write_ndjson(rows, fh)
        with open(tmp_path / "ok.ndjson", "w", newline="\n") as fh:
            write_ndjson(rows[:2], fh)
        paths = [str(tmp_path / "ok.ndjson")] * 2
        paths[side] = str(tmp_path / "dup.ndjson")
        rc = main(["compare", *paths])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "dup.ndjson:3" in err and "line 1" in err

    @pytest.mark.parametrize("epoch, reports", [(2**63, 1), (10**12, 12)])
    def test_epoch_past_year_9999_is_malformed(self, tmp_path, capsys, epoch, reports):
        # twelve reports over 11 hours at one place make an eligible device-day
        shard = tmp_path / "s.csv"
        shard.write_text("".join(f"d1,{epoch + 3600 * i},1.0,1.0,5.0\n" for i in range(reports)))
        rc = main(["run", "--input", str(shard),
                   "--gazetteer", write_toy_gazetteer(str(tmp_path / "g.ndjson")),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lines_malformed"] == reports
        reconcile(report)

    def test_compare_to_stdout(self, tmp_path, capsys):
        from mobstats.output import OutputRecord
        with open(tmp_path / "a.ndjson", "w", newline="\n") as fh:
            write_ndjson([OutputRecord("AA", "admin1", "W", "", "W", "2020-03-02",
                                       5, 1.0, 100.0)], fh)
        rc = main(["compare", str(tmp_path / "a.ndjson"), str(tmp_path / "a.ndjson")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["status"] == "both"
