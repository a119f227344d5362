import argparse
import dataclasses
import datetime as dt
import gc
import glob
import gzip
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from mobstats import aggregate, ingest, metrics, pipeline
from mobstats.cli import CONFIG_DEFAULTS, build_parser, main
from mobstats.collate import day_number_to_date
from mobstats.errors import ConfigError, DataError
from mobstats.geo import GeoPoint
from mobstats.geocode import load_gazetteer, reverse_geocode
from mobstats.ingest import ACCURACY_MAX_M, parse_fields, read_shard
from mobstats.output import read_csv, read_ndjson, write_compare, write_ndjson
from mobstats.pipeline import PipelineConfig, compare_stats, run
from mobstats.synth import ELIGIBLE_STYLES, ScenarioSpec, generate, write_toy_gazetteer
from test_columnar import reference_read


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
    )
    cfg.update(overrides)
    return PipelineConfig(**cfg)


def reconcile(report, shards):
    """report's sums hold, and its line counters match those of the run's shards
    (a glob) read line by line with reference_read."""
    read = [reference_read(path)[0] for path in sorted(glob.glob(shards))]
    assert (report["lines_read"], report["lines_malformed"]) == (
        sum(c["lines_read"] for c in read), sum(c["lines_malformed"] for c in read))
    assert report["device_day_reports"] == report["reports_accepted"]
    assert report["device_days"] == (report["rejected_too_few_reports"]
                                     + report["rejected_short_span"]
                                     + report["eligible_device_days"])
    assert report["eligible_device_days"] == (report["admin1_level_samples"]
                                              + report["unmatched_geocode"])


def fail_mid_scatter(scenario, tmp_path, **overrides):
    """Output dir of an 8-bucket run that scattered shard 0, then failed on shard 1."""
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(scenario["shard_paths"][0], data / "part-00.csv")
    (data / "part-01.csv").mkdir()
    out = tmp_path / "out"
    with pytest.raises(OSError):
        run(base_config(scenario, out, inputs=[str(data / "*.csv")], **overrides))
    return out


def fresh_run(code, env=os.environ, check=False):
    """`code` run by a new interpreter that imports this mobstats; after 120 s
    it and every process it forked are killed and TimeoutExpired raised."""
    import mobstats
    env = {**env, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(mobstats.__file__)), os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def small_scenario(root):
    """Config overrides for a generated 4-device, one-shard scenario."""
    generate(ScenarioSpec(seed=3, devices=4, start_date=dt.date(2020, 3, 2),
                          end_date=dt.date(2020, 3, 6), shards=1), str(root))
    return dict(inputs=[str(root / "shards" / "*.csv")], gazetteer=str(root / "gazetteer.ndjson"))


class TestRun:
    def test_end_to_end(self, scenario, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(scenario, out)
        reports = run(cfg)
        assert len(reports) == 1
        report = reports[0]
        reconcile(report, cfg.inputs[0])

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

    def test_run_writes_only_its_files(self, scenario, tmp_path):
        # a successful run and one that fails mid-scatter write nothing but the
        # run's own files, and never create a given scratch dir
        scratch = tmp_path / "scratch"
        out = tmp_path / "ok"
        run(base_config(scenario, out, scratch_dir=str(scratch)))
        assert sorted(p.name for p in out.iterdir()) == \
            ["run_report.ndjson", "stats.csv", "stats.ndjson"]
        assert list(fail_mid_scatter(scenario, tmp_path, scratch_dir=str(scratch)).iterdir()) == []
        assert not scratch.exists()

    def test_failed_write_leaves_no_tmp(self, scenario, tmp_path, monkeypatch):
        def partial_write(records, fh, verbose):
            fh.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.output, "write_csv", partial_write)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            run(base_config(scenario, out))
        assert not list(out.glob("*.tmp"))
        assert not (out / "stats.csv").exists() and not (out / "run_report.ndjson").exists()

    def test_all_reports_rejected_still_reduces(self, scenario, tmp_path, monkeypatch):
        # every accuracy is above the 50 m cut, the first by 1e-6 m; dev-3's
        # latitude is out of range
        data = tmp_path / "data"
        data.mkdir()
        (data / "part-00.csv").write_text("".join(
            f"dev-{d},{1583150400 + 3600 * h},{lat},-1.5,{acc}\n"
            for d, (lat, acc) in enumerate([(1.5, "50.000001"), (1.5, "75"), (1.5, "1e9"),
                                            (95.0, "5")])
            for h in range(12)))
        # no id holds a report, so the run gathers once, on no row
        assert read_shard(str(data / "part-00.csv"))[1] == []
        tasks, gather = [], pipeline._gather_bucket
        monkeypatch.setattr(pipeline, "_gather_bucket",
                            lambda task: tasks.append(task) or gather(task))
        out = tmp_path / "out"
        (report,) = run(PipelineConfig(inputs=[str(data / "*.csv")],
                                       gazetteer=scenario["gazetteer_path"], output_dir=str(out)))
        reconcile(report, str(data / "*.csv"))
        assert len(tasks) == 1
        assert report["reports_accepted"] == 0 and report["device_days"] == 0
        assert report["reports_rejected_accuracy"] == 36 and report["lines_malformed"] == 12
        assert (out / "stats.ndjson").read_bytes() == b""

    def test_bucket_count_does_not_change_bytes(self, scenario, tmp_path, monkeypatch):
        small_cfg = small_scenario(tmp_path / "small")
        outputs = set()
        for n_buckets in (1, 8, 4096, 2**63 - 1):
            monkeypatch.setattr(pipeline, "N_BUCKETS", n_buckets)
            out = tmp_path / f"out-{n_buckets}"
            run(base_config(scenario, out, **small_cfg))
            outputs.add(tuple((out / name).read_bytes()
                              for name in ("stats.ndjson", "stats.csv", "run_report.ndjson")))
        assert len(outputs) == 1

    @pytest.mark.parametrize("n_buckets", [3, 4096])
    def test_gather_tasks_split_the_run_by_device_code(self, scenario, tmp_path, monkeypatch,
                                                       n_buckets):
        # shard 0 here is the scenario's shard 0; the lines of its shards 1 and
        # 2 alternate between shards 1 and 2, so those devices span two shards
        monkeypatch.setattr(pipeline, "N_BUCKETS", n_buckets)
        first, *rest = (Path(p).read_text() for p in scenario["shard_paths"])
        mixed = "".join(rest).splitlines(keepends=True)
        data = tmp_path / "data"
        data.mkdir()
        paths = [str(data / f"part-0{s}.csv") for s in range(3)]
        for path, text in zip(paths, (first, "".join(mixed[0::2]), "".join(mixed[1::2]))):
            Path(path).write_text(text)
        rows, shards_of = [], {}  # every accepted row, shard by shard in read_shard order
        named, shard_ids = set(), []  # the ids holding a row; each shard's row ids
        for s, path in enumerate(paths):
            _, ids, (code, epoch, lat, lon) = read_shard(path)
            names = [ids[c] for c in code.tolist()]
            named.update(ids)
            shard_ids.append(names)
            rows += zip(names, epoch.tolist(), lat.tolist(), lon.tolist())
            for name in names:
                shards_of.setdefault(name, set()).add(s)
        assert {len(s) for s in shards_of.values()} == {1, 2}

        tasks, taken = [], []  # the gather tasks; each one's rows as group_device_days gets them
        gather, group = pipeline._gather_bucket, pipeline.group_device_days

        def recording_gather(task):
            tasks.append(task)
            return gather(task)

        def recording_group(code, epoch, lat, lon):
            taken.append((code.tolist(), epoch.tolist(), lat.tolist(), lon.tolist()))
            return group(code, epoch, lat, lon)

        monkeypatch.setattr(pipeline, "_gather_bucket", recording_gather)
        monkeypatch.setattr(pipeline, "group_device_days", recording_group)
        run(base_config(scenario, tmp_path / "out", inputs=[str(data / "*.csv")]))
        # each code names one id, and each id has one code
        id_of, code_of = {}, {}
        for columns, names in zip(tasks[0][1], shard_ids):
            for code, name in zip(columns[0].tolist(), names):
                assert id_of.setdefault(code, name) == name
                assert code_of.setdefault(name, code) == code
        assert len(taken) == min(n_buckets, len(named))
        # the tasks' device sets are disjoint and cover every device
        devices = [{id_of[c] for c in t[0]} for t in taken]
        assert sum(map(len, devices)) == len(shards_of)
        assert set().union(*devices) == set(shards_of)
        # each task holds exactly its devices' rows, in shard and read_shard order
        for t, mine in zip(taken, devices):
            assert list(zip([id_of[c] for c in t[0]], *t[1:])) == [r for r in rows if r[0] in mine]

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

    def test_respelled_lines_take_the_other_routes_and_write_the_same_bytes(self, tmp_path,
                                                                             monkeypatch):
        # generated lines are canonical, so a plain run never accepts a row through
        # parse_fields; the respelled copy sends half the devices there, in blocks
        # that mix both routes: device 0 mod 4 gets a non-ASCII id and 1 a "+" on its
        # epoch, while 2 gets an ASCII id padded to 100 characters, which keeps its
        # line on the bulk route, and 3 keeps its line
        small_cfg = small_scenario(tmp_path / "small")
        (shard,) = Path(small_cfg["inputs"][0]).parent.glob("*.csv")
        header, *lines = shard.read_text(encoding="utf-8").splitlines()
        assert all(not isinstance(parse_fields(line), str) for line in lines)
        devices = sorted({line.split(",")[0] for line in lines})

        def respell(line):
            device, epoch, lat, lon, acc = line.split(",")
            style = devices.index(device) % 4
            if style == 0:
                device += "-ü"
            elif style == 1:
                epoch, acc = "+" + epoch, "+" + acc
            elif style == 2:
                device = device.ljust(100, "~")
            return ",".join((device, epoch, lat, lon, acc))

        respelled = [respell(line) for line in lines]
        n_per_line = sum(devices.index(line.split(",")[0]) % 4 < 2 for line in lines)
        assert 0 < n_per_line < len(lines)
        assert any(len(line) > 100 for line in respelled)

        parse = ingest.parse_fields
        parsed = []

        def counting_parse(line):
            row = parse(line)
            parsed.append(not isinstance(row, str))
            return row

        monkeypatch.setattr(ingest, "parse_fields", counting_parse)
        outputs, accepted = [], []
        for name, data_lines in (("plain", lines), ("respelled", respelled)):
            data = tmp_path / name
            data.mkdir()
            (data / "part-00.csv").write_text("\n".join([header, *data_lines]) + "\n",
                                              encoding="utf-8")
            out = tmp_path / f"out-{name}"
            parsed.clear()
            (report,) = run(PipelineConfig(inputs=[str(data / "*.csv")],
                                           gazetteer=small_cfg["gazetteer"], output_dir=str(out)))
            assert report["lines_malformed"] == 0
            accepted.append(sum(parsed))
            outputs.append([(out / f).read_bytes()
                            for f in ("stats.ndjson", "stats.csv", "run_report.ndjson")])
        # the respelled run's rows come from parse_fields and the bulk parse both
        assert accepted == [0, n_per_line]
        assert outputs[0] == outputs[1]
        assert b'"m50":' in outputs[0][0]

    def test_production_m_max_matches_truth_sidecar(self, scenario, tmp_path, monkeypatch):
        captured = []
        reduce_region_day = aggregate.reduce_region_day

        def capture(keys, region, day, m_max):
            captured.extend(zip((keys[r] for r in region.tolist()), day.tolist(), m_max.tolist()))
            return reduce_region_day(keys, region, day, m_max)

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
        reconcile(report, str(data / "*.csv"))
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

    def test_worker_and_bucket_counts_do_not_change_bytes(self, scenario, tmp_path,
                                                          monkeypatch):
        def run_with(tag, workers, n_buckets):
            monkeypatch.setattr(pipeline, "N_BUCKETS", n_buckets)
            out = tmp_path / tag
            run(base_config(scenario, out, workers=workers))
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
        out = tmp_path / "out"
        run(base_config(scenario, out))
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        for field, value in [("workers", 0), ("workers", 2.5), ("workers", "2"),
                             ("workers", True),
                             ("inputs", [str(scenario["root"] / "shards" / "*.csv")] * 2)]:
            cfg = base_config(scenario, out)
            setattr(cfg, field, value)
            with pytest.raises(ConfigError):
                run(cfg)
            # rejected before any work: the earlier run's results survive
            assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_gazetteer_must_be_a_string(self, scenario, tmp_path):
        # open(1) would read the caller's stdout as the gazetteer, then close it
        with pytest.raises(ConfigError, match="gazetteer must be a str"):
            run(base_config(scenario, tmp_path / "out", gazetteer=1))
        os.fstat(1)
        assert not (tmp_path / "out").exists()

    def test_output_dir_must_be_a_string(self, scenario, tmp_path, monkeypatch):
        loads = []
        monkeypatch.setattr(pipeline, "load_gazetteer", loads.append)
        with pytest.raises(ConfigError, match="output_dir must be a str"):
            run(base_config(scenario, tmp_path / "out", output_dir=7))
        assert loads == []

    def test_verbose_stats_must_be_a_bool(self, scenario, tmp_path):
        with pytest.raises(ConfigError, match="verbose_stats must be a bool"):
            run(base_config(scenario, tmp_path / "out", verbose_stats="no"))
        assert not (tmp_path / "out").exists()

    def test_two_datasets_and_compare(self, scenario, tmp_path):
        # one run per dataset, joined on their stats files
        paths = []
        for name in ("a", "b"):
            run(base_config(scenario, tmp_path / name))
            paths.append(str(tmp_path / name / "stats.ndjson"))
        a, b = map(read_ndjson, paths)
        assert a == b
        rows = compare_stats(*paths)
        assert len(rows) == len(a)
        for row in rows:
            assert row["status"] == "both"
            if row["m50_index_a"] is not None:
                assert row["delta"] == 0.0
            else:
                assert row["delta"] is None

    def test_failed_run_leaves_no_earlier_results(self, scenario, tmp_path, capsys):
        out = tmp_path / "o"
        common = ["--gazetteer", scenario["gazetteer_path"], "--output-dir", str(out)]
        assert main(["run", "--input", str(scenario["root"] / "shards" / "*.csv"), *common]) == 0
        (out / "notes.txt").write_text("not the run's")
        data = tmp_path / "data"
        data.mkdir()
        (data / "part-00.csv.gz").write_bytes(
            gzip.compress(Path(scenario["shard_paths"][0]).read_bytes()))
        (data / "part-01.csv.gz").write_bytes(b"not a gzip file")
        assert main(["run", "--input", str(data / "*.csv.gz"), *common]) == 2
        # only the stats files and the run report are removed, and nothing is left
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


class TestLockdownScenario:
    def test_index_tracks_scale(self, tmp_path):
        spec = ScenarioSpec(seed=5, devices=12, scale=0.3, shards=2)
        result = generate(spec, str(tmp_path / "data"))
        out = tmp_path / "out"
        run(PipelineConfig(inputs=[str(tmp_path / "data" / "shards" / "*.csv")],
                           gazetteer=result["gazetteer_path"],
                           output_dir=str(out), workers=1))
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
    def test_main_leaves_the_gc_unfrozen(self, capsys):
        # tests and perfbench's in-process round call main(); only entry() freezes
        frozen = gc.get_freeze_count()
        assert main(["config-dump"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_entry_freezes_then_runs_main(self):
        code = ("import gc, sys; from mobstats import cli; sys.argv[1:] = ['config-dump'];"
                "rc = cli.entry(); print(rc, gc.get_freeze_count() > 0, file=sys.stderr)")
        proc = fresh_run(code, check=True)
        assert json.loads(proc.stdout) == CONFIG_DEFAULTS
        assert proc.stderr == "0 True\n"

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
        reconcile(report, str(data / "shards" / "*.csv"))
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

    @pytest.mark.parametrize("damage", ["truncated", "corrupt_deflate", "bad_crc", "not_gzip"])
    def test_damaged_gzip_shard_exit_2_names_path(self, scenario, tmp_path, capsys, damage):
        data = tmp_path / "data"
        data.mkdir()
        shard = sorted((scenario["root"] / "shards").glob("*.csv"))[0]
        packed = gzip.compress(shard.read_bytes())
        if damage == "truncated":
            packed = packed[: len(packed) // 2]
        elif damage == "corrupt_deflate":
            packed = packed[:10] + b"\xff" * 64  # deflate block of reserved type 3
        elif damage == "bad_crc":
            packed = packed[:-8] + bytes(b ^ 0xff for b in packed[-8:-4]) + packed[-4:]
        else:
            packed = shard.read_bytes()
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

    def test_gzipped_gazetteer_exit_3_names_path(self, scenario, tmp_path, capsys):
        # the gazetteer is plain UTF-8: gzip's second magic byte, 0x8b, never decodes
        gaz = tmp_path / "gazetteer.ndjson.gz"
        gaz.write_bytes(gzip.compress(Path(scenario["gazetteer_path"]).read_bytes()))
        out = tmp_path / "o"
        rc = main(["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                   "--gazetteer", str(gaz), "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: data:") and "gazetteer.ndjson.gz" in err
        assert not out.exists()

    @pytest.mark.parametrize("shards, malformed", [
        (["device_id,epoch_s,lat,lon,accuracy_m\n"], 0),
        (["d1,1583150400,91.0,0.0,5.0\nd2,1583150400,1.0\n", "d3,1583150400,1.0,2.0,-1\n"], 3),
    ], ids=["header_only", "malformed_only"])
    def test_run_without_a_valid_line_writes_empty_stats(self, scenario, tmp_path, capsys,
                                                         shards, malformed):
        data = tmp_path / "data"
        data.mkdir()
        for s, text in enumerate(shards):
            (data / f"part-0{s}.csv").write_text(text)
        out = tmp_path / "out"
        rc = main(["run", "--input", str(data / "*.csv"), "--gazetteer",
                   scenario["gazetteer_path"], "--output-dir", str(out), "--workers", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        reconcile(report, str(data / "*.csv"))
        assert report["lines_read"] == report["lines_malformed"] == malformed
        gather_counters = ("device_days", "device_day_reports", "rejected_too_few_reports",
                           "rejected_short_span", "eligible_device_days", "unmatched_geocode")
        assert {report[k] for k in gather_counters} == {0}
        assert report["reports_accepted"] == report["region_day_rows"] == 0
        assert (out / "stats.ndjson").read_bytes() == b""
        assert (out / "stats.csv").read_text().count("\n") == 1
        assert read_csv(str(out / "stats.csv")) == []

    def test_compare_out_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        from mobstats import cli
        from mobstats.output import OutputRecord
        with open(tmp_path / "a.ndjson", "w", newline="\n") as fh:
            write_ndjson([OutputRecord("AA", "admin1", "W", "", "W", "2020-03-02",
                                       5, 1.0, 100.0)], fh)

        def partial_write(rows, fh):
            fh.write('{"country_code":')
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_compare", partial_write)
        out_file = tmp_path / "cmp.ndjson"
        rc = main(["compare", str(tmp_path / "a.ndjson"), str(tmp_path / "a.ndjson"),
                   "--out", str(out_file)])
        assert rc == 2
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ndjson"]

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
        [[0, 0], [500, 5], [1, 1], [0, 0]],
        [[0, 0], [1, 95], [1, 1], [0, 0]],
        [[0, 0], [1.7e308, -1.7e308], [1, 1], [0, 0]],
        [[0, 0], [True, 0], [1, 1], [0, 0]],
        [[0, 0], ["1.5", 0], [1, 1], [0, 0]],
    ], ids=["huge_int", "three_coordinates", "null_coordinate", "non_list_point", "ragged",
            "lon_range", "lat_range", "huge_float", "bool_coordinate", "string_coordinate"])
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

    # every run writes both stats files, gathers in pipeline.N_BUCKETS buckets,
    # reduces all of its input and uses the method's fixed parameters; each
    # setting is a flag or a PipelineConfig field
    @pytest.mark.parametrize("name, value", [
        ("--format", "csv"), ("--n-buckets", "8"), ("--config", "cfg.json"),
        ("--date-start", "2020-03-02"), ("--date-end", "2020-03-06"),
        ("--accuracy-max-m", "nan"), ("--min-reports", "5"), ("--min-span-hours", "24"),
        ("--trim-fraction", "0.2"), ("--baseline-start", "2020-02-22"),
        ("--baseline-end", "2020-02-23"),
    ])
    def test_removed_option_exit_1_before_any_shard_is_read(self, scenario, tmp_path, capsys,
                                                            monkeypatch, name, value):
        def no_read(*args):
            raise AssertionError("a shard was read")

        monkeypatch.setattr(pipeline, "read_shard", no_read)
        args = ["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                "--gazetteer", scenario["gazetteer_path"], "--output-dir", str(tmp_path / "o"),
                name, value]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and name in err
        assert not (tmp_path / "o").exists()

    def test_second_input_exit_1_before_any_shard_is_read(self, scenario, tmp_path, capsys,
                                                          monkeypatch):
        def no_read(*args):
            raise AssertionError("a shard was read")

        monkeypatch.setattr(pipeline, "read_shard", no_read)
        pattern = str(scenario["root"] / "shards" / "*.csv")
        assert main(["run", "--input", pattern, "--input", pattern,
                     "--gazetteer", scenario["gazetteer_path"],
                     "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "mobstats compare" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_missing_inputs_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert "input" in capsys.readouterr().err

    def test_bad_date_exit_1(self, tmp_path, capsys):
        rc = main(["generate", "--out-dir", str(tmp_path / "g"), "--start-date", "03/02/2020"])
        assert rc == 1
        assert "yyyy-mm-dd" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_unknown_style_exit_1(self, tmp_path, capsys):
        rc = main(["generate", "--out-dir", str(tmp_path), "--styles", "warp"])
        assert rc == 1
        assert "warp" in capsys.readouterr().err

    def test_config_defaults_follow_pipeline_config(self):
        cfg = PipelineConfig()
        fixed = {
            "accuracy_max_m": ACCURACY_MAX_M,
            "min_reports": metrics.DEFAULT_MIN_REPORTS,
            "min_span_hours": metrics.DEFAULT_MIN_SPAN_HOURS,
            "trim_fraction": metrics.DEFAULT_TRIM_FRACTION,
            "baseline_start": aggregate.DEFAULT_BASELINE_START.isoformat(),
            "baseline_end": aggregate.DEFAULT_BASELINE_END.isoformat(),
        }
        assert list(CONFIG_DEFAULTS) == list(vars(cfg)) + list(fixed)
        assert CONFIG_DEFAULTS == {**vars(cfg), **fixed}

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
        ["--start-date", "1969-12-31", "--end-date", "1970-01-02"],
        ["--start-date", "9999-12-31", "--end-date", "9999-12-31"],
    ])
    def test_generate_out_of_domain_value_exit_1_before_writing(self, tmp_path, capsys, args):
        out = tmp_path / "gen"
        assert main(["generate", "--out-dir", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    def test_generate_pool_worker_failure_exit_2(self, tmp_path, capfd, monkeypatch):
        # the shard task that fails runs in a forked worker, on any machine;
        # its error reaches the parent as an I/O error, every worker is
        # reaped, and the good run's expected.json does not stay to mark the
        # broken tree complete
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
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (out / "expected.json").exists()
        assert not (out / "shards" / "part-01.csv").exists()

    def test_failed_generate_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        # the caller's shard fails while a forked worker is part-way through
        # its own: the worker is killed and its .tmp removed
        from mobstats import synth
        write = synth._write_shard
        out = tmp_path / "gen"

        def write_or_fail(task):
            _, s, path = task
            if s == 0:
                for _ in range(3000):
                    if (out / "shards" / "part-01.csv.tmp").exists():
                        break
                    time.sleep(0.01)
                raise OSError("no space left on part-00.csv")
            with open(path + ".tmp", "w") as fh:
                fh.write("device_id,epoch_s,lat,lon,accuracy_m\n")
            time.sleep(30)
            return write(task)

        monkeypatch.setattr(synth, "_write_shard", write_or_fail)
        monkeypatch.setattr(synth, "map_tasks", lambda fn, tasks, _: pipeline.map_tasks(fn, tasks, 2))
        started = time.monotonic()
        with pytest.raises(OSError, match="no space left"):
            generate(ScenarioSpec(seed=3, devices=4, start_date=dt.date(2020, 3, 2),
                                  end_date=dt.date(2020, 3, 3), shards=2), str(out))
        assert time.monotonic() - started < 10
        assert sorted(os.listdir(out / "shards")) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
                 if a.dest != "help"}
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
        return fresh_run(code, env, check=True).stdout.strip()

    def test_cli_import_leaves_multiprocessing_out(self, scenario, tmp_path):
        # the generator and the oracle are imported only by generate; no run
        # imports multiprocessing (map_tasks forks by hand) or numpy.ma
        # (np.median and np.unique would, at 8-15 ms)
        loaded = ("sorted(m for m in sys.modules if m in ('mobstats.synth', 'mobstats.oracle') "
                  "or 'multiprocessing' in m or m.split('.')[:2] == ['numpy', 'ma'])")
        assert self.fresh_python(f"import sys, mobstats.cli; print({loaded})", os.environ) == "[]"
        for workers in ("1", "2"):
            argv = ["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                    "--gazetteer", scenario["gazetteer_path"],
                    "--output-dir", str(tmp_path / workers), "--workers", workers]
            code = f"import sys, mobstats.cli; mobstats.cli.main({argv!r}); print({loaded})"
            assert self.fresh_python(code, os.environ).splitlines()[-1] == "[]"
            assert (tmp_path / workers / "run_report.ndjson").exists()

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
        reconcile(report, str(shard))

    def test_compare_to_stdout(self, tmp_path, capsys):
        from mobstats.output import OutputRecord
        with open(tmp_path / "a.ndjson", "w", newline="\n") as fh:
            write_ndjson([OutputRecord("AA", "admin1", "W", "", "W", "2020-03-02",
                                       5, 1.0, 100.0)], fh)
        rc = main(["compare", str(tmp_path / "a.ndjson"), str(tmp_path / "a.ndjson")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["status"] == "both"


def square_with_pid(x):
    return x * x, os.getpid()


class HoldsALambda(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # pickle cannot take it


class DataErrorHoldingALambda(HoldsALambda, DataError):
    pass


class TwoArgumentError(OSError):
    def __init__(self, message, path):  # pickles, but loads as TwoArgumentError(message)
        super().__init__(message)
        self.path = path


class TestMapTasks:
    @pytest.mark.parametrize("workers", [2, 3, 9])
    def test_results_keep_task_order(self, workers):
        got = pipeline.map_tasks(square_with_pid, list(range(7)), workers)
        assert [r for r, _ in got] == [x * x for x in range(7)]
        w = min(workers, 7)
        pids = [pid for _, pid in got]
        # the caller runs the first share, each forked worker one of the others
        assert pids[0::w] == [os.getpid()] * len(pids[0::w])
        assert len(set(pids)) == w
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error, raised", [
        (HoldsALambda("task 1 failed"), RuntimeError),
        (DataErrorHoldingALambda("task 1 failed"), DataError),
        (TwoArgumentError("task 1 failed", "part-01.csv"), OSError),
    ])
    def test_worker_exception_that_cannot_travel_keeps_its_message(self, error, raised):
        # the parent gets the nearest exit-code class of the worker's exception,
        # with its type name and message, instead of "sent no results"
        def task(x):
            if x == 1:
                raise error
            return x

        with pytest.raises(raised) as info:
            pipeline.map_tasks(task, [0, 1], 2)
        assert type(info.value) is raised
        assert str(info.value) == f"{type(error).__name__}: task 1 failed"

    @pytest.mark.parametrize("tasks, failing", [([0, 1], 0), ([0, 1, 2], 1)],
                             ids=["caller", "worker"])
    def test_error_kills_the_busy_workers(self, tasks, failing):
        # one task fails at once while another worker sleeps: map_tasks
        # raises without waiting for it and leaves no child behind
        def task(x):
            if x == failing:
                raise ValueError(f"task {x} failed")
            if x == len(tasks) - 1:
                time.sleep(30)
            return x

        started = time.monotonic()
        with pytest.raises(ValueError, match=f"task {failing} failed"):
            pipeline.map_tasks(task, tasks, len(tasks))
        assert time.monotonic() - started < 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_failure_returns_past_a_child_blocked_on_a_large_result(self):
        # the child's 2 MiB result fills its pipe; the caller's own error
        # must not wait on it (a new interpreter with a timeout keeps a
        # deadlock from holding the suite)
        code = """if True:
            import os, time
            from mobstats.pipeline import map_tasks

            def task(x):
                if x == 0:
                    time.sleep(0.5)
                    raise ValueError("the caller's share failed")
                return b"x" * (2 << 20)

            started = time.monotonic()
            try:
                map_tasks(task, [0, 1], 2)
            except ValueError as e:
                print(e, time.monotonic() - started < 30)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
            """
        done = fresh_run(code)
        assert done.stdout.splitlines() == ["the caller's share failed True", "no child left"]

    def test_worker_killed_by_a_signal_is_an_io_error(self, scenario, tmp_path):
        # a worker that ends without sending (a signal, the OOM killer) is an
        # OSError naming it, and exit 2 from run; a new interpreter with a
        # timeout keeps a hang from holding the suite
        argv = ["run", "--input", str(scenario["root"] / "shards" / "*.csv"),
                "--gazetteer", scenario["gazetteer_path"],
                "--output-dir", str(tmp_path / "out"), "--workers", "2"]
        code = f"""if True:
            import os, signal, sys
            from mobstats import pipeline
            from mobstats.cli import main

            def killed_on_task_1(task):
                if task == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return task

            try:
                pipeline.map_tasks(killed_on_task_1, [0, 1, 2], 2)
            except OSError as e:
                print(e)
            scatter = pipeline.read_shard

            def scatter_unless_shard_1(path):
                killed_on_task_1(int(path.endswith("part-01.csv")))
                return scatter(path)

            pipeline.read_shard = scatter_unless_shard_1
            sys.exit(main({argv!r}))
            """
        done = fresh_run(code)
        assert done.stdout.startswith("map_tasks worker 1 of 2 ")
        assert done.returncode == 2
        assert done.stderr.startswith("error: io: map_tasks worker 1 of 2 ")
        assert "Traceback" not in done.stderr
