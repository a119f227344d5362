"""Release-gate checks for the whole pipeline.

Each test covers one gate and prints a single PASS line with the measured
values; pytest's -rA summary shows those lines on a normal run. The gates
exercise oracle equivalence, index arithmetic, byte determinism, counter
reconciliation, geometry invariants, parameter defaults, the output format
contract, and throughput.
"""

import datetime as dt
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

from adapters import contains, device_days, verdicts
from mobstats import ingest, oracle, pipeline
from mobstats.cli import main
from mobstats.geo import convex_hull_xy, unwrap_lonlat
from mobstats.metrics import day_box_and_hull, day_max_distances
from mobstats.output import read_csv, read_ndjson
from mobstats.pipeline import PipelineConfig, run
from mobstats.synth import ELIGIBLE_STYLES, STYLES, ScenarioSpec, generate, random_day_rows

TOL_REL = 1e-9
TOL_ABS = 1e-12


def close(a, b):
    return abs(a - b) <= TOL_ABS + TOL_REL * abs(b)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """~110k-report mixed-style corpus with ground-truth sidecar."""
    root = tmp_path_factory.mktemp("corpus")
    spec = ScenarioSpec(
        seed=2020, devices=420,
        start_date=dt.date(2020, 2, 17), end_date=dt.date(2020, 3, 8),
        styles=ELIGIBLE_STYLES, reports_min=10, reports_max=16,
        malformed_fraction=0.01, accuracy_reject_fraction=0.10,
        ineligible_fraction=0.05, shards=8,
    )
    result = generate(spec, str(root))
    assert result["lines_read"] >= 100_000
    return {"root": root, "glob": str(root / "shards" / "*.csv"), **result}


def corpus_config(corpus, out_dir, workers=1):
    return PipelineConfig(
        inputs=[corpus["glob"]], gazetteer=corpus["gazetteer_path"],
        output_dir=str(out_dir), workers=workers,
    )


@pytest.fixture(scope="module")
def reference_run(corpus, tmp_path_factory):
    """Golden single-worker run over the corpus, with its wall time."""
    out = tmp_path_factory.mktemp("refrun")
    t0 = perf_counter()
    reports = run(corpus_config(corpus, out))
    elapsed = perf_counter() - t0
    return {"out": out, "report": reports[0], "elapsed": elapsed}


@pytest.fixture(scope="module")
def oracle_sweep():
    """1000 random device-days run through the gather kernel, day_box_and_hull and the oracle.

    The days are one bucket: one group_device_days, day_rejections and
    day_max_distances call covers them all, as in gather.
    """
    t0 = perf_counter()
    days = eligible = 0
    worst = 0.0
    box_hulls = []
    day_rows = [random_day_rows(random.Random(31337 + i), style=STYLES[i % len(STYLES)])
                for i in range(1000)]
    built, dd = device_days([(f"dev-{i}",) + r for i, rows in enumerate(day_rows) for r in rows])
    assert len(built) == 1000
    reasons = verdicts(dd)
    m_max = day_max_distances(dd.lat, dd.lon, dd.starts, dd.counts)
    day_of = {day.device_id: k for k, day in enumerate(built)}
    for i, rows in enumerate(day_rows):
        ref = oracle.oracle_metrics(rows)
        k = day_of[f"dev-{i}"]
        reason = reasons[k]
        assert (reason is None) == ref["eligible"], i
        days += 1
        if reason is not None:
            assert reason == ref["reason"]
            continue
        box_hull = day_box_and_hull(built[k].reports)
        for name, got in zip(("m_max", "m_bb", "m_ch", "a_bb", "a_ch"), (m_max[k], *box_hull)):
            want = ref[name]
            assert close(got, want), (i, name, got, want)
            if abs(want) > 1e-9:
                worst = max(worst, abs(got - want) / abs(want))
        box_hulls.append(box_hull)
        eligible += 1
    return {"elapsed": perf_counter() - t0, "days": days, "eligible": eligible,
            "worst_rel": worst, "box_hulls": box_hulls}


def hashes(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("stats.ndjson", "stats.csv", "run_report.ndjson")
    }


# sha256 of reference_run's files; they equal the benchmark gate workload's
PUBLISHED_SHA256 = {
    "stats.ndjson": "079eb1b353bbf06b3302cdad2dda7bf60c529d277454cc7507fd8e34c1d0a587",
    "stats.csv": "41319b25539f1d2a9ed13ec5e8d53790db2f6e6dd061fedef792d8d25aa1f355",
    "run_report.ndjson": "9c63f84bb4dae5eeb07cee427e2b0f5d067f0a86d0ded8a89c81784ddf375b53",
}

# `names` prints the CPU features numpy dispatches to at run time; any other
# arguments check that all of them are off and run the CLI on them
DISPATCH_CLI = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
if sys.argv[1] == "names":
    print(" ".join(__cpu_dispatch__))
    sys.exit()
assert not any(__cpu_features__[name] for name in __cpu_dispatch__)
from mobstats.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestPublishedBytes:
    def test_reference_run_bytes_pinned(self, reference_run):
        """The corpus's published files, byte for byte.

        Gate 3 checks that worker and bucket counts change no byte, but not
        that a change to the code does not. A change that alters the output on
        purpose updates these pins in the same diff and says so in CHANGES.md.
        """
        assert hashes(reference_run["out"]) == PUBLISHED_SHA256

    def test_reversed_shard_names_give_the_pinned_bytes(self, corpus, tmp_path):
        """The corpus's shards copied under reversed names: the devices are
        numbered in another order and split into other gather tasks, and no
        output byte changes."""
        shards = sorted((corpus["root"] / "shards").glob("*.csv"))
        data = tmp_path / "data"
        data.mkdir()
        for shard, name in zip(shards, reversed([p.name for p in shards])):
            shutil.copy(shard, data / name)
        run(PipelineConfig(inputs=[str(data / "*.csv")], gazetteer=corpus["gazetteer_path"],
                           output_dir=str(tmp_path / "out"), workers=1))
        assert hashes(tmp_path / "out") == PUBLISHED_SHA256

    def test_lone_cr_line_ends_give_the_pinned_bytes(self, corpus, tmp_path, monkeypatch):
        """The corpus's shards with every LF rewritten as a lone CR: a shard with
        no LF is read in one piece, and no output byte changes, at the default
        block size or a small one."""
        data = tmp_path / "data"
        data.mkdir()
        for shard in (corpus["root"] / "shards").glob("*.csv"):
            (data / shard.name).write_bytes(shard.read_bytes().replace(b"\n", b"\r"))
        for block_bytes in (ingest.BLOCK_BYTES, 64):
            monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
            out = tmp_path / f"out-{block_bytes}"
            run(PipelineConfig(inputs=[str(data / "*.csv")], gazetteer=corpus["gazetteer_path"],
                               output_dir=str(out), workers=1))
            assert hashes(out) == PUBLISHED_SHA256

    def test_no_simd_dispatch_gives_the_pinned_bytes(self, corpus, tmp_path):
        """The corpus run with every CPU feature numpy dispatches to at run time
        switched off, so its kernels take their baseline code: no byte changes."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(pipeline.__file__)),
                          os.environ.get("PYTHONPATH")]))}
        names = subprocess.run([sys.executable, "-c", DISPATCH_CLI, "names"], env=env, check=True,
                               capture_output=True, text=True).stdout.strip()
        subprocess.run([sys.executable, "-c", DISPATCH_CLI, "run", "--input", corpus["glob"],
                        "--gazetteer", corpus["gazetteer_path"],
                        "--output-dir", str(tmp_path / "out")],
                       env={**env, "NPY_DISABLE_CPU_FEATURES": names}, check=True, timeout=600)
        assert hashes(tmp_path / "out") == PUBLISHED_SHA256


class TestGates:
    def test_1_oracle_equivalence(self, oracle_sweep):
        assert oracle_sweep["days"] == 1000
        assert oracle_sweep["eligible"] >= 500
        assert oracle_sweep["elapsed"] < 60.0
        print(f"PASS: gate 1 oracle equivalence: {oracle_sweep['days']} device-days "
              f"({oracle_sweep['eligible']} eligible), verdicts exact, worst metric "
              f"deviation {oracle_sweep['worst_rel']:.2e} rel (limit 1e-9), "
              f"{oracle_sweep['elapsed']:.1f}s (limit 60s)")

    def test_2_index_arithmetic(self, tmp_path):
        results = {}
        for scale in (0.006, 0.30):
            data = tmp_path / f"data-{scale}"
            out = tmp_path / f"out-{scale}"
            spec = ScenarioSpec(seed=90, devices=48, scale=scale, shards=2)
            gen = generate(spec, str(data))
            run(PipelineConfig(inputs=[str(data / "shards" / "*.csv")],
                               gazetteer=gen["gazetteer_path"],
                               output_dir=str(out), workers=1))
            records = read_ndjson(str(out / "stats.ndjson"))
            pre = [r for r in records if r.date < "2020-03-09"]
            post = [r for r in records if r.date >= "2020-03-09"]
            assert pre and post
            assert all(r.m50_index == 100.0 for r in pre)
            results[scale] = post

        low = results[0.006]
        assert all(abs(r.m50_index - 0.6) <= 0.2 for r in low)
        assert all(abs(r.m50 - 0.031) <= 0.002 for r in low)
        high = results[0.30]
        assert all(abs(r.m50_index - 30.0) <= 1.0 for r in high)
        idx_low = low[0].m50_index
        m50_low = low[0].m50
        idx_high = high[0].m50_index
        print(f"PASS: gate 2 index arithmetic: 5.2 km baseline scaled 0.006 gives "
              f"m50 {m50_low:.3f} km (target 0.031 +-0.002) and index {idx_low} "
              f"(target 0.6 +-0.2); scaled 0.30 gives index {idx_high} (target 30 +-1)")

    def test_3_byte_determinism(self, corpus, reference_run, tmp_path, monkeypatch):
        golden = hashes(reference_run["out"])
        combos = [(1, 1), (4, 8), (16, 64), (1, 64), (16, 1)]
        for workers, buckets in combos:
            monkeypatch.setattr(pipeline, "N_BUCKETS", buckets)
            out = tmp_path / f"w{workers}-b{buckets}"
            run(corpus_config(corpus, out, workers=workers))
            assert hashes(out) == golden, (workers, buckets)
        print(f"PASS: gate 3 determinism: byte-identical stats.ndjson/stats.csv/"
              f"run_report.ndjson for (workers, buckets) in {[(1, 8)] + combos} "
              f"on a {corpus['lines_read']}-line corpus")

    def test_4_counter_reconciliation(self, corpus, reference_run):
        r = reference_run["report"]
        assert r["lines_read"] == (r["lines_malformed"] + r["reports_accepted"]
                                   + r["reports_rejected_accuracy"])
        assert r["device_day_reports"] == r["reports_accepted"]
        assert r["device_days"] == (r["rejected_too_few_reports"]
                                    + r["rejected_short_span"]
                                    + r["eligible_device_days"])
        assert r["eligible_device_days"] == (r["admin1_level_samples"]
                                             + r["unmatched_geocode"])
        # and the counters equal the generator's ground truth
        for key in ("lines_read", "lines_malformed", "reports_accepted",
                    "reports_rejected_accuracy", "device_days",
                    "eligible_device_days"):
            assert r[key] == corpus[key], key
        print(f"PASS: gate 4 reconciliation: {r['lines_read']} lines = "
              f"{r['lines_malformed']} malformed + {r['reports_accepted']} accepted + "
              f"{r['reports_rejected_accuracy']} low-accuracy; {r['device_days']} "
              f"device-days = {r['eligible_device_days']} eligible + "
              f"{r['rejected_too_few_reports']} few + {r['rejected_short_span']} short; "
              f"eligible = {r['admin1_level_samples']} samples + "
              f"{r['unmatched_geocode']} unmatched")

    def test_5_geometry_invariants(self, corpus, oracle_sweep):
        # hull measure bounded by box measure on every eligible device-day,
        # on both the metrics module's route and the oracle route
        checked = 0
        for m_bb, m_ch, a_bb, a_ch in oracle_sweep["box_hulls"]:
            assert m_ch <= m_bb
            assert a_ch <= a_bb
            checked += 1
        with open(corpus["truth_path"], encoding="utf-8") as fh:
            for line in fh:
                t = json.loads(line)
                if t["eligible"]:
                    assert t["m_ch"] <= t["m_bb"]
                    checked += 1

        rng = random.Random(777)
        hulls = 0
        for _ in range(300):
            # (lat, lon) draws as (lon, lat) points; a set can span more than 180° of longitude
            pts = [(rng.uniform(-60, 60), rng.uniform(-170, 170))[::-1]
                   for _ in range(rng.randint(3, 40))]
            hull = convex_hull_xy(unwrap_lonlat(pts))
            n = len(hull)
            if n < 3:
                continue
            for i in range(n):
                o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert cross > 0.0
            hulls += 1
        assert hulls >= 250

        cases = 0
        while cases < 10_000:
            cloud = [(rng.uniform(-40, 40), rng.uniform(-40, 40))[::-1]
                     for _ in range(rng.randint(4, 25))]
            hull = convex_hull_xy(cloud)
            if len(hull) < 3:
                continue
            ring = list(hull) + [hull[0]]
            xs = [x for x, _ in ring]
            ys = [y for _, y in ring]
            probes = [(rng.uniform(min(xs) - 2, max(xs) + 2),
                       rng.uniform(min(ys) - 2, max(ys) + 2)) for _ in range(25)]
            inside = contains([ring], *zip(*probes))
            for (x, y), got in zip(probes, inside):
                assert got == oracle.winding_number_contains(ring, x, y)
                cases += 1
        assert cases >= 10_000
        print(f"PASS: gate 5 geometry: m_ch <= m_bb on {checked}/{checked} eligible "
              f"device-days, {hulls} hulls strictly convex CCW, point-in-polygon "
              f"matches the winding oracle on {cases} cases")

    def test_6_parameter_defaults(self, capsys):
        assert main(["config-dump"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["accuracy_max_m"] == 50.0
        assert cfg["min_reports"] == 10
        assert cfg["min_span_hours"] == 8.0
        assert cfg["trim_fraction"] == 0.10
        assert cfg["baseline_start"] == "2020-02-17"
        assert cfg["baseline_end"] == "2020-03-07"
        print("PASS: gate 6 defaults: config-dump emits 50.0 m / 10 reports / 8.0 h "
              "/ 0.10 trim / 2020-02-17..2020-03-07")

    def test_7_format_contract(self, corpus, reference_run, tmp_path):
        out = reference_run["out"]
        nd_path = str(out / "stats.ndjson")
        lines = (out / "stats.ndjson").read_text(encoding="utf-8").splitlines()
        parsed = [json.loads(line) for line in lines]  # every line standalone
        assert len(parsed) == len(lines) > 0

        nd_records = read_ndjson(nd_path)
        csv_records = read_csv(str(out / "stats.csv"))
        assert nd_records == csv_records

        rerun = tmp_path / "rerun"
        run(corpus_config(corpus, rerun))
        assert hashes(rerun) == hashes(out)
        print(f"PASS: gate 7 format contract: {len(lines)} NDJSON lines parse "
              f"independently, CSV round-trip equals NDJSON record-for-record, "
              f"rerun is byte-identical")

    def test_8_throughput(self, corpus, reference_run):
        report = reference_run["report"]
        elapsed = reference_run["elapsed"]
        rate = report["lines_read"] / elapsed * 60.0
        assert rate >= 1_000_000
        print(f"PASS: gate 8 throughput: {report['lines_read']} reports in "
              f"{elapsed:.2f}s on one core = {rate/1e6:.1f}M reports/min "
              f"(target 1M/min)")
