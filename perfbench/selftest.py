"""Self-tests of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

They check that the reference check rejects wrong outputs, that the grid
gazetteer loads through the package, that every workload's rationale is
recorded in BENCHMARK.json, and that the tracer leaves the package as it
found it and reports a missing function as 0 calls.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Workload(
    "small", {**workloads.GATE_SCENARIO, "devices": 40}, "toy", workers=1, verbose_stats=True
)


class ReferenceCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-selftest-", dir=ROOT)
        cls.inputs = workloads.set_up(SMALL, 7, os.path.join(cls.tmp, "inputs"))
        cls.job = run.run_in_process(SMALL, cls.inputs, os.path.join(cls.tmp, "job"))
        cls.stats = os.path.join(cls.tmp, "job", "out", "stats.ndjson")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _edited_stats(self, edit) -> str:
        with open(self.stats, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        edit(rows)
        path = os.path.join(self.tmp, "edited.ndjson")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)
        return path

    def test_correct_output_passes(self):
        self.assertEqual(self.job.problems, [])
        self.assertGreater(len(self.inputs.expected_rows), 0)
        self.assertEqual(self.job.output_rows, len(self.inputs.expected_rows))

    def test_rejects_m50_moved_by_0_002(self):
        def move(rows):
            rows[len(rows) // 2]["m50"] += 0.002
        problems = reference.check_stats(self._edited_stats(move), self.inputs.expected_rows, True)
        self.assertEqual(len(problems), 1)
        self.assertIn("m50", problems[0])

    def test_rejects_a_dropped_row(self):
        problems = reference.check_stats(
            self._edited_stats(lambda rows: rows.pop(3)), self.inputs.expected_rows, True
        )
        self.assertEqual(len(problems), 1)
        self.assertIn("missing", problems[0])

    def test_rejects_a_wrong_counter(self):
        report = dict(self.job.report, lines_read=self.job.report["lines_read"] + 1)
        self.assertEqual(len(reference.check_report(report, self.inputs.expected_counters)), 1)


class GridGazetteerTest(unittest.TestCase):
    def test_loads_through_the_package_with_1026_regions(self):
        from mobstats.geo import GeoPoint
        from mobstats.geocode import load_gazetteer, reverse_geocode

        tmp = tempfile.mkdtemp(prefix="perfbench-selftest-", dir=ROOT)
        try:
            path = workloads.write_grid_gazetteer(os.path.join(tmp, "grid.ndjson"))
            gaz = load_gazetteer(path)
            index = reference.RegionIndex(path)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(len(gaz.regions), 1026)
        self.assertEqual(len(gaz.places), 1024)
        self.assertEqual({len(r.rings[0]) for r in gaz.regions if r.key.admin2}, {65})
        # inside a cell, on a shared cell edge, on a grid corner, outside the grid
        for lat, lon in ((0.1, 0.1), (0.125, 0.25), (0.25, 4.0), (-3.9, 7.99), (5.0, 1.0)):
            got = reverse_geocode(gaz, GeoPoint(lat, lon))
            want = index.locate(lat, lon)
            self.assertEqual(None if got is None else tuple(
                [got.country_code, got.admin1, got.admin2, got.region_id]), want)


class BenchmarkJsonTest(unittest.TestCase):
    def test_every_workload_has_its_rationale(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        self.assertEqual(set(whys), set(workloads.WORKLOADS))
        for why in whys.values():
            self.assertTrue(why.strip())
            self.assertNotIn("\n", why)

    def test_metric_lists_match_what_the_benchmark_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)


class TracerTest(unittest.TestCase):
    def test_restores_the_package_and_counts_missing_functions_as_zero(self):
        from mobstats import collate, metrics, pipeline

        before = (pipeline.bucket_index, collate.bucket_index, metrics.haversine_km_arr)
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(pipeline.bucket_index, before[0])
            # collate calls bucket_index itself, so its own binding stays unwrapped
            self.assertIs(collate.bucket_index, before[1])
            self.assertIsNot(metrics.haversine_km_arr, before[2])
            pipeline.bucket_index("device-1", 8)
        self.assertEqual((pipeline.bucket_index, collate.bucket_index, metrics.haversine_km_arr),
                         before)
        spans = tracer.finished_spans()
        self.assertEqual(tracing.calls(spans, "collate.bucket_index"), 1)
        self.assertEqual(tracing.calls(spans, "collate.no_such_function"), 0)
        empty = run.layer_metrics([], run.Job(wall_s=1.0), {}, 0)
        self.assertEqual(empty["metrics.m_max_calls"], 0)
        self.assertEqual(empty["pipeline.gather_self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
