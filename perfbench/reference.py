"""Independent reference for the job's outputs, and the check against it.

The expected table is built from the generator's per-device-day truth
records, not from the pipeline: eligibility and ``m_max`` come from the
raw rows through ``oracle.haversine_km``, each eligible day is geocoded
with ``oracle.winding_number_contains`` and the documented ranking
(deepest admin level, then smallest bounding box, then region_id), and
the baseline is the median weekday ``m50`` over 2020-02-17..2020-03-07.
Box and hull measures are never published, so the reference skips the
oracle's O(n^4) hull; the generated shards are unchanged by that.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
import statistics
from unittest import mock

BASELINE_START = dt.date(2020, 2, 17)
BASELINE_END = dt.date(2020, 3, 7)

# published values are rounded to 3 and 1 decimals; the slack covers the
# rounding plus float noise between the two distance formulas
M50_TOL = 5e-4 + 1e-9
INDEX_TOL = 0.05 + 1e-9

COUNTERS = (
    "lines_read",
    "lines_malformed",
    "reports_accepted",
    "reports_rejected_accuracy",
    "device_days",
    "eligible_device_days",
)

RowKey = tuple[str, str, str, str, str, str]  # country, level, admin1, admin2, region_id, date


def truth_metrics(rows, *, trim_fraction=0.10, min_reports=10, min_span_hours=8.0) -> dict:
    """Eligibility, trimmed max distance and first point of one device-day."""
    from mobstats import oracle

    ordered = sorted(rows)
    n = len(ordered)
    span_s = ordered[-1][0] - ordered[0][0] if n else 0
    out = {"report_count": n, "eligible": n >= min_reports and span_s >= min_span_hours * 3600.0}
    if out["eligible"]:
        lat0, lon0 = ordered[0][1], ordered[0][2]
        dists = sorted(oracle.haversine_km(lat0, lon0, r[1], r[2]) for r in ordered)
        out["m_max"] = dists[n - 1 - int(trim_fraction * n)]
        out["lat"] = lat0
        out["lon"] = lon0
    return out


def generate_with_truth(spec, out_dir: str) -> dict:
    """Run the synthetic generator with truth_metrics as its sidecar oracle."""
    from mobstats import oracle, synth

    with mock.patch.object(oracle, "oracle_metrics", truth_metrics):
        return synth.generate(spec, out_dir)


class RegionIndex:
    """The gazetteer's regions, read straight from its NDJSON file."""

    def __init__(self, path: str):
        self.regions = []  # (rank, key, bbox, rings); key = (cc, admin1, admin2, region_id)
        self.admin1_ids: dict[tuple[str, str], str] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("type") != "region":
                    continue
                key = (rec["country_code"], rec.get("admin1") or "",
                       rec.get("admin2") or "", str(rec["region_id"]))
                rings = [[(float(x), float(y)) for x, y in ring] for ring in rec["polygons"]]
                xs = [x for ring in rings for x, _ in ring]
                ys = [y for ring in rings for _, y in ring]
                bbox = (min(xs), min(ys), max(xs), max(ys))
                level = 2 if key[2] else (1 if key[1] else 0)
                rank = (-level, (bbox[2] - bbox[0]) * (bbox[3] - bbox[1]), key[3])
                self.regions.append((rank, key, bbox, rings))
                if level == 1:
                    self.admin1_ids[(key[0], key[1])] = key[3]
        self._cache: dict[tuple[float, float], tuple | None] = {}

    def locate(self, lat: float, lon: float) -> tuple | None:
        """Key of the best-ranked region containing the point, or None."""
        hit = self._cache.get((lat, lon), ())
        if hit != ():
            return hit
        from mobstats import oracle

        best = None
        for rank, key, (x0, y0, x1, y1), rings in self.regions:
            if not (x0 <= lon <= x1 and y0 <= lat <= y1):
                continue
            inside = sum(oracle.winding_number_contains(r, lon, lat) for r in rings) % 2 == 1
            if inside and (best is None or rank < best[0]):
                best = (rank, key)
        hit = None if best is None else best[1]
        self._cache[(lat, lon)] = hit
        return hit


def _quantile(ordered: list[float], p: float) -> float:
    """Linear interpolation at p * (n - 1) between order statistics."""
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def expected_rows(truth_path: str, gazetteer_path: str) -> dict[RowKey, dict]:
    """Expected published row per (level, region, date) from the truth sidecar."""
    index = RegionIndex(gazetteer_path)
    samples: dict[tuple, list[float]] = {}
    with open(truth_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["eligible"]:
                continue
            key = index.locate(rec["lat"], rec["lon"])
            if key is None:
                continue
            cc, admin1, admin2, rid = key
            a1_id = index.admin1_ids.get((cc, admin1), "") if admin1 else rid
            samples.setdefault((cc, "admin1", admin1, "", a1_id, rec["date"]), []).append(rec["m_max"])
            if admin2:
                samples.setdefault((cc, "admin2", admin1, admin2, rid, rec["date"]), []).append(rec["m_max"])

    rows = {}
    for key, values in samples.items():
        values.sort()
        rows[key] = {
            "samples": len(values),
            "m50": statistics.median(values),
            "m_max_mean": math.fsum(values) / len(values),
            "m_max_q1": _quantile(values, 0.25),
            "m_max_q3": _quantile(values, 0.75),
        }
    window: dict[tuple, list[float]] = {}
    for key, row in rows.items():
        date = dt.date.fromisoformat(key[5])
        if BASELINE_START <= date <= BASELINE_END and date.weekday() < 5:
            window.setdefault(key[:5], []).append(row["m50"])
    norms = {region: statistics.median(v) for region, v in window.items()}
    for key, row in rows.items():
        norm = norms.get(key[:5], 0.0)
        row["m50_index"] = 100.0 * row["m50"] / norm if norm > 0.0 else None
    return rows


def _row_key(obj: dict) -> RowKey:
    return (obj["country_code"], obj["admin_level"], obj["admin1"], obj["admin2"],
            obj["region_id"], obj["date"])


def _differs(got, want, tol: float) -> bool:
    if got is None or want is None:
        return (got is None) != (want is None)
    return abs(float(got) - want) > tol


def check_stats(stats_path: str, expected: dict[RowKey, dict], verbose: bool) -> list[str]:
    """Problems found comparing a stats.ndjson file with the expected rows."""
    problems = []
    with open(stats_path, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh]
    got = {_row_key(obj): obj for obj in objs}
    if len(got) != len(objs):
        problems.append(f"{len(objs) - len(got)} duplicate rows")
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing:
        problems.append(f"{len(missing)} expected rows missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} unexpected rows, e.g. {min(extra)}")
    checks = [("m50", M50_TOL), ("m50_index", INDEX_TOL)]
    if verbose:
        checks += [("m_max_mean", M50_TOL), ("m_max_q1", M50_TOL), ("m_max_q3", M50_TOL)]
    for key in sorted(expected.keys() & got.keys()):
        want, obj = expected[key], got[key]
        if obj["samples"] != want["samples"]:
            problems.append(f"{key}: samples {obj['samples']} != {want['samples']}")
        for field, tol in checks:
            if _differs(obj.get(field), want[field], tol):
                problems.append(f"{key}: {field} {obj.get(field)} != {want[field]}")
    return problems


def check_csv_matches(csv_path: str, stats_path: str) -> list[str]:
    """The CSV must carry the same rows and values as the NDJSON file."""
    with open(stats_path, encoding="utf-8") as fh:
        ndjson_rows = [json.loads(line) for line in fh]
    with open(csv_path, encoding="utf-8", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    if len(csv_rows) != len(ndjson_rows):
        return [f"stats.csv has {len(csv_rows)} rows, stats.ndjson {len(ndjson_rows)}"]
    for c, n in zip(csv_rows, ndjson_rows):
        for field, text in c.items():
            want = n.get(field)
            if want is None:
                same = text == ""
            elif isinstance(want, str):
                same = text == want
            else:
                same = text != "" and float(text) == float(want)
            if not same:
                return [f"stats.csv row {_row_key(n)} differs in {field}: {text!r} vs {want!r}"]
    return []


def check_report(report: dict, expected_counters: dict) -> list[str]:
    return [
        f"run report {k} {report.get(k)} != expected {expected_counters[k]}"
        for k in COUNTERS
        if report.get(k) != expected_counters[k]
    ]


def check_output_dir(out_dir: str, report: dict, inputs, verbose: bool) -> list[str]:
    """Every check a finished job must pass; an empty list means correct."""
    stats_path = os.path.join(out_dir, "stats.ndjson")
    problems = check_report(report, inputs.expected_counters)
    problems += check_stats(stats_path, inputs.expected_rows, verbose)
    problems += check_csv_matches(os.path.join(out_dir, "stats.csv"), stats_path)
    return problems
