"""The benchmark's workloads and how their inputs are generated from a seed.

Every workload is the synthetic generator's output for a fixed scenario
with the benchmark's seed, plus a gazetteer. ``gate`` is the gate-8 corpus
of the acceptance tests byte-for-byte; ``dense-gz`` moves the work into
per-line parsing and per-day hulls, and runs the gzip reader, the fork
pool and the verbose writer; ``gazetteer`` is the gate input geocoded
against a 1,026-region grid gazetteer, so the difference between it and
``gate`` is the geocode, aggregate and output layers.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from dataclasses import dataclass

import reference

GATE_SCENARIO = {
    "devices": 420,
    "start_date": dt.date(2020, 2, 17),
    "end_date": dt.date(2020, 3, 8),
    "styles": ("planned", "scatter", "collinear", "duplicates", "antimeridian", "tight"),
    "reports_min": 10,
    "reports_max": 16,
    "malformed_fraction": 0.01,
    "accuracy_reject_fraction": 0.10,
    "ineligible_fraction": 0.05,
    "shards": 8,
}

DENSE_SCENARIO = {
    **GATE_SCENARIO,
    "devices": 60,
    "styles": ("planned", "scatter", "collinear"),
    "reports_min": 80,
    "reports_max": 120,
    "shards": 4,
    "gzip_shards": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    gazetteer: str  # "toy": the generator's 6-region gazetteer; "grid": grid_gazetteer_records()
    workers: int
    verbose_stats: bool

    def cli_args(self) -> list[str]:
        args = ["--workers", str(self.workers)]
        if self.verbose_stats:
            args.append("--verbose-stats")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gate", GATE_SCENARIO, "toy", workers=1, verbose_stats=False),
        Workload("dense-gz", DENSE_SCENARIO, "toy", workers=2, verbose_stats=True),
        Workload("gazetteer", GATE_SCENARIO, "grid", workers=1, verbose_stats=False),
    )
}


# the grid gazetteer covers the generator's toy country AA: lon 0..8, lat -4..4
GRID_CELLS = 32
GRID_LON = (0.0, 8.0)
GRID_LAT = (-4.0, 4.0)
RING_POINTS_PER_SIDE = 16


def _cell_ring(lon0: float, lon1: float, lat0: float, lat1: float) -> list[list[float]]:
    """Closed ring walking the cell's border, RING_POINTS_PER_SIDE points a side."""
    k = RING_POINTS_PER_SIDE
    ring = []
    for i in range(k):
        ring.append([lon0 + (lon1 - lon0) * i / k, lat0])
    for i in range(k):
        ring.append([lon1, lat0 + (lat1 - lat0) * i / k])
    for i in range(k):
        ring.append([lon1 - (lon1 - lon0) * i / k, lat1])
    for i in range(k):
        ring.append([lon0, lat1 - (lat1 - lat0) * i / k])
    ring.append(ring[0])
    return ring


def grid_gazetteer_records() -> list[dict]:
    """Two admin1 halves and a GRID_CELLS x GRID_CELLS grid of admin2 cells.

    Each cell is one region with a 65-point ring and one place at its centre.
    Cell edges are multiples of 2**-6 degrees, so boundary tests are exact.
    """
    (x0, x1), (y0, y1) = GRID_LON, GRID_LAT
    mid = (x0 + x1) / 2.0
    halves = (("West", "AA-W", x0, mid), ("East", "AA-E", mid, x1))
    recs = [
        {
            "type": "region", "country_code": "AA", "admin1": admin1, "admin2": "",
            "region_id": rid,
            "polygons": [[[a, y0], [b, y0], [b, y1], [a, y1], [a, y0]]],
        }
        for admin1, rid, a, b in halves
    ]
    places = []
    dx = (x1 - x0) / GRID_CELLS
    dy = (y1 - y0) / GRID_CELLS
    for row in range(GRID_CELLS):
        for col in range(GRID_CELLS):
            lon0, lat0 = x0 + col * dx, y0 + row * dy
            admin1, half_id = ("West", "AA-W") if lon0 < mid else ("East", "AA-E")
            rid = f"{half_id}-R{row:02d}C{col:02d}"
            recs.append({
                "type": "region", "country_code": "AA", "admin1": admin1,
                "admin2": f"Cell {row:02d}-{col:02d}", "region_id": rid,
                "polygons": [_cell_ring(lon0, lon0 + dx, lat0, lat0 + dy)],
            })
            places.append({
                "type": "place", "name": f"Place {row:02d}-{col:02d}",
                "lat": lat0 + dy / 2.0, "lon": lon0 + dx / 2.0, "region_id": rid,
            })
    return recs + places


def write_grid_gazetteer(path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in grid_gazetteer_records():
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    return path


@dataclass
class Inputs:
    """One workload's generated inputs and the reference the outputs must match."""

    input_glob: str
    gazetteer: str
    shard_paths: list[str]
    expected_counters: dict
    expected_rows: dict


def set_up(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Generate the workload's inputs under out_dir and build its reference."""
    from mobstats.synth import ScenarioSpec

    spec = ScenarioSpec(seed=seed, **workload.scenario)
    generated = reference.generate_with_truth(spec, out_dir)
    gazetteer = generated["gazetteer_path"]
    if workload.gazetteer == "grid":
        gazetteer = write_grid_gazetteer(os.path.join(out_dir, "grid-gazetteer.ndjson"))
    with open(os.path.join(out_dir, "expected.json"), encoding="utf-8") as fh:
        counters = json.load(fh)
    rows = reference.expected_rows(generated["truth_path"], gazetteer)
    shards = generated["shard_paths"]
    suffix = ".csv.gz" if workload.scenario.get("gzip_shards") else ".csv"
    return Inputs(
        input_glob=os.path.join(os.path.dirname(shards[0]), "*" + suffix),
        gazetteer=gazetteer,
        shard_paths=shards,
        expected_counters=counters,
        expected_rows=rows,
    )
