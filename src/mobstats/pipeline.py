"""End-to-end batch pipeline: scatter, gather, reduce, serialize.

The scatter phase reads each input shard into numpy columns
(ingest.read_shard_columns, whose accuracy filter is the last use of
accuracy), hashes each distinct device id to a bucket once, groups the
rows by bucket with one stable argsort, writes one section per bucket
that holds any of the shard's reports to the shard's spill file and
returns the sections' byte ranges. Each such bucket gets one gather task
listing its sections in shard order. The task concatenates them,
regroups them into device-days with collate.group_device_days, applies
the metrics module's eligibility rule to all days at once, geocodes the
eligible days with one geocode.locate call, measures the trimmed maximum
distance m_max (the one per-device-day value any output depends on) for
all matched days at once, and returns its counters and its records as
three columns: an index into the gazetteer's output key table (built
once in the parent, before any fork), the local day number and m_max.
The parent concatenates the buckets' columns, reduces them into one
finished output.OutputRecord per (region, date), indexed against its
region's baseline, in file order, and writes the outputs atomically. Spill
files are keyed by input shard index and their sections read back in
shard order, device codes are renumbered in device id order, region-day
samples are value-sorted before any arithmetic, and every output file is
written in one canonical order, so results are byte-identical for any
worker or bucket count. Each run clears the spill tree before scatter;
it is deleted on success and kept on failure.
"""

from __future__ import annotations

import datetime as dt
import glob as globmod
import json
import os
import shutil
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from operator import attrgetter

import numpy as np

from . import aggregate, metrics, output
from .collate import bucket_index, date_to_day_number, group_device_days, run_starts
from .errors import ConfigError, DataError
from .geocode import Gazetteer, load_gazetteer, locate
from .ingest import IngestStats, read_shard_columns
from .metrics import day_max_distances, day_rejections
from .output import write_compare

FORMATS = ("ndjson", "csv", "both")

# per-dataset device-day counters, in run-report order; the two rejected_*
# keys are "rejected_" + a metrics.REASON_* value
GATHER_COUNTERS = (
    "device_days",
    "device_day_reports",
    "date_filtered_days",
    "rejected_too_few_reports",
    "rejected_short_span",
    "eligible_device_days",
    "unmatched_geocode",
)


@dataclass
class PipelineConfig:
    inputs: list[str] = field(default_factory=list)  # one glob pattern per dataset
    gazetteer: str | None = None
    output_dir: str = "out"
    format: str = "both"
    accuracy_max_m: float = 50.0
    min_reports: int = metrics.DEFAULT_MIN_REPORTS
    min_span_hours: float = metrics.DEFAULT_MIN_SPAN_HOURS
    trim_fraction: float = metrics.DEFAULT_TRIM_FRACTION
    baseline_start: dt.date = aggregate.DEFAULT_BASELINE_START
    baseline_end: dt.date = aggregate.DEFAULT_BASELINE_END
    date_start: dt.date | None = None
    date_end: dt.date | None = None
    workers: int = 1
    n_buckets: int = 8
    scratch_dir: str | None = None
    verbose_stats: bool = False

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("no input globs given")
        if type(self.inputs) is not list or not all(type(p) is str for p in self.inputs):
            raise ConfigError(f"inputs must be a list of glob strings, got {self.inputs!r}")
        if not self.gazetteer:
            raise ConfigError("no gazetteer path given")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        if not self.accuracy_max_m > 0:
            raise ConfigError(f"accuracy_max_m must be positive, got {self.accuracy_max_m}")
        if self.min_reports < 1:
            raise ConfigError(f"min_reports must be >= 1, got {self.min_reports}")
        # a device's local day is one 86,400 s window, so no day spans 24 h
        if not 0 <= self.min_span_hours < 24:
            raise ConfigError(f"min_span_hours must be in [0, 24), got {self.min_span_hours}")
        if not 0.0 <= self.trim_fraction < 1.0:
            raise ConfigError(f"trim_fraction must be in [0, 1), got {self.trim_fraction}")
        aggregate.check_baseline_window(self.baseline_start, self.baseline_end)
        if self.date_start and self.date_end and self.date_start > self.date_end:
            raise ConfigError(f"date range is empty: {self.date_start} > {self.date_end}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 1 <= self.n_buckets < 2**63:
            raise ConfigError(f"n_buckets must be in [1, 2**63 - 1], got {self.n_buckets}")


# gazetteer shared with forked gather workers
_GAZ: Gazetteer | None = None


def _spill_path(scratch: str, shard: int) -> str:
    return os.path.join(scratch, f"spill-{shard:05d}.bin")


# a spill section's columns, after its int64 row count and before its ids
_SECTION_COLUMNS = (np.int32, np.int64, np.float64, np.float64)


def _scatter_shard(task: tuple) -> tuple[IngestStats, list[tuple[int, int, int]]]:
    """Write one input shard's accepted reports to its spill file, grouped by bucket.

    Returns the shard's stats and, in bucket order, (bucket, start, end) for
    each bucket holding any of its reports: its section is bytes start : end
    of the file, and the sections fill the file. A section is its int64 row
    count, the columns (code, epoch, lat, lon) of its rows in file order,
    and to its end the UTF-8 device ids joined by newlines (a line never
    holds one), which the codes index. Buckets are hashed once per distinct
    device id.
    """
    shard_idx, path, n_buckets, accuracy_max_m, scratch = task
    stats = IngestStats()
    shard = read_shard_columns(path, accuracy_max_m, stats)
    present = np.flatnonzero(np.bincount(shard.code))
    device_bucket = np.array([bucket_index(shard.names[c], n_buckets) for c in present.tolist()],
                             np.int64)
    # devices grouped by bucket; a device's code in its section is its rank there
    by_bucket = np.argsort(device_bucket, kind="stable")
    device_bucket, devices = device_bucket[by_bucket], present[by_bucket]
    local = np.zeros(len(shard.names), np.int32)
    local[devices] = np.arange(len(devices)) - np.searchsorted(device_bucket, device_bucket)
    bucket_of = np.zeros(len(shard.names), np.int64)
    bucket_of[devices] = device_bucket

    row_bucket = bucket_of[shard.code]
    order = np.argsort(row_bucket, kind="stable")
    columns = [local[shard.code[order]]] + [c[order] for c in (shard.epoch, shard.lat, shard.lon)]
    buckets = device_bucket[run_starts(len(device_bucket), device_bucket)]
    row_bounds = np.searchsorted(row_bucket[order], buckets, "right").tolist()
    device_bounds = np.searchsorted(device_bucket, buckets, "right").tolist()
    ranges = []
    r0 = d0 = pos = 0
    with open(_spill_path(scratch, shard_idx), "wb") as fh:
        for b, r1, d1 in zip(buckets.tolist(), row_bounds, device_bounds):
            ids = "\n".join([shard.names[c] for c in devices[d0:d1].tolist()]).encode("utf-8")
            size = fh.write(b"".join([np.int64(r1 - r0).tobytes(),
                                      *(c[r0:r1].tobytes() for c in columns), ids]))
            ranges.append((b, pos, pos + size))
            r0, d0, pos = r1, d1, pos + size
    return stats, ranges


def _read_section(path: str, start: int, end: int) -> tuple[list[str], list[np.ndarray]]:
    """The (device ids, columns) of the spill file section at bytes start : end."""
    with open(path, "rb") as fh:
        fh.seek(start)
        section = fh.read(end - start)
    n = int(np.frombuffer(section, np.int64, 1)[0])
    columns, pos = [], 8
    for dtype in _SECTION_COLUMNS:
        columns.append(np.frombuffer(section, dtype, n, pos))
        pos += n * np.dtype(dtype).itemsize
    return section[pos:].decode("utf-8").split("\n"), columns


def _read_bucket(sections: list[tuple[str, int, int]]) -> list[np.ndarray]:
    """A bucket's columns from its (path, start, end) sections, concatenated in the
    order given, codes renumbered in id order."""
    spills = [_read_section(*s) for s in sections]
    ids = sorted({name for names, _ in spills for name in names})
    code_of = {name: i for i, name in enumerate(ids)}
    for names, columns in spills:
        columns[0] = np.array([code_of[n] for n in names], np.int32)[columns[0]]
    return [np.concatenate(c) for c in zip(*(columns for _, columns in spills))]


def _gather_bucket(task: tuple) -> tuple[dict, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Turn one bucket's spill file sections into (counters, record columns).

    The columns are (key index into Gazetteer.keys, local day number,
    m_max): each matched device-day gives a record for its region's admin1
    twin, followed by one for the region itself when it is a county. Both
    levels reduce from device-days, because medians do not compose upward.
    """
    sections, cfg = task
    gaz = _GAZ
    assert gaz is not None, "gazetteer not loaded before gather"

    counters = dict.fromkeys(GATHER_COUNTERS, 0)
    dd = group_device_days(*_read_bucket(sections))
    counters["device_days"] = len(dd.starts)
    counters["device_day_reports"] = len(dd.code)

    in_dates = np.ones(len(dd.starts), bool)
    if cfg.date_start is not None:
        in_dates &= dd.day >= date_to_day_number(cfg.date_start)
    if cfg.date_end is not None:
        in_dates &= dd.day <= date_to_day_number(cfg.date_end)
    spans = dd.epoch[dd.starts + dd.counts - 1] - dd.epoch[dd.starts]
    too_few, short_span = day_rejections(dd.counts, spans, cfg.min_reports, cfg.min_span_hours)
    eligible = np.flatnonzero(in_dates & ~too_few & ~short_span)
    counters["date_filtered_days"] = int(np.count_nonzero(~in_dates))
    counters["rejected_too_few_reports"] = int(np.count_nonzero(in_dates & too_few))
    counters["rejected_short_span"] = int(np.count_nonzero(in_dates & short_span))
    counters["eligible_device_days"] = len(eligible)

    # each day geocodes at its first report, the anchor of its m_max
    first = dd.starts[eligible]
    region = locate(gaz, dd.lat[first], dd.lon[first])
    matched, region = eligible[region >= 0], region[region >= 0]
    counters["unmatched_geocode"] = len(eligible) - len(matched)
    m_max = day_max_distances(dd.lat, dd.lon, dd.starts[matched], dd.counts[matched],
                              cfg.trim_fraction)

    rows = gaz.key_rows[gaz.region_key[region]].ravel()
    keep = rows >= 0
    return counters, (rows[keep], np.repeat(dd.day[matched], 2)[keep], np.repeat(m_max, 2)[keep])


def map_tasks(fn, tasks: list, workers: int) -> list:
    """Run tasks in order, inline or on a fork pool; results in task order.
    Inline where the platform cannot fork (Windows)."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing  # only here: a one-worker run never pays for the import

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks)


def atomic_write(path: str, write_fn) -> None:
    """Text-write path through path + ".tmp", renamed into place once write_fn returns."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        write_fn(fh)
    os.replace(tmp, path)


def _run_dataset(ds_idx: int, shards: list[str], cfg: PipelineConfig, gaz: Gazetteer,
                 scratch: str, out_dir: str) -> dict:
    os.makedirs(scratch, exist_ok=True)

    stats = IngestStats()
    scatter_tasks = [
        (s, path, cfg.n_buckets, cfg.accuracy_max_m, scratch)
        for s, path in enumerate(shards)
    ]
    sections: dict[int, list[tuple[str, int, int]]] = {}
    scattered = map_tasks(_scatter_shard, scatter_tasks, cfg.workers)
    for s, (shard_stats, ranges) in enumerate(scattered):
        stats.merge(shard_stats)
        for b, start, end in ranges:
            sections.setdefault(b, []).append((_spill_path(scratch, s), start, end))

    gather_tasks = [(sections[b], cfg) for b in sorted(sections)]
    gathered = map_tasks(_gather_bucket, gather_tasks, cfg.workers)
    counters = {k: sum(c[k] for c, _ in gathered) for k in GATHER_COUNTERS}
    # the empty columns give a dataset with no accepted report its column types
    empty = (np.zeros(0, np.int32), np.zeros(0, np.int64), np.zeros(0))
    columns = [np.concatenate(c) for c in zip(empty, *(cols for _, cols in gathered))]

    records = aggregate.reduce_region_day(gaz.keys, *columns, cfg.baseline_start, cfg.baseline_end)

    os.makedirs(out_dir, exist_ok=True)
    if cfg.format in ("ndjson", "both"):
        atomic_write(
            os.path.join(out_dir, "stats.ndjson"),
            lambda fh: output.write_ndjson(records, fh, cfg.verbose_stats),
        )
    if cfg.format in ("csv", "both"):
        atomic_write(
            os.path.join(out_dir, "stats.csv"),
            lambda fh: output.write_csv(records, fh, cfg.verbose_stats),
        )

    admin1_samples = sum(r.samples for r in records if r.admin_level == "admin1")
    report = {
        "dataset": ds_idx,
        "shards": len(shards),
        **asdict(stats),
        **counters,
        "regions_emitted": len(set(map(output.region_of, records))),
        "region_day_rows": len(records),
        "admin1_level_samples": admin1_samples,
    }
    return report


def run(cfg: PipelineConfig) -> list[dict]:
    """Run the full pipeline; returns the run-report record for each dataset.

    Output layout: a single dataset writes stats.ndjson / stats.csv directly
    under output_dir; multiple datasets write under dataset-NN/ plus, when
    there are two, a compare.ndjson joined from the stats files written, in
    either format. run_report.ndjson holds one line of counters per dataset.
    """
    cfg.validate()
    datasets: list[list[str]] = []
    for pattern in cfg.inputs:
        shards = sorted(globmod.glob(pattern))
        if not shards:
            raise ConfigError(f"no input files match {pattern!r}")
        datasets.append(shards)

    global _GAZ
    gaz = load_gazetteer(cfg.gazetteer)
    _GAZ = gaz

    os.makedirs(cfg.output_dir, exist_ok=True)
    scratch_base = cfg.scratch_dir or os.path.join(cfg.output_dir, ".scratch")
    spill_root = os.path.join(scratch_base, "spill")
    # spill files left by an earlier failed run would be read as this run's
    shutil.rmtree(spill_root, ignore_errors=True)

    reports: list[dict] = []
    ok = False
    try:
        for i, shards in enumerate(datasets):
            out_dir = (
                cfg.output_dir
                if len(datasets) == 1
                else os.path.join(cfg.output_dir, f"dataset-{i:02d}")
            )
            scratch = os.path.join(spill_root, f"ds{i:02d}")
            reports.append(_run_dataset(i, shards, cfg, gaz, scratch, out_dir))

        atomic_write(
            os.path.join(cfg.output_dir, "run_report.ndjson"),
            lambda fh: fh.writelines(
                json.dumps(r, separators=(",", ":")) + "\n" for r in reports
            ),
        )

        if len(datasets) == 2:
            name = "stats.csv" if cfg.format == "csv" else "stats.ndjson"
            rows = compare_stats(
                os.path.join(cfg.output_dir, "dataset-00", name),
                os.path.join(cfg.output_dir, "dataset-01", name),
            )
            atomic_write(
                os.path.join(cfg.output_dir, "compare.ndjson"),
                lambda fh: write_compare(rows, fh),
            )
        ok = True
    finally:
        if ok:
            shutil.rmtree(spill_root, ignore_errors=True)
            if not cfg.scratch_dir:
                with suppress(OSError):  # not empty: something else lives there
                    os.rmdir(scratch_base)
    return reports


def compare_stats(path_a: str, path_b: str) -> list[dict]:
    """Join two stats files on their KEY_FIELDS values; delta = index_b - index_a.

    A path ending in .csv is read as CSV, any other as NDJSON. Rows missing
    on either side, or missing an index, carry a null delta; status says
    which side(s) the key appeared on. A key held by two rows of one file
    is a DataError naming the second row's path:line.
    """
    key_names = [name for name, _ in output.KEY_FIELDS]
    key_of = attrgetter(*key_names)

    def by_key(path: str) -> dict:
        rows, line_of = {}, {}
        in_csv = path.endswith(".csv")
        # read_ndjson rejects blank lines, so record i is line i + 1; a CSV
        # adds its header line, and a cell holding a newline would add more
        read = output.read_csv if in_csv else output.read_ndjson
        for lineno, r in enumerate(read(path), 1 + in_csv):
            key = key_of(r)
            if key in rows:
                raise DataError(f"{path}:{lineno}: duplicate key {dict(zip(key_names, key))}, "
                                f"first on line {line_of[key]}")
            rows[key], line_of[key] = r, lineno
        return rows

    a, b = by_key(path_a), by_key(path_b)
    rows = []
    for key in sorted(set(a) | set(b)):
        ra, rb = a.get(key), b.get(key)
        idx_a = ra.m50_index if ra else None
        idx_b = rb.m50_index if rb else None
        rows.append({
            **dict(zip(key_names, key)),
            "m50_index_a": idx_a,
            "m50_index_b": idx_b,
            "delta": idx_b - idx_a if idx_a is not None and idx_b is not None else None,
            "status": "both" if ra and rb else ("only_a" if ra else "only_b"),
        })
    return rows
