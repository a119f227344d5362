"""End-to-end batch pipeline over one dataset: scatter, gather, reduce, serialize.

The scatter phase reads each shard of the dataset into numpy columns
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
worker count and any N_BUCKETS. Before scatter a run removes the stats files
and run_report.ndjson, which it writes last, and clears the spill tree, which
it deletes on success and keeps on failure.
"""

from __future__ import annotations

import glob as globmod
import json
import os
import pickle
import shutil
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from operator import attrgetter

import numpy as np

from . import aggregate, metrics, output
from .collate import bucket_index, group_device_days, run_starts
from .errors import ConfigError, DataError
from .geocode import Gazetteer, load_gazetteer, locate
from .ingest import ACCURACY_MAX_M, IngestStats, read_shard_columns
from .metrics import day_max_distances, day_rejections

# device-id hash buckets, one gather task each: no output byte
# depends on the count, but gather runs at most this many tasks at once
N_BUCKETS = 8

# the run's device-day counters, in run-report order; the two rejected_*
# keys are "rejected_" + a metrics.REASON_* value
GATHER_COUNTERS = (
    "device_days",
    "device_day_reports",
    "rejected_too_few_reports",
    "rejected_short_span",
    "eligible_device_days",
    "unmatched_geocode",
)


@dataclass
class PipelineConfig:
    inputs: list[str] = field(default_factory=list)  # the one dataset's shard glob
    gazetteer: str | None = None
    output_dir: str = "out"
    workers: int = 1
    scratch_dir: str | None = None
    verbose_stats: bool = False

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("no input globs given")
        if type(self.inputs) is not list or not all(type(p) is str for p in self.inputs):
            raise ConfigError(f"inputs must be a list of glob strings, got {self.inputs!r}")
        if len(self.inputs) > 1:
            raise ConfigError(f"run reduces one dataset, got {len(self.inputs)} input globs: "
                              "run once per dataset and join the stats files with "
                              "`mobstats compare`")
        if not self.gazetteer:
            raise ConfigError("no gazetteer path given")
        if type(self.workers) is not int or self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")


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
    shard_idx, path, n_buckets, scratch = task
    stats = IngestStats()
    shard = read_shard_columns(path, ACCURACY_MAX_M, stats)
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


def _gather_bucket(sections: list) -> tuple[dict, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Turn one bucket's (path, start, end) spill sections into (counters, record columns).

    The columns are (key index into Gazetteer.keys, local day number,
    m_max): each matched device-day gives a record for its region's admin1
    twin, followed by one for the region itself when it is a county. Both
    levels reduce from device-days, because medians do not compose upward.
    """
    gaz = _GAZ
    assert gaz is not None, "gazetteer not loaded before gather"

    counters = dict.fromkeys(GATHER_COUNTERS, 0)
    dd = group_device_days(*_read_bucket(sections))
    counters["device_days"] = len(dd.starts)
    counters["device_day_reports"] = len(dd.code)

    spans = dd.epoch[dd.starts + dd.counts - 1] - dd.epoch[dd.starts]
    too_few, short_span = day_rejections(dd.counts, spans, metrics.DEFAULT_MIN_REPORTS,
                                        metrics.DEFAULT_MIN_SPAN_HOURS)
    eligible = np.flatnonzero(~too_few & ~short_span)
    counters["rejected_too_few_reports"] = int(np.count_nonzero(too_few))
    counters["rejected_short_span"] = int(np.count_nonzero(short_span))
    counters["eligible_device_days"] = len(eligible)

    # each day geocodes at its first report, the anchor of its m_max
    first = dd.starts[eligible]
    region = locate(gaz, dd.lat[first], dd.lon[first])
    matched, region = eligible[region >= 0], region[region >= 0]
    counters["unmatched_geocode"] = len(eligible) - len(matched)
    m_max = day_max_distances(dd.lat, dd.lon, dd.starts[matched], dd.counts[matched],
                              metrics.DEFAULT_TRIM_FRACTION)

    rows = gaz.key_rows[gaz.region_key[region]].ravel()
    keep = rows >= 0
    return counters, (rows[keep], np.repeat(dd.day[matched], 2)[keep], np.repeat(m_max, 2)[keep])


def _run_share(fn, tasks: list, fd: int, inherited: list[int]):
    """A forked worker: pickle (True, results) or (False, exception) into fd,
    then exit, never returning into the caller's stack or flushing its stdio."""
    try:
        for other in inherited:
            os.close(other)
        try:
            data = pickle.dumps((True, [fn(t) for t in tasks]))
        except BaseException as e:  # the parent raises it
            data = pickle.dumps((False, e))
        with open(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def map_tasks(fn, tasks: list, workers: int) -> list:
    """fn over tasks, results in task order, on forked workers, the caller
    taking the first share: of w = min(workers, len(tasks)) shares, share k
    is tasks[k::w]. A worker's exception is raised unchanged, and a worker
    that ends without sending its results (a signal, the OOM killer) is an
    OSError. Inline where the platform cannot fork (Windows)."""
    w = min(workers, len(tasks))
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    reads, pids = [], []  # the parent's end of each worker's pipe, and its pid
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, tasks[k::w], wr, reads)
            finally:
                os.close(wr)  # in the parent only: the child never returns
            pids.append(pid)
        shares = [[fn(t) for t in tasks[0::w]]]
        for k, (pid, r) in enumerate(zip(pids, reads), 1):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):  # nothing or a part came
                raise OSError(f"map_tasks worker {k} of {w} (pid {pid}) sent no results") from None
            if not ok:
                raise value
            shares.append(value)
    finally:
        for fd in reads:  # closed first: a worker blocked writing then fails and exits
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return [shares[i % w][i // w] for i in range(len(tasks))]


def atomic_write(path: str, write_fn) -> None:
    """Text-write path through path + ".tmp", renamed into place; a failure removes the .tmp."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def run(cfg: PipelineConfig) -> list[dict]:
    """Reduce one dataset, the shards matching cfg.inputs' one glob; returns
    a list holding its run report.

    Writes stats.ndjson and stats.csv, then run_report.ndjson, under
    output_dir. Once the config is valid and the gazetteer loaded, those three
    are removed, so run_report.ndjson marks a complete tree. To join two
    datasets, run each one and pass their stats files to compare_stats.
    """
    cfg.validate()
    shards = sorted(globmod.glob(cfg.inputs[0]))
    if not shards:
        raise ConfigError(f"no input files match {cfg.inputs[0]!r}")

    global _GAZ
    gaz = load_gazetteer(cfg.gazetteer)
    _GAZ = gaz

    os.makedirs(cfg.output_dir, exist_ok=True)
    # an earlier run's results must not outlive a run that fails
    for name in ("run_report.ndjson", "stats.ndjson", "stats.csv"):
        with suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.output_dir, name))
    scratch_base = cfg.scratch_dir or os.path.join(cfg.output_dir, ".scratch")
    scratch = os.path.join(scratch_base, "spill")
    # spill files left by an earlier failed run would be read as this run's
    shutil.rmtree(scratch, ignore_errors=True)

    os.makedirs(scratch, exist_ok=True)
    stats = IngestStats()
    scatter_tasks = [(s, path, N_BUCKETS, scratch) for s, path in enumerate(shards)]
    sections: dict[int, list[tuple[str, int, int]]] = {}
    scattered = map_tasks(_scatter_shard, scatter_tasks, cfg.workers)
    for s, (shard_stats, ranges) in enumerate(scattered):
        stats.merge(shard_stats)
        for b, start, end in ranges:
            sections.setdefault(b, []).append((_spill_path(scratch, s), start, end))

    gathered = map_tasks(_gather_bucket, [sections[b] for b in sorted(sections)], cfg.workers)
    counters = {k: sum(c[k] for c, _ in gathered) for k in GATHER_COUNTERS}
    # the empty columns give a dataset with no accepted report its column types
    empty = (np.zeros(0, np.int32), np.zeros(0, np.int64), np.zeros(0))
    columns = [np.concatenate(c) for c in zip(empty, *(cols for _, cols in gathered))]

    records = aggregate.reduce_region_day(gaz.keys, *columns, aggregate.DEFAULT_BASELINE_START,
                                          aggregate.DEFAULT_BASELINE_END)

    atomic_write(os.path.join(cfg.output_dir, "stats.ndjson"),
                 lambda fh: output.write_ndjson(records, fh, cfg.verbose_stats))
    atomic_write(os.path.join(cfg.output_dir, "stats.csv"),
                 lambda fh: output.write_csv(records, fh, cfg.verbose_stats))

    report = {
        "shards": len(shards),
        **asdict(stats),
        **counters,
        "regions_emitted": len(set(map(output.region_of, records))),
        "region_day_rows": len(records),
        "admin1_level_samples": sum(r.samples for r in records if r.admin_level == "admin1"),
    }
    atomic_write(os.path.join(cfg.output_dir, "run_report.ndjson"),
                 lambda fh: fh.write(json.dumps(report, separators=(",", ":")) + "\n"))
    # reached only on success: a failed run keeps its spill files
    shutil.rmtree(scratch, ignore_errors=True)
    if not cfg.scratch_dir:
        with suppress(OSError):  # not empty: something else lives there
            os.rmdir(scratch_base)
    return [report]


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
