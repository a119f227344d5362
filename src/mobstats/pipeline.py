"""End-to-end batch pipeline over one dataset: scatter, gather, reduce, serialize.

Scatter runs ingest.read_shard on each shard: its line counters, the
device ids holding an accepted report, in the order the first one is
read (accuracy stops at the reader's block), and its (code, epoch, lat,
lon) rows. The parent numbers the run's distinct ids once, as read_shard
lists them, sorted shard by shard, and maps codes onto it. Gather task b of
n = min(N_BUCKETS, devices) takes the rows whose code is b mod n, so all
of a device's reports meet in one task. A forked worker inherits its
tasks and the gazetteer; only results travel back through a pipe. The
task regroups its rows into device-days with collate.group_device_days,
then, for all its days at once, applies the eligibility rule, geocodes
the eligible days with one geocode.locate call and measures the trimmed
maximum distance m_max, the one per-device-day value any output depends
on. It returns its counters and three record columns: an index into the
gazetteer's output key table (built once in the parent, before any
fork), the local day number and m_max. The run report sums scatter's and
gather's counters over their tasks, key by key. The parent concatenates
the tasks' columns, reduces them into one finished output.OutputRecord
per (region, date), indexed against its region's baseline, in file
order, and writes the outputs atomically. Device-days are sorted on all
four columns and region-day samples are value-sorted before any
arithmetic, so the outputs depend only on the multiset of accepted
reports: byte-identical for any worker count, any N_BUCKETS and any
numbering of the devices. Before scatter a run removes the stats files
and run_report.ndjson, which it writes last; it writes no other file
than those three and their .tmp.
"""

from __future__ import annotations

import glob as globmod
import json
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import aggregate, metrics, output
from .collate import group_device_days
from .errors import ConfigError, DataError
from .geocode import load_gazetteer, locate
from .ingest import read_shard
from .metrics import day_max_distances, day_rejections

# gather runs at most this many tasks, a device's being its code mod the task count.
# It bounds memory: one task per worker took the CLI's peak RSS from 38.1 to 50.6 MB
# on gate (dense-gz 38.5 to 45.5, gazetteer 44.4 to 55.5); a count from shards or
# workers has to keep that bound.
N_BUCKETS = 8


@dataclass
class PipelineConfig:
    inputs: list[str] = field(default_factory=list)  # the one dataset's shard glob
    gazetteer: str | None = None
    output_dir: str = "out"
    workers: int = 1
    scratch_dir: str | None = None  # accepted and unused: a run writes no scratch file
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
        # an int gazetteer would be opened as a file descriptor, and closed
        for name, kind in (("gazetteer", str), ("output_dir", str), ("verbose_stats", bool)):
            if type(getattr(self, name)) is not kind:
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if type(self.workers) is not int or self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")


def _gather_bucket(task: tuple) -> tuple[dict, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Turn a (gazetteer, shards' columns, n, b) task into (counters, record
    columns) for bucket b, the devices whose code is b mod n.

    The columns are (key index into Gazetteer.keys, local day number,
    m_max): each matched device-day gives a record for its region's admin1
    twin, followed by one for the region itself when it is a county. Both
    levels reduce from device-days, because medians do not compose upward.
    """
    gaz, shards, n, b = task
    # the bucket's rows, shard by shard in read_shard's order
    mine = [columns[0] % n == b for columns in shards]
    dd = group_device_days(*(np.concatenate([c[m] for c, m in zip(column, mine)])
                             for column in zip(*shards)))
    spans = dd.epoch[dd.starts + dd.counts - 1] - dd.epoch[dd.starts]
    too_few, short_span = day_rejections(dd.counts, spans)
    eligible = np.flatnonzero(~too_few & ~short_span)

    # each day geocodes at its first report, the anchor of its m_max
    first = dd.starts[eligible]
    region = locate(gaz, dd.lat[first], dd.lon[first])
    matched, region = eligible[region >= 0], region[region >= 0]
    m_max = day_max_distances(dd.lat, dd.lon, dd.starts[matched], dd.counts[matched])

    rows = gaz.key_rows[region].ravel()
    keep = rows >= 0
    # the run report's device-day counters, in its order
    counters = {
        "device_days": len(dd.starts),
        "device_day_reports": len(dd.code),
        "rejected_" + metrics.REASON_TOO_FEW: int(np.count_nonzero(too_few)),
        "rejected_" + metrics.REASON_SHORT_SPAN: int(np.count_nonzero(short_span)),
        "eligible_device_days": len(eligible),
        "unmatched_geocode": len(eligible) - len(matched),
    }
    return counters, (rows[keep], np.repeat(dd.day[matched], 2)[keep], np.repeat(m_max, 2)[keep])


def _stand_in(e: BaseException) -> Exception:
    """e's type name and message in the nearest exit-code class e derives from."""
    kind = next((k for k in type(e).__mro__ if k in (ConfigError, DataError, OSError)),
                RuntimeError)
    return kind(f"{type(e).__name__}: {e}")


def _run_share(fn, tasks: list, fd: int, inherited: list[int]):
    """A forked worker: pickle (True, results) or (False, exception) into fd,
    then exit, never returning into the caller's stack or flushing its stdio."""
    try:
        for other in inherited:
            os.close(other)
        try:
            data = pickle.dumps((True, [fn(t) for t in tasks]))
        except BaseException as e:  # the parent raises it
            try:
                data = pickle.dumps((False, e))
                pickle.loads(data)  # an __init__ taking other arguments pickles but does not load
            except Exception:
                data = pickle.dumps((False, _stand_in(e)))
        with open(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def map_tasks(fn, tasks: list, workers: int) -> list:
    """fn over tasks, results in task order, on forked workers, the caller
    taking the first share: of w = min(workers, len(tasks)) shares, share k
    is tasks[k::w]. A worker's exception is raised unchanged, or as
    _stand_in's copy where it cannot be pickled, and a worker that ends
    without sending its results (a signal, the OOM killer) is an OSError.
    On any error the workers still running are killed before it is raised.
    Inline where the platform cannot fork (Windows)."""
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
    except BaseException:
        for pid in pids:  # their results would be thrown away: stop them now
            os.kill(pid, signal.SIGKILL)
        raise
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

    gaz = load_gazetteer(cfg.gazetteer)

    os.makedirs(cfg.output_dir, exist_ok=True)
    # an earlier run's results must not outlive a run that fails
    for name in ("run_report.ndjson", "stats.ndjson", "stats.csv"):
        with suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.output_dir, name))
    scattered = map_tasks(read_shard, shards, cfg.workers)
    # one numbering of the run's ids for every shard, in the order read_shard lists them
    code_of = {}
    for _, names, columns in scattered:
        columns[0] = np.array([code_of.setdefault(name, len(code_of)) for name in names],
                              np.int32)[columns[0]]
    # a run with no device id still gathers once, so its columns keep their types
    n = min(N_BUCKETS, len(code_of)) or 1
    shard_columns = [columns for _, _, columns in scattered]
    gathered = map_tasks(_gather_bucket, [(gaz, shard_columns, n, b) for b in range(n)],
                         cfg.workers)
    # each counter summed over its stage's tasks, in the tasks' key order
    counters = {k: sum(r[0][k] for r in results)
                for results in (scattered, gathered) for k in results[0][0]}
    columns = [np.concatenate(c) for c in zip(*(cols for _, cols in gathered))]

    records = aggregate.reduce_region_day(gaz.keys, *columns)

    atomic_write(os.path.join(cfg.output_dir, "stats.ndjson"),
                 lambda fh: output.write_ndjson(records, fh, cfg.verbose_stats))
    atomic_write(os.path.join(cfg.output_dir, "stats.csv"),
                 lambda fh: output.write_csv(records, fh, cfg.verbose_stats))

    report = {
        "shards": len(shards),
        **counters,
        "regions_emitted": len(set(map(output.region_of, records))),
        "region_day_rows": len(records),
        "admin1_level_samples": sum(r.samples for r in records if r.admin_level == "admin1"),
    }
    atomic_write(os.path.join(cfg.output_dir, "run_report.ndjson"),
                 lambda fh: fh.write(json.dumps(report, separators=(",", ":")) + "\n"))
    return [report]


def compare_stats(path_a: str, path_b: str) -> list[dict]:
    """Join two stats files on their KEY_FIELDS values; delta = index_b - index_a.

    A path ending in .csv is read as CSV, any other as NDJSON. Rows missing
    on either side, or missing an index, carry a null delta; status says
    which side(s) the key appeared on. A key on two rows of one file is a
    DataError naming the second row's path:line.
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
