"""Reduction of device-day metrics into per-(region, date) output records.

m50 is the median across a region-date's eligible device-days of the
trimmed max-distance measure; m50_index = 100 * m50 / m50_norm, where
m50_norm is the region's median weekday m50 inside the baseline window.
The reduce takes columns (a key-table index, a local day number and
m_max per device-day record), orders them with one lexsort by
(region, day) and sorts each (region, date) group's m_max values with
collate.segment_sort, so each group is a value-sorted segment.
Quartiles and means are computed for all segments at once with
numpy's own linear-quantile and pairwise-sum arithmetic, so they equal
np.quantile and .mean() bit for bit; each group becomes one
output.OutputRecord, which the baseline and the index then read and fill.
Results do not depend on arrival order.
"""

from __future__ import annotations

import datetime as dt
from typing import Iterable, Sequence

import numpy as np

from .collate import day_number_to_date, run_starts, same_length_segments, segment_sort
from .errors import ConfigError
from .geocode import RegionKey
from .output import OutputRecord, region_of

DEFAULT_BASELINE_START = dt.date(2020, 2, 17)
DEFAULT_BASELINE_END = dt.date(2020, 3, 7)


def segment_quantile(values: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                     q: float) -> np.ndarray:
    """np.quantile(segment, q) of each ascending segment values[start : start + count].

    numpy's linear method: the virtual index v = (n - 1) * q falls between
    order statistics floor(v) and the next one, and is interpolated with
    _lerp's a + d*t, or b - d*(1 - t) from t >= 0.5, which keeps the floats
    equal to np.quantile's.
    """
    v = (counts - 1) * q
    prev = np.floor(v)
    t = v - prev
    a = values[starts + prev.astype(np.intp)]
    b = values[starts + np.minimum(prev + 1, counts - 1).astype(np.intp)]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def segment_stats(values: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """(mean, median, q1, q3) arrays over the ascending segments of values.

    Each sum is numpy's pairwise sum, as in .mean(): np.add.reduce along
    the rows of a C-contiguous 2-D array runs it per row, so all segments
    of one length sum in one call; np.add.reduceat sums in sequence and can
    differ in the last bit.
    """
    sums = np.zeros(len(counts))
    for seg, rows in same_length_segments(starts, counts):
        sums[seg] = np.add.reduce(values[rows], axis=1)
    mean = sums / counts
    q1, median, q3 = (segment_quantile(values, starts, counts, q) for q in (0.25, 0.5, 0.75))
    return mean, median, q1, q3


def reduce_region_day(
    keys: Sequence[RegionKey], region: np.ndarray, day: np.ndarray, m_max: np.ndarray,
) -> list[OutputRecord]:
    """One record per (region, day) group of device-day m_max values; m50_index None.

    Row i is one record: keys[region[i]], local day number day[i], m_max[i].
    Order independent: the same multiset of records yields identical output
    however the rows are shuffled.
    """
    order = np.lexsort((day, region))
    region, day = region[order], day[order]
    starts = run_starts(len(order), region, day)
    counts = np.diff(starts, append=len(order))
    values = segment_sort(m_max[order], starts, counts)
    columns = segment_stats(values, starts, counts)

    group_keys = [keys[r] for r in region[starts].tolist()]
    group_days = day[starts].tolist()
    iso = {d: day_number_to_date(d).isoformat() for d in set(group_days)}
    return [
        OutputRecord(k.country_code, "admin2" if k.admin2 else "admin1", k.admin1, k.admin2,
                     k.region_id, iso[d], n, median, None, mean, q1, q3)
        for k, d, n, mean, median, q1, q3 in zip(
            group_keys, group_days, counts.tolist(), *(c.tolist() for c in columns))
    ]


def compute_baseline(
    records: Iterable[OutputRecord],
    start: dt.date = DEFAULT_BASELINE_START,
    end: dt.date = DEFAULT_BASELINE_END,
) -> dict[tuple, float]:
    """Per-region m50_norm, keyed by output.region_of: median weekday m50 in [start, end].

    Regions with no weekday data in the window, or whose norm is zero, are
    absent from the table (an index against them would be undefined).
    """
    check_baseline_window(start, end)
    # ISO dates compare in date order, so only the window's dates are parsed
    first, last = start.isoformat(), end.isoformat()
    window: dict[tuple, list[float]] = {}
    for r in records:
        if first <= r.date <= last and dt.date.fromisoformat(r.date).weekday() < 5:
            window.setdefault(region_of(r), []).append(r.m50)
    table: dict[tuple, float] = {}
    for region, values in window.items():
        # np.median's arithmetic, the middle value or (a + b) / 2 of the middle
        # two; np.median itself imports numpy.ma on its first call (about 15 ms)
        v = np.sort(np.array(values))
        mid = len(v) // 2
        norm = float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)
        if norm > 0.0:
            table[region] = norm
    return table


def check_baseline_window(start: dt.date, end: dt.date) -> None:
    """Raise ConfigError unless [start, end] holds at least one Monday-Friday date."""
    if start > end:
        raise ConfigError(f"baseline window is empty: {start} > {end}")
    week = range(min((end - start).days + 1, 7))
    if all((start + dt.timedelta(days=i)).weekday() >= 5 for i in week):
        raise ConfigError(f"baseline window {start}..{end} contains no weekdays")


def apply_index(record: OutputRecord, baseline: dict[tuple, float]) -> OutputRecord:
    """Fill m50_index in place when the record's region has a baseline."""
    norm = baseline.get(region_of(record))
    if norm is not None:
        record.m50_index = 100.0 * record.m50 / norm
    return record
