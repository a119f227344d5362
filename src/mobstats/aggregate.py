"""Reduction of device-day metrics into finished per-(region, date) output records.

m50 is the median across a region-date's eligible device-days of the
trimmed max-distance measure; m50_index = 100 * m50 / m50_norm, where
m50_norm is the region's median weekday m50 inside the baseline window.
The reduce takes columns (a key-table index, a local day number and
m_max per device-day record), orders them with one lexsort into file
order, (country, admin1, admin2, date, region_id), and sorts each
(region, date) group's m_max values with collate.segment_sort, so each
group is a value-sorted segment. Quartiles and means are computed for
all segments at once with numpy's own linear-quantile and pairwise-sum
arithmetic, so they equal np.quantile and .mean() bit for bit; the
baseline and the index are computed for all groups at once too. Each group
becomes one output.OutputRecord; results do not depend on arrival order.
"""

from __future__ import annotations

import datetime as dt
from typing import Sequence

import numpy as np

from .collate import (
    date_to_day_number, day_number_to_date, runs, same_length_segments, segment_sort,
)
from .geocode import RegionKey
from .output import OutputRecord

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


def reduce_region_day(keys: Sequence[RegionKey], region: np.ndarray, day: np.ndarray,
                      m_max: np.ndarray) -> list[OutputRecord]:
    """One finished record per (region, day) group of device-day m_max values, in file order.

    Row i is one record: keys[region[i]], local day number day[i], m_max[i].
    m50_index is against the region's median weekday m50 in the fixed window
    [DEFAULT_BASELINE_START, DEFAULT_BASELINE_END], None where there is none,
    it is not positive or the ratio overflows. The same multiset of rows
    yields identical output however the rows are shuffled.
    """
    # the distinct keys in file order, compared as tuples: a joined string
    # could not tell "a\0" + "b" from "a" + "\0b"
    fields = [(k.country_code, k.admin1, k.admin2, k.region_id) for k in keys]
    distinct = sorted(set(fields))
    rank = {f: i for i, f in enumerate(distinct)}
    key = np.array([rank[f] for f in fields], np.int64)[region]
    # a key's name rank: the rank of the first key with its (country, admin1, admin2)
    first: dict[tuple, int] = {}
    name_rank = np.array([first.setdefault(f[:3], i) for i, f in enumerate(distinct)])
    order = np.lexsort((key, day, name_rank[key]))
    key, day = key[order], day[order]
    starts, counts = runs(len(order), key, day)
    values = segment_sort(m_max[order], starts, counts)
    mean, m50, q1, q3 = segment_stats(values, starts, counts)
    group_key, group_day = key[starts], day[starts]

    # day 0, 1970-01-01, was a Thursday, so (day + 3) % 7 is the weekday, Monday 0
    window = np.flatnonzero((group_day >= date_to_day_number(DEFAULT_BASELINE_START))
                            & (group_day <= date_to_day_number(DEFAULT_BASELINE_END))
                            & ((group_day + 3) % 7 < 5))
    by_key = window[np.lexsort((m50[window], group_key[window]))]
    w_starts, w_counts = runs(len(by_key), group_key[by_key])
    # np.median's arithmetic, not the lerp that gives m50: (a + b) / 2 of the
    # middle two; np.median itself imports numpy.ma on its first call (about 15 ms)
    norm = np.zeros(len(distinct))
    norm[group_key[by_key[w_starts]]] = (m50[by_key[w_starts + (w_counts - 1) // 2]]
                                         + m50[by_key[w_starts + w_counts // 2]]) / 2
    group_norm = norm[group_key]
    with np.errstate(all="ignore"):
        ratio = 100.0 * m50 / group_norm
    # no baseline (a zero norm), or a ratio past the float range: a null index
    indexed = (group_norm > 0.0) & np.isfinite(ratio)
    m50_index = np.full(len(starts), None, object)
    m50_index[indexed] = ratio[indexed]

    heads = [(c, "admin2" if a2 else "admin1", a1, a2, r) for c, a1, a2, r in distinct]
    # not np.unique, which imports numpy.ma (8-15 ms)
    iso = {d: day_number_to_date(d).isoformat() for d in set(group_day.tolist())}
    return [
        OutputRecord(*heads[k], iso[d], n, median, index, avg, lower, upper)
        for k, d, n, median, index, avg, lower, upper in zip(
            *(c.tolist() for c in (group_key, group_day, counts, m50, m50_index, mean, q1, q3)))
    ]
