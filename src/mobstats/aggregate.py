"""Reduction of device-day metrics into per-(region, date) statistics.

m50 is the median across a region-date's eligible device-days of the
trimmed max-distance measure; m50_index = 100 * m50 / m50_norm, where
m50_norm is the region's median weekday m50 inside the baseline window.
Quartiles use linear interpolation at p * (n - 1) between order
statistics. Sample lists are value-sorted before any arithmetic so
results do not depend on arrival order.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .geocode import RegionKey

DEFAULT_BASELINE_START = dt.date(2020, 2, 17)
DEFAULT_BASELINE_END = dt.date(2020, 3, 7)


@dataclass(frozen=True, slots=True)
class MetricStats:
    mean: float
    median: float
    q1: float
    q3: float


@dataclass(slots=True)
class RegionDayStats:
    region: RegionKey
    date: dt.date
    samples: int
    m_max: MetricStats
    m50: float
    m50_index: float | None = None


def summarize(values_sorted: np.ndarray) -> MetricStats:
    """Mean, median and quartiles of an ascending-sorted sample array."""
    q1, median, q3 = np.quantile(values_sorted, (0.25, 0.5, 0.75))
    return MetricStats(float(values_sorted.mean()), float(median), float(q1), float(q3))


def reduce_region_day(
    records: Iterable[tuple[RegionKey, dt.date, float]],
) -> dict[tuple[RegionKey, dt.date], RegionDayStats]:
    """Group device-day m_max values by (region, date) and compute exact statistics.

    Order independent: the same multiset of records yields identical output
    however the stream is shuffled.
    """
    groups: dict[tuple[RegionKey, dt.date], list[float]] = {}
    for region, date, m_max in records:
        groups.setdefault((region, date), []).append(m_max)

    out: dict[tuple[RegionKey, dt.date], RegionDayStats] = {}
    for key, values in groups.items():
        stats = summarize(np.sort(np.array(values)))
        out[key] = RegionDayStats(
            region=key[0], date=key[1], samples=len(values), m_max=stats, m50=stats.median
        )
    return out


def compute_baseline(
    stats: Iterable[RegionDayStats],
    start: dt.date = DEFAULT_BASELINE_START,
    end: dt.date = DEFAULT_BASELINE_END,
) -> dict[RegionKey, float]:
    """Per-region m50_norm: median weekday m50 over dates in [start, end].

    Regions with no weekday data in the window, or whose norm is zero, are
    absent from the table (an index against them would be undefined).
    """
    check_baseline_window(start, end)
    window: dict[RegionKey, list[float]] = {}
    for s in stats:
        if start <= s.date <= end and s.date.weekday() < 5:
            window.setdefault(s.region, []).append(s.m50)
    table: dict[RegionKey, float] = {}
    for region, values in window.items():
        norm = float(np.median(np.sort(np.array(values))))
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


def apply_index(
    stats: RegionDayStats, baseline: dict[RegionKey, float]
) -> RegionDayStats:
    """Fill m50_index in place when the region has a baseline."""
    norm = baseline.get(stats.region)
    if norm is not None:
        stats.m50_index = 100.0 * stats.m50 / norm
    return stats
