"""Per-device-day eligibility rules and mobility measures, one kernel per rule.

The kernels take only data and apply the method's fixed DEFAULT_*
constants themselves. The pipeline publishes one measure per eligible
device-day: the trimmed maximum haversine distance from the day's first
report (m_max), computed for a bucket's days at once by day_max_distances.
day_box_and_hull gives a day's linearized bounding box and convex hull
measures (m_bb, m_ch), obtained from square-degree areas via 111 *
sqrt(area) * cos(mean latitude); they are library measures checked
against the oracle, and no pipeline output uses them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .collate import ranges, segment_sort
from .geo import (
    area_to_linear_km,
    convex_hull_xy,
    haversine_km_arr,
    polygon_area,
    unwrap_lonlat,
)

DEFAULT_MIN_REPORTS = 10
DEFAULT_MIN_SPAN_HOURS = 8.0
DEFAULT_TRIM_FRACTION = 0.10

REASON_TOO_FEW = "too_few_reports"
REASON_SHORT_SPAN = "short_span"

# one report of a device-day: (epoch_s, lat, lon, accuracy_m)
DayRow = tuple[int, float, float, float]


def day_rejections(counts, spans_s):
    """Per device-day (too_few, short_span) masks; a day in neither is eligible.

    counts and spans_s (last minus first epoch) are arrays with one entry per
    device-day. Too few reports is checked before short span; both
    boundaries are inclusive (exactly DEFAULT_MIN_REPORTS reports or exactly
    DEFAULT_MIN_SPAN_HOURS pass). The span is compared in seconds against
    hours * 3600, the oracle's form: dividing instead rounds differently at
    some boundaries (3,960 s against 1.1 h).
    """
    too_few = counts < DEFAULT_MIN_REPORTS
    short_span = ~too_few & (spans_s < DEFAULT_MIN_SPAN_HOURS * 3600.0)
    return too_few, short_span


def segment_trimmed_max(distances_km: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                        trim_fraction: float) -> np.ndarray:
    """Per segment, the largest distance after dropping its top floor(trim_fraction * n).

    Segment i is distances_km[starts[i] : starts[i] + counts[i]]; segments
    do not overlap.
    """
    k = (trim_fraction * counts).astype(np.int64)
    return segment_sort(distances_km, starts, counts)[starts + counts - 1 - k]


def day_max_distances(lat: np.ndarray, lon: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
    """m_max of each device-day: the maximum haversine distance (km) from its first
    row after dropping its top floor(DEFAULT_TRIM_FRACTION * n).

    Device-day i is rows starts[i] : starts[i] + counts[i] of the lat/lon
    columns; the days need not be adjacent.
    """
    rows = ranges(starts, counts)
    offsets = np.cumsum(counts) - counts
    anchor_lat, anchor_lon = lat[starts], lon[starts]
    cos_lat0 = np.array([math.cos(math.radians(a)) for a in anchor_lat.tolist()])
    distances = haversine_km_arr(
        np.repeat(anchor_lat, counts), np.repeat(anchor_lon, counts),
        lat[rows], lon[rows], np.repeat(cos_lat0, counts),
    )
    return segment_trimmed_max(distances, offsets, counts, DEFAULT_TRIM_FRACTION)


def day_box_and_hull(rows: Sequence[DayRow]) -> tuple[float, float, float, float]:
    """(m_bb, m_ch, a_bb, a_ch) for a day's full row set.

    Trimming applies to the max-distance measure only; every accepted
    report participates in the areas. The hull area is capped at the box
    area so the pair stays ordered under floating point.
    """
    pts = unwrap_lonlat([(r[2], r[1]) for r in rows])
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    a_bb = (max(xs) - min(xs)) * (max(ys) - min(ys))
    a_ch = min(polygon_area(convex_hull_xy(pts)), a_bb)
    mean_lat = sum(r[1] for r in rows) / len(rows)
    return (
        area_to_linear_km(a_bb, mean_lat),
        area_to_linear_km(a_ch, mean_lat),
        a_bb,
        a_ch,
    )
