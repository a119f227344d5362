"""Per-device-day eligibility rules and mobility measures.

The pipeline publishes one measure per eligible device-day: the trimmed
maximum haversine distance from the day's first report (m_max). The
linearized bounding box and convex hull measures (m_bb, m_ch), obtained
from square-degree areas via 111 * sqrt(area) * cos(mean latitude), are
library measures checked against the oracle; no pipeline output uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collate import DayReport, DeviceDay
from .geo import (
    GeoPoint,
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


@dataclass(frozen=True, slots=True)
class MobilityMetrics:
    m_max: float
    m_bb: float
    m_ch: float
    a_bb: float
    a_ch: float
    report_count: int
    span_hours: float
    canonical_point: GeoPoint


def span_hours(dd: DeviceDay) -> float:
    """Hours between the day's first and last report."""
    return (dd.reports[-1][0] - dd.reports[0][0]) / 3600.0


def rejection_reason(
    dd: DeviceDay,
    min_reports: int = DEFAULT_MIN_REPORTS,
    min_span_hours: float = DEFAULT_MIN_SPAN_HOURS,
) -> str | None:
    """None if the device-day is eligible, otherwise the rejection reason.

    Too few reports is checked before short span; both boundaries are
    inclusive (exactly min_reports reports or exactly min_span_hours pass).
    The span is compared in seconds against min_span_hours * 3600, the
    oracle's form: dividing instead rounds differently at some boundaries
    (3,960 s against 1.1 h).
    """
    if len(dd.reports) < min_reports:
        return REASON_TOO_FEW
    if dd.reports[-1][0] - dd.reports[0][0] < min_span_hours * 3600.0:
        return REASON_SHORT_SPAN
    return None


def trimmed_max_distance(distances_km: np.ndarray, trim_fraction: float) -> float:
    """Largest distance after dropping the top floor(trim_fraction * n) values."""
    n = distances_km.shape[0]
    k = int(trim_fraction * n)
    if k == 0:
        return float(distances_km.max())
    return float(np.sort(distances_km)[n - 1 - k])


def day_max_distance(rows: Sequence[DayReport], trim_fraction: float) -> float:
    """Trimmed maximum haversine distance (km) from the first row."""
    lat0, lon0 = rows[0][1], rows[0][2]
    lats = np.array([r[1] for r in rows])
    lons = np.array([r[2] for r in rows])
    return trimmed_max_distance(haversine_km_arr(lat0, lon0, lats, lons), trim_fraction)


def day_box_and_hull(rows: Sequence[DayReport]) -> tuple[float, float, float, float]:
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


def canonical_position(dd: DeviceDay) -> GeoPoint:
    """The day's representative point: its first report (canonical sort order)."""
    first = dd.reports[0]
    return GeoPoint(first[1], first[2])


def compute_metrics(dd: DeviceDay, trim_fraction: float = DEFAULT_TRIM_FRACTION) -> MobilityMetrics:
    """Full metrics for an eligible device-day; eligibility is the caller's check."""
    m_bb, m_ch, a_bb, a_ch = day_box_and_hull(dd.reports)
    return MobilityMetrics(
        m_max=day_max_distance(dd.reports, trim_fraction),
        m_bb=m_bb,
        m_ch=m_ch,
        a_bb=a_bb,
        a_ch=a_ch,
        report_count=len(dd.reports),
        span_hours=span_hours(dd),
        canonical_point=canonical_position(dd),
    )
