"""Slow, independent reference implementations used to cross-check the pipeline.

Everything here is deliberately written from scratch against the same
definitions the pipeline implements, with different algorithms and different
accumulation orders: asin-form haversine, hull by supporting lines, area
by fan triangulation, point-in-polygon by winding number.
This module must not import from the fast-path geometry/metrics modules;
correlated bugs would defeat its purpose.

Input device-days are plain ``(epoch_s, lat, lon, accuracy_m)`` tuples.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

_RADIUS_KM = 6371.0088

Row = tuple[int, float, float, float]  # (epoch_s, lat, lon, accuracy_m)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle km via the asin formulation (pipeline uses atan2)."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    s = math.sqrt(
        math.sin((p2 - p1) / 2.0) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2.0) ** 2
    )
    return 2.0 * _RADIUS_KM * math.asin(min(1.0, s))


def solar_offset_hours(lon: float) -> int:
    """round(lon/15) with halves away from zero, written as signed truncation."""
    x = lon / 15.0
    if x >= 0.0:
        return int(x + 0.5)
    return -int(-x + 0.5)


def unwrap_lons(lonlat: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Antimeridian rule, independently restated: span > 180 shifts negatives."""
    lons = [x for x, _ in lonlat]
    if max(lons) - min(lons) > 180.0:
        return [(x + 360.0 if x < 0.0 else x, y) for x, y in lonlat]
    return list(lonlat)


def brute_hull_vertices(points: Sequence[tuple[float, float]]) -> set[tuple[float, float]]:
    """Hull vertex set by supporting lines: p is a vertex iff some other point q
    has every other point r strictly left of the line p -> q, or on it on q's
    side of p (cross(q - p, r - p) > 0, or = 0 with dot(r - p, q - p) > 0).
    O(n^3) work, one (n, n) cross/dot matrix per candidate p.
    """
    arr = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(arr)
    if n <= 2:
        return {tuple(p) for p in arr}

    verts: set[tuple[float, float]] = set()
    for i in range(n):
        p = arr[i]
        d = np.delete(arr, i, axis=0) - p
        # row q, column r: the r = q diagonal has cross 0 and dot |q - p|^2 > 0
        cross = np.outer(d[:, 0], d[:, 1]) - np.outer(d[:, 1], d[:, 0])
        dot = np.outer(d[:, 0], d[:, 0]) + np.outer(d[:, 1], d[:, 1])
        supporting = ((cross > 0.0) | ((cross == 0.0) & (dot > 0.0))).all(axis=1)
        if supporting.any():
            verts.add((float(p[0]), float(p[1])))
    return verts


def order_hull(vertices: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Order a convex vertex set counterclockwise by angle about the centroid."""
    vs = list(vertices)
    if len(vs) <= 2:
        return sorted(vs)
    cx = sum(x for x, _ in vs) / len(vs)
    cy = sum(y for _, y in vs) / len(vs)
    return sorted(vs, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))


def fan_area(ordered: Sequence[tuple[float, float]]) -> float:
    """Polygon area by fan triangulation from vertex 0 (not shoelace)."""
    if len(ordered) < 3:
        return 0.0
    x0, y0 = ordered[0]
    acc = 0.0
    for (x1, y1), (x2, y2) in zip(ordered[1:], ordered[2:]):
        acc += (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    return abs(acc) / 2.0


def winding_number_contains(ring: Sequence[tuple[float, float]], x: float, y: float) -> bool:
    """Winding-number point-in-polygon for a closed ring of (x, y) vertices.

    Points exactly on an edge count as inside, matching the pipeline's
    boundary-inclusive contract.
    """
    wn = 0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        side = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if side == 0.0 and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return True
        if y1 <= y:
            if y2 > y and side > 0.0:
                wn += 1
        elif y2 <= y and side < 0.0:
            wn -= 1
    return wn != 0


def oracle_metrics(
    rows: Sequence[Row],
    *,
    trim_fraction: float = 0.10,
    min_reports: int = 10,
    min_span_hours: float = 8.0,
) -> dict:
    """Reference eligibility verdict and mobility metrics for one device-day.

    Returns a dict with keys: eligible, reason, report_count, span_hours, and
    for eligible days m_max, m_bb, m_ch, a_bb, a_ch, lat, lon (canonical
    position, the day's first report under the (epoch, lat, lon, accuracy)
    order).
    """
    ordered = sorted(rows, key=lambda r: (r[0], r[1], r[2], r[3]))
    n = len(ordered)
    span_s = ordered[-1][0] - ordered[0][0] if n else 0
    out: dict = {
        "report_count": n,
        "span_hours": span_s / 3600.0,
        "eligible": False,
        "reason": None,
    }
    if n < min_reports:
        out["reason"] = "too_few_reports"
        return out
    if span_s < min_span_hours * 3600.0:
        out["reason"] = "short_span"
        return out
    out["eligible"] = True

    lat0, lon0 = ordered[0][1], ordered[0][2]
    dists = sorted(haversine_km(lat0, lon0, r[1], r[2]) for r in ordered)
    k = int(trim_fraction * n)
    out["m_max"] = dists[n - 1 - k]

    lonlat = unwrap_lons([(r[2], r[1]) for r in ordered])
    xs = [x for x, _ in lonlat]
    ys = [y for _, y in lonlat]
    a_bb = (max(xs) - min(xs)) * (max(ys) - min(ys))
    a_ch = fan_area(order_hull(brute_hull_vertices(lonlat)))
    if a_ch > a_bb:
        a_ch = a_bb
    mean_lat = sum(r[1] for r in ordered) / n
    coslat = math.cos(math.radians(mean_lat))
    out["a_bb"] = a_bb
    out["a_ch"] = a_ch
    out["m_bb"] = 111.0 * math.sqrt(a_bb) * coslat
    out["m_ch"] = 111.0 * math.sqrt(a_ch) * coslat
    out["lat"] = lat0
    out["lon"] = lon0
    return out
