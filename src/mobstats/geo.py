"""Spherical and planar geometry underlying the mobility measures.

Distances are great-circle kilometers on a sphere of mean radius
6371.0088 km. Areas are plain floats in square degrees; the published
conversion ``111 * sqrt(area) * cos(latitude)`` turns them into a linear
kilometer measure and is applied verbatim, cos factor outside the root.

Longitude handling: point sets whose raw longitude span exceeds 180° are
assumed to straddle the antimeridian and are unwrapped (negative
longitudes shifted by +360) before any box or hull computation, so a
device near ±180° does not produce a near-global bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0088  # IUGG mean radius
KM_PER_DEGREE = 111.0  # constant used by the linear-distance conversion


def lat_ok(lat):
    """|lat| <= 90, on a float or element-wise on an array; nan fails."""
    return abs(lat) <= 90.0


def lon_ok(lon):
    """|lon| <= 180, on a float or element-wise on an array; nan fails."""
    return abs(lon) <= 180.0


def fold_lon(lon):
    """lon 180 as -180, the same meridian; on a float or element-wise on an array."""
    return lon - 360.0 * (lon == 180.0)


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A coordinate passing lat_ok and lon_ok, its lon folded by fold_lon, or ValueError."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (lat_ok(self.lat) and lon_ok(self.lon)):
            raise ValueError(f"coordinate out of range: lat {self.lat!r}, lon {self.lon!r}")
        object.__setattr__(self, "lon", fold_lon(self.lon))


def haversine_km_arr(lat0, lon0, lats: np.ndarray, lons: np.ndarray, cos_lat0=None) -> np.ndarray:
    """Vectorized haversine: distances from anchors to many points, in km.

    The anchor (lat0, lon0) is one point, or one per point as arrays; then
    cos_lat0 must hold each anchor's math.cos(math.radians(lat0)). The
    anchor cosine stays on math.cos in both forms, so a distance does not
    depend on which form computed it.
    """
    if cos_lat0 is None:
        cos_lat0 = math.cos(math.radians(lat0))
    phis = np.radians(lats)
    dphi = np.radians(lats - lat0)
    dlam = np.radians(lons - lon0)
    h = np.sin(dphi / 2.0) ** 2 + cos_lat0 * np.cos(phis) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def solar_tz_offset_hours(lon: float) -> int:
    """Approximate solar timezone offset: round(lon / 15), half away from zero."""
    x = lon / 15.0
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def unwrap_lonlat(lonlat: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Unwrap planar (lon, lat) tuples across the antimeridian.

    If the raw longitude span exceeds 180°, every negative longitude gets
    +360 so the set is contiguous; resulting x values may lie in [0, 360).
    """
    lons = [x for x, _ in lonlat]
    if max(lons) - min(lons) > 180.0:
        return [(x + 360.0 if x < 0.0 else x, y) for x, y in lonlat]
    return list(lonlat)


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_xy(lonlat: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull of planar (lon, lat) tuples; no antimeridian handling.

    Monotone chain. Returns hull vertices counterclockwise starting from the
    lexicographically smallest, with duplicates and collinear interior points
    excluded. Degenerate inputs yield 1- or 2-point "hulls".
    """
    if not lonlat:
        raise ValueError("no points")
    pts = sorted(set(lonlat))
    if len(pts) <= 2:
        return pts

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        return [pts[0], pts[-1]]
    return hull


def polygon_area(vertices: Sequence[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon (open ring), in square degrees.

    Coordinates are translated to the first vertex before accumulating;
    small polygons far from the origin would otherwise lose most of their
    precision to cancellation.
    """
    n = len(vertices)
    if n < 3:
        return 0.0
    x0, y0 = vertices[0]
    acc = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return abs(acc) / 2.0


def area_to_linear_km(area: float, lat: float) -> float:
    """Convert a square-degree area to the published linear km measure.

    Applies 111 * sqrt(area) * cos(lat) exactly as printed, with the cosine
    outside the square root.
    """
    if area < 0.0:
        raise ValueError(f"negative area: {area!r}")
    return KM_PER_DEGREE * math.sqrt(area) * math.cos(math.radians(lat))
