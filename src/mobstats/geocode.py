"""Reverse geocoding against a local gazetteer file.

The gazetteer is newline-delimited JSON: region records carry one or more
closed polygon rings as [lon, lat] pairs, place records are named points.
Containment uses even-odd ray casting with boundary points counting as
inside; when several regions contain a point, the deepest admin level
wins, then the smallest bounding box, then the smallest region_id. A
uniform grid over the regions' bounding boxes limits each lookup to the
regions listed in the point's cell. A loaded gazetteer also holds the
output key table: every region's key and admin1 twin, numbered once, so
gather workers can hand the reduce integer key indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, numbered_lines
from .geo import GeoPoint
from .ingest import gzip_errors_as_io, open_shard_text

Ring = list[tuple[float, float]]


@dataclass(frozen=True, slots=True)
class RegionKey:
    country_code: str
    admin1: str
    admin2: str
    region_id: str

    @property
    def level(self) -> int:
        """0 = country only, 1 = admin1, 2 = admin2."""
        if self.admin2:
            return 2
        if self.admin1:
            return 1
        return 0


@dataclass(slots=True)
class Region:
    key: RegionKey
    rings: list[Ring]
    bbox: tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat
    bbox_area: float


@dataclass(frozen=True, slots=True)
class Place:
    name: str
    lat: float
    lon: float
    region: RegionKey


def _grid_cell(v: float, v0: float, step: float, n: int) -> int:
    """Cell index of coordinate v >= v0: floor((v - v0) / step), at most n - 1."""
    t = (v - v0) / step
    return int(t) if t < n - 1 else n - 1


@dataclass(slots=True)
class RegionGrid:
    """A uniform n-by-n grid over the union of the regions' bounding boxes.

    Each cell lists, in gazetteer order, the regions whose bounding box
    touches it. Cell indices are monotone in the coordinate, so a point
    inside a region's bounding box lies in one of that region's cells.
    """

    bounds: tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat
    step: tuple[float, float]
    n: int
    cells: list[list[Region]]

    @classmethod
    def build(cls, regions: list[Region]) -> "RegionGrid":
        if not regions:
            return cls((0.0, 0.0, 0.0, 0.0), (1.0, 1.0), 1, [[]])
        x0 = min(r.bbox[0] for r in regions)
        y0 = min(r.bbox[1] for r in regions)
        x1 = max(r.bbox[2] for r in regions)
        y1 = max(r.bbox[3] for r in regions)
        n = max(1, round(math.sqrt(len(regions))))
        # a zero extent gets any positive step: every coordinate maps to cell 0
        step = ((x1 - x0) / n or 1.0, (y1 - y0) / n or 1.0)
        grid = cls((x0, y0, x1, y1), step, n, [[] for _ in range(n * n)])
        for region in regions:
            bx0, by0, bx1, by1 = region.bbox
            i0, j0 = grid.cell_of(bx0, by0)
            i1, j1 = grid.cell_of(bx1, by1)
            for j in range(j0, j1 + 1):
                for i in range(i0, i1 + 1):
                    grid.cells[j * n + i].append(region)
        return grid

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (_grid_cell(x, self.bounds[0], self.step[0], self.n),
                _grid_cell(y, self.bounds[1], self.step[1], self.n))

    def candidates(self, x: float, y: float) -> list[Region]:
        """The regions whose bounding box may contain (x, y), in gazetteer order."""
        x0, y0, x1, y1 = self.bounds
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            return []
        i, j = self.cell_of(x, y)
        return self.cells[j * self.n + i]


@dataclass(slots=True)
class Gazetteer:
    regions: list[Region]
    places: list[Place]
    admin1_ids: dict[tuple[str, str], str]  # (country_code, admin1) -> region_id
    grid: RegionGrid
    # the output key table: every region's key, then the admin1 twins no region holds
    keys: list[RegionKey]
    key_index: dict[RegionKey, int]
    # row k, for region key k: the key indices a device-day in that region feeds,
    # its admin1 twin's and, for a county, its own (-1 otherwise)
    key_rows: np.ndarray


def _key_table(regions: list[Region], admin1_ids: dict[tuple[str, str], str]):
    """(keys, key_index, key_rows) of a gazetteer, as Gazetteer describes them.

    A region's admin1 twin is the admin1 record's key when the region has an
    admin1 (region_id "" when the gazetteer holds no such record), else the
    region itself: a country-only region counts at admin1 level.
    """
    key_index: dict[RegionKey, int] = {}
    for region in regions:
        key_index.setdefault(region.key, len(key_index))
    rows = []
    for key, k in list(key_index.items()):
        twin = key
        if key.admin1:
            a1_id = admin1_ids.get((key.country_code, key.admin1), "")
            twin = RegionKey(key.country_code, key.admin1, "", a1_id)
        rows.append((key_index.setdefault(twin, len(key_index)), k if key.admin2 else -1))
    return list(key_index), key_index, np.array(rows, np.int32).reshape(-1, 2)


def _validate_ring(ring: list, region_id: str) -> Ring:
    if not isinstance(ring, list):
        raise DataError(f"region {region_id}: ring is not a list of points: {ring!r}")
    if len(ring) < 4:
        raise DataError(f"region {region_id}: ring has fewer than 4 points")
    try:
        pts = [(float(x), float(y)) for x, y in ring]
    except (TypeError, ValueError) as e:
        raise DataError(f"region {region_id}: bad ring point: {e}") from None
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise DataError(f"region {region_id}: ring point is not finite")
    if pts[0] != pts[-1]:
        raise DataError(f"region {region_id}: ring is not closed")
    return pts


def _validate_key(rec: dict) -> RegionKey:
    cc = rec.get("country_code", "")
    rid = str(rec.get("region_id", ""))
    if (not isinstance(cc, str) or len(cc) != 2 or not cc.isascii() or not cc.isalpha()
            or not cc.isupper()):
        raise DataError(f"region {rid}: bad country_code {cc!r}")
    admin1 = rec.get("admin1", "") or ""
    admin2 = rec.get("admin2", "") or ""
    for name, value in (("admin1", admin1), ("admin2", admin2)):
        if not isinstance(value, str):
            raise DataError(f"region {rid}: {name} is not a string: {value!r}")
    if admin2 and not admin1:
        raise DataError(f"region {rid}: admin2 without admin1")
    return RegionKey(cc, admin1, admin2, rid)


def _validate_place(rec: dict, lineno: int, by_id: dict[str, RegionKey]) -> Place:
    name = rec.get("name")
    where = f"gazetteer line {lineno}: place {name!r}"
    if name is None:
        raise DataError(f"{where}: no name")
    rid = str(rec.get("region_id", ""))
    if rid not in by_id:
        raise DataError(f"{where}: unknown region_id {rid!r}")
    try:
        lat, lon = float(rec["lat"]), float(rec["lon"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{where}: missing or non-numeric lat/lon: {e!r}") from None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise DataError(f"{where}: lat/lon out of range: {lat}, {lon}")
    return Place(str(name), lat, lon, by_id[rid])


def load_gazetteer(path: str) -> Gazetteer:
    """Load and validate a gazetteer file; raises DataError naming the bad record.

    Decoding is strict UTF-8, because region ids and names flow into the outputs.
    """
    regions: list[Region] = []
    places_raw: list[tuple[int, dict]] = []
    with gzip_errors_as_io(path), open_shard_text(path) as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"gazetteer line {lineno}: invalid JSON: {e}") from None
            if not isinstance(rec, dict):
                raise DataError(f"gazetteer line {lineno}: record is not a JSON object")
            kind = rec.get("type")
            if kind == "region":
                key = _validate_key(rec)
                polygons = rec.get("polygons", [])
                if not isinstance(polygons, list):
                    raise DataError(f"region {key.region_id}: polygons is not a list of rings")
                rings = [_validate_ring(r, key.region_id) for r in polygons]
                if not rings:
                    raise DataError(f"region {key.region_id}: no polygons")
                xs = [x for ring in rings for x, _ in ring]
                ys = [y for ring in rings for _, y in ring]
                bbox = (min(xs), min(ys), max(xs), max(ys))
                area = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
                regions.append(Region(key, rings, bbox, area))
            elif kind == "place":
                places_raw.append((lineno, rec))
            else:
                raise DataError(f"gazetteer line {lineno}: unknown record type {kind!r}")

    by_id = {r.key.region_id: r.key for r in regions}
    places = [_validate_place(rec, lineno, by_id) for lineno, rec in places_raw]

    admin1_ids = {
        (r.key.country_code, r.key.admin1): r.key.region_id
        for r in regions
        if r.key.level == 1
    }
    return Gazetteer(regions, places, admin1_ids, RegionGrid.build(regions),
                     *_key_table(regions, admin1_ids))


def point_on_ring_boundary(ring: Ring, x: float, y: float) -> bool:
    """True if (x, y) lies on any edge of the closed ring."""
    for i in range(len(ring) - 1):
        x1, y1 = ring[i]
        x2, y2 = ring[i + 1]
        if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) != 0.0:
            continue
        if min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return True
    return False


def _ray_crossings(ring: Ring, x: float, y: float) -> int:
    crossings = 0
    for i in range(len(ring) - 1):
        x1, y1 = ring[i]
        x2, y2 = ring[i + 1]
        if (y1 > y) != (y2 > y):
            x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_at > x:
                crossings += 1
    return crossings


def region_contains(region: Region, x: float, y: float) -> bool:
    """Even-odd containment over all of the region's rings, boundary inclusive.

    Holes need no special casing: a point inside a hole ring crosses an even
    number of edges in total.
    """
    bx0, by0, bx1, by1 = region.bbox
    if not (bx0 <= x <= bx1 and by0 <= y <= by1):
        return False
    crossings = 0
    for ring in region.rings:
        if point_on_ring_boundary(ring, x, y):
            return True
        crossings += _ray_crossings(ring, x, y)
    return crossings % 2 == 1


def reverse_geocode(gaz: Gazetteer, p: GeoPoint) -> RegionKey | None:
    """Most specific region containing p, or None when nothing matches."""
    best: tuple[int, float, str] | None = None
    best_key: RegionKey | None = None
    for region in gaz.grid.candidates(p.lon, p.lat):
        if not region_contains(region, p.lon, p.lat):
            continue
        rank = (-region.key.level, region.bbox_area, region.key.region_id)
        if best is None or rank < best:
            best = rank
            best_key = region.key
    return best_key

