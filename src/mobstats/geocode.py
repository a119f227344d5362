"""Reverse geocoding against a local gazetteer file.

The gazetteer is plain UTF-8 NDJSON: region records carry one or more
closed polygon rings as [lon, lat] pairs, place records are named points.
Containment uses even-odd ray casting with boundary points counting as
inside; when several regions contain a point, the deepest admin level
wins, then the smallest bounding box, the smallest region_id and the
first listed. The loader lists the regions in that winner order and turns
them into arrays (one edge table, bounding boxes and a CSR grid over the
boxes), so locate geocodes an array of points in one pass over them and
takes the lowest containing index. A loaded gazetteer also holds the
output key table: every region's key and admin1 twin, numbered once, and
each region's row of key indices, so gather workers can hand the reduce
integer key indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .collate import ranges
from .errors import DataError, numbered_lines
from .geo import GeoPoint, lat_ok, lon_ok

# (point, edge) rows per pass of the edge kernel: bounds locate's transient arrays
EDGE_ROWS = 1 << 14


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
    rings: list  # closed rings of [lon, lat] points, as (n, 2) float arrays when loaded


@dataclass(frozen=True, slots=True)
class Place:
    name: str
    lat: float
    lon: float
    region: RegionKey


def _grid_cell(v: np.ndarray, v0: float, step: float, n: int) -> np.ndarray:
    """Cell index of coordinates v >= v0: floor((v - v0) / step), at most n - 1."""
    return np.minimum((v - v0) / step, n - 1).astype(np.intp)


@dataclass(slots=True)
class RegionGrid:
    """A uniform n-by-n grid over the union of the regions' bounding boxes, as CSR.

    Cell c = j * n + i (column i, row j) lists cell_regions[cell_ptr[c]:
    cell_ptr[c + 1]]: the indices, in gazetteer order, of the regions whose
    bounding box touches it. Cell indices are monotone in the coordinate,
    so a point inside a region's bounding box lies in one of that region's
    cells.
    """

    bounds: tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat
    step: tuple[float, float]
    n: int
    cell_ptr: np.ndarray
    cell_regions: np.ndarray

    @classmethod
    def build(cls, bbox: np.ndarray) -> "RegionGrid":
        """The grid over the regions' (R, 4) bounding box rows, R >= 1."""
        x0, y0 = bbox[:, :2].min(axis=0).tolist()
        x1, y1 = bbox[:, 2:].max(axis=0).tolist()
        n = max(1, round(math.sqrt(len(bbox))))
        # a zero extent gets any positive step: every coordinate maps to cell 0
        step = ((x1 - x0) / n or 1.0, (y1 - y0) / n or 1.0)
        i0, i1 = (_grid_cell(bbox[:, c], x0, step[0], n) for c in (0, 2))
        j0, j1 = (_grid_cell(bbox[:, c], y0, step[1], n) for c in (1, 3))
        width, size = i1 - i0 + 1, (i1 - i0 + 1) * (j1 - j0 + 1)
        region = np.repeat(np.arange(len(bbox)), size)
        k = ranges(np.zeros_like(size), size)
        cell = (j0[region] + k // width[region]) * n + i0[region] + k % width[region]
        cell_ptr = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=n * n))))
        return cls((x0, y0, x1, y1), step, n, cell_ptr, region[np.argsort(cell, kind="stable")])


@dataclass(slots=True)
class Gazetteer:
    # in winner order: deepest level, smallest bbox area, smallest region_id, first listed
    regions: list[Region]
    places: list[Place]
    # row r for region r: its bounding box (min_lon, min_lat, max_lon, max_lat),
    # and its ring edges (x1, y1, x2, y2) at edges[edge_ptr[r]:edge_ptr[r + 1]]
    bbox: np.ndarray
    edges: np.ndarray
    edge_ptr: np.ndarray
    grid: RegionGrid
    # the output key table: every region's key, then the admin1 twins no region holds
    keys: list[RegionKey]
    # row r, for region r: the key indices a device-day in that region feeds,
    # its admin1 twin's and, for a county, its own (-1 otherwise)
    key_rows: np.ndarray


def _key_table(listed: list[RegionKey]) -> tuple[list[RegionKey], np.ndarray]:
    """(keys, key_rows) of the region keys as listed in the file, as Gazetteer describes them.

    A region's admin1 twin is the key of the last listed admin1 record with
    its (country_code, admin1) when the region has an admin1 (region_id ""
    when the gazetteer holds no such record), else the region itself: a
    country-only region counts at admin1 level.
    """
    a1_ids = {(k.country_code, k.admin1): k.region_id for k in listed if k.level == 1}
    key_index: dict[RegionKey, int] = {}
    for key in listed:
        key_index.setdefault(key, len(key_index))
    rows = []
    for key in listed:
        twin = key
        if key.admin1:
            a1_id = a1_ids.get((key.country_code, key.admin1), "")
            twin = RegionKey(key.country_code, key.admin1, "", a1_id)
        rows.append((key_index.setdefault(twin, len(key_index)),
                     key_index[key] if key.admin2 else -1))
    return list(key_index), np.array(rows, np.int32)


def _validate_ring(ring: list, region_id: str) -> np.ndarray:
    if not isinstance(ring, list):
        raise DataError(f"region {region_id}: ring is not a list of points: {ring!r}")
    if len(ring) < 4:
        raise DataError(f"region {region_id}: ring has fewer than 4 points")
    try:
        pts = np.array(ring, float)
    except (TypeError, ValueError, OverflowError) as e:
        raise DataError(f"region {region_id}: bad ring point: {e}") from None
    if pts.shape != (len(ring), 2) or not (lon_ok(pts[:, 0]) & lat_ok(pts[:, 1])).all():
        raise DataError(f"region {region_id}: bad ring point: not a [lon, lat] pair "
                        "in [-180, 180] x [-90, 90]")
    # float() reads a JSON true as 1.0 and "1.5" as 1.5
    if not set(map(type, chain.from_iterable(ring))) <= {int, float}:
        raise DataError(f"region {region_id}: bad ring point: a coordinate is not a number")
    if (pts[0] != pts[-1]).any():
        raise DataError(f"region {region_id}: ring is not closed")
    return pts


def _validate_key(rec: dict) -> RegionKey:
    cc = rec.get("country_code", "")
    rid = rec.get("region_id", "")
    if not isinstance(rid, str):
        raise DataError(f"region {rid!r}: region_id is not a string")
    if (not isinstance(cc, str) or len(cc) != 2 or not cc.isascii() or not cc.isalpha()
            or not cc.isupper()):
        raise DataError(f"region {rid}: bad country_code {cc!r}")
    # a missing or null admin name is "" (that level absent); any other non-string is an error
    admin1, admin2 = ("" if rec.get(name) is None else rec[name] for name in ("admin1", "admin2"))
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
    rid = rec.get("region_id", "")
    if not isinstance(name, str) or not isinstance(rid, str):
        raise DataError(f"{where}: name and region_id must be strings, region_id {rid!r}")
    if rid not in by_id:
        raise DataError(f"{where}: unknown region_id {rid!r}")
    try:
        lat, lon = float(rec["lat"]), float(rec["lon"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"{where}: missing or non-numeric lat/lon: {e!r}") from None
    if not (lat_ok(lat) and lon_ok(lon)):
        raise DataError(f"{where}: lat/lon out of range: {lat}, {lon}")
    return Place(name, lat, lon, by_id[rid])


def load_gazetteer(path: str) -> Gazetteer:
    """Load and validate a gazetteer file; raises DataError naming the bad record.

    A file without a region record is a DataError too.

    Decoding is strict UTF-8, because region ids and names flow into the outputs.
    """
    parsed: list[tuple[RegionKey, list[np.ndarray]]] = []
    places_raw: list[tuple[int, dict]] = []
    with open(path, encoding="utf-8") as fh:
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
                parsed.append((key, rings))
            elif kind == "place":
                places_raw.append((lineno, rec))
            else:
                raise DataError(f"gazetteer line {lineno}: unknown record type {kind!r}")

    if not parsed:
        # a gazetteer that can match nothing is almost surely a wrong path
        raise DataError(f"gazetteer {path}: no region records")
    # the maps from ids are built in file order, where the last listed record wins
    regions = [Region(key, rings) for key, rings in parsed]
    by_id = {r.key.region_id: r.key for r in regions}
    places = [_validate_place(rec, lineno, by_id) for lineno, rec in places_raw]
    keys, key_rows = _key_table([key for key, _ in parsed])

    edges = _ring_edges([ring for r in regions for ring in r.rings])
    # every ring point but the closing one starts an edge
    n_edges = np.array([sum(len(ring) - 1 for ring in r.rings) for r in regions])
    starts = np.cumsum(n_edges) - n_edges
    bbox = np.hstack((np.minimum.reduceat(edges[:, :2], starts),
                      np.maximum.reduceat(edges[:, :2], starts)))
    area = ((bbox[:, 2] - bbox[:, 0]) * (bbox[:, 3] - bbox[:, 1])).tolist()
    order = sorted(range(len(regions)), key=lambda r: (
        -regions[r].key.level, area[r], regions[r].key.region_id, r))
    return Gazetteer([regions[r] for r in order], places, bbox[order],
                     edges[ranges(starts[order], n_edges[order])],
                     np.concatenate(([0], np.cumsum(n_edges[order]))),
                     RegionGrid.build(bbox[order]), keys, key_rows[order])


def _ring_edges(rings: list) -> np.ndarray:
    """The (E, 4) edge rows (x1, y1, x2, y2) of closed rings, ring after ring."""
    pts = np.concatenate(rings, dtype=float)
    seams = np.cumsum([len(r) for r in rings], dtype=np.intp)[:-1] - 1
    return np.delete(np.hstack((pts[:-1], pts[1:])), seams, axis=0)


@np.errstate(over="ignore", invalid="ignore")
def _edge_hits(x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(on the edge, crosses the ray to +x) for each row k: point (x[k], y[k]), edge k.

    The tests and their operand order are those of a scalar loop over the
    ring's edges, so the floats are too: the point is on the edge when
    (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) is 0.0 and the point is in
    the edge's bounding box; the edge crosses the ray when
    (y1 > y) != (y2 > y) and x1 + (y - y1) * (x2 - x1) / (y2 - y1) > x.
    """
    x1, y1, x2, y2 = edges.T
    on = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) == 0.0
    k = np.flatnonzero(on)
    on[k] = ((np.minimum(x1[k], x2[k]) <= x[k]) & (x[k] <= np.maximum(x1[k], x2[k]))
             & (np.minimum(y1[k], y2[k]) <= y[k]) & (y[k] <= np.maximum(y1[k], y2[k])))
    crossing = (y1 > y) != (y2 > y)
    k = np.flatnonzero(crossing)
    crossing[k] = x1[k] + (y[k] - y1[k]) * (x2[k] - x1[k]) / (y2[k] - y1[k]) > x[k]
    return on, crossing


def _pairs_inside(x: np.ndarray, y: np.ndarray, edges: np.ndarray, start: np.ndarray,
                  count: np.ndarray) -> np.ndarray:
    """Whether point (x[k], y[k]) is inside the rings of edges[start[k]:start[k] + count[k]].

    Even-odd over all the rings, boundary inclusive. Holes need no special
    casing: a point inside a hole ring crosses an even number of edges in
    total. The pairs go through the kernel in runs of about EDGE_ROWS
    (point, edge) rows.
    """
    inside = np.zeros(len(x), bool)
    ends = np.cumsum(count)
    lo = 0
    while lo < len(x):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + EDGE_ROWS, "right")))
        pair = np.repeat(np.arange(hi - lo), count[lo:hi])
        on, crossing = _edge_hits(x[lo:hi][pair], y[lo:hi][pair],
                                  edges[ranges(start[lo:hi], count[lo:hi])])
        inside[lo:hi] = ((np.bincount(pair[on], minlength=hi - lo) > 0)
                         | (np.bincount(pair[crossing], minlength=hi - lo) % 2 == 1))
        lo = hi
    return inside


def locate(gaz: Gazetteer, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """The int32 index into gaz.regions of the most specific region holding each point.

    -1 where no region holds it. Each point's grid cell lists its candidate
    regions; those whose bounding box holds the point go through the edge
    kernel, and the lowest index among the regions that contain it wins.
    """
    x, y = np.asarray(lon, float), np.asarray(lat, float)
    grid = gaz.grid
    (x0, y0, x1, y1), n = grid.bounds, grid.n
    point = np.flatnonzero((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
    cell = _grid_cell(y[point], y0, grid.step[1], n) * n + _grid_cell(x[point], x0, grid.step[0], n)
    n_candidates = grid.cell_ptr[cell + 1] - grid.cell_ptr[cell]
    point = np.repeat(point, n_candidates)
    region = grid.cell_regions[ranges(grid.cell_ptr[cell], n_candidates)]
    px, py, (bx0, by0, bx1, by1) = x[point], y[point], gaz.bbox[region].T
    boxed = np.flatnonzero((bx0 <= px) & (px <= bx1) & (by0 <= py) & (py <= by1))
    point, region = point[boxed], region[boxed]
    start = gaz.edge_ptr[region]
    inside = _pairs_inside(px[boxed], py[boxed], gaz.edges, start, gaz.edge_ptr[region + 1] - start)
    best = np.full(len(x), len(gaz.regions), np.intp)
    np.minimum.at(best, point[inside], region[inside])
    best[best == len(gaz.regions)] = -1
    return best.astype(np.int32)


def reverse_geocode(gaz: Gazetteer, p: GeoPoint) -> RegionKey | None:
    """Most specific region containing p, or None when nothing matches."""
    r = int(locate(gaz, np.array([p.lat]), np.array([p.lon]))[0])
    return gaz.regions[r].key if r >= 0 else None
