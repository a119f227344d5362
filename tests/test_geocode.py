import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapters import contains
from mobstats import geocode, oracle, pipeline
from mobstats.cli import main
from mobstats.errors import DataError
from mobstats.geo import GeoPoint, convex_hull_xy
from mobstats.geocode import RegionKey, _grid_cell, load_gazetteer, locate, reverse_geocode
from mobstats.output import read_ndjson
from mobstats.synth import toy_gazetteer_records, write_toy_gazetteer


def square_ring(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def region_rec(region_id, rings, country="AA", admin1="", admin2="", **extra):
    rec = {"type": "region", "country_code": country, "admin1": admin1,
           "admin2": admin2, "region_id": region_id, "polygons": rings}
    rec.update(extra)
    return rec


def write_gaz(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


@pytest.fixture
def toy(tmp_path):
    return load_gazetteer(write_toy_gazetteer(str(tmp_path / "gaz.ndjson")))


class TestLoadGazetteer:
    def test_single_square(self, tmp_path):
        p = write_gaz(tmp_path / "g.ndjson",
                      [region_rec("R1", [square_ring(0, 0, 2, 2)], admin1="West")])
        gaz = load_gazetteer(p)
        assert len(gaz.regions) == 1
        r = gaz.regions[0]
        assert r.key == RegionKey("AA", "West", "", "R1")
        assert gaz.bbox[0].tolist() == [0.0, 0.0, 2.0, 2.0]
        # an admin1 region is its own twin and feeds no county row
        assert gaz.keys == [r.key] and gaz.key_rows.tolist() == [[0, -1]]

    def test_open_ring_rejected(self, tmp_path):
        ring = [[0, 0], [1, 0], [1, 1], [0, 1]]  # missing the closing point
        p = write_gaz(tmp_path / "g.ndjson", [region_rec("R9", [ring])])
        with pytest.raises(DataError, match="R9"):
            load_gazetteer(p)

    def test_short_ring_rejected(self, tmp_path):
        p = write_gaz(tmp_path / "g.ndjson", [region_rec("R2", [[[0, 0], [1, 1], [0, 0]]])])
        with pytest.raises(DataError, match="fewer than 4"):
            load_gazetteer(p)

    def test_place_with_unknown_region_rejected(self, tmp_path):
        recs = [region_rec("R1", [square_ring(0, 0, 1, 1)]),
                {"type": "place", "name": "Nowhere", "lat": 0.5, "lon": 0.5,
                 "region_id": "missing"}]
        p = write_gaz(tmp_path / "g.ndjson", recs)
        with pytest.raises(DataError, match="Nowhere"):
            load_gazetteer(p)

    @pytest.mark.parametrize("fields", [
        {"lat": 0.5}, {"lon": 0.5}, {"lat": "north", "lon": 0.5}, {"lat": None, "lon": 0.5},
        {"lat": [0.5], "lon": 0.5}, {"lat": 95.0, "lon": 0.5}, {"lat": "nan", "lon": 0.5},
        {"lat": 10 ** 400, "lon": 0.5},
    ])
    def test_place_with_bad_coordinates_rejected(self, tmp_path, fields):
        recs = [region_rec("R1", [square_ring(0, 0, 1, 1)]),
                {"type": "place", "name": "Spot", "region_id": "R1", **fields}]
        p = write_gaz(tmp_path / "g.ndjson", recs)
        with pytest.raises(DataError, match="line 2: place 'Spot'"):
            load_gazetteer(p)

    def test_place_without_name_rejected(self, tmp_path):
        recs = [region_rec("R1", [square_ring(0, 0, 1, 1)]),
                {"type": "place", "lat": 0.5, "lon": 0.5, "region_id": "R1"}]
        p = write_gaz(tmp_path / "g.ndjson", recs)
        with pytest.raises(DataError, match="line 2: .*no name"):
            load_gazetteer(p)

    # a non-string used to pass through str(): region_id 7 named region "7"
    @pytest.mark.parametrize("fields", [
        {"name": 5, "region_id": "R1"}, {"name": ["Spot"], "region_id": "R1"},
        {"name": "Spot", "region_id": 7}, {"name": "Spot", "region_id": None},
    ])
    def test_place_with_non_string_name_or_region_id_rejected(self, tmp_path, fields):
        recs = [region_rec("R1", [square_ring(0, 0, 1, 1)]),
                region_rec("7", [square_ring(2, 0, 3, 1)]),
                {"type": "place", "lat": 0.5, "lon": 0.5, **fields}]
        p = write_gaz(tmp_path / "g.ndjson", recs)
        with pytest.raises(DataError, match="line 3: .*must be strings"):
            load_gazetteer(p)

    def test_non_object_record_rejected(self, tmp_path):
        p = write_gaz(tmp_path / "g.ndjson", [["region", "R1"]])
        with pytest.raises(DataError, match="line 1: record is not a JSON object"):
            load_gazetteer(p)

    def test_non_utf8_gazetteer_rejected(self, tmp_path):
        p = tmp_path / "g.ndjson"
        rec = region_rec("R\u00e9", [square_ring(0, 0, 1, 1)])
        p.write_bytes(json.dumps(rec, ensure_ascii=False).encode("latin-1") + b"\n")
        with pytest.raises(DataError, match="g.ndjson: not valid UTF-8"):
            load_gazetteer(str(p))

    @pytest.mark.parametrize("cc", ["A", "AAA", "aa", "A1", "ÁÉ"])
    def test_bad_country_code_rejected(self, tmp_path, cc):
        p = write_gaz(tmp_path / "g.ndjson",
                      [region_rec("R1", [square_ring(0, 0, 1, 1)], country=cc)])
        with pytest.raises(DataError, match="country_code"):
            load_gazetteer(p)

    def test_admin2_without_admin1_rejected(self, tmp_path):
        p = write_gaz(tmp_path / "g.ndjson",
                      [region_rec("R1", [square_ring(0, 0, 1, 1)], admin2="Orphan")])
        with pytest.raises(DataError, match="admin2 without admin1"):
            load_gazetteer(p)

    def test_region_without_polygons_rejected(self, tmp_path):
        p = write_gaz(tmp_path / "g.ndjson", [region_rec("R1", [])])
        with pytest.raises(DataError, match="no polygons"):
            load_gazetteer(p)

    def test_unknown_record_type_rejected(self, tmp_path):
        p = write_gaz(tmp_path / "g.ndjson", [{"type": "mystery"}])
        with pytest.raises(DataError, match="unknown record type"):
            load_gazetteer(p)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "g.ndjson"
        p.write_text('{"type": "region"\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_gazetteer(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "g.ndjson"
        rec = json.dumps(region_rec("R1", [square_ring(0, 0, 1, 1)]))
        p.write_text("\n" + rec + "\n\n", encoding="utf-8")
        assert len(load_gazetteer(str(p)).regions) == 1

    def test_toy_gazetteer_shape(self, toy):
        # 2 admin1 regions, 4 admin2 counties, 4 places
        assert len(toy.regions) == 6
        assert len(toy.places) == 4
        assert sorted(r.key.admin1 for r in toy.regions if r.key.level == 1) == ["East", "West"]


class TestReverseGeocode:
    def test_centroid_of_admin2(self, toy):
        key = reverse_geocode(toy, GeoPoint(2.0, 2.0))
        assert key is not None
        assert key.level == 2
        assert key.admin1 == "West"

    def test_point_outside_everything(self, toy):
        assert reverse_geocode(toy, GeoPoint(50.0, 50.0)) is None

    def test_admin1_gap_falls_back_to_admin1(self, tmp_path):
        # admin1 spans a 4x4 square but its only admin2 covers the left half
        recs = [
            region_rec("S1", [square_ring(0, 0, 4, 4)], admin1="State"),
            region_rec("C1", [square_ring(0, 0, 2, 4)], admin1="State", admin2="Left"),
        ]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", recs))
        inside_admin2 = reverse_geocode(gaz, GeoPoint(2.0, 1.0))
        assert inside_admin2 == RegionKey("AA", "State", "Left", "C1")
        gap = reverse_geocode(gaz, GeoPoint(2.0, 3.0))
        assert gap == RegionKey("AA", "State", "", "S1")

    def test_deepest_level_wins(self, toy):
        # every county point is also inside its admin1 polygon
        key = reverse_geocode(toy, GeoPoint(-2.0, 6.0))
        assert key.level == 2

    def test_smaller_bbox_breaks_level_tie(self, tmp_path):
        recs = [
            region_rec("BIG", [square_ring(0, 0, 10, 10)], admin1="S", admin2="Big"),
            region_rec("SML", [square_ring(4, 4, 6, 6)], admin1="S", admin2="Small"),
        ]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", recs))
        assert reverse_geocode(gaz, GeoPoint(5.0, 5.0)).region_id == "SML"

    def test_region_id_breaks_full_tie(self, tmp_path):
        ring = square_ring(0, 0, 2, 2)
        recs = [region_rec("B", [ring], admin1="S", admin2="X"),
                region_rec("A", [ring], admin1="S", admin2="Y")]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", recs))
        assert reverse_geocode(gaz, GeoPoint(1.0, 1.0)).region_id == "A"

    def test_boundary_point_counts_as_inside(self, tmp_path):
        gaz = load_gazetteer(write_gaz(
            tmp_path / "g.ndjson", [region_rec("R1", [square_ring(0, 0, 2, 2)])]))
        for lat, lon in [(0.0, 0.0), (0.0, 1.0), (2.0, 2.0), (1.0, 0.0)]:
            assert reverse_geocode(gaz, GeoPoint(lat, lon)) is not None

    def test_hole_excludes_interior(self, tmp_path):
        rings = [square_ring(0, 0, 6, 6), square_ring(2, 2, 4, 4)]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", [region_rec("R1", rings)]))
        # (x, y) = (1, 1), (3, 3) inside the hole, (3, 2) on the hole's boundary, which is
        # the region's boundary
        assert locate(gaz, np.array([1.0, 3.0, 2.0]), np.array([1.0, 3.0, 3.0])).tolist() == \
            [0, -1, 0]

    def test_containment_consistent_on_interior_samples(self, toy):
        rng = random.Random(17)
        key0 = reverse_geocode(toy, GeoPoint(2.0, 2.0))
        for _ in range(50):
            p = GeoPoint(rng.uniform(0.01, 3.99), rng.uniform(0.01, 3.99))
            assert reverse_geocode(toy, p) == key0


class TestPointInPolygonOracle:
    def test_agrees_with_winding_number_on_random_polygons(self):
        rng = random.Random(4321)
        checked = 0
        for _ in range(40):
            # random simple polygon: convex hull of a random cloud
            pts = [(rng.uniform(-30, 30), rng.uniform(-30, 30))[::-1]
                   for _ in range(rng.randint(4, 20))]
            hull = convex_hull_xy(pts)
            if len(hull) < 3:
                continue
            ring = [(x, y) for x, y in hull] + [hull[0]]
            xs = [x for x, _ in ring]
            ys = [y for _, y in ring]
            probes = [(rng.uniform(min(xs) - 1, max(xs) + 1),
                       rng.uniform(min(ys) - 1, max(ys) + 1)) for _ in range(25)]
            for (x, y), got in zip(probes, contains([ring], *zip(*probes))):
                want = oracle.winding_number_contains(ring, x, y)
                assert got == want, (ring, x, y)
                checked += 1
        assert checked >= 900

    def test_agrees_with_winding_number_level_with_vertices(self):
        # a ray through a vertex or along a horizontal edge is the even-odd corner case
        rng = random.Random(99)
        rings = [[(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 2.0), (2.0, 4.0), (0.0, 4.0),
                  (0.0, 0.0)]]
        while len(rings) < 30:
            hull = convex_hull_xy([(rng.uniform(-30, 30), rng.uniform(-30, 30))[::-1]
                                   for _ in range(rng.randint(4, 20))])
            if len(hull) >= 3:
                rings.append([(x, y) for x, y in hull] + [hull[0]])
        checked = 0
        for ring in rings:
            xs, ys = [x for x, _ in ring], [y for _, y in ring]
            probe_xs = xs + [min(xs) - 1, max(xs) + 1] + [rng.uniform(min(xs), max(xs))
                                                          for _ in range(5)]
            probes = [(x, y) for y in ys for x in probe_xs]
            for (x, y), got in zip(probes, contains([ring], *zip(*probes))):
                want = oracle.winding_number_contains(ring, x, y)
                assert got == want, (ring, x, y)
                checked += 1
        assert checked >= 1000

    @given(st.floats(min_value=-1, max_value=3), st.floats(min_value=-1, max_value=3))
    @settings(max_examples=100)
    def test_unit_square_agreement(self, x, y):
        ring = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]
        assert contains([ring], [x], [y]) == [oracle.winding_number_contains(ring, x, y)]


class TestBoundary:
    def test_on_edge(self):
        # a ring and its copy as a hole: even-odd leaves only the boundary inside
        ring = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]
        on_boundary = contains([ring, ring], [1.0, 0.0, 1.0, 3.0], [0.0, 0.0, 1.0, 0.0])
        assert on_boundary[0]
        assert on_boundary[1]
        assert not on_boundary[2]
        assert not on_boundary[3]  # collinear but off-segment


class TestToyGazetteerRecords:
    def test_records_round_trip(self, tmp_path):
        recs = toy_gazetteer_records()
        p = write_gaz(tmp_path / "g.ndjson", recs)
        gaz = load_gazetteer(p)
        assert {r.key.level for r in gaz.regions} == {1, 2}
        # every admin2's twin is its admin1 region's key, and its own row is its key
        admin1_keys = {r.key for r in gaz.regions if r.key.level == 1}
        for r, (twin, own) in zip(gaz.regions, gaz.key_rows.tolist()):
            if r.key.level == 2:
                assert gaz.keys[twin] in admin1_keys
                assert gaz.keys[twin].admin1 == r.key.admin1
                assert gaz.keys[own] == r.key


class TestRegionFieldTypes:
    @pytest.mark.parametrize("fields", [
        {"country_code": 5},
        {"polygons": 7},
        {"polygons": [7]},
        {"admin1": ["A"]},
        {"polygons": [[[0, 0], ["nan", 0], [1, 1], [0, 0]]]},
        {"polygons": [[[0, 0], [1, 0], [1, float("inf")], [0, 0]]]},
        # a float() of this int overflows instead of raising ValueError
        {"polygons": [[[0, 0], [10 ** 400, 0], [1, 1], [0, 0]]]},
        {"polygons": [[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]]]},
        {"polygons": [[[0, 0], [None, 0], [1, 1], [0, 0]]]},
        {"polygons": [[[0, 0], 5, [1, 1], [0, 0]]]},
        {"polygons": [[[0, 0], [1, 0, 0], [1, 1], [0, 0]]]},
        {"polygons": [[0, 0, 0, 0]]},
        {"polygons": [[[[0, 0]], [[1, 0]], [[1, 1]], [[0, 0]]]]},
    ], ids=["country_code_int", "polygons_int", "ring_int", "admin1_list", "nan_point",
            "inf_point", "huge_int_point", "three_coordinates", "null_coordinate",
            "non_list_point", "ragged_ring", "scalar_points", "nested_points"])
    def test_wrong_typed_region_field_rejected(self, tmp_path, fields):
        rec = {**region_rec("R7", [square_ring(0, 0, 1, 1)]), **fields}
        p = write_gaz(tmp_path / "g.ndjson", [rec])
        with pytest.raises(DataError, match="region R7"):
            load_gazetteer(p)

    @pytest.mark.parametrize("region_id", [None, 7, ["a"]], ids=["null", "int", "list"])
    def test_non_string_region_id_rejected(self, tmp_path, region_id):
        # str() of it would have reached the output as "None", "7" or "['a']"
        p = write_gaz(tmp_path / "g.ndjson", [region_rec(region_id, [square_ring(0, 0, 1, 1)])])
        with pytest.raises(DataError, match="region_id is not a string") as e:
            load_gazetteer(p)
        assert f"region {region_id!r}" in str(e.value)

    def test_missing_region_id_is_empty(self, tmp_path):
        rec = region_rec("", [square_ring(0, 0, 1, 1)], admin1="West")
        del rec["region_id"]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", [rec]))
        assert gaz.regions[0].key == RegionKey("AA", "West", "", "")

    @pytest.mark.parametrize("value", [0, False, [], {}], ids=["zero", "false", "list", "dict"])
    @pytest.mark.parametrize("field, admin1", [("admin1", ""), ("admin2", "West")])
    def test_falsy_non_string_admin_name_rejected(self, tmp_path, field, admin1, value):
        # read as "" it would make the record a region one level up
        rec = {**region_rec("R7", [square_ring(0, 0, 1, 1)], admin1=admin1), field: value}
        with pytest.raises(DataError, match=f"region R7: {field} is not a string"):
            load_gazetteer(write_gaz(tmp_path / "g.ndjson", [rec]))

    def test_null_or_missing_admin_name_is_empty(self, tmp_path):
        null = region_rec("R7", [square_ring(0, 0, 1, 1)], admin1=None, admin2=None)
        missing = region_rec("R8", [square_ring(0, 0, 1, 1)], admin1="West")
        del missing["admin2"]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", [null, missing]))
        assert {r.key for r in gaz.regions} == {RegionKey("AA", "", "", "R7"),
                                                RegionKey("AA", "West", "", "R8")}


def linear_scan(gaz, pts):
    """The keys reverse_geocode finds at the (x, y) points, without the grid: every
    region alone, in gazetteer order; None where no region holds the point."""
    x, y = zip(*pts)
    best = [None] * len(pts)
    best_key = [None] * len(pts)
    for region, (x0, y0, x1, y1) in zip(gaz.regions, gaz.bbox.tolist()):
        rank = (-region.key.level, (x1 - x0) * (y1 - y0), region.key.region_id)
        for k, inside in enumerate(contains(region.rings, x, y)):
            if inside and (best[k] is None or rank < best[k]):
                best[k], best_key[k] = rank, region.key
    return best_key


def candidates(gaz, x, y):
    """The region indices the grid's CSR tables list in (x, y)'s cell."""
    grid = gaz.grid
    x0, y0, x1, y1 = grid.bounds
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        return []
    c = (int(_grid_cell(y, y0, grid.step[1], grid.n)) * grid.n
         + int(_grid_cell(x, x0, grid.step[0], grid.n)))
    return grid.cell_regions[grid.cell_ptr[c]:grid.cell_ptr[c + 1]].tolist()


def probe_points(gaz, rng, n_random=300):
    """Ring vertices and edge midpoints, grid cell corners, random points in and around."""
    pts = set()
    for region in gaz.regions:
        for ring in region.rings:
            for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
                pts.add((x1, y1))
                pts.add(((x1 + x2) / 2.0, (y1 + y2) / 2.0))
    grid = gaz.grid
    x0, y0, x1, y1 = grid.bounds
    for i in range(grid.n + 1):
        for j in range(grid.n + 1):
            pts.add((min(x0 + i * grid.step[0], x1), min(y0 + j * grid.step[1], y1)))
    for _ in range(n_random):
        pts.add((rng.uniform(x0 - 1, x1 + 1), rng.uniform(y0 - 1, y1 + 1)))
    return sorted((x, y) for x, y in pts if -180 <= x < 180 and -90 <= y <= 90)


def bench_grid_gazetteer(path):
    """The benchmark's 1,026-region grid gazetteer, written to path."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(perfbench)
        import workloads
    return workloads.write_grid_gazetteer(str(path))


def assert_matches_linear_scan(gaz, pts):
    for (x, y), want in zip(pts, linear_scan(gaz, pts)):
        assert reverse_geocode(gaz, GeoPoint(y, x)) == want, (x, y)


class TestRegionGrid:
    def test_toy_matches_linear_scan(self, toy):
        assert_matches_linear_scan(toy, probe_points(toy, random.Random(5), n_random=2000))

    def test_one_region_matches_linear_scan(self, tmp_path):
        ring = [[0, 0], [3, 1], [1, 2], [0, 0]]
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", [region_rec("R1", [ring])]))
        assert gaz.grid.n == 1
        assert_matches_linear_scan(gaz, probe_points(gaz, random.Random(6)))

    @pytest.mark.parametrize("ring", [
        [[2, 0], [2, 1], [2, 3], [2, 0]],  # zero width
        [[0, 5], [1, 5], [4, 5], [0, 5]],  # zero height
        [[1, 1], [1, 1], [1, 1], [1, 1]],  # a point
    ])
    def test_zero_extent(self, tmp_path, ring):
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", [region_rec("R1", [ring])]))
        assert_matches_linear_scan(gaz, probe_points(gaz, random.Random(7)))
        x, y = ring[1]
        assert reverse_geocode(gaz, GeoPoint(y, x)) is not None

    def test_bench_grid_matches_linear_scan(self, tmp_path):
        gaz = load_gazetteer(bench_grid_gazetteer(tmp_path / "grid.ndjson"))
        assert len(gaz.regions) == 1026
        assert gaz.grid.n == 32
        pts = probe_points(gaz, random.Random(8), n_random=1500)
        bx0, by0, bx1, by1 = gaz.bbox.T
        for x, y in pts:
            # every region whose box holds the point is a candidate, in gazetteer order
            holding = np.flatnonzero((bx0 <= x) & (x <= bx1) & (by0 <= y) & (y <= by1))
            listed = candidates(gaz, x, y)
            assert listed == sorted(listed)
            assert set(holding.tolist()) <= set(listed), (x, y)
        # the full lookup on a sample: random points, corners and one ring in 16
        rng = random.Random(9)
        assert_matches_linear_scan(
            gaz, rng.sample(pts, 1500) + [(bx0.min(), by0.min()), (bx1.max(), by1.max())]
            + [tuple(xy) for region in gaz.regions[::16] for xy in region.rings[0].tolist()])


LOCATE_CASES = ["toy", "one_region", "zero_width", "zero_height", "a_point", "bench_grid"]


def locate_gazetteer(tmp_path, name):
    """The gazetteers of TestRegionGrid, by name."""
    if name == "toy":
        return load_gazetteer(write_toy_gazetteer(str(tmp_path / "gaz.ndjson")))
    if name == "bench_grid":
        return load_gazetteer(bench_grid_gazetteer(tmp_path / "grid.ndjson"))
    ring = {"one_region": [[0, 0], [3, 1], [1, 2], [0, 0]],
            "zero_width": [[2, 0], [2, 1], [2, 3], [2, 0]],
            "zero_height": [[0, 5], [1, 5], [4, 5], [0, 5]],
            "a_point": [[1, 1], [1, 1], [1, 1], [1, 1]]}[name]
    return load_gazetteer(write_gaz(tmp_path / "g.ndjson", [region_rec("R1", [ring])]))


def key_of(gaz, r):
    return gaz.regions[r].key if r >= 0 else None


class TestLocate:
    @pytest.mark.parametrize("name", LOCATE_CASES)
    def test_one_call_matches_linear_scan(self, tmp_path, name):
        gaz = locate_gazetteer(tmp_path, name)
        pts = probe_points(gaz, random.Random(10))
        lon, lat = (np.array(c) for c in zip(*pts))
        got = locate(gaz, lat, lon)
        assert got.dtype == np.int32 and got.shape == (len(pts),)
        # the bench grid has 66,861 probe points; the linear scan checks a sample
        checked = range(len(pts)) if len(pts) < 5000 else \
            random.Random(11).sample(range(len(pts)), 2500)
        for k, want in zip(checked, linear_scan(gaz, [pts[k] for k in checked])):
            assert key_of(gaz, got[k]) == want, pts[k]

    @pytest.mark.parametrize("rows", [1, 7, 100])
    @pytest.mark.parametrize("name", LOCATE_CASES)
    def test_small_edge_row_cap_changes_nothing(self, tmp_path, monkeypatch, name, rows):
        gaz = locate_gazetteer(tmp_path, name)
        pts = probe_points(gaz, random.Random(12))
        pts = random.Random(13).sample(pts, min(len(pts), 800))
        lon, lat = (np.array(c) for c in zip(*pts))
        want = locate(gaz, lat, lon)
        assert (want >= 0).any() and (want < 0).any()
        monkeypatch.setattr(geocode, "EDGE_ROWS", rows)
        assert locate(gaz, lat, lon).tolist() == want.tolist()

    def test_zero_points(self, toy):
        got = locate(toy, np.zeros(0), np.zeros(0))
        assert got.dtype == np.int32 and got.shape == (0,)

    def test_points_outside_the_grid_bounds(self, toy):
        x0, y0, x1, y1 = toy.grid.bounds
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        lon = np.array([x0 - 1, x1 + 1, xm, xm, np.nextafter(x0, -np.inf), x1])
        lat = np.array([ym, ym, y0 - 1, y1 + 1, ym, np.nextafter(y1, np.inf)])
        assert locate(toy, lat, lon).tolist() == [-1] * 6
        assert locate(toy, np.array([ym]), np.array([xm])).tolist() != [-1]

    def test_gazetteer_without_regions(self, tmp_path, monkeypatch, capsys):
        # a gazetteer that can match nothing is a data error, raised before any shard is read
        path = write_gaz(tmp_path / "g.ndjson", [])
        with pytest.raises(DataError, match="no region records"):
            load_gazetteer(path)

        def no_read(*args):
            raise AssertionError("a shard was read")

        monkeypatch.setattr(pipeline, "read_shard", no_read)
        shard = tmp_path / "part-00.csv"
        shard.write_text("d1,1584316800,1.0,2.0,5.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--input", str(shard), "--gazetteer", path,
                     "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: data:")
        assert not out.exists()


def bbox_area(rec):
    xs, ys = zip(*(xy for ring in rec["polygons"] for xy in ring))
    return (max(xs) - min(xs)) * (max(ys) - min(ys))


class TestWinnerOrder:
    def test_shuffled_file_loads_in_winner_order(self, tmp_path):
        recs = [r for r in toy_gazetteer_records() if r["type"] == "region"] + [
            region_rec("BB", [square_ring(20, 0, 30, 10)], country="BB"),
            region_rec("Z", [square_ring(0, 0, 1, 1), square_ring(3, 3, 5, 5)],
                       admin1="West", admin2="Holed"),
            # a full tie, key and area: the first listed wins
            region_rec("T", [square_ring(1, 1, 2, 2)], admin1="West", admin2="Tied"),
            region_rec("T", [square_ring(2, 2, 3, 3)], admin1="West", admin2="Tied"),
        ]
        random.Random(3).shuffle(recs)
        gaz = load_gazetteer(write_gaz(tmp_path / "g.ndjson", recs))
        want = sorted(range(len(recs)), key=lambda i: (
            -bool(recs[i]["admin1"]) - bool(recs[i]["admin2"]), bbox_area(recs[i]),
            recs[i]["region_id"], i))
        assert [[ring.tolist() for ring in r.rings] for r in gaz.regions] == \
            [recs[i]["polygons"] for i in want]
        assert [r.key.region_id for r in gaz.regions] == [
            "T", "T", "AA-E-01", "AA-E-02", "AA-W-01", "AA-W-02", "Z", "AA-E", "AA-W", "BB"]
        # the arrays and the key rows follow the same order
        for r, (twin, own) in zip(gaz.regions, gaz.key_rows.tolist()):
            assert gaz.keys[own] == r.key if r.key.level == 2 else own == -1
            assert gaz.keys[twin].admin2 == "" and gaz.keys[twin].admin1 == r.key.admin1
        assert_matches_linear_scan(gaz, probe_points(gaz, random.Random(4), n_random=500))


class TestDuplicateRecords:
    """How duplicate region records resolve: each map from an id keeps the last listed."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["small_last", "big_last"])
    def test_last_listed_record_wins(self, tmp_path, reverse):
        recs = [
            region_rec("W-big", [square_ring(0, 0, 10, 10)], admin1="West"),
            region_rec("W-small", [square_ring(0, 0, 4, 4)], admin1="West"),
            region_rec("C1", [square_ring(1, 1, 2, 2)], admin1="West", admin2="C"),
            # one full key twice, in two squares
            region_rec("C2", [square_ring(5, 5, 6, 6)], admin1="West", admin2="D"),
            region_rec("C2", [square_ring(7, 7, 8, 8)], admin1="West", admin2="D"),
            # one region_id under two names
            region_rec("C3", [square_ring(20, 20, 21, 21)], admin1="West", admin2="E"),
            region_rec("C3", [square_ring(22, 22, 23, 23)], admin1="West", admin2="F"),
        ]
        if reverse:
            recs.reverse()
        twin_id, place_admin2 = ("W-big", "E") if reverse else ("W-small", "F")
        place = {"type": "place", "name": "P", "lat": 20.5, "lon": 20.5, "region_id": "C3"}
        path = write_gaz(tmp_path / "g.ndjson", recs + [place])
        gaz = load_gazetteer(path)
        assert gaz.places[0].region == RegionKey("AA", "West", place_admin2, "C3")
        assert [k for k in gaz.keys if k.region_id == "C2"] == [RegionKey("AA", "West", "D", "C2")]

        # one eligible day (11 reports over 10 h) per device: in C1 and in each C2 square
        shard = tmp_path / "part-00.csv"
        shard.write_text("".join(
            f"{device},{1584316800 + 3600 * h},{at},{at},5.0\n"
            for device, at in (("d1", 1.5), ("d2", 5.5), ("d3", 7.5)) for h in range(1, 12)),
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--input", str(shard), "--gazetteer", path,
                     "--output-dir", str(out)]) == 0
        rows = [(r.admin_level, r.admin2, r.region_id, r.samples)
                for r in read_ndjson(str(out / "stats.ndjson"))]
        assert rows == [("admin1", "", twin_id, 3), ("admin2", "C", "C1", 1),
                        ("admin2", "D", "C2", 2)]
