import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapters import device_days, verdicts
from mobstats import metrics, oracle
from mobstats.geo import GeoPoint
from mobstats.metrics import (
    REASON_SHORT_SPAN,
    REASON_TOO_FEW,
    day_box_and_hull,
    day_max_distances,
    segment_trimmed_max,
)
from mobstats.synth import random_day_rows

T0 = 1584316800  # 2020-03-16T00:00:00Z


def dday(rows):
    """The rows of one device as group_device_days' columns; they must make one local day."""
    days, dd = device_days([("dev",) + tuple(r) for r in rows])
    assert len(days) == 1
    return dd


def spread(n, span_s=10 * 3600, lat=0.0, lon=0.0):
    """n identical-position reports spaced evenly across span_s."""
    if n == 1:
        return [(T0, lat, lon, 5.0)]
    return [(T0 + i * span_s // (n - 1), lat, lon, 5.0) for i in range(n)]


def reason(rows):
    (got,) = verdicts(dday(rows))
    return got


def m_max(rows):
    dd = dday(rows)
    (got,) = day_max_distances(dd.lat, dd.lon, dd.starts, dd.counts).tolist()
    return got


def trimmed_max(distances, trim_fraction):
    return segment_trimmed_max(distances, np.array([0]), np.array([len(distances)]),
                               trim_fraction)[0]


def first_report(rows):
    """The day's first row in the kernel's order, where gather geocodes it."""
    dd = dday(rows)
    return GeoPoint(dd.lat[0], dd.lon[0])


class TestEligibility:
    def test_too_few_reports(self):
        assert reason(spread(9)) == REASON_TOO_FEW

    def test_short_span(self):
        # 7.99 h span
        assert reason(spread(10, span_s=int(7.99 * 3600))) == REASON_SHORT_SPAN

    def test_exactly_eight_hours_eligible(self):
        assert reason(spread(10, span_s=8 * 3600)) is None

    def test_too_few_wins_over_short_span(self):
        assert reason(spread(3, span_s=60)) == REASON_TOO_FEW

    def test_custom_thresholds(self):
        rows = spread(5, span_s=4 * 3600)
        with mock.patch.object(metrics, "DEFAULT_MIN_SPAN_HOURS", 4.0):
            with mock.patch.object(metrics, "DEFAULT_MIN_REPORTS", 5):
                assert reason(rows) is None
            with mock.patch.object(metrics, "DEFAULT_MIN_REPORTS", 6):
                assert reason(rows) == REASON_TOO_FEW

    @pytest.mark.parametrize("hours, span_s", [(1.1, 3960), (8.3, 29880)])
    def test_span_boundary_verdict_matches_oracle(self, hours, span_s):
        # hours * 3600 rounds just above span_s while span_s / 3600 rounds to hours
        rows = spread(10, span_s=span_s)
        ref = oracle.oracle_metrics(rows, min_span_hours=hours)
        with mock.patch.object(metrics, "DEFAULT_MIN_SPAN_HOURS", hours):
            assert reason(rows) == ref["reason"]


class TestTrimmedMax:
    def test_identical_points(self):
        assert m_max(spread(10)) == 0.0

    def test_outlier_dropped(self):
        # 9 reports within ~1 km of the anchor plus one 100 km outlier;
        # n=10 -> k=1, so the outlier never reaches m_max
        rows = [(T0 + i * 3600, 0.0002 * i, 0.0003 * i, 5.0) for i in range(9)]
        rows.append((T0 + 9 * 3600, 0.9, 0.0, 5.0))
        m = m_max(rows)
        assert m <= 1.0
        ref = oracle.oracle_metrics(rows)
        assert ref["eligible"]
        assert m == pytest.approx(ref["m_max"], rel=1e-12, abs=1e-12)

    def test_floor_rule_at_19_points(self):
        # k = floor(1.9) = 1: exactly the single farthest point is dropped
        rows = [(T0 + i * 1800, 0.001 * i, 0.0, 5.0) for i in range(19)]
        second_farthest = oracle.haversine_km(0.0, 0.0, 0.001 * 17, 0.0)
        assert m_max(rows) == pytest.approx(second_farthest, rel=1e-12)

    def test_k_zero_returns_plain_max(self):
        d = np.array([3.0, 1.0, 2.0])
        assert trimmed_max(d, 0.10) == 3.0

    def test_trim_counts(self):
        d = np.arange(20.0)
        assert trimmed_max(d, 0.10) == 17.0  # k = 2
        assert trimmed_max(d, 0.0) == 19.0

    @given(st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=60),
           st.sampled_from([0.0, 0.05, 0.10, 0.25]))
    def test_trimmed_never_exceeds_untrimmed(self, dists, trim):
        arr = np.array(dists)
        assert trimmed_max(arr, trim) <= arr.max()


class TestBoxAndHull:
    def test_identical_points_all_zero(self):
        assert day_box_and_hull(spread(12)) == (0.0, 0.0, 0.0, 0.0)

    def test_square_at_equator(self):
        # corners of a 0.01 x 0.01 degree square centered on the equator;
        # hull equals box, mean latitude 0 so the cos factor is 1:
        # 111 * sqrt(0.0001) = 1.11 km for both measures
        corners = [(-0.005, 10.0), (-0.005, 10.01), (0.005, 10.0), (0.005, 10.01)]
        rows = [(T0 + i * 3600, lat, lon, 5.0)
                for i, (lat, lon) in enumerate(corners * 3)]
        m_bb, m_ch, a_bb, a_ch = day_box_and_hull(sorted(rows))
        assert m_bb == pytest.approx(1.11, rel=1e-12)
        assert m_ch == pytest.approx(1.11, rel=1e-12)
        assert a_bb == pytest.approx(0.0001, rel=1e-12)
        assert a_ch == pytest.approx(0.0001, rel=1e-12)

    def test_collinear_day_has_zero_hull_area(self):
        rows = [(T0 + i * 3600, 0.001 * i, 20.0, 5.0) for i in range(10)]
        m_bb, m_ch, a_bb, a_ch = day_box_and_hull(sorted(rows))
        assert (m_bb, m_ch, a_bb, a_ch) == (0.0, 0.0, 0.0, 0.0)

    def test_hull_strictly_inside_box(self):
        # diamond: hull area is half the box area, so m_ch = m_bb / sqrt(2)
        pts = [(0.01, 20.0), (-0.01, 20.0), (0.0, 19.99), (0.0, 20.01)]
        rows = [(T0 + i * 3600, lat, lon, 5.0) for i, (lat, lon) in enumerate(pts * 3)]
        m_bb, m_ch, a_bb, a_ch = day_box_and_hull(sorted(rows))
        assert a_ch == pytest.approx(a_bb / 2, rel=1e-9)
        assert m_ch == pytest.approx(m_bb / np.sqrt(2), rel=1e-9)

    def test_antimeridian_day(self):
        rows = [
            (T0, 0.0, 179.99, 5.0), (T0 + 3600, 0.01, -179.99, 5.0),
            (T0 + 7200, 0.0, -179.99, 5.0), (T0 + 10800, 0.01, 179.99, 5.0),
        ] * 3
        m_bb, m_ch, a_bb, a_ch = day_box_and_hull(sorted(rows))
        assert a_bb == pytest.approx(0.02 * 0.01, rel=1e-9)
        assert m_ch <= m_bb


class TestOracleAgreement:
    def test_random_trajectories_match(self):
        styles = ["scatter", "planned", "collinear", "duplicates", "antimeridian", "tight"]
        count = 0
        for i in range(60):
            rng = random.Random(1000 + i)
            rows = random_day_rows(rng, style=styles[i % len(styles)])
            ref = oracle.oracle_metrics(rows)
            if reason(rows) is not None:
                continue
            assert ref["eligible"]
            for name, got in zip(("m_max", "m_bb", "m_ch", "a_bb", "a_ch"),
                                 (m_max(rows), *day_box_and_hull(sorted(rows)))):
                assert got == pytest.approx(ref[name], rel=1e-9, abs=1e-12), name
            count += 1
        assert count >= 50

    def test_eligibility_verdicts_match(self):
        for i in range(40):
            rng = random.Random(2000 + i)
            rows = random_day_rows(rng, style=["sparse", "short", "scatter"][i % 3])
            ref = oracle.oracle_metrics(rows)
            got = reason(rows)
            assert (got is None) == ref["eligible"]
            if got is not None:
                assert got == ref["reason"]


rows_st = st.lists(
    st.tuples(st.integers(min_value=0, max_value=86399),
              st.floats(min_value=-80, max_value=80),
              st.floats(min_value=-179, max_value=179),
              st.floats(min_value=0, max_value=50)),
    min_size=3, max_size=30,
)


class TestInvariants:
    @given(rows_st)
    @settings(max_examples=80)
    def test_hull_measure_never_exceeds_box_measure(self, rows):
        m_bb, m_ch, a_bb, a_ch = day_box_and_hull(sorted(rows))
        assert 0.0 <= a_ch <= a_bb
        assert 0.0 <= m_ch <= m_bb

    @given(rows_st, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50)
    def test_permutation_invariance(self, rows, seed):
        # the kernels see each day in group_device_days' order, whatever the input order
        def measures(rows):
            days, dd = device_days([("dev",) + tuple(r) for r in rows])
            m = day_max_distances(dd.lat, dd.lon, dd.starts, dd.counts)
            return m.tolist(), [day_box_and_hull(day.reports) for day in days]

        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert measures(rows) == measures(shuffled)

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=86399),
                  st.floats(min_value=-80, max_value=80),
                  st.floats(min_value=-80, max_value=80),
                  st.floats(min_value=0, max_value=50)),
        min_size=3, max_size=30,
    ), st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50)
    def test_longitude_translation_leaves_areas_unchanged(self, rows, shift):
        # scoped away from the antimeridian: unwrap must not fire on either copy
        moved = [(e, lat, lon + shift, acc) for e, lat, lon, acc in rows]
        _, _, a_bb, a_ch = day_box_and_hull(sorted(rows))
        _, _, a_bb2, a_ch2 = day_box_and_hull(sorted(moved))
        assert a_bb2 == pytest.approx(a_bb, rel=1e-9, abs=1e-12)
        assert a_ch2 == pytest.approx(a_ch, rel=1e-9, abs=1e-12)


class TestCanonicalPosition:
    def test_earliest_report(self):
        rows = [(T0 + 60, 5.0, 6.0, 5.0), (T0, 1.0, 2.0, 5.0)]
        assert first_report(rows) == GeoPoint(1.0, 2.0)

    def test_epoch_tie_smallest_position(self):
        rows = [(T0, 5.0, 1.0, 5.0), (T0, 1.0, 9.0, 5.0)]
        assert first_report(rows) == GeoPoint(1.0, 9.0)

    def test_anchor_matches_m_max_anchor(self):
        # m_max measures from the same first report the day is geocoded at
        rows = [(T0, 0.0, 0.0, 5.0)] + [(T0 + i * 3600, 0.01, 0.01, 5.0)
                                        for i in range(1, 12)]
        anchor = first_report(rows)
        with mock.patch.object(metrics, "DEFAULT_TRIM_FRACTION", 0.0):
            assert m_max(rows) == pytest.approx(
                oracle.haversine_km(anchor.lat, anchor.lon, 0.01, 0.01), rel=1e-12)


class TestDayMeasures:
    def test_identical_positions_measure_zero(self):
        rows = spread(10, span_s=9 * 3600, lat=2.0, lon=3.0)
        m_bb, m_ch, _, _ = day_box_and_hull(rows)
        assert m_max(rows) == m_bb == m_ch == 0.0

    def test_device_day_pipeline_integration(self):
        # raw reports -> device-days -> kernels, same answer as the sorted rows
        reports = [("d", T0 + i * 3000, 0.001 * i, 0.002 * i, 5.0) for i in range(12)]
        days, dd = device_days(reports)
        assert len(days) == 1
        direct = sorted(r[1:] for r in reports)
        assert day_box_and_hull(days[0].reports) == day_box_and_hull(direct)
        lat, lon = (np.array([r[j] for r in direct]) for j in (1, 2))
        one_day = np.array([0]), np.array([len(direct)])
        assert (day_max_distances(dd.lat, dd.lon, dd.starts, dd.counts)
                == day_max_distances(lat, lon, *one_day)).all()
