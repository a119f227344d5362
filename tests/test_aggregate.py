import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobstats.aggregate import (
    DEFAULT_BASELINE_END,
    DEFAULT_BASELINE_START,
    MetricStats,
    RegionDayStats,
    apply_index,
    compute_baseline,
    reduce_region_day,
    summarize,
)
from mobstats.errors import ConfigError
from mobstats.geocode import RegionKey

R1 = RegionKey("AA", "West", "Westburg", "W-01")
R2 = RegionKey("AA", "West", "", "W")

# 2020-03-02 is a Monday
MON = dt.date(2020, 3, 2)


def rec(m_max, region=R1, date=MON):
    return (region, date, float(m_max))


def day_stats(region, date, m50):
    s = MetricStats(m50, m50, m50, m50)
    return RegionDayStats(region, date, 1, s, m50)


class TestSummarize:
    def test_hand_evaluated_quartiles(self):
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert (s.median, s.q1, s.q3) == (3.0, 2.0, 4.0)
        assert s.mean == 3.0

    def test_single_sample(self):
        s = summarize(np.array([7.0]))
        assert (s.mean, s.median, s.q1, s.q3) == (7.0, 7.0, 7.0, 7.0)

    def test_constant_samples(self):
        s = summarize(np.array([2.5] * 9))
        assert s.mean == s.median
        assert s.q1 == s.q3 == 2.5

    def test_interpolated_quartiles(self):
        # 4 samples: q1 at position 0.75 between 1 and 2 -> 1.75
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.q1 == 1.75
        assert s.median == 2.5
        assert s.q3 == 3.25

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_quartiles_ordered(self, values):
        s = summarize(np.sort(np.array(values)))
        assert s.q1 <= s.median <= s.q3
        assert min(values) <= s.median <= max(values)


class TestReduceRegionDay:
    def test_m50_is_median_of_m_max(self):
        out = reduce_region_day([rec(1), rec(2), rec(3), rec(4), rec(5)])
        stats = out[(R1, MON)]
        assert stats.samples == 5
        assert stats.m50 == 3.0
        assert stats.m50 == stats.m_max.median

    def test_keys_kept_separate(self):
        out = reduce_region_day([rec(1), rec(9, region=R2),
                                 rec(5, date=MON + dt.timedelta(days=1))])
        assert len(out) == 3
        assert out[(R1, MON)].m50 == 1.0
        assert out[(R2, MON)].m50 == 9.0

    def test_order_independence_exact(self):
        rng = random.Random(8)
        records = [rec(rng.uniform(0, 30), region=rng.choice([R1, R2]),
                       date=MON + dt.timedelta(days=rng.randrange(4)))
                   for _ in range(300)]
        base = reduce_region_day(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        again = reduce_region_day(shuffled)
        assert base == again  # exact float equality: sorted before arithmetic

    def test_admin1_from_device_days_equals_union_of_admin2_sets(self):
        # the admin1 reduction must see device-days, not county medians
        west = [1.0, 2.0, 10.0]
        east = [3.0, 4.0]
        records = [rec(v) for v in west]
        records += [rec(v, region=RegionKey("AA", "West", "Westfield", "W-02"))
                    for v in east]
        records += [rec(v, region=R2) for v in west + east]
        out = reduce_region_day(records)
        assert out[(R2, MON)].m50 == 3.0  # median of the union, not of medians
        assert out[(R2, MON)].samples == 5

    def test_pipeline_values_survive(self):
        out = reduce_region_day([rec(2.0)])
        s = out[(R1, MON)]
        assert s.m_max.mean == 2.0
        assert s.m50_index is None


class TestComputeBaseline:
    def test_median_weekday_m50(self):
        # five consecutive weekdays starting Monday 2020-03-02
        values = [4.0, 5.0, 6.0, 5.0, 4.0]
        stats = [day_stats(R1, MON + dt.timedelta(days=i), v)
                 for i, v in enumerate(values)]
        assert compute_baseline(stats, MON, MON + dt.timedelta(days=4)) == {R1: 5.0}

    def test_weekend_data_ignored(self):
        sat = dt.date(2020, 2, 22)
        stats = [day_stats(R1, sat, 100.0), day_stats(R1, sat + dt.timedelta(days=1), 100.0),
                 day_stats(R1, MON, 7.0)]
        table = compute_baseline(stats, dt.date(2020, 2, 17), dt.date(2020, 3, 7))
        assert table == {R1: 7.0}

    def test_weekend_only_region_absent(self):
        sat = dt.date(2020, 2, 22)
        stats = [day_stats(R1, sat, 5.0), day_stats(R2, MON, 3.0)]
        table = compute_baseline(stats)
        assert R1 not in table
        assert table[R2] == 3.0

    def test_out_of_window_dates_ignored(self):
        stats = [day_stats(R1, MON, 5.0), day_stats(R1, dt.date(2020, 3, 9), 50.0)]
        assert compute_baseline(stats) == {R1: 5.0}

    def test_zero_norm_region_excluded(self):
        stats = [day_stats(R1, MON, 0.0)]
        assert compute_baseline(stats) == {}

    def test_default_window(self):
        assert DEFAULT_BASELINE_START == dt.date(2020, 2, 17)
        assert DEFAULT_BASELINE_END == dt.date(2020, 3, 7)

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            compute_baseline([], dt.date(2020, 3, 7), dt.date(2020, 2, 17))

    def test_weekday_free_window_rejected(self):
        sat = dt.date(2020, 2, 22)
        with pytest.raises(ConfigError, match="no weekdays"):
            compute_baseline([], sat, sat + dt.timedelta(days=1))

    def test_empty_data_is_fine(self):
        # a valid window with no data yields an empty table, not an error
        assert compute_baseline([]) == {}


class TestApplyIndex:
    def test_ratio(self):
        s = apply_index(day_stats(R1, MON, 1.5), {R1: 3.0})
        assert s.m50_index == 50.0

    def test_identity(self):
        s = apply_index(day_stats(R1, MON, 4.0), {R1: 4.0})
        assert s.m50_index == 100.0

    def test_thirty_percent_of_normal(self):
        s = apply_index(day_stats(R1, MON, 1.2), {R1: 4.0})
        assert s.m50_index == pytest.approx(30.0)

    def test_region_without_baseline_left_unindexed(self):
        s = apply_index(day_stats(R1, MON, 1.5), {})
        assert s.m50_index is None


class TestScaleInvariance:
    @given(st.lists(st.floats(min_value=0.01, max_value=50), min_size=3, max_size=20),
           st.floats(min_value=0.01, max_value=40))
    @settings(max_examples=60)
    def test_index_unchanged_under_uniform_scaling(self, m_maxes, c):
        base_date = MON
        target = dt.date(2020, 3, 9)

        def table_and_stats(scale):
            records = [rec(v * scale, date=base_date) for v in m_maxes]
            records += [rec(v * scale * 0.5, date=target) for v in m_maxes]
            out = reduce_region_day(records)
            baseline = compute_baseline(out.values())
            return [apply_index(s, baseline) for s in out.values()]

        plain = {(s.region, s.date): s.m50_index for s in table_and_stats(1.0)}
        scaled = {(s.region, s.date): s.m50_index for s in table_and_stats(c)}
        for key, idx in plain.items():
            assert scaled[key] == pytest.approx(idx, rel=1e-9)
