import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobstats.aggregate import (
    DEFAULT_BASELINE_END,
    DEFAULT_BASELINE_START,
    apply_index,
    compute_baseline,
    reduce_region_day,
    segment_stats,
)
from mobstats.collate import date_to_day_number
from mobstats.errors import ConfigError
from mobstats.geocode import RegionKey
from mobstats.output import OutputRecord, region_of

R1 = RegionKey("AA", "West", "Westburg", "W-01")
R2 = RegionKey("AA", "West", "", "W")

# 2020-03-02 is a Monday
MON = dt.date(2020, 3, 2)


def rec(m_max, region=R1, date=MON):
    return (region, date, float(m_max))


def reduce_rows(records):
    """reduce_region_day over (RegionKey, date, m_max) rows, as gather's columns.

    The returned records are indexed by (RegionKey, date).
    """
    keys = list(dict.fromkeys(region for region, _, _ in records))
    index = {key: i for i, key in enumerate(keys)}
    out = reduce_region_day(
        keys,
        np.array([index[region] for region, _, _ in records], np.int32),
        np.array([date_to_day_number(date) for _, date, _ in records], np.int64),
        np.array([m for _, _, m in records], np.float64),
    )
    return {(RegionKey(r.country_code, r.admin1, r.admin2, r.region_id),
             dt.date.fromisoformat(r.date)): r for r in out}


def day_stats(region, date, m50):
    level = "admin2" if region.admin2 else "admin1"
    return OutputRecord(region.country_code, level, region.admin1, region.admin2,
                        region.region_id, date.isoformat(), 1, m50, None, m50, m50, m50)


def rid(region):
    """The baseline table's key for a RegionKey."""
    return region_of(day_stats(region, MON, 0.0))


def summarize(values_sorted):
    """segment_stats of one ascending segment, as (mean, median, q1, q3) floats."""
    stats = segment_stats(values_sorted, np.array([0]), np.array([len(values_sorted)]))
    return tuple(float(s[0]) for s in stats)


class TestSummarize:
    def test_hand_evaluated_quartiles(self):
        mean, median, q1, q3 = summarize(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert (median, q1, q3) == (3.0, 2.0, 4.0)
        assert mean == 3.0

    def test_single_sample(self):
        assert summarize(np.array([7.0])) == (7.0, 7.0, 7.0, 7.0)

    def test_constant_samples(self):
        mean, median, q1, q3 = summarize(np.array([2.5] * 9))
        assert mean == median
        assert q1 == q3 == 2.5

    def test_interpolated_quartiles(self):
        # 4 samples: q1 at position 0.75 between 1 and 2 -> 1.75
        _, median, q1, q3 = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert q1 == 1.75
        assert median == 2.5
        assert q3 == 3.25

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_quartiles_ordered(self, values):
        _, median, q1, q3 = summarize(np.sort(np.array(values)))
        assert q1 <= median <= q3
        assert min(values) <= median <= max(values)


# a few repeated values, so segments hold ties, mixed with arbitrary m_max-like floats
SAMPLE = st.one_of(st.sampled_from([0.0, 0.2, 1.9, 2.5]), st.floats(min_value=0, max_value=1e4))


def numpy_stats(values):
    """(mean, median, q1, q3) of a sample by np.quantile and .mean()."""
    arr = np.sort(np.array(values, np.float64))
    q1, median, q3 = np.quantile(arr, (0.25, 0.5, 0.75))
    return arr.mean(), median, q1, q3


class TestSegmentStats:
    """The segment arithmetic held bit-equal (==) to numpy's own functions."""

    def check(self, segments):
        values = np.concatenate([np.sort(np.array(seg, np.float64)) for seg in segments])
        counts = np.array([len(seg) for seg in segments])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        got = segment_stats(values, starts, counts)
        for i, seg in enumerate(segments):
            assert tuple(c[i] for c in got) == numpy_stats(seg), (len(seg), i)

    @given(st.lists(st.lists(SAMPLE, min_size=1, max_size=40), min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_mixed_segments_equal_numpy(self, segments):
        self.check(segments)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 128, 129, 130, 300])
    def test_segment_sizes_around_the_pairwise_blocks(self, n):
        rng = random.Random(n)
        # next to short segments, one of n values, one of n with ties
        self.check([[rng.uniform(0, 50)], [rng.uniform(0, 50) for _ in range(n)],
                    [rng.choice([1.1, 2.2, 3.3]) for _ in range(n)], [4.0, 0.3]])

    @given(st.lists(st.tuples(st.sampled_from([R1, R2]), st.integers(0, 3), SAMPLE),
                    min_size=1, max_size=120))
    @settings(max_examples=100)
    def test_reduce_groups_equal_numpy(self, rows):
        # one shuffled column set, lexsorted into mixed-size (region, date) segments
        records = [(region, MON + dt.timedelta(days=d), m) for region, d, m in rows]
        groups = {}
        for region, date, m in records:
            groups.setdefault((region, date), []).append(m)
        out = reduce_rows(records)
        assert set(out) == set(groups)
        for key, values in groups.items():
            s = out[key]
            assert s.samples == len(values)
            assert (s.m_max_mean, s.m50, s.m_max_q1, s.m_max_q3) == numpy_stats(values)

    def test_median_is_the_lerp_but_the_baseline_is_np_median(self):
        # the two middle values 0.2 and 1.9: np.median averages them, (a + b) / 2,
        # while np.quantile's lerp gives b - (b - a) * 0.5, one ulp lower
        a, b = 0.2, 1.9
        assert np.median([a, b]) == (a + b) / 2 == 1.05
        assert np.quantile([a, b], 0.5) == b - (b - a) * 0.5 == 1.0499999999999998
        assert summarize(np.array([a, b]))[1] == 1.0499999999999998
        tue = MON + dt.timedelta(days=1)
        stats = [day_stats(R1, MON, a), day_stats(R1, tue, b)]
        assert compute_baseline(stats, MON, tue) == {rid(R1): 1.05}


class TestReduceRegionDay:
    def test_m50_is_median_of_m_max(self):
        out = reduce_rows([rec(1), rec(2), rec(3), rec(4), rec(5)])
        stats = out[(R1, MON)]
        assert stats.samples == 5
        assert stats.m50 == 3.0

    def test_keys_kept_separate(self):
        out = reduce_rows([rec(1), rec(9, region=R2),
                                 rec(5, date=MON + dt.timedelta(days=1))])
        assert len(out) == 3
        assert out[(R1, MON)].m50 == 1.0
        assert out[(R2, MON)].m50 == 9.0

    def test_order_independence_exact(self):
        rng = random.Random(8)
        records = [rec(rng.uniform(0, 30), region=rng.choice([R1, R2]),
                       date=MON + dt.timedelta(days=rng.randrange(4)))
                   for _ in range(300)]
        base = reduce_rows(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        again = reduce_rows(shuffled)
        assert base == again  # exact float equality: sorted before arithmetic

    def test_admin1_from_device_days_equals_union_of_admin2_sets(self):
        # the admin1 reduction must see device-days, not county medians
        west = [1.0, 2.0, 10.0]
        east = [3.0, 4.0]
        records = [rec(v) for v in west]
        records += [rec(v, region=RegionKey("AA", "West", "Westfield", "W-02"))
                    for v in east]
        records += [rec(v, region=R2) for v in west + east]
        out = reduce_rows(records)
        assert out[(R2, MON)].m50 == 3.0  # median of the union, not of medians
        assert out[(R2, MON)].samples == 5

    def test_pipeline_values_survive(self):
        out = reduce_rows([rec(2.0)])
        s = out[(R1, MON)]
        assert s.m_max_mean == 2.0
        assert s.m50_index is None


class TestComputeBaseline:
    def test_median_weekday_m50(self):
        # five consecutive weekdays starting Monday 2020-03-02
        values = [4.0, 5.0, 6.0, 5.0, 4.0]
        stats = [day_stats(R1, MON + dt.timedelta(days=i), v)
                 for i, v in enumerate(values)]
        assert compute_baseline(stats, MON, MON + dt.timedelta(days=4)) == {rid(R1): 5.0}

    def test_weekend_data_ignored(self):
        sat = dt.date(2020, 2, 22)
        stats = [day_stats(R1, sat, 100.0), day_stats(R1, sat + dt.timedelta(days=1), 100.0),
                 day_stats(R1, MON, 7.0)]
        table = compute_baseline(stats, dt.date(2020, 2, 17), dt.date(2020, 3, 7))
        assert table == {rid(R1): 7.0}

    def test_weekend_only_region_absent(self):
        sat = dt.date(2020, 2, 22)
        stats = [day_stats(R1, sat, 5.0), day_stats(R2, MON, 3.0)]
        table = compute_baseline(stats)
        assert rid(R1) not in table
        assert table[rid(R2)] == 3.0

    def test_out_of_window_dates_ignored(self):
        stats = [day_stats(R1, MON, 5.0), day_stats(R1, dt.date(2020, 3, 9), 50.0)]
        assert compute_baseline(stats) == {rid(R1): 5.0}

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
        s = apply_index(day_stats(R1, MON, 1.5), {rid(R1): 3.0})
        assert s.m50_index == 50.0

    def test_identity(self):
        s = apply_index(day_stats(R1, MON, 4.0), {rid(R1): 4.0})
        assert s.m50_index == 100.0

    def test_thirty_percent_of_normal(self):
        s = apply_index(day_stats(R1, MON, 1.2), {rid(R1): 4.0})
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
            out = reduce_rows(records)
            baseline = compute_baseline(out.values())
            return [apply_index(s, baseline) for s in out.values()]

        plain = {(region_of(s), s.date): s.m50_index for s in table_and_stats(1.0)}
        scaled = {(region_of(s), s.date): s.m50_index for s in table_and_stats(c)}
        for key, idx in plain.items():
            assert scaled[key] == pytest.approx(idx, rel=1e-9)
