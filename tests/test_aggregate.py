import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobstats.aggregate import (
    DEFAULT_BASELINE_END,
    DEFAULT_BASELINE_START,
    reduce_region_day,
    segment_stats,
)
from mobstats.collate import date_to_day_number
from mobstats.errors import ConfigError
from mobstats.geocode import RegionKey
from mobstats.pipeline import PipelineConfig

R1 = RegionKey("AA", "West", "Westburg", "W-01")
R2 = RegionKey("AA", "West", "", "W")

# 2020-03-02 is a Monday
MON = dt.date(2020, 3, 2)
SAT = dt.date(2020, 2, 22)
DEFAULT_WINDOW = (DEFAULT_BASELINE_START, DEFAULT_BASELINE_END)


def rec(m_max, region=R1, date=MON):
    return (region, date, float(m_max))


def reduce_rows(records, window=DEFAULT_WINDOW):
    """reduce_region_day over (RegionKey, date, m_max) rows, as gather's columns,
    with the baseline window (start, end).

    The returned records are indexed by (RegionKey, date).
    """
    keys = list(dict.fromkeys(region for region, _, _ in records))
    index = {key: i for i, key in enumerate(keys)}
    out = reduce_region_day(
        keys,
        np.array([index[region] for region, _, _ in records], np.int32),
        np.array([date_to_day_number(date) for _, date, _ in records], np.int64),
        np.array([m for _, _, m in records], np.float64),
        *window,
    )
    return {(RegionKey(r.country_code, r.admin1, r.admin2, r.region_id),
             dt.date.fromisoformat(r.date)): r for r in out}


def indices(records, window):
    """Each (RegionKey, date) group's m50_index, reduced with the given baseline window."""
    return {key: r.m50_index for key, r in reduce_rows(records, window).items()}


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
        assert 100.0 * a / 1.05 != 100.0 * a / 1.0499999999999998
        assert indices([rec(a), rec(b, date=tue)], (MON, tue)) == {
            (R1, MON): 100.0 * a / 1.05, (R1, tue): 100.0 * b / 1.05}


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
        # the region's only baseline day is its own norm
        assert s.m50_index == 100.0

    def test_file_order(self):
        # two keys share (country, admin1, admin2), so the date sorts before region_id
        twin = RegionKey("AA", "West", "Westburg", "W-00")
        rows = [rec(1.0, region=RegionKey("BB", "North", "", "N")),
                rec(1.0, region=R1, date=MON + dt.timedelta(days=1)), rec(1.0, region=R1),
                rec(1.0, region=twin, date=MON + dt.timedelta(days=1)), rec(1.0, region=twin),
                rec(1.0, region=R2), rec(1.0, region=RegionKey("AA", "East", "Eastburg", "E-01")),
                rec(1.0, region=R2, date=MON - dt.timedelta(days=1))]
        random.Random(3).shuffle(rows)
        keys = list(reduce_rows(rows))
        assert [(k.country_code, k.admin1, k.admin2, d.isoformat(), k.region_id)
                for k, d in keys] == [
            ("AA", "East", "Eastburg", "2020-03-02", "E-01"),
            ("AA", "West", "", "2020-03-01", "W"),
            ("AA", "West", "", "2020-03-02", "W"),
            ("AA", "West", "Westburg", "2020-03-02", "W-00"),
            ("AA", "West", "Westburg", "2020-03-02", "W-01"),
            ("AA", "West", "Westburg", "2020-03-03", "W-00"),
            ("AA", "West", "Westburg", "2020-03-03", "W-01"),
            ("BB", "North", "", "2020-03-02", "N"),
        ]


class TestComputeBaseline:
    """The norm, the region's median weekday m50 in the window, read through the index."""

    def test_median_weekday_m50(self):
        # five consecutive weekdays starting Monday 2020-03-02
        values = [4.0, 5.0, 6.0, 5.0, 4.0]
        days = [MON + dt.timedelta(days=i) for i in range(5)]
        got = indices([rec(v, date=d) for d, v in zip(days, values)], (MON, days[-1]))
        assert got == {(R1, d): 100.0 * v / 5.0 for d, v in zip(days, values)}

    def test_weekend_data_ignored(self):
        rows = [rec(100.0, date=SAT), rec(100.0, date=SAT + dt.timedelta(days=1)), rec(7.0)]
        got = indices(rows, (dt.date(2020, 2, 17), dt.date(2020, 3, 7)))
        assert got == {(R1, SAT): 100.0 * 100.0 / 7.0,
                       (R1, SAT + dt.timedelta(days=1)): 100.0 * 100.0 / 7.0, (R1, MON): 100.0}

    def test_weekend_only_region_absent(self):
        got = indices([rec(5.0, date=SAT), rec(3.0, region=R2)], DEFAULT_WINDOW)
        assert got == {(R1, SAT): None, (R2, MON): 100.0}

    def test_out_of_window_dates_ignored(self):
        later = dt.date(2020, 3, 9)
        got = indices([rec(5.0), rec(50.0, date=later)], DEFAULT_WINDOW)
        assert got == {(R1, MON): 100.0, (R1, later): 100.0 * 50.0 / 5.0}

    def test_zero_norm_region_excluded(self):
        later = dt.date(2020, 3, 9)
        got = indices([rec(0.0), rec(3.0, date=later), rec(2.0, region=R2)], DEFAULT_WINDOW)
        assert got == {(R1, MON): None, (R1, later): None, (R2, MON): 100.0}

    def test_default_window(self):
        assert DEFAULT_BASELINE_START == dt.date(2020, 2, 17)
        assert DEFAULT_BASELINE_END == dt.date(2020, 3, 7)

    def test_inverted_window_rejected(self):
        cfg = PipelineConfig(inputs=["x"], gazetteer="g", baseline_start=dt.date(2020, 3, 7),
                             baseline_end=dt.date(2020, 2, 17))
        with pytest.raises(ConfigError, match="empty"):
            cfg.validate()

    def test_weekday_free_window_rejected(self):
        cfg = PipelineConfig(inputs=["x"], gazetteer="g", baseline_start=SAT,
                             baseline_end=SAT + dt.timedelta(days=1))
        with pytest.raises(ConfigError, match="no weekdays"):
            cfg.validate()

    def test_empty_data_is_fine(self):
        # a valid window with no data yields no records, not an error
        assert reduce_rows([], DEFAULT_WINDOW) == {}


class TestApplyIndex:
    """m50_index = 100 * m50 / norm, against a norm set by one baseline day."""

    LATER = dt.date(2020, 3, 9)

    def index(self, norm, m50):
        return indices([rec(norm), rec(m50, date=self.LATER)], (MON, MON))[(R1, self.LATER)]

    def test_ratio(self):
        assert self.index(3.0, 1.5) == 50.0

    def test_identity(self):
        assert self.index(4.0, 4.0) == 100.0

    def test_thirty_percent_of_normal(self):
        assert self.index(4.0, 1.2) == pytest.approx(30.0)

    def test_region_without_baseline_left_unindexed(self):
        assert indices([rec(1.5, date=self.LATER)], (MON, MON)) == {(R1, self.LATER): None}


class TestScaleInvariance:
    @given(st.lists(st.floats(min_value=0.01, max_value=50), min_size=3, max_size=20),
           st.floats(min_value=0.01, max_value=40))
    @settings(max_examples=60)
    def test_index_unchanged_under_uniform_scaling(self, m_maxes, c):
        base_date = MON
        target = dt.date(2020, 3, 9)

        def indices_at_scale(scale):
            records = [rec(v * scale, date=base_date) for v in m_maxes]
            records += [rec(v * scale * 0.5, date=target) for v in m_maxes]
            return indices(records, DEFAULT_WINDOW)

        plain = indices_at_scale(1.0)
        scaled = indices_at_scale(c)
        for key, idx in plain.items():
            assert scaled[key] == pytest.approx(idx, rel=1e-9)
