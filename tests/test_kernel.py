"""Exactness of the gather kernel's sorts against the plain numpy statements of them.

group_device_days sorts by (code, epoch) and re-sorts only the rows tied on
both by the float keys; segment_sort sorts same-length segments as rows of
one 2-D array. Each must give the bits the straightforward form gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobstats.aggregate import segment_stats
from mobstats.collate import group_device_days, segment_sort
from mobstats.metrics import segment_trimmed_max

# signed zeros compare equal but differ in bits, so only a stable sort keeps their order
FLOATS = [0.0, -0.0, 1.5, -2.25, 7.0]


def rows_of(codes, epochs):
    return st.tuples(st.sampled_from(codes), st.sampled_from(epochs),
                     *[st.sampled_from(FLOATS)] * 2)


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a


class TestGroupDeviceDaysOrder:
    # a code of 2**30 with an epoch span over 2**40 would overflow the int64
    # (code, epoch) key, so those rows take the lexsort route
    @pytest.mark.parametrize("codes, epochs", [([0, 1, 2, 3], [0, 3600, 90_000]),
                                               ([0, 1, 2**30], [0, 3600, 2**40])])
    @given(data=st.data())
    @settings(max_examples=200)
    def test_row_order_is_the_four_key_lexsort(self, codes, epochs, data):
        rows = data.draw(st.lists(rows_of(codes, epochs), min_size=1, max_size=60))
        # repeat some rows, so runs hold rows tied on all four keys
        rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=20))
        rows = data.draw(st.permutations(rows))
        code, epoch = (np.array([r[j] for r in rows], np.int64) for j in (0, 1))
        lat, lon = (np.array([r[j] for r in rows], np.float64) for j in (2, 3))
        want = np.lexsort((lon, lat, epoch, code))
        dd = group_device_days(code, epoch, lat, lon)
        assert np.array_equal(dd.order, want)
        for got, column in zip((dd.code, dd.epoch, dd.lat, dd.lon), (code, epoch, lat, lon)):
            assert np.array_equal(bits(got), bits(column[want]))


def segments_of(lengths, rng):
    """Unsorted values with ties and signed zeros, and the (starts, counts) of the segments."""
    counts = np.array(lengths, np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    values = rng.choice([0.0, -0.0, 2.5, 1e-3], int(counts.sum()))
    mixed = rng.random(len(values)) < 0.7
    values[mixed] = rng.uniform(0, 5e3, int(mixed.sum()))
    return values, starts, counts


LENGTHS = [1, 1, 2, 3, 7, 8, 9, 1, 16, 17, 40, 129, 2, 5_003, 130, 3, 1, 300, 64, 65]


class TestSegmentKernels:
    """segment_sort, segment_trimmed_max and segment_stats equal per-segment numpy (==)."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.values, self.starts, self.counts = segments_of(LENGTHS, self.rng)
        self.segments = [self.values[s:s + n] for s, n in zip(self.starts, self.counts)]

    def test_segment_sort_equals_stable_sort_per_segment(self):
        got = segment_sort(self.values, self.starts, self.counts)
        want = np.concatenate([np.sort(seg, kind="stable") for seg in self.segments])
        assert np.array_equal(bits(got), bits(want))

    def test_segment_sort_leaves_rows_outside_segments(self):
        # two segments with a gap between them and a tail after them
        values = self.rng.uniform(0, 9, 12)
        got = segment_sort(values, np.array([0, 6]), np.array([4, 3]))
        assert np.array_equal(got[:4], np.sort(values[:4]))
        assert np.array_equal(got[6:9], np.sort(values[6:9]))
        assert np.array_equal(got[[4, 5, 9, 10, 11]], values[[4, 5, 9, 10, 11]])

    def test_segment_trimmed_max_equals_sorted_index(self):
        for trim in (0.0, 0.1, 0.25, 0.5):
            got = segment_trimmed_max(self.values, self.starts, self.counts, trim)
            want = [np.sort(seg)[len(seg) - 1 - int(trim * len(seg))] for seg in self.segments]
            assert got.tolist() == want, trim

    def test_segment_stats_equal_quantile_and_mean(self):
        ordered = segment_sort(self.values, self.starts, self.counts)
        got = segment_stats(ordered, self.starts, self.counts)
        for i, seg in enumerate(self.segments):
            arr = np.sort(seg)
            want = (arr.mean(), *np.quantile(arr, (0.5, 0.25, 0.75)))
            assert tuple(c[i] for c in got) == want, (len(seg), i)
