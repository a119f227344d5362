import datetime as dt
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapters import Day, device_days
from mobstats.collate import day_number_to_date, local_day_number

# 1584316800 = 2020-03-16T00:00:00Z
T0 = 1584316800


def raw(device_id, epoch, lat=0.0, lon=0.0, acc=5.0):
    return (device_id, epoch, lat, lon, acc)


def bucket_of(device_id, reports, n_buckets):
    """A device's bucket: its id's rank among the reports' sorted distinct ids, mod n_buckets."""
    return sorted({r[0] for r in reports}).index(device_id) % n_buckets


def bucket_sort(reports, n_buckets):
    """Partition reports into n_buckets lists by bucket_of, in report order.

    Row-wise reference for the pipeline, which makes the same partition
    column-wise from the run's one sorted numbering of device ids.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    buckets = [[] for _ in range(n_buckets)]
    for r in reports:
        buckets[bucket_of(r[0], reports, n_buckets)].append(r)
    return buckets


def single_report_day(lon):
    """(device_id, local_date, tz_offset_hours) of a one-report device-day at T0."""
    (dd,), _ = device_days([raw("a", T0, lon=lon)])
    return dd.device_id, dd.local_date, dd.tz_offset_hours


class TestAssignLocalDay:
    def test_utc_identity(self):
        assert single_report_day(0.0) == ("a", dt.date(2020, 3, 16), 0)

    def test_negative_offset_shifts_back_a_day(self):
        # offset round(-106/15) = -7 puts the instant at 2020-03-15T17:00 local
        assert single_report_day(-106.0) == ("a", dt.date(2020, 3, 15), -7)

    def test_positive_offset_same_day(self):
        # offset +12 puts it at 2020-03-16T12:00 local
        assert single_report_day(174.8) == ("a", dt.date(2020, 3, 16), 12)

    def test_day_number_round_trip(self):
        for day in (0, 1, 18337, 20000):
            assert local_day_number(day * 86400, 0) == day
            assert (day_number_to_date(day) - dt.date(1970, 1, 1)).days == day
        assert day_number_to_date(0) == dt.date(1970, 1, 1)

    @given(st.integers(min_value=0, max_value=2**33), st.integers(min_value=-12, max_value=12))
    def test_local_day_number_is_floor_division(self, epoch, tz):
        day = local_day_number(epoch, tz)
        shifted = epoch + 3600 * tz
        assert day * 86400 <= shifted < (day + 1) * 86400


class TestBucketSort:
    def test_single_bucket_holds_everything(self):
        reports = [raw("a", T0), raw("b", T0 + 1), raw("a", T0 + 2)]
        buckets = bucket_sort(reports, 1)
        assert len(buckets) == 1
        assert buckets[0] == reports

    def test_zero_buckets_rejected(self):
        with pytest.raises(ValueError):
            bucket_sort([], 0)

    @given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                              st.integers(min_value=0, max_value=10**9)), max_size=60),
           st.sampled_from([1, 3, 4, 16]))
    def test_partition_law(self, pairs, n_buckets):
        reports = [raw(d, e) for d, e in pairs]
        buckets = bucket_sort(reports, n_buckets)
        assert sum(len(b) for b in buckets) == len(reports)
        assert Counter(r for b in buckets for r in b) == Counter(reports)
        for i, bucket in enumerate(buckets):
            for r in bucket:
                assert bucket_of(r[0], reports, n_buckets) == i

    def test_device_never_split_across_buckets(self):
        rng = random.Random(3)
        reports = [raw(f"dev-{rng.randrange(20)}", rng.randrange(10**9)) for _ in range(300)]
        for n in (2, 4, 16):
            owner = {}
            for i, bucket in enumerate(bucket_sort(reports, n)):
                for r in bucket:
                    assert owner.setdefault(r[0], i) == i


def canonical(days):
    return sorted((d.device_id, d.local_date, d.tz_offset_hours, tuple(d.reports))
                  for d in days)


class TestBuildDeviceDays:
    def test_single_report(self):
        days, _ = device_days([raw("a", T0, lat=1.0, lon=2.0)])
        assert days == [Day("a", dt.date(2020, 3, 16), 0, [(T0, 1.0, 2.0, 5.0)])]

    def test_midnight_split(self):
        # 23:30 and 00:30 local straddle one midnight at lon 0
        reports = [raw("a", T0 - 1800), raw("a", T0 + 1800)]
        days, _ = device_days(reports)
        assert [d.local_date for d in days] == [dt.date(2020, 3, 15), dt.date(2020, 3, 16)]
        assert all(len(d.reports) == 1 for d in days)

    def test_single_offset_from_first_report(self):
        # second report sits at lon 10.2 (offset would be 1) but the device
        # keeps the offset of its chronologically first report at lon 10.0
        reports = [raw("a", T0 + 60, lon=10.2), raw("a", T0, lon=10.0)]
        days, _ = device_days(reports)
        assert len(days) == 1
        assert days[0].tz_offset_hours == 1
        assert [r[0] for r in days[0].reports] == [T0, T0 + 60]

    def test_offset_can_change_the_date(self):
        # lon -106 -> offset -7 -> both reports land on 2020-03-15
        days, _ = device_days([raw("a", T0, lon=-106.0), raw("a", T0 + 60, lon=-106.0)])
        assert [d.local_date for d in days] == [dt.date(2020, 3, 15)]

    def test_epoch_tie_broken_by_position(self):
        reports = [raw("a", T0, lat=5.0, lon=7.0), raw("a", T0, lat=1.0, lon=9.0)]
        days, _ = device_days(reports)
        assert [r[1] for r in days[0].reports] == [1.0, 5.0]
        # the tie winner also supplies the device offset
        assert days[0].tz_offset_hours == 1

    def test_position_tie_broken_by_accuracy(self):
        # the regroup sort never sees accuracy: rows tied on (device, epoch, lat, lon)
        # keep their input order
        reports = [raw("a", T0, acc=9.0), raw("a", T0 + 60), raw("a", T0, acc=2.0),
                   raw("a", T0, acc=5.0)]
        _, dd = device_days(reports)
        assert dd.order.tolist() == [0, 2, 3, 1]

    def test_duplicates_kept(self):
        reports = [raw("a", T0)] * 3
        days, _ = device_days(reports)
        assert len(days[0].reports) == 3

    def test_devices_and_days_in_canonical_order(self):
        reports = [raw("b", T0 + 86400), raw("b", T0), raw("a", T0)]
        days, _ = device_days(reports)
        assert [(d.device_id, d.local_date) for d in days] == [
            ("a", dt.date(2020, 3, 16)),
            ("b", dt.date(2020, 3, 16)),
            ("b", dt.date(2020, 3, 17)),
        ]

    def test_input_order_irrelevant(self):
        rng = random.Random(11)
        reports = [raw(f"d{rng.randrange(5)}", T0 + rng.randrange(3 * 86400),
                       lat=rng.uniform(-5, 5), lon=rng.uniform(-5, 5))
                   for _ in range(200)]
        base = canonical(device_days(reports)[0])
        shuffled = reports[:]
        rng.shuffle(shuffled)
        assert canonical(device_days(shuffled)[0]) == base

    @given(st.lists(st.tuples(st.sampled_from("abcd"),
                              st.integers(min_value=0, max_value=4 * 86400),
                              st.floats(min_value=-80, max_value=80),
                              st.floats(min_value=-179, max_value=179)),
                    max_size=50),
           st.sampled_from([1, 4, 16]))
    @settings(max_examples=60)
    def test_bucket_count_invariance_and_partition(self, rows, n_buckets):
        reports = [raw(d, e, lat, lon) for d, e, lat, lon in rows]
        via_buckets = [day for bucket in bucket_sort(reports, n_buckets)
                       for day in device_days(bucket)[0]]
        assert canonical(via_buckets) == canonical(device_days(reports)[0])
        # every accepted report appears in exactly one device-day
        flat = Counter((d.device_id, r) for d in via_buckets for r in d.reports)
        assert flat == Counter((r[0], r[1:]) for r in reports)

    @given(st.lists(st.integers(min_value=0, max_value=6 * 86400), min_size=1, max_size=40),
           st.floats(min_value=-179, max_value=179))
    @settings(max_examples=60)
    def test_day_invariant_holds_per_report(self, epochs, lon):
        reports = [raw("a", e, lon=lon) for e in epochs]
        for day in device_days(reports)[0]:
            for r in day.reports:
                num = local_day_number(r[0], day.tz_offset_hours)
                assert day_number_to_date(num) == day.local_date
            assert all(a[0] <= b[0] for a, b in zip(day.reports, day.reports[1:]))
