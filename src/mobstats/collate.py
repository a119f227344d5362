"""Grouping accepted reports into per-device, per-local-day buckets.

Local time is the solar approximation round(lon / 15) hours; a single
offset per device is fixed from its chronologically first accepted report
and applied to all of that device's reports, so one trajectory never
flaps between adjacent offsets within a day.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from .geo import solar_tz_offset_hours
from .ingest import RawReport

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()

# report tuple inside a DeviceDay: (epoch_s, lat, lon, accuracy_m)
DayReport = tuple[int, float, float, float]


@dataclass(slots=True)
class DeviceDay:
    """All of one device's accepted reports within one local calendar day.

    reports are (epoch_s, lat, lon, accuracy_m) tuples sorted by
    (epoch_s, lat, lon, accuracy_m).
    """

    device_id: str
    local_date: dt.date
    tz_offset_hours: int
    reports: list[DayReport]


def local_day_number(epoch_s: int, tz_offset_hours: int) -> int:
    """Day index since 1970-01-01 of the instant shifted to local time."""
    return (epoch_s + 3600 * tz_offset_hours) // 86400


def day_number_to_date(day_number: int) -> dt.date:
    return dt.date.fromordinal(day_number + _EPOCH_ORDINAL)


def bucket_index(device_id: str, n_buckets: int) -> int:
    """Stable bucket assignment: 64-bit blake2b of the device id, mod n_buckets."""
    digest = hashlib.blake2b(device_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_buckets


def bucket_sort(reports: Iterable[RawReport], n_buckets: int) -> list[list[RawReport]]:
    """Partition reports into n_buckets lists keyed by device id hash.

    In-memory form of the scatter phase; the pipeline streams the same
    partition to spill files instead.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    buckets: list[list[RawReport]] = [[] for _ in range(n_buckets)]
    for r in reports:
        buckets[bucket_index(r[0], n_buckets)].append(r)
    return buckets


def build_device_days(bucket: Iterable[RawReport]) -> Iterator[DeviceDay]:
    """Regroup one bucket's reports into DeviceDays, in canonical order.

    Per device: reports are sorted by (epoch, lat, lon, accuracy), the solar
    offset of the first report becomes the device's single offset, every
    report is re-dated with it, and one DeviceDay is emitted per local day.
    Devices are emitted in device_id order, days in date order.
    """
    by_device: dict[str, list[DayReport]] = {}
    for device_id, epoch, lat, lon, acc in bucket:
        by_device.setdefault(device_id, []).append((epoch, lat, lon, acc))
    for device_id in sorted(by_device):
        rows = sorted(by_device[device_id])
        tz = solar_tz_offset_hours(rows[0][2])
        days: dict[int, list[DayReport]] = {}
        for row in rows:
            days.setdefault(local_day_number(row[0], tz), []).append(row)
        for day_number in sorted(days):
            yield DeviceDay(device_id, day_number_to_date(day_number), tz, days[day_number])
