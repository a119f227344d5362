"""Grouping accepted reports into per-device, per-local-day buckets.

Local time is the solar approximation round(lon / 15) hours; a single
offset per device is fixed from its chronologically first accepted report
and applied to all of that device's reports, so one trajectory never
flaps between adjacent offsets within a day.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .geo import solar_tz_offset_hours

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


@dataclass(slots=True)
class DayColumns:
    """One bucket's reports regrouped into device-days, as columns.

    Rows are sorted by (device code, epoch, lat, lon), stably: row i is input
    row order[i]. Device-day i is rows starts[i] : starts[i] + counts[i], and
    day[i] and tz[i] are its local day number and its device's solar offset.
    """

    code: np.ndarray
    epoch: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    day: np.ndarray
    tz: np.ndarray


def local_day_number(epoch_s, tz_offset_hours):
    """Day index since 1970-01-01 of the instant shifted to local time.

    Works on ints and, element-wise, on int64 arrays.
    """
    return (epoch_s + 3600 * tz_offset_hours) // 86400


def day_number_to_date(day_number: int) -> dt.date:
    return dt.date.fromordinal(day_number + _EPOCH_ORDINAL)


def date_to_day_number(date: dt.date) -> int:
    return date.toordinal() - _EPOCH_ORDINAL


def runs(n: int, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts) of the runs of equal key tuples over n rows."""
    change = np.zeros(n, bool)
    change[:1] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(starts, append=n)


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[k], starts[k] + counts[k]), concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - starts, counts)


def same_length_segments(starts: np.ndarray, counts: np.ndarray):
    """Per distinct segment length: (segment indices, their rows as one 2-D index array).

    Row i of the index array is segment seg[i]'s rows starts[seg[i]] + 0..n-1.
    """
    lengths = np.sort(counts)
    for n in lengths[runs(len(lengths), lengths)[0]].tolist():
        seg = np.flatnonzero(counts == n)
        yield seg, starts[seg][:, None] + np.arange(n)


def segment_sort(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """values with each segment values[start : start + count] sorted ascending, stably.

    Segments must not overlap. All segments of one length are sorted
    together as the rows of one 2-D array, so the work is one np.sort per
    distinct length; the rows sort by value alone, as a stable lexsort on
    (value, segment) would.
    """
    out = values.copy()
    for _, rows in same_length_segments(starts, counts):
        out[rows] = np.sort(values[rows], axis=1, kind="stable")
    return out


def group_device_days(code, epoch, lat, lon) -> DayColumns:
    """Regroup one bucket's report columns into device-days, in canonical order.

    code numbers the devices in any order. Per device: reports are
    sorted by (epoch, lat, lon), stably, the solar offset of the first
    report becomes the device's single offset, every report is re-dated with
    it, and each local day is one device-day. Devices come in code order,
    days in date order. Rows tied on (code, epoch, lat, lon) are one place
    at one second, so no day's offset, span, count, distances or geocode
    point depend on their order.
    """
    n = len(code)
    # a stable sort of the int64 key code * span + (epoch - min epoch) is
    # np.lexsort((epoch, code)), and runs of rows in arrival order make it
    # cheap; the lexsort is the route when the key would overflow
    span = int(epoch.max()) - int(epoch.min()) + 1 if n else 1
    if n and (int(code.max()) + 1) * span < 2**63:
        order = np.argsort(code.astype(np.int64) * span + (epoch - epoch.min()), kind="stable")
    else:
        order = np.lexsort((epoch, code))
    code, epoch = code[order], epoch[order]
    # only rows tied on (code, epoch) need the float keys: the sort is
    # stable, so re-sorting each tie run by (lat, lon) alone gives the
    # order of the four-key lexsort
    tied = (code[1:] == code[:-1]) & (epoch[1:] == epoch[:-1])
    if tied.any():
        rows = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
        t = order[rows]
        order[rows] = t[np.lexsort((lon[t], lat[t], epoch[rows], code[rows]))]
    lat, lon = lat[order], lon[order]
    devices, reports = runs(n, code)
    tz_by_device = [solar_tz_offset_hours(x) for x in lon[devices].tolist()]
    tz = np.repeat(np.array(tz_by_device, np.int64), reports)
    day = local_day_number(epoch, tz)
    starts, counts = runs(n, code, day)
    return DayColumns(code, epoch, lat, lon, order, starts, counts, day[starts], tz[starts])
