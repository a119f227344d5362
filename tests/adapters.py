"""Adapters from plain tuples and rings to the column functions the pipeline runs.

Tests state reports as (device_id, epoch_s, lat, lon[, accuracy_m]) tuples
and regions as closed rings of (x, y) points. These helpers hand them to
group_device_days, day_rejections and locate, and take read_shard's result
back, in the forms the pipeline uses, and reimplement none of their rules.
"""

import datetime as dt
import json
import os
import tempfile
from typing import NamedTuple

import numpy as np

from mobstats.collate import DayColumns, day_number_to_date, group_device_days
from mobstats.geocode import load_gazetteer, locate
from mobstats.metrics import REASON_SHORT_SPAN, REASON_TOO_FEW, day_rejections


def shard_rows(shard: tuple) -> list[tuple]:
    """read_shard's accepted reports as (device_id, epoch, lat, lon) tuples, in its order."""
    _, ids, (code, *columns) = shard
    return list(zip([ids[c] for c in code.tolist()], *(c.tolist() for c in columns)))


class Day(NamedTuple):
    device_id: str
    local_date: dt.date
    tz_offset_hours: int
    reports: list[tuple]  # (epoch, lat, lon[, acc]) rows, in group_device_days' order


def device_days(reports: list[tuple]) -> tuple[list[Day], DayColumns]:
    """The reports regrouped by group_device_days, as one Day per device-day and as columns.

    Device codes number the sorted device ids.
    """
    names = sorted({r[0] for r in reports})
    code_of = {name: i for i, name in enumerate(names)}
    code = np.array([code_of[r[0]] for r in reports], np.int64)
    epoch, lat, lon = (np.array([r[j] for r in reports], dtype)
                       for j, dtype in ((1, np.int64), (2, np.float64), (3, np.float64)))
    dd = group_device_days(code, epoch, lat, lon)
    rows = [reports[i][1:] for i in dd.order.tolist()]
    days = [Day(names[c], day_number_to_date(day), tz, rows[s:s + n])
            for c, day, tz, s, n in zip(dd.code[dd.starts].tolist(), dd.day.tolist(),
                                        dd.tz.tolist(), dd.starts.tolist(), dd.counts.tolist())]
    return days, dd


def verdicts(dd: DayColumns) -> list[str | None]:
    """Each device-day's rejection reason from day_rejections, None when eligible."""
    spans = dd.epoch[dd.starts + dd.counts - 1] - dd.epoch[dd.starts]
    too_few, short_span = day_rejections(dd.counts, spans)
    return [REASON_TOO_FEW if few else REASON_SHORT_SPAN if short else None
            for few, short in zip(too_few.tolist(), short_span.tolist())]


def contains(rings, x, y) -> list[bool]:
    """Whether one region bounded by the closed (x, y) rings holds each point (x[k], y[k]).

    The region is the one record of a gazetteer file, and locate answers.
    """
    rec = {"type": "region", "country_code": "AA", "admin1": "", "admin2": "",
           "region_id": "R", "polygons": [np.asarray(r, float).tolist() for r in rings]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gazetteer.ndjson")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        gaz = load_gazetteer(path)
    return (locate(gaz, np.asarray(y, float), np.asarray(x, float)) == 0).tolist()
