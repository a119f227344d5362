"""
One device-day, end to end
==========================

Raw report lines are parsed and filtered, grouped into a local calendar
day, checked for eligibility, and reduced to the three mobility
measures, with the column functions the pipeline's gather step runs.
The same day is then recomputed with the brute-force reference
implementation to show the two routes agree.
"""

import numpy as np

from mobstats import oracle
from mobstats.collate import day_number_to_date, group_device_days
from mobstats.ingest import parse_fields
from mobstats.metrics import day_box_and_hull, day_max_distances, day_rejections

# Twelve reports from one device on 2020-03-16, plus one malformed line
# and one with hopeless accuracy. Longitude ~ -105 so local midnight is
# seven hours after UTC midnight.
T0 = 1584316800  # 2020-03-16 00:00:00 UTC
lines = [f"phone-1,{T0 + 25200 + h * 3600},{39.7 + 0.003 * (h % 5)},{-105.0 - 0.004 * (h % 3)},12.0"
         for h in range(12)]
lines.insert(3, "phone-1,not-an-epoch,39.7,-105.0,12.0")
lines.insert(7, f"phone-1,{T0 + 40000},39.71,-105.01,220.0")

reports = []
for line in lines:
    parsed = parse_fields(line)
    if isinstance(parsed, str):
        print(f"dropped (malformed: {parsed}): {line}")
    elif parsed[4] > 50.0:
        print(f"dropped (accuracy {parsed[4]} m): {line}")
    else:
        reports.append(parsed)
print(f"kept {len(reports)} of {len(lines)} lines\n")

# Collation sorts the reports as columns (one device, code 0), takes the
# solar offset of the first one, and splits on local midnights. Here
# everything lands on one day: rows dd.starts[0] : dd.starts[0] + dd.counts[0].
epoch, lat, lon = (np.array([r[j] for r in reports]) for j in (1, 2, 3))
dd = group_device_days(np.zeros(len(reports), np.int64), epoch, lat, lon)
spans = dd.epoch[dd.starts + dd.counts - 1] - dd.epoch[dd.starts]
too_few, short_span = day_rejections(dd.counts, spans)
print(f"device    {reports[0][0]}")
print(f"local day {day_number_to_date(int(dd.day[0]))}  (solar offset {int(dd.tz[0]):+d} h)")
print(f"reports   {dd.counts[0]}, span {spans[0] / 3600:.2f} h")
print(f"eligible  {not (too_few[0] or short_span[0])}\n")

# m_max, the measure the pipeline publishes, for every day at once; the
# box and hull measures take the day's rows in the same sorted order.
m_max = day_max_distances(dd.lat, dd.lon, dd.starts, dd.counts)[0]
m_bb, m_ch, _, _ = day_box_and_hull([reports[i][1:] for i in dd.order.tolist()])
print(f"m_max (trimmed max from first report) {m_max:8.3f} km")
print(f"m_bb  (bounding box measure)          {m_bb:8.3f} km")
print(f"m_ch  (convex hull measure)           {m_ch:8.3f} km")

# The reference route uses a different haversine form, a supporting-line
# hull and fan triangulation, yet lands on the same numbers.
ref = oracle.oracle_metrics([r[1:] for r in reports])
for name, got in (("m_max", m_max), ("m_bb", m_bb), ("m_ch", m_ch)):
    diff = abs(got - ref[name])
    print(f"reference {name:<5} {ref[name]:8.3f} km   |diff| {diff:.2e}")
