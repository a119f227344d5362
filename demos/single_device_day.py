"""
One device-day, end to end
==========================

Raw report lines are parsed and filtered, grouped into a local calendar
day, checked for eligibility, and reduced to the three mobility
measures. The same day is then recomputed with the brute-force
reference implementation to show the two routes agree.
"""

from mobstats import oracle
from mobstats.collate import build_device_days
from mobstats.ingest import parse_fields
from mobstats.metrics import compute_metrics, rejection_reason, span_hours

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

# Collation sorts the reports, takes the solar offset of the first one,
# and splits on local midnights. Here everything lands on one day.
(day,) = build_device_days(reports)
print(f"device    {day.device_id}")
print(f"local day {day.local_date}  (solar offset {day.tz_offset_hours:+d} h)")
print(f"reports   {len(day.reports)}, span {span_hours(day):.2f} h")
print(f"eligible  {rejection_reason(day) is None}\n")

m = compute_metrics(day)
print(f"m_max (trimmed max from first report) {m.m_max:8.3f} km")
print(f"m_bb  (bounding box measure)          {m.m_bb:8.3f} km")
print(f"m_ch  (convex hull measure)           {m.m_ch:8.3f} km")

# The reference route uses a different haversine form, an O(n^4) hull
# and fan triangulation, yet lands on the same numbers.
ref = oracle.oracle_metrics([r[1:] for r in reports])
for name, got in (("m_max", m.m_max), ("m_bb", m.m_bb), ("m_ch", m.m_ch)):
    diff = abs(got - ref[name])
    print(f"reference {name:<5} {ref[name]:8.3f} km   |diff| {diff:.2e}")
