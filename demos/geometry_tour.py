"""
A tour of the geometry toolkit
==============================

Distances, bounding boxes and convex hulls on a handful of points,
computed the same way the pipeline computes them for a device-day.
"""

import numpy as np

from mobstats.geo import convex_hull_xy, haversine_km_arr, solar_tz_offset_hours
from mobstats.metrics import day_box_and_hull

# A morning in Denver as (lat, lon): home, a coffee shop, the office, a park.
stops = [
    (39.7392, -104.9903),
    (39.7420, -104.9915),
    (39.7512, -104.9967),
    (39.7085, -105.0110),
]
home_lat, home_lon = stops[0]
lats = np.array([lat for lat, _ in stops[1:]])
lons = np.array([lon for _, lon in stops[1:]])

# Great-circle distance from home to each stop, one call for all of them.
print("distances from home (km):")
for lat, lon, d in zip(lats, lons, haversine_km_arr(home_lat, home_lon, lats, lons)):
    print(f"  ({lat:8.4f}, {lon:9.4f})  {d:6.3f}")

# A device-day's box and hull, measured from its (epoch, lat, lon, accuracy)
# rows on the (lon, lat) plane in square degrees, then linearized to km
# with 111 * sqrt(area) * cos(mean latitude). The hull drops interior
# points; its area is capped at the box area.
rows = [(0, lat, lon, 5.0) for lat, lon in stops]
m_bb, m_ch, a_bb, a_ch = day_box_and_hull(rows)
hull = convex_hull_xy([(lon, lat) for lat, lon in stops])
print(f"\nbounding box area: {a_bb:.6f} deg^2  ->  m_bb {m_bb:.3f} km")
print(f"hull vertices:     {len(hull)}")
print(f"hull area:         {a_ch:.6f} deg^2  ->  m_ch {m_ch:.3f} km")

# Solar time zone: longitude alone picks the offset, 15 degrees per hour.
print(f"\nsolar offset at lon {home_lon}: {solar_tz_offset_hours(home_lon):+d} h")
print(f"solar offset at lon 174.8:    {solar_tz_offset_hours(174.8):+d} h")

# Near the antimeridian the box stays small because longitudes are
# unwrapped before measuring: a 0.02 degree hop across the date line is
# a 0.02 degree box, not a 359.98 degree one.
cross = [(0, 10.0, 179.99, 5.0), (0, 10.01, -179.99, 5.0)]
print(f"\nbox area straddling the date line: {day_box_and_hull(cross)[2]:.6f} deg^2")
