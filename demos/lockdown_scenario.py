"""
A synthetic lockdown, measured
==============================

Generates a scenario whose devices move normally through the baseline
window and then at 30% of their usual range, runs the full pipeline on
it, and reads the published index back out of stats.ndjson.
"""

import os
import statistics
import tempfile

from mobstats.output import read_ndjson
from mobstats.pipeline import PipelineConfig, run
from mobstats.synth import ScenarioSpec, generate

tmp = tempfile.mkdtemp(prefix="lockdown-demo-")
data_dir = os.path.join(tmp, "data")
out_dir = os.path.join(tmp, "out")

# 40 devices, normal mobility through 2020-03-08, 30% from 2020-03-09.
spec = ScenarioSpec(seed=7, devices=40, scale=0.30)
info = generate(spec, data_dir)
print(f"wrote {info['lines_read']} report lines in {spec.shards} shards")

report = run(PipelineConfig(
    inputs=[os.path.join(data_dir, "shards", "*.csv")],
    gazetteer=info["gazetteer_path"],
    output_dir=out_dir,
    workers=2,
))[0]
print(f"eligible device-days: {report['eligible_device_days']}\n")

# Median index across regions, day by day. The baseline window median
# sits at 100 by construction; the lockdown shows up as ~30.
records = read_ndjson(os.path.join(out_dir, "stats.ndjson"))
by_date = {}
for r in records:
    if r.m50_index is not None:
        by_date.setdefault(r.date, []).append(r.m50_index)

print("date        regions  median m50_index")
for date in sorted(by_date):
    vals = by_date[date]
    marker = "  <- lockdown" if date >= "2020-03-09" else ""
    print(f"{date}  {len(vals):7d}  {statistics.median(vals):16.1f}{marker}")

print(f"\noutputs left in {out_dir}")
