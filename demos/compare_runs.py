"""
Comparing two datasets
======================

Runs the pipeline over two generated datasets in one invocation: same
seed and devices, but the second locks down harder. With exactly two
datasets the run also writes compare.ndjson, joining the per-region
daily rows and reporting the index delta.
"""

import json
import os
import tempfile

from mobstats.pipeline import PipelineConfig, run
from mobstats.synth import ScenarioSpec, generate

tmp = tempfile.mkdtemp(prefix="compare-demo-")
out_dir = os.path.join(tmp, "out")

# Dataset A drops to 60% of baseline mobility, dataset B to 30%.
globs = []
for name, scale in (("a", 0.60), ("b", 0.30)):
    data_dir = os.path.join(tmp, f"data-{name}")
    info = generate(ScenarioSpec(seed=21, devices=30, scale=scale), data_dir)
    globs.append(os.path.join(data_dir, "shards", "*.csv"))
    gazetteer = info["gazetteer_path"]

reports = run(PipelineConfig(
    inputs=globs, gazetteer=gazetteer, output_dir=out_dir, workers=2,
))
for i, r in enumerate(reports):
    print(f"dataset-{i:02d}: {r['eligible_device_days']} eligible device-days "
          f"-> {os.path.join(out_dir, f'dataset-{i:02d}')}")

# Every joined row carries both indexes and delta = b - a. Before the
# lockdown the two datasets are identical, so the delta is zero; after
# it the harder lockdown shows as a negative delta.
print("\nsample of compare.ndjson (admin1 rows):")
shown = 0
with open(os.path.join(out_dir, "compare.ndjson"), encoding="utf-8") as fh:
    for line in fh:
        row = json.loads(line)
        if row["admin_level"] != "admin1" or row["date"] < "2020-03-07":
            continue
        print(f"  {row['admin1']:<12} {row['date']}  a={row['m50_index_a']:6.1f}  "
              f"b={row['m50_index_b']:6.1f}  delta={row['delta']:6.1f}")
        shown += 1
        if shown == 8:
            break
