"""
Comparing two datasets
======================

Runs the pipeline once per generated dataset: same seed and devices, but
the second locks down harder. Each run reduces one dataset into its own
output directory; compare_stats then joins their stats files on region
and date and reports the index delta, as `mobstats compare` does.
"""

import json
import os
import tempfile

from mobstats.output import write_compare
from mobstats.pipeline import PipelineConfig, compare_stats, run
from mobstats.synth import ScenarioSpec, generate

tmp = tempfile.mkdtemp(prefix="compare-demo-")

# Dataset A drops to 60% of baseline mobility, dataset B to 30%.
stats_paths = []
for name, scale in (("a", 0.60), ("b", 0.30)):
    data_dir = os.path.join(tmp, f"data-{name}")
    out_dir = os.path.join(tmp, f"out-{name}")
    info = generate(ScenarioSpec(seed=21, devices=30, scale=scale), data_dir)
    (report,) = run(PipelineConfig(
        inputs=[os.path.join(data_dir, "shards", "*.csv")],
        gazetteer=info["gazetteer_path"], output_dir=out_dir, workers=2,
    ))
    print(f"dataset {name}: {report['eligible_device_days']} eligible device-days -> {out_dir}")
    stats_paths.append(os.path.join(out_dir, "stats.ndjson"))

compare_path = os.path.join(tmp, "compare.ndjson")
with open(compare_path, "w", encoding="utf-8", newline="\n") as fh:
    write_compare(compare_stats(*stats_paths), fh)

# Every joined row carries both indexes and delta = b - a. Before the
# lockdown the two datasets are identical, so the delta is zero; after
# it the harder lockdown shows as a negative delta.
print(f"\nsample of {compare_path} (admin1 rows):")
shown = 0
with open(compare_path, encoding="utf-8") as fh:
    for line in fh:
        row = json.loads(line)
        if row["admin_level"] != "admin1" or row["date"] < "2020-03-07":
            continue
        print(f"  {row['admin1']:<12} {row['date']}  a={row['m50_index_a']:6.1f}  "
              f"b={row['m50_index_b']:6.1f}  delta={row['delta']:6.1f}")
        shown += 1
        if shown == 8:
            break
