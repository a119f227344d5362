"""Batch pipeline turning raw device position reports into per-region
daily mobility statistics (m50 and the m50 mobility index). The
deterministic synthetic-data generator (mobstats.synth) and the
brute-force reference implementations (mobstats.oracle) that verify it
are imported from their modules, so the CLI does not load them.
"""

import os

# mobstats makes no BLAS call, but OpenBLAS starts its worker threads (one
# per core) while the library loads, before any call. This runs before the
# first numpy import; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .aggregate import reduce_region_day
from .errors import ConfigError, DataError
from .geo import GeoPoint, solar_tz_offset_hours
from .geocode import Gazetteer, RegionKey, load_gazetteer, reverse_geocode
from .ingest import IngestStats, parse_fields
from .pipeline import PipelineConfig, compare_stats, run

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "Gazetteer",
    "GeoPoint",
    "IngestStats",
    "PipelineConfig",
    "RegionKey",
    "compare_stats",
    "load_gazetteer",
    "parse_fields",
    "reduce_region_day",
    "reverse_geocode",
    "run",
    "solar_tz_offset_hours",
    "__version__",
]
