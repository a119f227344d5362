"""Batch pipeline turning raw device position reports into per-region
daily mobility statistics (m50 and the m50 mobility index). Import each
name from the module that defines it; this root loads no submodule.
"""

import os

# mobstats makes no BLAS call, but OpenBLAS starts its worker threads (one
# per core) while the library loads, before any call. This runs before the
# first numpy import; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
