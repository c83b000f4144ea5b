"""Cache substrate: configs, trace generation, simulator, and PolyUFC-CM.

Two cache-behaviour engines share one access-trace representation:

* :mod:`repro.cache.simulator` -- the "hardware": a multi-level inclusive
  set-associative write-back LRU simulator.  Its miss counts are what the
  simulated platforms report through PAPI-like counters.
* :mod:`repro.cache.static_model` -- PolyUFC-CM: the paper's approximate
  static model (per-set LRU reuse distances, write-allocate + write-through,
  empty initial cache, no prefetching, OpenMP thread-division heuristic),
  with both set-associative and fully-associative variants.

The gap between the two is the model error the paper evaluates in Fig. 6
and Fig. 8.
"""

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.cache.trace import (
    AccessTrace,
    LineStream,
    generate_trace,
    line_stream,
    reference_generate_trace,
    trace_differences,
)
from repro.cache.simulator import CacheSimResult, LevelStats, simulate_hierarchy
from repro.cache.static_model import (
    CM_ENGINES,
    CacheModelResult,
    LevelCounters,
    LevelModelStats,
    polyufc_cm,
    reference_cm,
    resolve_engine,
)
from repro.cache.memo import (
    clear_memo,
    memoized_cm_with_note,
    memoized_stream,
    unit_fingerprint,
)
from repro.cache.symbolic_model import SymbolicUnsupported, symbolic_cm
from repro.cache.polyhedral_model import (
    ExactLevelCounts,
    ExactPolyhedralCM,
    exact_first_level_counts,
)

__all__ = [
    "CacheHierarchy",
    "CacheLevelConfig",
    "AccessTrace",
    "LineStream",
    "generate_trace",
    "line_stream",
    "reference_generate_trace",
    "trace_differences",
    "CacheSimResult",
    "LevelStats",
    "simulate_hierarchy",
    "CacheModelResult",
    "LevelCounters",
    "LevelModelStats",
    "polyufc_cm",
    "reference_cm",
    "CM_ENGINES",
    "resolve_engine",
    "clear_memo",
    "memoized_cm_with_note",
    "memoized_stream",
    "unit_fingerprint",
    "SymbolicUnsupported",
    "symbolic_cm",
    "ExactLevelCounts",
    "ExactPolyhedralCM",
    "exact_first_level_counts",
]
