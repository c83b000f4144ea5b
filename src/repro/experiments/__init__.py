"""Experiment runner: compile + measure benchmarks, store-backed.

The heavy artifacts (PolyUFC compilation, trace simulation) persist in
the content-addressed service store (``repro.service.store``) under
``.polyufc_cache/store/``, so regenerating a table or figure is fast
after the first run -- and the batch scheduler, HTTP front and this
runner all share one source of truth.  Set ``REPRO_CACHE_DIR`` to
relocate the store or ``REPRO_NO_CACHE=1`` to disable it.
"""

from repro.experiments.runner import (
    baseline_comparison,
    frequency_sweep,
    kernel_report,
)

__all__ = [
    "baseline_comparison",
    "frequency_sweep",
    "kernel_report",
]
