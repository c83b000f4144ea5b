"""Compile-and-measure driver shared by every table/figure harness.

``kernel_report`` runs the full PolyUFC flow on one benchmark for one
platform and attaches, per capping unit, both the model-side numbers
(PolyUFC-CM counters, OI, CB/BB, selected cap) and the hardware-side
workload (exact cache-simulator counters).  Since the service PR it is a
thin synchronous wrapper over :mod:`repro.service`: the request becomes
a content-addressed :class:`~repro.service.JobSpec`, results are served
from (and persisted to) the shared
:class:`~repro.service.store.ResultStore`, and the computation itself is
:func:`repro.service.execute_report` -- the exact same path the batch
scheduler and the HTTP front use.  ``REPRO_NO_CACHE=1`` disables
persistence, ``REPRO_CACHE_DIR`` relocates it.

``baseline_comparison`` and ``frequency_sweep`` then evaluate the cached
workloads through the execution model -- those calls are cheap, so sweeps
and governor comparisons never re-run the expensive trace analyses.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.hw.execution import execute_fixed
from repro.hw.governor import (
    GovernorConfig,
    SequenceResult,
    run_capped_sequence,
    run_governed_sequence,
)
from repro.hw.platform import get_platform
from repro.mlpolyufc.reports import KernelReport

log = logging.getLogger("repro.runtime")

#: How long the reactive baseline of :func:`baseline_comparison` runs:
#: the kernel sequence is repeated until it lasts about this long.
BASELINE_RUNTIME_S = 5e-3


def kernel_report(
    benchmark: str,
    platform: str,
    granularity: str = "linalg",
    objective: str = "edp",
    set_associative: bool = True,
    tile_size: int = 32,
    epsilon: float = 1e-3,
    cap_overhead_factor: float = 50.0,
    cm_engine: Optional[str] = None,
    cm_timeout_s: Optional[float] = None,
) -> KernelReport:
    """Compile one benchmark for one platform; results are store-backed.

    ``cm_timeout_s`` (default: unbounded) bounds the PolyUFC-CM stage;
    reports containing degraded units are returned but never persisted
    (store policy), so a transient timeout cannot poison the cache.
    """
    from repro.service import JobSpec, execute_report, resolve_store

    spec = JobSpec(
        benchmark=benchmark,
        platform=platform,
        granularity=granularity,
        objective=objective,
        set_associative=set_associative,
        tile_size=tile_size,
        epsilon=epsilon,
        cap_overhead_factor=cap_overhead_factor,
        engine=cm_engine,
        cm_timeout_s=cm_timeout_s,
    )
    store = resolve_store()
    if store is not None:
        cached = store.get_report(spec.digest())
        if cached is not None:
            return cached
    report = execute_report(spec, store=store)
    if store is not None:
        store.put_report(spec, report)  # refuses degraded reports
    return report


@dataclass
class Comparison:
    """PolyUFC static caps vs the reactive-driver baseline."""

    benchmark: str
    platform: str
    baseline: SequenceResult
    capped: SequenceResult

    @property
    def speedup(self) -> float:
        return self.baseline.time_s / self.capped.time_s

    @property
    def energy_gain(self) -> float:
        return self.baseline.energy_j / self.capped.energy_j

    @property
    def edp_gain(self) -> float:
        return self.baseline.edp / self.capped.edp


def baseline_comparison(benchmark: str, platform: str) -> Comparison:
    """Run PolyUFC-capped code vs the UFS-like reactive baseline.

    The kernel sequence is repeated back to back (real measurements run
    paper-scale kernels whose durations dwarf the per-cap driver overhead;
    repetitions restore that time scale -- redundant cap calls after the
    first iteration cost nothing because the rewrite keeps only cap
    *changes*), as often as makes the baseline run last about
    :data:`BASELINE_RUNTIME_S`.
    """
    report = kernel_report(benchmark, platform)
    plat = get_platform(platform)
    workloads = [unit.workload(plat.threads) for unit in report.units]
    once = sum(
        execute_fixed(plat, wl, plat.uncore.f_max_ghz, noisy=False).time_s
        for wl in workloads
    )
    reps = max(1, min(5000, int(round(BASELINE_RUNTIME_S / max(once, 1e-9)))))
    sequence = workloads * reps
    caps = [
        (wl, unit.cap_ghz) for wl, unit in zip(workloads, report.units)
    ] * reps
    baseline = run_governed_sequence(plat, sequence, GovernorConfig())
    capped = run_capped_sequence(plat, caps)
    return Comparison(benchmark, plat.name, baseline, capped)


def frequency_sweep(
    benchmark: str, platform: str
) -> List[Tuple[float, float, float, float]]:
    """(f, time, energy, EDP) of the whole kernel at each fixed cap."""
    report = kernel_report(benchmark, platform)
    plat = get_platform(platform)
    workloads = [unit.workload(plat.threads) for unit in report.units]
    rows = []
    for f in plat.uncore.frequencies():
        time_s = 0.0
        energy_j = 0.0
        for workload in workloads:
            run = execute_fixed(plat, workload, f)
            time_s += run.time_s
            energy_j += run.energy_j
        rows.append((f, time_s, energy_j, energy_j * time_s))
    return rows
