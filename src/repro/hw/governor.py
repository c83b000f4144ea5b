"""Uncore frequency drivers: the reactive UFS-like baseline and static caps.

``run_governed_sequence`` models the stock Intel uncore frequency scaling
driver: an interval-based reactive controller that observes memory
boundedness and steps the uncore frequency up (quickly, to protect
performance) or down (slowly, to save power).  Its control-loop latency is
what compiler-inserted static caps beat: a bandwidth-bound kernel spends its
first milliseconds below the bandwidth-saturation frequency, and a
compute-bound kernel spends most of its runtime above the EDP-optimal one.

``run_capped_sequence`` models PolyUFC-generated binaries: each kernel runs
at its embedded cap, and every cap *change* charges the measured driver
overhead (35us on BDW, 21us on RPL, Sec. VII-F).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.hw.execution import (
    KernelWorkload,
    RunResult,
    compute_time_s,
    execute_fixed,
    instant_power_w,
    memory_time_s,
)
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class GovernorConfig:
    """Reactive uncore driver parameters.

    Defaults model the stock driver's sticky-high behaviour: any noticeable
    memory activity ramps the uncore up quickly, and it descends only very
    slowly when the memory system looks idle.  That is near-optimal for
    bandwidth-bound performance and systematically over-provisioned for
    compute-bound kernels -- the inefficiency Sec. I motivates.
    """

    interval_s: float = 500e-6
    up_step_ghz: float = 0.2
    down_step_ghz: float = 0.05
    high_boundedness: float = 0.25
    low_boundedness: float = 0.04
    start_fraction: float = 0.85  # initial f as a fraction of f_max
    max_intervals: int = 2_000_000


@dataclass
class SequenceResult:
    """Execution of a kernel sequence (totals plus per-kernel runs).

    ``warnings`` carries structured anomalies from the simulated run --
    today that is interval-budget exhaustion (``max_intervals``), which
    truncates the run instead of raising so long sweeps degrade loudly
    rather than die; ``truncated`` is True iff such a warning is present.
    """

    runs: List[RunResult]
    time_s: float
    energy_j: float
    cap_switches: int = 0
    warnings: List[str] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return any(
            warning.startswith("max_intervals") for warning in self.warnings
        )

    @property
    def avg_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0

    @property
    def edp(self) -> float:
        return self.energy_j * self.time_s


def exhaustion_warning(
    budget: int,
    kernel: str,
    index: int,
    total: int,
    progress: float,
) -> str:
    """The structured ``max_intervals`` truncation warning.

    One format shared by both interval-driven drivers (reactive and
    DUF), machine-matchable via ``SequenceResult.truncated``.
    """
    return (
        f"max_intervals={budget} exhausted in kernel {kernel!r} "
        f"({index + 1}/{total}, {progress:.1%} done); "
        f"remaining work truncated"
    )


def run_governed_sequence(
    platform: PlatformSpec,
    workloads: Sequence[KernelWorkload],
    config: GovernorConfig = GovernorConfig(),
    prefetch: bool = True,
    start_freq_ghz: Optional[float] = None,
) -> SequenceResult:
    """Run kernels back to back under the reactive driver.

    The driver's frequency state persists across kernels, like the real
    sysfs driver does across process phases.
    """
    freq = platform.uncore.clamp(
        start_freq_ghz
        if start_freq_ghz is not None
        else config.start_fraction * platform.uncore.f_max_ghz
    )
    runs: List[RunResult] = []
    total_time = 0.0
    total_energy = 0.0
    warnings: List[str] = []
    # The control interval spans kernel boundaries, like the real driver's
    # sampling timer does: utilization is accumulated time-weighted until
    # the interval elapses, then the frequency steps.
    interval_left = config.interval_s
    bound_weighted = 0.0
    interval_elapsed = 0.0
    intervals = 0
    for index, workload in enumerate(workloads):
        if warnings:
            break
        kernel_time = 0.0
        kernel_energy = 0.0
        progress = 0.0
        while progress < 1.0:
            intervals += 1
            if intervals > config.max_intervals:
                warnings.append(exhaustion_warning(
                    config.max_intervals, workload.name,
                    index, len(workloads), progress,
                ))
                break
            t_compute = compute_time_s(platform, workload)
            t_memory = memory_time_s(platform, workload, freq, prefetch)
            full_time = max(t_compute, t_memory) + platform.overlap_rho * min(
                t_compute, t_memory
            )
            power = instant_power_w(
                platform, workload, freq, t_compute, t_memory, full_time
            )
            remaining = (1.0 - progress) * full_time
            slice_s = min(interval_left, remaining)
            progress += slice_s / full_time if full_time else 1.0
            kernel_time += slice_s
            kernel_energy += power * slice_s
            boundedness = t_memory / full_time if full_time else 0.0
            bound_weighted += boundedness * slice_s
            interval_elapsed += slice_s
            interval_left -= slice_s
            if interval_left <= 1e-12:
                average = (
                    bound_weighted / interval_elapsed
                    if interval_elapsed
                    else 0.0
                )
                if average > config.high_boundedness:
                    freq = platform.uncore.clamp(freq + config.up_step_ghz)
                elif average < config.low_boundedness:
                    freq = platform.uncore.clamp(freq - config.down_step_ghz)
                interval_left = config.interval_s
                bound_weighted = 0.0
                interval_elapsed = 0.0
        runs.append(RunResult(workload.name, freq, kernel_time, kernel_energy))
        total_time += kernel_time
        total_energy += kernel_energy
    return SequenceResult(
        runs, total_time, total_energy, warnings=warnings
    )


def run_capped_sequence(
    platform: PlatformSpec,
    items: Sequence[Tuple[KernelWorkload, Optional[float]]],
    prefetch: bool = True,
    noisy: bool = True,
) -> SequenceResult:
    """Run kernels with embedded static caps (None = platform maximum).

    A cap *change* costs the platform's measured driver-call overhead,
    charged at constant-plus-idle-uncore power.
    """
    runs: List[RunResult] = []
    total_time = 0.0
    total_energy = 0.0
    switches = 0
    current: Optional[float] = None
    for workload, cap in items:
        target = platform.uncore.clamp(
            cap if cap is not None else platform.uncore.f_max_ghz
        )
        if current is None or abs(target - current) > 1e-9:
            switches += 1
            overhead = platform.cap_overhead_s
            idle_power = platform.p_constant_w + platform.uncore_power_w(
                target, 0.0
            )
            total_time += overhead
            total_energy += idle_power * overhead
            current = target
        run = execute_fixed(platform, workload, current, prefetch, noisy)
        runs.append(run)
        total_time += run.time_s
        total_energy += run.energy_j
    return SequenceResult(runs, total_time, total_energy, switches)
