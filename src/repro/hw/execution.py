"""The hardware execution model: traffic + flops -> time, power, energy.

A kernel's "run" on a simulated platform is computed analytically from its
exact cache behaviour (the simulator's per-level counters) and the
platform's ground-truth laws:

* compute time from flop count and used cores,
* memory time from per-level traffic, with the LLC served at the uncore
  clock and DRAM modelled as max(latency-bound, bandwidth-bound) where both
  depend on the uncore frequency,
* total time as a partial-overlap combination ``max(Tc, Tm) + rho*min``,
* power as constant + core-utilization + uncore(f, activity) + DRAM-energy
  terms,

plus multiplicative log-normal measurement noise seeded per (kernel,
frequency), so repeated "measurements" jitter like real ones but are
reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.cache.simulator import CacheSimResult
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class KernelWorkload:
    """Everything the execution model needs to know about one kernel."""

    name: str
    flops: int
    level_accesses: Tuple[int, ...]  # accesses arriving at each cache level
    dram_fetch_bytes: int
    dram_writeback_bytes: int
    dram_lines: int
    parallel: bool = False
    threads: int = 1

    @property
    def dram_bytes(self) -> int:
        return self.dram_fetch_bytes + self.dram_writeback_bytes

    def operational_intensity(self) -> float:
        """Measured OI: flops per DRAM byte."""
        if self.dram_bytes == 0:
            return math.inf
        return self.flops / self.dram_bytes


@dataclass(frozen=True)
class RunResult:
    """One simulated execution."""

    name: str
    f_uncore_ghz: float
    time_s: float
    energy_j: float

    @property
    def avg_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0

    @property
    def edp(self) -> float:
        return self.energy_j * self.time_s


def workload_from_sim(
    name: str,
    flops: int,
    sim: CacheSimResult,
    parallel: bool = False,
    threads: int = 1,
) -> KernelWorkload:
    """Build a workload from hardware-simulator counters."""
    return KernelWorkload(
        name=name,
        flops=flops,
        level_accesses=tuple(level.accesses for level in sim.levels),
        dram_fetch_bytes=sim.dram_fetch_bytes,
        dram_writeback_bytes=sim.dram_writeback_bytes,
        dram_lines=sim.llc.misses + sim.llc.writebacks,
        parallel=parallel,
        threads=threads,
    )


def _cores_used(platform: PlatformSpec, workload: KernelWorkload) -> int:
    if not workload.parallel:
        return 1
    return max(1, min(workload.threads, platform.cores))


def compute_time_s(platform: PlatformSpec, workload: KernelWorkload) -> float:
    """Tc: flop time at base core frequency on the used cores."""
    cores = _cores_used(platform, workload)
    return workload.flops / platform.peak_flops_per_sec(cores)


def _llc_dram_time_s(
    platform: PlatformSpec,
    workload: KernelWorkload,
    f_uncore_ghz: float,
    prefetch: bool,
) -> Tuple[float, float]:
    """The uncore-clocked terms: LLC service time and DRAM time.

    DRAM time is max(bandwidth-bound, latency-bound), both at the uncore
    clock.
    """
    t_llc = 0.0
    if len(workload.level_accesses) >= 3:
        line = platform.hierarchy.line_bytes
        t_llc = workload.level_accesses[2] * line / platform.llc_bandwidth(
            f_uncore_ghz
        )
    bandwidth_bound = workload.dram_bytes / platform.dram_bandwidth(
        f_uncore_ghz
    )
    latency = platform.dram_latency_s(f_uncore_ghz)
    if prefetch:
        latency *= 1.0 - platform.prefetch_hiding
    latency_bound = (
        workload.dram_lines * latency / platform.mem_level_parallelism
    )
    return t_llc, max(bandwidth_bound, latency_bound)


def memory_time_s(
    platform: PlatformSpec,
    workload: KernelWorkload,
    f_uncore_ghz: float,
    prefetch: bool = True,
) -> float:
    """Tm: L2 + LLC (uncore clock) + DRAM service time."""
    t_l2 = 0.0
    if len(workload.level_accesses) >= 2:
        line = platform.hierarchy.line_bytes
        t_l2 = workload.level_accesses[1] * line / platform.l2_bytes_per_sec
    t_llc, dram = _llc_dram_time_s(platform, workload, f_uncore_ghz, prefetch)
    return t_l2 + t_llc + dram


def uncore_time_s(
    platform: PlatformSpec,
    workload: KernelWorkload,
    f_uncore_ghz: float,
    prefetch: bool = True,
) -> float:
    """The uncore-clocked share of the memory time: LLC service + DRAM.

    (Excludes the private-L2 term, which runs at core clock; this is the
    signal a frequency-aware uncore runtime would react to.)
    """
    t_llc, dram = _llc_dram_time_s(platform, workload, f_uncore_ghz, prefetch)
    return t_llc + dram


def _noise(platform: PlatformSpec, tag: str, sigma_scale: float = 1.0) -> float:
    digest = hashlib.sha256(tag.encode()).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    sigma = platform.noise_sigma * sigma_scale
    return float(np.exp(rng.normal(0.0, sigma)))


def execute_fixed(
    platform: PlatformSpec,
    workload: KernelWorkload,
    f_uncore_ghz: float,
    prefetch: bool = True,
    noisy: bool = True,
) -> RunResult:
    """Run one kernel at a fixed uncore frequency."""
    f = platform.uncore.clamp(f_uncore_ghz)
    t_compute = compute_time_s(platform, workload)
    t_memory = memory_time_s(platform, workload, f, prefetch)
    time_s = max(t_compute, t_memory) + platform.overlap_rho * min(
        t_compute, t_memory
    )
    power_w = instant_power_w(
        platform, workload, f, t_compute, t_memory, time_s
    )
    if noisy:
        time_s *= _noise(platform, f"{workload.name}|{f}|t")
        power_w *= _noise(platform, f"{workload.name}|{f}|p")
    return RunResult(workload.name, f, time_s, power_w * time_s)


def instant_power_w(
    platform: PlatformSpec,
    workload: KernelWorkload,
    f_uncore_ghz: float,
    t_compute: float,
    t_memory: float,
    time_s: float,
) -> float:
    """Average power over an execution window (noise-free)."""
    if time_s <= 0:
        return platform.p_constant_w
    cores = _cores_used(platform, workload)
    core_util = min(1.0, t_compute / time_s)
    memory_util = min(1.0, t_memory / time_s)
    p_core = platform.p_core_dyn_w * cores * core_util
    p_uncore = platform.uncore_power_w(f_uncore_ghz, memory_util)
    p_dram = platform.e_dram_per_byte * workload.dram_bytes / time_s
    return platform.p_constant_w + p_core + p_uncore + p_dram
