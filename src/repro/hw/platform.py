"""Simulated platform specifications (the Tab. III substitute).

Two microarchitectures mirror the paper's testbed, scaled down together with
the benchmark problem sizes (see DESIGN.md): cache capacities, bandwidths
and flop rates are all smaller than the real parts, but the *ratios* that
drive characterization -- machine balance, LLC capacity vs working sets,
bandwidth-saturation frequency inside the uncore range -- are preserved.

* ``broadwell_sim`` (BDW): 2015-class; uncore 1.2-2.8 GHz, smaller LLC,
  lower bandwidth, no uncore RAPL zone (the paper could only measure package
  power on BDW).
* ``raptorlake_sim`` (RPL): 2023-class; uncore 0.8-4.6 GHz, larger LLC and
  much higher bandwidth, uncore RAPL zone available.

Ground-truth time/power parameters live here; the roofline microbenchmarks
(:mod:`repro.roofline.microbench`) only ever observe them through simulated
measurements with noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.cache.config import CacheHierarchy, CacheLevelConfig


@dataclass(frozen=True)
class UncoreSpec:
    """The uncore frequency domain."""

    f_min_ghz: float
    f_max_ghz: float
    step_ghz: float = 0.1

    def frequencies(self) -> Tuple[float, ...]:
        """All settable cap values, f_min..f_max inclusive."""
        count = int(round((self.f_max_ghz - self.f_min_ghz) / self.step_ghz))
        return tuple(
            round(self.f_min_ghz + i * self.step_ghz, 3)
            for i in range(count + 1)
        )

    def clamp(self, freq_ghz: float) -> float:
        snapped = round(
            self.f_min_ghz
            + round((freq_ghz - self.f_min_ghz) / self.step_ghz) * self.step_ghz,
            3,
        )
        return min(self.f_max_ghz, max(self.f_min_ghz, snapped))


@dataclass(frozen=True)
class PlatformSpec:
    """A simulated CPU with ground-truth timing and power laws."""

    name: str
    arch: str
    released: int
    cores: int
    threads: int
    core_base_ghz: float
    core_max_ghz: float
    uncore: UncoreSpec
    hierarchy: CacheHierarchy

    # --- timing ground truth ---------------------------------------------
    flops_per_cycle: float  # per core
    l2_bytes_per_sec: float  # L2 service bandwidth (core clock domain)
    llc_bw_base: float  # LLC bandwidth floor (bytes/s)
    llc_bytes_per_sec_per_ghz: float  # LLC bandwidth slope in uncore f
    dram_bw_base: float  # DRAM bandwidth floor (bytes/s)
    dram_bw_per_ghz: float  # DRAM bandwidth slope per GHz of uncore
    dram_bw_max: float  # DRAM saturation bandwidth, bytes/s
    dram_lat_a: float  # miss penalty seconds*GHz: lat(f) = a/f + b
    dram_lat_b: float
    mem_level_parallelism: float  # outstanding misses hiding latency
    overlap_rho: float  # non-overlapped fraction of min(Tc, Tm)
    prefetch_hiding: float  # fraction of DRAM latency hidden by prefetch

    # --- power ground truth ------------------------------------------------
    p_constant_w: float  # static/package base power
    p_core_dyn_w: float  # per-core dynamic power at full utilization
    p_uncore_coeffs: Tuple[float, float, float]  # a + b*f + c*f^2 (watts)
    uncore_idle_fraction: float  # idle uncore activity floor
    e_dram_per_byte: float  # joules per DRAM byte

    # --- driver characteristics -------------------------------------------
    cap_overhead_s: float  # per set_uncore_cap call
    has_uncore_rapl: bool
    noise_sigma: float = 0.01

    extra: Dict = field(default_factory=dict)

    # -- derived quantities --------------------------------------------------

    def peak_flops_per_sec(self, cores_used: int = None) -> float:
        used = self.cores if cores_used is None else min(cores_used, self.cores)
        return used * self.flops_per_cycle * self.core_base_ghz * 1e9

    def dram_bandwidth(self, f_uncore_ghz: float) -> float:
        """Effective DRAM bandwidth: floor + slope, clipped at saturation."""
        return min(
            self.dram_bw_max,
            self.dram_bw_base + self.dram_bw_per_ghz * f_uncore_ghz,
        )

    def llc_bandwidth(self, f_uncore_ghz: float) -> float:
        """LLC service bandwidth at the given uncore frequency."""
        return self.llc_bw_base + self.llc_bytes_per_sec_per_ghz * f_uncore_ghz

    def bandwidth_saturation_freq(self) -> float:
        """Lowest uncore frequency reaching the DRAM bandwidth ceiling."""
        return self.uncore.clamp(
            (self.dram_bw_max - self.dram_bw_base) / self.dram_bw_per_ghz
        )

    def dram_latency_s(self, f_uncore_ghz: float) -> float:
        """Per-line DRAM miss penalty: a/f + b (the paper's M^t form)."""
        return self.dram_lat_a / f_uncore_ghz + self.dram_lat_b

    def uncore_power_w(self, f_uncore_ghz: float, activity: float) -> float:
        """Uncore power at frequency f with activity in [0, 1]."""
        a, b, c = self.p_uncore_coeffs
        scale = self.uncore_idle_fraction + (
            1.0 - self.uncore_idle_fraction
        ) * min(1.0, max(0.0, activity))
        return (a + b * f_uncore_ghz + c * f_uncore_ghz**2) * scale

    def machine_balance_fpb(self) -> float:
        """Time balance B^t_DRAM = peak flops/s over peak DRAM bytes/s."""
        return self.peak_flops_per_sec() / self.dram_bw_max


def broadwell_sim() -> PlatformSpec:
    """BDW-sim: Xeon 1650-v4-like (6C/12T), scaled caches."""
    hierarchy = CacheHierarchy(
        (
            CacheLevelConfig("L1", 8 * 1024, 64, 8),
            CacheLevelConfig("L2", 32 * 1024, 64, 8),
            CacheLevelConfig("LLC", 192 * 1024, 64, 12),
        )
    )
    return PlatformSpec(
        name="broadwell_sim",
        arch="bdw",
        released=2015,
        cores=6,
        threads=12,
        core_base_ghz=3.0,
        core_max_ghz=4.0,
        uncore=UncoreSpec(1.2, 2.8),
        hierarchy=hierarchy,
        flops_per_cycle=3.0,
        l2_bytes_per_sec=60e9,
        llc_bw_base=10e9,
        llc_bytes_per_sec_per_ghz=12e9,
        dram_bw_base=5.0e9,
        dram_bw_per_ghz=3.6e9,
        dram_bw_max=13.0e9,
        dram_lat_a=120e-9,  # seconds*GHz
        dram_lat_b=45e-9,
        mem_level_parallelism=16.0,
        overlap_rho=0.25,
        prefetch_hiding=0.55,
        p_constant_w=18.0,
        p_core_dyn_w=6.5,
        p_uncore_coeffs=(1.5, 1.2, 1.6),
        uncore_idle_fraction=0.35,
        e_dram_per_byte=1.1e-10,
        cap_overhead_s=35e-6,
        has_uncore_rapl=False,
    )


def raptorlake_sim() -> PlatformSpec:
    """RPL-sim: i5-13600-like (14C/20T), larger LLC, higher bandwidth."""
    hierarchy = CacheHierarchy(
        (
            CacheLevelConfig("L1", 12 * 1024, 64, 12),
            CacheLevelConfig("L2", 64 * 1024, 64, 8),
            CacheLevelConfig("LLC", 512 * 1024, 64, 16),
        )
    )
    return PlatformSpec(
        name="raptorlake_sim",
        arch="rpl",
        released=2023,
        cores=14,
        threads=20,
        core_base_ghz=3.5,
        core_max_ghz=5.0,
        uncore=UncoreSpec(0.8, 4.6),
        hierarchy=hierarchy,
        flops_per_cycle=2.0,
        l2_bytes_per_sec=120e9,
        llc_bw_base=25e9,
        llc_bytes_per_sec_per_ghz=18e9,
        dram_bw_base=14.0e9,
        dram_bw_per_ghz=5.0e9,
        dram_bw_max=32.0e9,
        dram_lat_a=70e-9,
        dram_lat_b=30e-9,
        mem_level_parallelism=16.0,
        overlap_rho=0.2,
        prefetch_hiding=0.65,
        p_constant_w=14.0,
        p_core_dyn_w=3.5,
        p_uncore_coeffs=(1.0, 0.7, 0.9),
        uncore_idle_fraction=0.3,
        e_dram_per_byte=0.8e-10,
        cap_overhead_s=21e-6,
        has_uncore_rapl=True,
    )


PLATFORMS = {
    "broadwell_sim": broadwell_sim,
    "bdw": broadwell_sim,
    "raptorlake_sim": raptorlake_sim,
    "rpl": raptorlake_sim,
}


def get_platform(name: str) -> PlatformSpec:
    """Look up a platform by name or arch alias."""
    try:
        return PLATFORMS[name.lower()]()
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {sorted(PLATFORMS)}"
        ) from None
