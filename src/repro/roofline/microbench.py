"""One-time roofline microbenchmarking (the paper's footnote 3 / 14).

Synthetic microkernels with controlled flop/byte mixes are "run" on the
simulated platform (through the same noisy execution model real kernels
use), and the Tab. I constants are fitted from the observed times, powers
and energies -- never read from the platform's ground truth:

* flop-only kernels on 1 core and on all cores separate constant power from
  per-core dynamic power and give ``t_fpu``/``e_fpu``,
* a DRAM-streaming kernel swept over uncore frequencies gives the bandwidth
  fit, ``t_byte``, and the energy/peak-power-per-byte fits,
* a pointer-chase-like latency kernel swept over frequencies gives the
  ``M^t = a/f + b`` miss-penalty fit,
* L2- and LLC-resident kernels give the per-level hit service times.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

from repro.hw.execution import KernelWorkload, RunResult, execute_fixed
from repro.hw.platform import PlatformSpec
from repro.roofline.constants import InverseFit, LinearFit, RooflineConstants

#: Iterations per PAPI-style measurement (the paper uses 2^10 per event).
DEFAULT_REPS = 5


def _median_run(
    platform: PlatformSpec,
    workload: KernelWorkload,
    f_ghz: float,
    reps: int,
) -> Tuple[float, float]:
    """Median (time, power) over repeated noisy measurements."""
    times: List[float] = []
    powers: List[float] = []
    for rep in range(reps):
        tagged = KernelWorkload(
            name=f"{workload.name}#r{rep}",
            flops=workload.flops,
            level_accesses=workload.level_accesses,
            dram_fetch_bytes=workload.dram_fetch_bytes,
            dram_writeback_bytes=workload.dram_writeback_bytes,
            dram_lines=workload.dram_lines,
            parallel=workload.parallel,
            threads=workload.threads,
        )
        run = execute_fixed(platform, tagged, f_ghz, prefetch=True)
        times.append(run.time_s)
        powers.append(run.avg_power_w)
    return statistics.median(times), statistics.median(powers)


def _flop_kernel(platform: PlatformSpec, cores: int) -> KernelWorkload:
    flops = int(50e-3 * platform.peak_flops_per_sec(cores))  # ~50 ms of work
    return KernelWorkload(
        name=f"ubench.flops.c{cores}",
        flops=flops,
        level_accesses=(64, 0, 0),
        dram_fetch_bytes=64,
        dram_writeback_bytes=0,
        dram_lines=1,
        parallel=cores > 1,
        threads=cores,
    )


def _stream_kernel(platform: PlatformSpec) -> KernelWorkload:
    line = platform.hierarchy.line_bytes
    nbytes = 256 * 1024 * 1024
    lines = nbytes // line
    accesses = nbytes // 8
    # Every line is touched once: each level sees one line-granule request
    # per line (level_accesses counts requests *arriving* at that level).
    return KernelWorkload(
        name="ubench.stream",
        flops=accesses // 8,  # negligible compute
        level_accesses=(accesses, lines, lines),
        dram_fetch_bytes=nbytes,
        dram_writeback_bytes=0,
        dram_lines=lines,
        parallel=True,
        threads=platform.threads,
    )


def _latency_kernel(platform: PlatformSpec) -> KernelWorkload:
    """Pointer-chase: one outstanding miss at a time, bandwidth-irrelevant."""
    line = platform.hierarchy.line_bytes
    lines = 2_000_000
    # Dependent loads defeat memory-level parallelism: model this by scaling
    # the line count up by the platform's MLP so the measured per-line time
    # reflects the raw penalty.  (The fit absorbs the calibration.)
    return KernelWorkload(
        name="ubench.ptrchase",
        flops=lines // 64,
        level_accesses=(lines, lines, lines),
        dram_fetch_bytes=lines * line,
        dram_writeback_bytes=0,
        dram_lines=lines,
        parallel=False,
        threads=1,
    )


def _l2_kernel(platform: PlatformSpec) -> KernelWorkload:
    accesses = 4_000_000
    return KernelWorkload(
        name="ubench.l2res",
        flops=accesses // 16,
        level_accesses=(accesses, accesses, 0),
        dram_fetch_bytes=64,
        dram_writeback_bytes=0,
        dram_lines=1,
        parallel=True,
        threads=platform.threads,
    )


def _llc_kernel(platform: PlatformSpec) -> KernelWorkload:
    accesses = 4_000_000
    return KernelWorkload(
        name="ubench.llcres",
        flops=accesses // 16,
        level_accesses=(accesses, accesses, accesses),
        dram_fetch_bytes=64,
        dram_writeback_bytes=0,
        dram_lines=1,
        parallel=True,
        threads=platform.threads,
    )


def calibrate_platform(
    platform: PlatformSpec, reps: int = DEFAULT_REPS
) -> RooflineConstants:
    """Fit the full Tab. I constants for one platform."""
    line = platform.hierarchy.line_bytes
    f_max = platform.uncore.f_max_ghz
    freqs = platform.uncore.frequencies()
    sweep = freqs[:: max(1, len(freqs) // 10)]

    # --- flop roof + power separation --------------------------------------
    f_min = platform.uncore.f_min_ghz
    one_core = _flop_kernel(platform, 1)
    all_cores = _flop_kernel(platform, platform.cores)
    t1, p1 = _median_run(platform, one_core, f_min, reps)
    tn, pn = _median_run(platform, all_cores, f_min, reps)
    t_fpu = tn / all_cores.flops
    # P = p_con' + k * cores  =>  solve from the 1-core and n-core points.
    per_core_dyn = (pn - p1) / (platform.cores - 1)
    p_con = p1 - per_core_dyn
    e_fpu = per_core_dyn * platform.cores * t_fpu  # J/flop at full throughput

    # --- idle-uncore power vs frequency -------------------------------------
    # The flop-only kernel exercises no memory, so its power growth across
    # the uncore sweep is pure uncore idle draw -- the over-provisioning
    # static capping eliminates on CB kernels.
    idle_points: List[Tuple[float, float]] = []
    for f in freqs[:: max(1, len(freqs) // 10)]:
        _t, p_f = _median_run(platform, all_cores, f, reps)
        idle_points.append((f, max(0.0, p_f - pn)))
    p_uncore_idle_fit = LinearFit.fit(*zip(*idle_points))

    # --- bandwidth roof + per-byte power ------------------------------------
    stream = _stream_kernel(platform)
    bw_points: List[Tuple[float, float]] = []
    e_byte_points: List[Tuple[float, float]] = []
    p_mem_points: List[Tuple[float, float]] = []
    for f in sweep:
        time_s, power_w = _median_run(platform, stream, f, reps)
        bandwidth = stream.dram_bytes / time_s
        bw_points.append((f, bandwidth))
        mem_power = max(power_w - p_con, 1e-3)
        p_mem_points.append((f, mem_power))
        e_byte_points.append((f, mem_power / bandwidth))
    bw_peak = max(bw for _, bw in bw_points)
    rising = [(f, bw) for f, bw in bw_points if bw < 0.98 * bw_peak]
    if len(rising) < 2:
        rising = bw_points[:2]
    dram_bw_fit = LinearFit.fit(*zip(*rising))
    t_byte = 1.0 / bw_peak
    e_byte_fit = LinearFit.fit(*zip(*e_byte_points))
    p_hat_dram_fit = LinearFit.fit(*zip(*p_mem_points))

    # --- latency fit: M^t(f) = a/f + b --------------------------------------
    chase = _latency_kernel(platform)
    lat_points: List[Tuple[float, float]] = []
    for f in sweep:
        time_s, _power = _median_run(platform, chase, f, reps)
        lat_points.append((f, time_s / chase.dram_lines))
    miss_penalty_fit = InverseFit.fit(*zip(*lat_points))

    # --- compute/memory overlap ----------------------------------------------
    # A balanced kernel with flop time == memory time at f_max reveals how
    # much of the smaller component the machine hides:
    #   T = max + rho*min = x*(1 + rho)  =>  rho = T/x - 1.
    balance_seconds = 10e-3
    flops_bal = int(balance_seconds * platform.peak_flops_per_sec())
    bytes_bal = int(balance_seconds * platform.dram_bandwidth(f_max))
    balanced = KernelWorkload(
        name="ubench.balanced",
        flops=flops_bal,
        level_accesses=(bytes_bal // 8, 64, 64),
        dram_fetch_bytes=bytes_bal,
        dram_writeback_bytes=0,
        dram_lines=bytes_bal // line,
        parallel=True,
        threads=platform.threads,
    )
    t_bal, _ = _median_run(platform, balanced, f_max, reps)
    overlap_rho = min(1.0, max(0.0, t_bal / balance_seconds - 1.0))

    # --- per-level hit service times ----------------------------------------
    l2_kernel = _l2_kernel(platform)
    t_l2, _ = _median_run(platform, l2_kernel, f_max, reps)
    h_l2 = t_l2 / (l2_kernel.level_accesses[1] * line)
    llc_kernel = _llc_kernel(platform)
    llc_points: List[Tuple[float, float]] = []
    for f in sweep:
        t_llc, _ = _median_run(platform, llc_kernel, f, reps)
        per_byte = (t_llc - t_l2) / (llc_kernel.level_accesses[2] * line)
        llc_points.append((f, max(per_byte, 1e-15)))
    h_llc_fit = InverseFit.fit(*zip(*llc_points))

    return RooflineConstants(
        platform_name=platform.name,
        t_fpu=t_fpu,
        t_byte=t_byte,
        p_con=p_con,
        e_fpu=e_fpu,
        e_byte_fit=e_byte_fit,
        p_hat_dram_fit=p_hat_dram_fit,
        p_uncore_idle_fit=p_uncore_idle_fit,
        h_l2=h_l2,
        h_llc_fit=h_llc_fit,
        miss_penalty_fit=miss_penalty_fit,
        dram_bw_fit=dram_bw_fit,
        dram_bw_peak=bw_peak,
        line_bytes=line,
        overlap_rho=overlap_rho,
    )
