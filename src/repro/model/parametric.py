"""Parametric performance/power estimation (paper Sec. V).

The model combines the PolyUFC-CM counters of one kernel with a platform's
fitted roofline constants:

* **Eqn 2/3/4** -- execution time decomposes into flop time
  ``T_Omega = Omega * t_FPU`` and memory time: per-level traffic weighted by
  hit service times (L2 at core clock, LLC at the uncore clock) plus LLC
  misses times the DRAM miss penalty ``M^t(f) = a/f + b``.  PolyUFC-CM's
  per-level access counts *are* the paper's hit/miss-ratio products applied
  to total traffic, so the implementation uses them directly.
* **Eqn 5/6** -- performance ``Omega/T`` and bandwidth ``Q_DRAM/T``.
* **Eqn 10** -- average power: constant + CB/BB-specialized uncore power
  (energy-per-byte linear in ``f`` times the DRAM byte rate) + flop power.
* **Eqn 11** -- energy ``Omega*e_FPU + T^Q * P``; EDP is ``E * T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cache.static_model import CacheModelResult
from repro.roofline.characterize import Boundedness, characterize
from repro.roofline.constants import RooflineConstants


@dataclass(frozen=True)
class KernelSummary:
    """PolyUFC-CM outputs the model consumes (per kernel)."""

    name: str
    omega: int  # total flops
    q_dram_bytes: int  # Q_DRAM = Miss_LLC * line
    dram_lines: int  # Miss_LLC
    level_bytes: Tuple[int, ...]  # Q_ci per level (bytes arriving at level i)
    cores_fraction: float = 1.0  # used cores / all cores (serial kernels < 1)

    @property
    def oi_fpb(self) -> float:
        """Operational intensity I = Omega / Q_DRAM (Eqn 1)."""
        if self.q_dram_bytes == 0:
            return math.inf
        return self.omega / self.q_dram_bytes


def summary_from_cm(
    name: str,
    omega: int,
    cm: CacheModelResult,
    cores_fraction: float = 1.0,
) -> KernelSummary:
    """Build a model input from a PolyUFC-CM result."""
    # Q_ci for the time model is the *line-fill* traffic arriving at level
    # i: the misses of the level above, times the line size.  (PolyUFC-CM's
    # write-through forwarding stream determines miss counts at each level
    # but is not itself billable data movement.)
    line = cm.line_bytes
    level_bytes = [0] + [
        cm.levels[i - 1].misses * line for i in range(1, len(cm.levels))
    ]
    return KernelSummary(
        name=name,
        omega=omega,
        q_dram_bytes=cm.q_dram_bytes,
        dram_lines=cm.miss_llc,
        level_bytes=tuple(level_bytes),
        cores_fraction=cores_fraction,
    )


@dataclass(frozen=True)
class ModelEstimate:
    """All Sec. V quantities at one frequency."""

    f_ghz: float
    time_s: float
    memory_time_s: float
    perf_flops: float
    bandwidth_bps: float
    power_w: float
    energy_j: float

    @property
    def edp(self) -> float:
        return self.energy_j * self.time_s


class PolyUFCModel:
    """Eqns 2-11 for one kernel on one calibrated platform."""

    def __init__(self, constants: RooflineConstants, kernel: KernelSummary):
        self.constants = constants
        self.kernel = kernel
        self.characterization = characterize(constants, kernel.oi_fpb)

    # -- time (Eqns 2-4) -----------------------------------------------------

    def flop_time_s(self) -> float:
        """T_Omega = Omega * t_FPU, scaled by the used-core fraction."""
        fraction = max(self.kernel.cores_fraction, 1e-6)
        return self.kernel.omega * self.constants.t_fpu / fraction

    def memory_time_s(self, f_ghz: float) -> float:
        """T^Q_{f,I}: per-level hit service plus DRAM miss penalties."""
        constants = self.constants
        t = 0.0
        if len(self.kernel.level_bytes) >= 2:
            t += self.kernel.level_bytes[1] * constants.h_l2
        if len(self.kernel.level_bytes) >= 3:
            t += self.kernel.level_bytes[2] * constants.h_llc_fit(f_ghz)
        bandwidth_time = self.kernel.q_dram_bytes / constants.bandwidth_at(
            f_ghz
        )
        latency_time = self.kernel.dram_lines * constants.miss_penalty_fit(
            f_ghz
        )
        t += max(bandwidth_time, latency_time)
        return t

    def time_s(self, f_ghz: float) -> float:
        """Eqn 2 with a calibrated overlap combiner.

        The literal Eqn 2 is ``T = T_Omega + T^Q``, which assumes no
        compute/memory overlap and over-penalizes memory traffic on machines
        with prefetching and out-of-order cores.  We use
        ``max(T_Omega, T^Q) + rho * min(...)`` with ``rho`` fitted by the
        balanced microbenchmark (``rho = 1`` recovers the paper's additive
        form exactly, see :meth:`time_eqn2_s`).
        """
        flop = self.flop_time_s()
        memory = self.memory_time_s(f_ghz)
        rho = self.constants.overlap_rho
        return max(flop, memory) + rho * min(flop, memory)

    def time_eqn2_s(self, f_ghz: float) -> float:
        """The literal additive Eqn 2 (kept for comparison)."""
        return self.flop_time_s() + self.memory_time_s(f_ghz)

    # -- performance / bandwidth (Eqns 5, 6) ----------------------------------

    def perf_flops(self, f_ghz: float) -> float:
        time_total = self.time_s(f_ghz)
        if time_total <= 0.0:
            return 0.0  # degenerate zero-work unit (degraded fallback)
        return self.kernel.omega / time_total

    def bandwidth_bps(self, f_ghz: float) -> float:
        time_total = self.time_s(f_ghz)
        if time_total <= 0.0:
            return 0.0
        return self.kernel.q_dram_bytes / time_total

    # -- power (Eqn 10) --------------------------------------------------------

    def power_w(self, f_ghz: float) -> float:
        """Average total power, CB/BB specialized (Eqn 10).

        Three uncore-side terms:

        * the *idle* uncore draw ``p_uncore_idle_fit(f)`` -- present for the
          kernel's whole runtime regardless of traffic; this is the
          over-provisioning static capping removes on CB kernels,
        * the traffic-driven term: DRAM byte rate times the fitted
          energy-per-byte ``(alpha_P * f + gamma_P)``, scaled by
          ``B^t/I`` for CB kernels per the paper's piecewise form,
        * the flop power ``p_hat_FPU`` (scaled by ``I/B^t`` for BB kernels,
          whose compute units are underutilized).
        """
        constants = self.constants
        time_total = self.time_s(f_ghz)
        if time_total <= 0:
            return constants.p_con
        memory_fraction = min(1.0, self.memory_time_s(f_ghz) / time_total)
        compute_fraction = min(1.0, self.flop_time_s() / time_total)
        idle_power = max(0.0, constants.p_uncore_idle_fit(f_ghz))
        # Memory-bound peak power minus the idle share is the activity-driven
        # uncore+DRAM power; the kernel draws it in proportion to the time it
        # keeps the memory system busy.  For CB kernels memory_fraction is
        # itself ~B^t/I, realizing the paper's attenuation factor through the
        # model's own time decomposition (and symmetrically for BB compute).
        active_memory = max(0.0, constants.p_hat_dram_fit(f_ghz) - idle_power)
        p_fpu = (
            constants.p_hat_fpu
            * self.kernel.cores_fraction
            * compute_fraction
        )
        oi = self.kernel.oi_fpb
        balance = constants.b_t_dram
        if not math.isinf(oi) and self.characterization.is_bandwidth_bound:
            p_fpu *= min(1.0, oi / balance)
        return (
            constants.p_con
            + idle_power
            + active_memory * memory_fraction
            + p_fpu
        )

    # -- energy / EDP (Eqn 11) --------------------------------------------------

    def energy_j(self, f_ghz: float) -> float:
        """E = E^Omega + E^Q (Eqn 11).

        Deviation from the literal Eqn 11: the paper multiplies the average
        power only by the memory time ``T^Q``, which drops the uncore energy
        drawn during compute phases -- the very over-provisioning the paper
        caps away on CB kernels.  We integrate the average power over the
        *total* runtime (flop energy is carried inside ``P`` via
        ``p_hat_FPU``), which matches the measured energies in the paper's
        own Fig. 1.
        """
        return self.time_s(f_ghz) * self.power_w(f_ghz)

    def energy_eqn11_j(self, f_ghz: float) -> float:
        """The literal Eqn 11 decomposition (kept for comparison)."""
        flop_energy = (
            self.kernel.omega * self.constants.e_fpu * self.kernel.cores_fraction
        )
        return flop_energy + self.memory_time_s(f_ghz) * self.power_w(f_ghz)

    def edp(self, f_ghz: float) -> float:
        return self.energy_j(f_ghz) * self.time_s(f_ghz)

    def estimate(self, f_ghz: float) -> ModelEstimate:
        """All quantities at one cap setting."""
        time_total = self.time_s(f_ghz)
        return ModelEstimate(
            f_ghz=f_ghz,
            time_s=time_total,
            memory_time_s=self.memory_time_s(f_ghz),
            perf_flops=self.perf_flops(f_ghz),
            bandwidth_bps=self.bandwidth_bps(f_ghz),
            power_w=self.power_w(f_ghz),
            energy_j=self.energy_j(f_ghz),
        )

    @property
    def boundedness(self) -> Boundedness:
        return self.characterization.boundedness
