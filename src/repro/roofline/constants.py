"""Roofline constants (the paper's Tab. I), with frequency-parametric fits.

All constants are *fitted from measurements* on a platform; none are copied
from the platform's ground truth.  Frequency-dependent quantities are kept
as small fit objects:

* :class:`LinearFit` -- ``alpha * f + gamma`` (the paper's linear fits for
  miss-penalty power and peak DRAM power),
* :class:`InverseFit` -- ``a / f + b`` (the paper's DRAM miss-penalty time
  ``M^t``, and the LLC hit service time, both uncore-clocked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """``value(f) = alpha * f + gamma``."""

    alpha: float
    gamma: float

    def __call__(self, f_ghz: float) -> float:
        return self.alpha * f_ghz + self.gamma

    @staticmethod
    def fit(freqs: Sequence[float], values: Sequence[float]) -> "LinearFit":
        alpha, gamma = np.polyfit(np.asarray(freqs), np.asarray(values), 1)
        return LinearFit(float(alpha), float(gamma))


@dataclass(frozen=True)
class InverseFit:
    """``value(f) = a / f + b`` -- the paper's M^t_{f,LLC} form."""

    a: float
    b: float

    def __call__(self, f_ghz: float) -> float:
        return self.a / f_ghz + self.b

    @staticmethod
    def fit(freqs: Sequence[float], values: Sequence[float]) -> "InverseFit":
        inv = 1.0 / np.asarray(freqs, dtype=float)
        a, b = np.polyfit(inv, np.asarray(values, dtype=float), 1)
        return InverseFit(float(a), float(b))


@dataclass(frozen=True)
class RooflineConstants:
    """Fitted performance + power roofline constants for one platform.

    Mirrors Tab. I: ``t_fpu``/``t_byte`` (time per flop / byte),
    ``b_t_dram``/``b_e_dram`` (time/energy balance), ``e_fpu``/``p_hat_fpu``
    (energy / peak power per flop), ``e_byte``/``p_hat_byte`` frequency fits
    (energy / peak power per DRAM byte) and ``p_con`` (constant power).
    """

    platform_name: str
    # performance roofline
    t_fpu: float  # seconds per flop (machine-wide, base core clock)
    t_byte: float  # seconds per DRAM byte at max uncore frequency
    # power roofline
    p_con: float  # constant (static) power, W, at minimum uncore frequency
    e_fpu: float  # J per flop
    e_byte_fit: LinearFit  # J per DRAM byte as a function of uncore f
    p_hat_dram_fit: LinearFit  # peak DRAM-bound power (W) vs uncore f
    p_uncore_idle_fit: LinearFit  # idle-uncore power increase over f_min, W
    # parametric memory-time pieces (Eqn 4 inputs)
    h_l2: float  # L2 hit service time, seconds per byte
    h_llc_fit: InverseFit  # LLC hit service time per byte vs uncore f
    miss_penalty_fit: InverseFit  # DRAM miss penalty per line (M^t), seconds
    dram_bw_fit: LinearFit  # measured DRAM bandwidth (B/s) vs f, pre-saturation
    dram_bw_peak: float  # saturated bandwidth, B/s
    line_bytes: int
    #: Fitted compute/memory overlap: T = max(Tc, Tq) + overlap_rho*min.
    #: (The literal Eqn 2 is additive, i.e. overlap_rho = 1; the calibrated
    #: combiner matches machines that overlap memory with compute.)
    overlap_rho: float = 1.0

    @property
    def peak_flops(self) -> float:
        return 1.0 / self.t_fpu

    @property
    def peak_bandwidth(self) -> float:
        return 1.0 / self.t_byte

    @property
    def b_t_dram(self) -> float:
        """Time balance (FpB): peak flops over peak DRAM bandwidth."""
        return self.t_byte / self.t_fpu

    @property
    def b_e_dram(self) -> float:
        """Energy balance (FpB) at max uncore frequency."""
        f_ref = (self.dram_bw_peak - self.dram_bw_fit.gamma) / max(
            self.dram_bw_fit.alpha, 1e-30
        )
        return self.e_byte_fit(f_ref) / self.e_fpu

    @property
    def p_hat_fpu(self) -> float:
        """Peak flop-bound power above constant, W."""
        return self.e_fpu / self.t_fpu

    def bandwidth_at(self, f_ghz: float) -> float:
        """Fitted DRAM bandwidth at an uncore frequency (saturation-clipped)."""
        return min(self.dram_bw_peak, self.dram_bw_fit(f_ghz))

    def saturation_freq(self) -> float:
        """Fitted uncore frequency where bandwidth saturates."""
        if self.dram_bw_fit.alpha <= 0:
            return float("inf")
        return (self.dram_bw_peak - self.dram_bw_fit.gamma) / self.dram_bw_fit.alpha
