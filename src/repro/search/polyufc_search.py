"""POLYUFC-SEARCH (paper Sec. VI-C).

Eqns 4 and 10 are non-linear in ``f_c`` and ``I`` and induce a non-convex
space; rather than convex relaxations the paper uses a **binary search with
0.1 GHz steps**, guided by the bottleneck characterization, over the model's
performance/bandwidth/EDP estimates:

* the binary search halves the frequency interval, comparing the objective
  at adjacent grid points to decide which half contains the optimum
  (~log2(39) probes on RPL's 39-step range, "search precision" Sec. VII-F),
* an epsilon-guided refinement then applies the paper's tuning rule: for CB
  kernels the cap keeps *descending* while the relative performance loss
  does not exceed the relative bandwidth loss by more than ``epsilon``; for
  BB kernels the cap keeps *ascending* while performance gains track
  bandwidth gains within ``epsilon``,
* the search terminates when the frequency stabilizes between iterations or
  the space is exhausted.

Objectives: ``edp`` (default), ``energy``, ``performance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.hw.platform import UncoreSpec
from repro.model.parametric import PolyUFCModel

OBJECTIVES = ("edp", "energy", "performance")

#: Probe pairs the binary search may spend before it stops unconverged.
MAX_ITERATIONS = 64


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs; epsilon defaults to the paper's 1e-3 (Sec. VII-E)."""

    objective: str = "edp"
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective {self.objective!r} not in {OBJECTIVES}"
            )


@dataclass(frozen=True)
class SearchStep:
    """One evaluated frequency (for the search trace)."""

    f_ghz: float
    perf_flops: float
    bandwidth_bps: float
    edp: float
    energy_j: float


@dataclass
class SearchResult:
    """The selected cap and how it was found."""

    f_cap_ghz: float
    objective: str
    objective_value: float
    boundedness: str
    steps: List[SearchStep] = field(default_factory=list)
    converged: bool = True

    @property
    def iterations(self) -> int:
        return len(self.steps)


def polyufc_search(
    model: PolyUFCModel,
    uncore: UncoreSpec,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Select an uncore frequency cap for one kernel."""
    freqs = uncore.frequencies()
    steps: List[SearchStep] = []

    def evaluate(f: float) -> SearchStep:
        bandwidth = model.bandwidth_bps(f)
        # Flop-free units (e.g. linalg.fill) have zero flop "performance";
        # their progress rate is their bandwidth.
        perf = model.perf_flops(f) if model.kernel.omega > 0 else bandwidth
        step = SearchStep(
            f_ghz=f,
            perf_flops=perf,
            bandwidth_bps=bandwidth,
            edp=model.edp(f),
            energy_j=model.energy_j(f),
        )
        steps.append(step)
        return step

    objective_of: Callable[[SearchStep], float] = {
        "edp": lambda s: s.edp,
        "energy": lambda s: s.energy_j,
        "performance": lambda s: -s.perf_flops,
    }[config.objective]

    # --- phase 1: binary search over the frequency grid ----------------------
    lo, hi = 0, len(freqs) - 1
    iterations = 0
    while hi - lo > 1 and iterations < MAX_ITERATIONS:
        iterations += 1
        mid = (lo + hi) // 2
        here = objective_of(evaluate(freqs[mid]))
        there = objective_of(evaluate(freqs[mid + 1]))
        if here <= there:
            hi = mid
        else:
            lo = mid + 1
    candidates = [evaluate(freqs[index]) for index in sorted({lo, hi})]
    best = min(candidates, key=objective_of)

    # --- phase 2: epsilon-guided directional refinement ----------------------
    converged = iterations < MAX_ITERATIONS
    index = freqs.index(best.f_ghz)

    def ratio(num: float, den: float) -> float:
        # Zero-work units (degraded fallbacks) have zero perf/bandwidth
        # everywhere; treat their ratios as flat rather than dividing by 0.
        return num / den if den > 0.0 else 1.0

    if model.characterization.is_compute_bound:
        # Descend while performance loss stays within epsilon of BW loss.
        while index > 0:
            lower = evaluate(freqs[index - 1])
            perf_loss = 1.0 - ratio(lower.perf_flops, best.perf_flops)
            bw_loss = 1.0 - ratio(lower.bandwidth_bps, best.bandwidth_bps)
            improves = objective_of(lower) <= objective_of(best)
            if perf_loss - bw_loss > config.epsilon or not improves:
                break
            best = lower
            index -= 1
    else:
        # Ascend to prioritize performance while bandwidth and performance
        # gains stay aligned (the kernel is still bandwidth-limited), up to
        # the fitted bandwidth-saturation frequency -- beyond it extra
        # uncore frequency buys no bandwidth, only power.
        saturation = model.constants.saturation_freq()
        while index < len(freqs) - 1:
            next_freq = freqs[index + 1]
            if next_freq > saturation + 0.05:
                break
            higher = evaluate(next_freq)
            perf_gain = ratio(higher.perf_flops, best.perf_flops) - 1.0
            bw_gain = ratio(higher.bandwidth_bps, best.bandwidth_bps) - 1.0
            aligned = bw_gain - perf_gain <= config.epsilon
            if not aligned or perf_gain <= -config.epsilon:
                break
            best = higher
            index += 1

    return SearchResult(
        f_cap_ghz=best.f_ghz,
        objective=config.objective,
        objective_value=objective_of(best),
        boundedness=str(model.boundedness),
        steps=steps,
        converged=converged,
    )
