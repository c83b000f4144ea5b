"""The end-to-end PolyUFC compilation flow (paper Fig. 2 / Fig. 3).

``polyufc_compile`` drives the whole pipeline:

1. **preprocess** -- lower the input module to affine IR (torch -> linalg ->
   affine as needed); this is the paper's "St. 2 extraction".
2. **pluto** -- legality-checked tiling + parallelization (St. 2 optimizer).
3. **polyufc_cm** -- per-unit cache analysis + OI (St. 3a-3b).
4. **steps 4-6** -- roofline characterization, Sec. V model, POLYUFC-SEARCH,
   cap insertion and redundant-cap rewriting.

Per-stage wall-clock timings are recorded (they regenerate Tab. IV), and
the paper's timeout rule is honoured: when PolyUFC-CM exceeds the budget
the kernel's cap is reset to the maximum uncore frequency (Sec. VII-F).
A caller that also needs the simulated hardware counters can have the CM
stage produce them on its own first-level classification
(``simulate_hardware``); that simulation is hardware-side work, so its
time stays out of the four stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

from repro.cache.static_model import SimulatorTail
from repro.hw.platform import PlatformSpec
from repro.ir.core import Module
from repro.ir.dialects.affine import AffineForOp, verify_affine
from repro.ir.dialects.linalg import LinalgOp
from repro.ir.dialects.torch_d import TorchOp
from repro.ir.lowering import lower_linalg_to_affine, lower_torch_to_linalg
from repro.mlpolyufc.capping import (
    CapDecision,
    aggregate_caps_for_overhead,
    apply_caps,
    select_caps,
)
from repro.mlpolyufc.characterization import (
    UnitCharacterization,
    characterize_units,
)
from repro.mlpolyufc.rewrite import remove_redundant_caps
from repro.poly.transforms import TileInfo, tile_and_parallelize
from repro.roofline.constants import RooflineConstants
from repro.roofline.microbench import calibrate_platform
from repro.runtime import Deadline
from repro.search.polyufc_search import SearchConfig


@lru_cache(maxsize=None)
def _cached_constants(platform_name: str) -> RooflineConstants:
    from repro.hw.platform import get_platform

    return calibrate_platform(get_platform(platform_name))


def get_constants(platform: PlatformSpec) -> RooflineConstants:
    """One-time microbenchmark calibration, cached per platform."""
    return _cached_constants(platform.name)


@dataclass
class StageTimings:
    """Wall-clock per pipeline stage, milliseconds (Tab. IV rows)."""

    preprocess_ms: float = 0.0
    pluto_ms: float = 0.0
    polyufc_cm_ms: float = 0.0
    steps_4_6_ms: float = 0.0


@dataclass
class PolyUFCResult:
    """Everything the flow produced for one input module."""

    input_module: Module
    affine_module: Module
    tiled_module: Module
    capped_module: Module
    units: List[UnitCharacterization]
    decisions: List[CapDecision]
    tile_infos: List[TileInfo]
    timings: StageTimings
    platform: PlatformSpec
    constants: RooflineConstants
    granularity: str
    objective: str
    timed_out: bool = False

    def caps(self) -> List[float]:
        return [decision.f_cap_ghz for decision in self.decisions]

    def boundedness_sequence(self) -> List[str]:
        return [str(unit.boundedness) for unit in self.units]

    def degradation(self) -> List[str]:
        """Per-unit degradation rung (``exact``/``approx``/``timeout-cap``)."""
        return [unit.degraded for unit in self.units]

    @property
    def fully_exact(self) -> bool:
        return all(unit.degraded == "exact" for unit in self.units)


def _lower_to_affine(module: Module) -> Module:
    has_torch = any(isinstance(op, TorchOp) for op in module.ops)
    current = lower_torch_to_linalg(module) if has_torch else module
    has_linalg = any(isinstance(op, LinalgOp) for op in current.ops)
    if has_linalg:
        current = lower_linalg_to_affine(current)
    if not any(isinstance(op, AffineForOp) for op in current.ops):
        raise ValueError(
            f"module {module.name!r} contains no affine loop nests to analyze"
        )
    return current


def polyufc_compile(
    module: Module,
    platform: PlatformSpec,
    constants: Optional[RooflineConstants] = None,
    objective: str = "edp",
    epsilon: float = 1e-3,
    granularity: str = "linalg",
    tile_size: int = 32,
    set_associative: bool = True,
    cm_timeout_s: Optional[float] = None,
    cap_overhead_factor: float = 50.0,
    cm_engine: Optional[str] = None,
    cm_lookup=None,
    simulate_hardware: bool = False,
) -> PolyUFCResult:
    """Run the full PolyUFC flow on one module.

    ``simulate_hardware`` asks every exact, trace-evaluated unit for its
    simulated ``platform.hierarchy`` counters as well (``unit.cm.hardware``,
    see :class:`repro.cache.static_model.SimulatorTail`); units the CM
    could not share a classification with carry none.

    ``cm_lookup`` (unit name -> ``CacheModelResult`` or ``None``) lets a
    caller serve per-unit CM counters from a cached kernel-family
    artifact instead of evaluating an engine (see
    :func:`repro.mlpolyufc.characterization.characterize_units`).

    ``cm_engine`` selects the PolyUFC-CM evaluator, one of
    :data:`repro.cache.static_model.CM_ENGINES` (default ``fast``).
    """
    constants = constants if constants is not None else get_constants(platform)
    timings = StageTimings()

    started = time.perf_counter()
    affine_module = _lower_to_affine(module)
    timings.preprocess_ms = (time.perf_counter() - started) * 1e3

    started = time.perf_counter()
    tiled_module, tile_infos = tile_and_parallelize(
        affine_module, tile_size=tile_size
    )
    tiled_module.verify()
    verify_affine(tiled_module)
    timings.pluto_ms = (time.perf_counter() - started) * 1e3

    started = time.perf_counter()
    # The deadline is shared by every unit (and checked inside the CM
    # engines at chunk boundaries), so ``cm_timeout_s`` bounds the whole
    # PolyUFC-CM stage even when a single unit would run far longer.
    deadline = Deadline.after(cm_timeout_s)
    hardware = SimulatorTail(platform.hierarchy) if simulate_hardware else None
    units: List[UnitCharacterization] = []
    try:
        units = characterize_units(
            tiled_module,
            platform,
            constants,
            granularity=granularity,
            set_associative=set_associative,
            engine=cm_engine,
            deadline=deadline,
            cm_lookup=cm_lookup,
            hardware=hardware,
        )
    finally:
        elapsed = time.perf_counter() - started
        if hardware is not None:
            elapsed -= hardware.seconds
        timings.polyufc_cm_ms = elapsed * 1e3
    timed_out = deadline is not None and deadline.expired()

    started = time.perf_counter()
    config = SearchConfig(objective=objective, epsilon=epsilon)
    decisions = select_caps(units, platform, config)
    aggregate_caps_for_overhead(
        decisions, platform, config, overhead_factor=cap_overhead_factor
    )
    # Paper Sec. VII-F, applied per unit: a unit whose characterization
    # fell off the ladder's last rung gets the safe maximum cap; exact
    # and approximate units keep their searched caps.
    for unit, decision in zip(units, decisions):
        if unit.degraded == "timeout-cap":
            decision.search.f_cap_ghz = platform.uncore.f_max_ghz
    capped = apply_caps(tiled_module, decisions)
    capped = remove_redundant_caps(capped)
    timings.steps_4_6_ms = (time.perf_counter() - started) * 1e3

    return PolyUFCResult(
        input_module=module,
        affine_module=affine_module,
        tiled_module=tiled_module,
        capped_module=capped,
        units=units,
        decisions=decisions,
        tile_infos=tile_infos,
        timings=timings,
        platform=platform,
        constants=constants,
        granularity=granularity,
        objective=objective,
        timed_out=timed_out,
    )
