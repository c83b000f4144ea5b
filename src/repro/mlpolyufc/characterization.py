"""Per-unit characterization of an affine module (the MLIR analysis pass).

Analysis always happens at affine granularity (the paper's "granularity for
analysis": affine IR is where the polyhedral machinery lives); the *unit*
boundaries come from the requested dialect granularity:

* ``"affine"`` -- every top-level affine loop nest is its own unit,
* ``"linalg"`` -- nests produced from the same linalg op are one unit
  (the ``source_index`` tags placed by the lowering),
* ``"torch"`` -- nests descending from the same torch op are one unit
  (``torch_source_index`` tags).

Each unit gets PolyUFC-CM counters, OI, a CB/BB characterization, and a
Sec. V parametric model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.config import CacheHierarchy
from repro.cache.memo import memoized_cm_with_note
from repro.cache.static_model import (
    CacheModelResult,
    LevelModelStats,
    SimulatorTail,
    polyufc_cm,
)
from repro.cache.trace import generate_trace
from repro.ir.core import IRError, Module, Op
from repro.ir.dialects.affine import AffineForOp
from repro.isllite import CountOptions, count_points
from repro.isllite.errors import IslError
from repro.model.parametric import KernelSummary, PolyUFCModel, summary_from_cm
from repro.poly.scop import extract_scop
from repro.roofline.characterize import Boundedness
from repro.roofline.constants import RooflineConstants
from repro.runtime import Deadline, DeadlineExceeded, ReproError
from repro.hw.platform import PlatformSpec

log = logging.getLogger("repro.runtime")

GRANULARITIES = ("affine", "linalg", "torch")

#: The degradation ladder, in order of decreasing fidelity (see
#: ``docs/ROBUSTNESS.md``): full trace + CM, scaled truncated-trace
#: estimate, and the paper's Sec. VII-F safety fallback (cap at f_max).
DEGRADATION_RUNGS = ("exact", "approx", "timeout-cap")

#: ``cm_note`` marking a unit whose CM counters were instantiated from a
#: cached parametric family artifact instead of evaluated by an engine.
FAMILY_SERVED_NOTE = "served by parametric family artifact"

#: Trace-prefix budget of the approximate rung.
APPROX_TRACE_ACCESSES = 100_000

#: Counting knobs of the approximate rung (small budget forces the cheap
#: Monte-Carlo estimate on anything non-trivial).
APPROX_COUNT_BUDGET = 50_000
APPROX_MC_SAMPLES = 4_000

#: Failures the ladder degrades around (anything else is a bug and
#: propagates).  ``IRError`` covers trace-budget and lowering problems,
#: ``IslError`` covers counting, ``ReproError`` covers deadlines, engine
#: faults and cache corruption, ``MemoryError``/``ArithmeticError`` cover
#: resource blowups inside the NumPy kernels.
DEGRADABLE_ERRORS = (
    ReproError,
    IRError,
    IslError,
    MemoryError,
    ArithmeticError,
)


@dataclass
class UnitCharacterization:
    """One capping unit: ops, counters, model, boundedness.

    ``degraded`` records which rung of the degradation ladder produced the
    counters (:data:`DEGRADATION_RUNGS`); ``warning`` carries the
    structured reason when it is not ``"exact"``.  ``cm_note`` is the
    structured engine annotation: when the ``symbolic`` CM engine found
    the unit outside its quasi-affine class and fell back to ``fast``,
    the reason lands here (the counters stay exact, so ``degraded``
    remains ``"exact"``).  ``cm.hardware`` is the unit's simulated
    hardware counters when its exact CM ran the simulator tail.
    """

    name: str
    ops: List[Op]
    omega: int
    cm: CacheModelResult
    summary: KernelSummary
    model: PolyUFCModel
    parallel: bool
    degraded: str = "exact"
    warning: Optional[str] = None
    cm_note: Optional[str] = None

    @property
    def oi_fpb(self) -> float:
        return self.summary.oi_fpb

    @property
    def boundedness(self) -> Boundedness:
        return self.model.boundedness

    @property
    def label(self) -> str:
        return str(self.boundedness)


def _unit_key(op: Op, granularity: str):
    if granularity == "affine":
        return None  # every op its own unit
    if granularity == "linalg":
        return op.attrs.get("source_index")
    if granularity == "torch":
        return op.attrs.get("torch_source_index")
    raise IRError(f"unknown granularity {granularity!r}")


def group_affine_units(
    module: Module, granularity: str = "linalg"
) -> List[Tuple[str, List[Op]]]:
    """Group the module's top-level affine nests into capping units."""
    if granularity not in GRANULARITIES:
        raise IRError(
            f"granularity {granularity!r} not in {GRANULARITIES}"
        )
    units: List[Tuple[str, List[Op]]] = []
    open_key = object()  # sentinel that never matches
    for index, op in enumerate(module.ops):
        if not isinstance(op, AffineForOp):
            open_key = object()
            continue
        key = _unit_key(op, granularity)
        source = op.attrs.get("source_op")
        torch_source = op.attrs.get("torch_source_op")
        if granularity == "torch" and torch_source is not None:
            base = f"{torch_source.dialect}.{torch_source.name}"
        elif granularity != "affine" and source is not None:
            base = f"{source.dialect}.{source.name}"
        else:
            base = "affine.for"
        if key is not None and units and key == open_key:
            units[-1][1].append(op)
        else:
            units.append((f"{base}@{len(units)}", [op]))
        open_key = key if key is not None else object()
    return units


def _is_parallel_unit(ops: Sequence[Op]) -> bool:
    for op in ops:
        for walked in op.walk():
            if isinstance(walked, AffineForOp) and walked.parallel:
                return True
    return False


def fallback_cm(hierarchy: CacheHierarchy, threads: int) -> CacheModelResult:
    """The rung-3 stand-in: a zero-traffic CM result.

    With no billable traffic the unit characterizes compute-bound and the
    pipeline pins its cap at ``f_max`` -- the paper's Sec. VII-F safety
    rule, applied per unit.
    """
    levels = tuple(
        LevelModelStats(
            config.name, accesses=0, cold_misses=0,
            capacity_conflict_misses=0,
        )
        for config in hierarchy.levels
    )
    return CacheModelResult(levels, hierarchy.line_bytes, 0, threads)


def _scaled_cm(cm: CacheModelResult, scale: float) -> CacheModelResult:
    """Scale every counter of a prefix-trace CM up to the full kernel."""
    if scale <= 1.0:
        return cm
    levels = tuple(
        LevelModelStats(
            level.name,
            accesses=int(round(level.accesses * scale)),
            cold_misses=int(round(level.cold_misses * scale)),
            capacity_conflict_misses=int(
                round(level.capacity_conflict_misses * scale)
            ),
        )
        for level in cm.levels
    )
    return CacheModelResult(
        levels, cm.line_bytes, int(round(cm.total_accesses * scale)),
        cm.threads,
    )


def _estimated_unit_accesses(
    statements, params, ops: Sequence[Op],
    deadline: Optional[Deadline],
) -> int:
    """Approximate total accesses of a unit via (Monte-Carlo) counting."""
    roots = {id(op) for op in ops}
    total = 0
    options = CountOptions(
        budget=APPROX_COUNT_BUDGET,
        mc_samples=APPROX_MC_SAMPLES,
        deadline=deadline,
    )
    for statement in statements:
        if not statement.loops or id(statement.loops[0]) not in roots:
            continue
        if not statement.accesses:
            continue
        try:
            points = int(count_points(statement.domain, params, options))
        except (IslError, ReproError):
            return 0  # no scaling rather than a wrong scale
        total += len(statement.accesses) * points
    return total


def approximate_cm(
    module: Module,
    ops: Sequence[Op],
    hierarchy: CacheHierarchy,
    threads: int,
    parallel: bool,
    statements,
    params,
    max_accesses: int,
    deadline: Optional[Deadline] = None,
) -> CacheModelResult:
    """The ladder's middle rung: CM over a truncated trace prefix, scaled.

    The prefix is generated with ``truncate=True`` (bounded work, partial
    chunk emission) and evaluated normally; the counters are then scaled
    by the unit's estimated total access count, obtained by counting the
    statement domains with a small budget so anything non-trivial takes
    the seeded Monte-Carlo estimate.
    """
    budget = min(max_accesses, APPROX_TRACE_ACCESSES)
    trace = generate_trace(
        module, ops, max_accesses=budget, truncate=True, deadline=deadline
    )
    if not len(trace):
        raise DeadlineExceeded(
            "approximate rung traced no accesses", site="cm.trace"
        )
    cm = polyufc_cm(
        trace, hierarchy, threads=threads, parallel=parallel,
        deadline=deadline,
    )
    estimated = _estimated_unit_accesses(statements, params, ops, deadline)
    if estimated > len(trace):
        cm = _scaled_cm(cm, estimated / len(trace))
    return cm


def characterize_units(
    module: Module,
    platform: PlatformSpec,
    constants: RooflineConstants,
    granularity: str = "linalg",
    set_associative: bool = True,
    max_trace_accesses: int = 60_000_000,
    engine: Optional[str] = None,
    deadline: Optional[Deadline] = None,
    cm_lookup=None,
    hardware: Optional[SimulatorTail] = None,
) -> List[UnitCharacterization]:
    """Characterize every capping unit of an affine module, in order.

    Units run serially: job-level parallelism belongs to the service
    scheduler.  ``engine`` selects the CM evaluator (see
    :data:`repro.cache.static_model.CM_ENGINES`).  ``hardware`` reaches
    the exact rung only, so a degraded unit never carries a simulation.

    ``cm_lookup`` (unit name -> :class:`CacheModelResult` or ``None``)
    short-circuits the per-unit CM evaluation -- the service's
    kernel-family fast path injects artifact-served counters here, so a
    warm size sweep skips the expensive engine work entirely.  A served
    unit is ``exact`` with ``cm_note="served by parametric family
    artifact"``; a ``None`` lookup falls through to the normal ladder.

    Faults are isolated **per unit** through the degradation ladder
    (:data:`DEGRADATION_RUNGS`): an expired ``deadline`` or a failing
    engine yields a unit with ``degraded="approx"`` or
    ``degraded="timeout-cap"`` (safe ``f_max`` cap) plus a structured
    ``warning``, never a crashed pipeline.
    """
    threads = platform.threads
    hierarchy = (
        platform.hierarchy
        if set_associative
        else platform.hierarchy.fully_associative()
    )
    statements: List = []
    params: Dict[str, int] = {}
    flops_by_root: Dict[int, int] = {}
    try:
        scop = extract_scop(module)
        statements = scop.statements
        params = scop.params
        for statement in statements:
            root = statement.loops[0]
            flops_by_root[id(root)] = flops_by_root.get(id(root), 0) + (
                statement.total_flops(params)
            )
    except DEGRADABLE_ERRORS as exc:
        log.warning(
            "SCoP extraction of %s failed (%s); units lose flop counts "
            "and approximate scaling", module.name, exc,
        )

    units = group_affine_units(module, granularity)

    def cm_with_ladder(name, ops, parallel):
        """(cm, rung, warning, note) for one unit, walking the ladder down."""
        if cm_lookup is not None:
            served = cm_lookup(name)
            if served is not None:
                return served, "exact", None, FAMILY_SERVED_NOTE
        try:
            if deadline is not None:
                deadline.check(f"unit:{name}")
            cm, note = memoized_cm_with_note(
                module,
                ops,
                hierarchy,
                threads=threads,
                parallel=parallel,
                engine=engine,
                max_accesses=max_trace_accesses,
                deadline=deadline,
                hardware=hardware,
            )
            return cm, "exact", None, note
        except DEGRADABLE_ERRORS as exc:
            failure = exc
        if deadline is None or not deadline.expired():
            try:
                cm = approximate_cm(
                    module, ops, hierarchy, threads, parallel,
                    statements, params, max_trace_accesses,
                    deadline=deadline,
                )
                warning = (
                    f"exact CM failed ({failure}); "
                    "scaled truncated-trace estimate"
                )
                log.warning("unit %s degraded to approx: %s", name, failure)
                return cm, "approx", warning, None
            except DEGRADABLE_ERRORS as exc:
                failure = exc
        log.warning(
            "unit %s degraded to timeout-cap (f_max): %s", name, failure
        )
        return fallback_cm(hierarchy, threads), "timeout-cap", str(failure), None

    def characterize_one(unit: Tuple[str, List[Op]]) -> UnitCharacterization:
        name, ops = unit
        omega = sum(flops_by_root.get(id(op), 0) for op in ops)
        parallel = _is_parallel_unit(ops)
        cm, degraded, warning, cm_note = cm_with_ladder(name, ops, parallel)
        cores_used = min(threads, platform.cores) if parallel else 1
        cores_fraction = cores_used / platform.cores
        try:
            summary = summary_from_cm(
                name, omega, cm, cores_fraction=cores_fraction
            )
            model = PolyUFCModel(constants, summary)
        except Exception as exc:
            # Last line of per-unit isolation: degenerate counters must
            # not take the kernel down either.
            log.warning(
                "unit %s model construction failed (%s); using the "
                "f_max fallback", name, exc,
            )
            cm = fallback_cm(hierarchy, threads)
            summary = summary_from_cm(
                name, omega, cm, cores_fraction=cores_fraction
            )
            model = PolyUFCModel(constants, summary)
            degraded = "timeout-cap"
            warning = f"model construction failed: {exc}"
        return UnitCharacterization(
            name=name,
            ops=list(ops),
            omega=omega,
            cm=cm,
            summary=summary,
            model=model,
            parallel=parallel,
            degraded=degraded,
            warning=warning,
            cm_note=cm_note,
        )

    return [characterize_one(unit) for unit in units]
