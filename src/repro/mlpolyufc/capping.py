"""Cap selection and application (paper Sec. VI-B / VII-A code generation).

``select_caps`` runs POLYUFC-SEARCH per unit; ``apply_caps`` inserts
``polyufc.set_uncore_cap`` markers in front of each unit's first affine op.
``aggregate_cap`` implements the paper's aggregation rule: when several
statement-level caps must collapse into one op-level cap, take the *minimum*
for compute-bound code (never waste power) and the *maximum* for
bandwidth-bound code (never starve bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.hw.platform import PlatformSpec
from repro.ir.core import Module
from repro.ir.dialects.polyufc import SetUncoreCapOp
from repro.mlpolyufc.characterization import UnitCharacterization
from repro.search.polyufc_search import (
    SearchConfig,
    SearchResult,
    polyufc_search,
)


@dataclass
class CapDecision:
    """The selected cap for one unit."""

    unit: UnitCharacterization
    search: SearchResult

    @property
    def f_cap_ghz(self) -> float:
        return self.search.f_cap_ghz


def select_caps(
    units: Sequence[UnitCharacterization],
    platform: PlatformSpec,
    config: SearchConfig = SearchConfig(),
) -> List[CapDecision]:
    """Run POLYUFC-SEARCH for every unit."""
    return [
        CapDecision(unit, polyufc_search(unit.model, platform.uncore, config))
        for unit in units
    ]


def aggregate_cap(
    caps: Sequence[float], compute_bound: bool
) -> float:
    """min(caps) for CB, max(caps) for BB (Sec. VII-A)."""
    if not caps:
        raise ValueError("no caps to aggregate")
    return min(caps) if compute_bound else max(caps)


def aggregate_caps_for_overhead(
    decisions: Sequence[CapDecision],
    platform: PlatformSpec,
    config: SearchConfig = SearchConfig(),
    overhead_factor: float = 50.0,
) -> None:
    """Merge caps of units too short to amortize a driver call (in place).

    Each ``set_uncore_cap`` costs the measured driver overhead (35us BDW /
    21us RPL).  Consecutive units whose estimated runtime is below
    ``overhead_factor x overhead`` are grouped, and the group receives one
    cap by the paper's Sec. VII-A aggregation rule: the flop-weighted
    majority class of the group decides, then the cap is the *minimum* of
    the member caps for a compute-bound group (never waste power) and the
    *maximum* for a bandwidth-bound one (never starve bandwidth).
    """
    if not decisions or overhead_factor <= 0:
        return
    threshold = overhead_factor * platform.cap_overhead_s
    f_max = platform.uncore.f_max_ghz

    groups: List[List[CapDecision]] = []
    current: List[CapDecision] = []
    accumulated = 0.0
    for decision in decisions:
        current.append(decision)
        accumulated += decision.unit.model.time_s(f_max)
        if accumulated >= threshold:
            groups.append(current)
            current = []
            accumulated = 0.0
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)

    for group in groups:
        if len(group) == 1:
            continue
        # Group class: the aggregate OI of the group against the machine
        # balance (the same Sec. IV-D rule used everywhere else).
        total_flops = sum(decision.unit.omega for decision in group)
        total_q = sum(decision.unit.cm.q_dram_bytes for decision in group)
        balance = group[0].unit.model.constants.b_t_dram
        group_oi = total_flops / total_q if total_q else float("inf")
        compute_bound = group_oi >= balance
        cap = aggregate_cap(
            [decision.search.f_cap_ghz for decision in group], compute_bound
        )
        for decision in group:
            decision.search.f_cap_ghz = cap


def apply_caps(
    module: Module, decisions: Sequence[CapDecision]
) -> Module:
    """A new module with cap markers inserted before each unit.

    The input module's ops are shared; only the top-level op list is new.
    """
    capped = module.clone_structure(f"{module.name}.capped")
    first_op_to_decision: Dict[int, CapDecision] = {}
    for decision in decisions:
        if decision.unit.ops:
            first_op_to_decision[id(decision.unit.ops[0])] = decision
    for op in module.ops:
        decision = first_op_to_decision.get(id(op))
        if decision is not None:
            capped.append(
                SetUncoreCapOp(
                    decision.f_cap_ghz,
                    reason=(
                        f"{decision.unit.name}:"
                        f"{decision.search.boundedness}"
                    ),
                )
            )
        capped.append(op)
    return capped
