"""Differential + metamorphic oracle over the PolyUFC-CM engines.

:func:`run_case` takes one :class:`~repro.verify.generator.KernelSpec`
and runs the full check battery:

**Differential** (bit-for-bit, via the engine-comparable
:class:`~repro.cache.static_model.LevelCounters` structs):

* the ``reference`` oracle (:func:`~repro.cache.reference_cm`, the
  per-access Python loop) vs the ``fast`` (vectorized) and ``symbolic``
  (trace-free; where supported) engines -- per-level accesses,
  cold misses, capacity/conflict misses, plus the derived ``Q_DRAM``,
  operational intensity, and CB/BB verdict.
* the memo path (:func:`repro.cache.memo.memoized_cm_with_note`) must
  reproduce the direct numbers, set ``note`` exactly when the symbolic
  engine fell back, and hit its in-process LRU on the second call.
* a generous :class:`~repro.runtime.Deadline` and a non-truncating
  ``truncate=True`` trace must not change anything (degradation plumbing
  is a no-op when nothing degrades).
* the hardware simulator agrees on access counts at level 0 and can
  never miss fewer times than the model's cold misses (every first
  touch of a line misses an empty cache).
* the vectorized hardware simulator equals its per-access reference
  loop -- per level ``(name, accesses, misses, writebacks)`` -- on the
  case's hierarchy and on its fully-associative variant.  So does the
  shared path (the fast CM handing its first-level classification to
  the simulator, :class:`~repro.cache.static_model.SimulatorTail`) on
  the case's hierarchy, whose model side must also equal ``reference``.
* the vectorized trace generator equals its per-iteration reference
  walker -- buffer names in order, ids, offsets and writes -- on the
  full trace and on one truncated prefix that ends mid-iteration.

**Metamorphic** (properties that hold for *any* kernel in the class):

* fully-associative capacity monotonicity: doubling an FA level's
  capacity never increases its misses (LRU is a stack algorithm).
* fixed-set associativity monotonicity: at constant ``num_sets``,
  doubling associativity never increases capacity/conflict misses
  (each set is itself an LRU stack) and never changes cold misses.
* cold-miss invariance: cold misses at level 0 depend only on the line
  size, not on capacity or associativity.
* dimension-rename invariance: renaming induction variables changes no
  counter and no OI.

Note the deliberately *absent* property "FA <= SA misses at fixed
capacity": it is not a theorem (see docs/TESTING.md for the
counterexample), and asserting it would fail on correct engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cache import (
    AccessTrace,
    CacheHierarchy,
    CacheLevelConfig,
    SymbolicUnsupported,
    clear_memo,
    generate_trace,
    memoized_cm_with_note,
    polyufc_cm,
    reference_cm,
    reference_generate_trace,
    simulate_hierarchy,
    symbolic_cm,
    trace_differences,
)
from repro.cache.simulator import reference_simulate_hierarchy
from repro.cache.static_model import (
    CacheModelResult,
    LevelCounters,
    SimulatorTail,
)
from repro.runtime import Deadline
from repro.verify.generator import (
    KernelSpec,
    build_hierarchy,
    build_module,
    rename_dims,
)

#: Synthetic machine balance (flops/byte) for the CB/BB verdict check.
#: The exact value is irrelevant -- only that every engine lands on the
#: same side of it for the same kernel.
VERDICT_BALANCE_FPB = 0.25

#: The memo layer's structured fallback-note prefix (kept in sync with
#: :mod:`repro.cache.memo`; the oracle asserts on it).
FALLBACK_NOTE_PREFIX = "symbolic engine fell back to fast:"


@dataclass(frozen=True)
class Disagreement:
    """One oracle violation: which check failed and how."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class CaseResult:
    """Everything the oracle learned about one spec."""

    spec: KernelSpec
    disagreements: List[Disagreement] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)
    symbolic_supported: Optional[bool] = None
    trace_length: int = 0

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _oi_and_verdict(cm: CacheModelResult) -> Tuple[float, str]:
    """Synthetic OI + CB/BB verdict derived purely from the CM output.

    ``omega`` is a fixed function of the access count (2 flops per
    access), so any engine drift in ``Q_DRAM`` flips the derived OI and
    possibly the verdict -- exactly what the differential check wants to
    observe at the roofline layer, without needing a real platform.
    """
    omega = 2 * cm.total_accesses
    q = cm.q_dram_bytes
    oi = math.inf if q == 0 else omega / q
    verdict = "CB" if oi >= VERDICT_BALANCE_FPB else "BB"
    return oi, verdict


def _diff_counters(
    check: str,
    baseline_name: str,
    baseline: Sequence[LevelCounters],
    other_name: str,
    other: Sequence[LevelCounters],
    out: List[Disagreement],
) -> None:
    if len(baseline) != len(other):
        out.append(
            Disagreement(
                check,
                f"{baseline_name} has {len(baseline)} levels, "
                f"{other_name} has {len(other)}",
            )
        )
        return
    for left, right in zip(baseline, other):
        if left != right:
            out.append(
                Disagreement(
                    check,
                    f"level {left.name}: {baseline_name}={tuple(left)} "
                    f"{other_name}={tuple(right)}",
                )
            )


def _diff_traces(
    label: str,
    vectorized: AccessTrace,
    reference: AccessTrace,
    out: List[Disagreement],
) -> None:
    out.extend(
        Disagreement("trace-diff", f"{label}: {difference}")
        for difference in trace_differences(vectorized, reference)
    )


def run_case(spec: KernelSpec) -> CaseResult:
    """Run the full differential + metamorphic battery on one spec."""
    result = CaseResult(spec)
    module = build_module(spec)
    hierarchy = build_hierarchy(spec)
    trace = generate_trace(module)
    result.trace_length = len(trace)

    # --- differential: vectorized trace vs the per-iteration walker -----
    result.checks_run.append("trace-diff")
    _diff_traces(
        "full trace", trace, reference_generate_trace(module),
        result.disagreements,
    )
    budget = 2 * len(trace) // 3 + 1  # usually cuts an iteration short
    _diff_traces(
        f"{budget}-access prefix",
        generate_trace(module, max_accesses=budget, truncate=True),
        reference_generate_trace(module, max_accesses=budget, truncate=True),
        result.disagreements,
    )

    # --- differential: reference vs fast vs symbolic -------------------
    result.checks_run.append("engine-diff")
    reference = reference_cm(trace, hierarchy)
    fast = polyufc_cm(trace, hierarchy)
    _diff_counters(
        "engine-diff",
        "reference",
        reference.counters(),
        "fast",
        fast.counters(),
        result.disagreements,
    )
    symbolic: Optional[CacheModelResult] = None
    try:
        symbolic = symbolic_cm(module, hierarchy=hierarchy)
        result.symbolic_supported = True
    except SymbolicUnsupported:
        result.symbolic_supported = False
    if symbolic is not None:
        _diff_counters(
            "engine-diff",
            "reference",
            reference.counters(),
            "symbolic",
            symbolic.counters(),
            result.disagreements,
        )

    # --- differential: derived OI and CB/BB verdict ---------------------
    result.checks_run.append("oi-verdict")
    ref_oi, ref_verdict = _oi_and_verdict(reference)
    candidates = [("fast", fast)]
    if symbolic is not None:
        candidates.append(("symbolic", symbolic))
    for name, cm in candidates:
        oi, verdict = _oi_and_verdict(cm)
        if oi != ref_oi or verdict != ref_verdict:
            result.disagreements.append(
                Disagreement(
                    "oi-verdict",
                    f"reference OI={ref_oi} ({ref_verdict}) but "
                    f"{name} OI={oi} ({verdict})",
                )
            )

    # --- differential: memo path + fallback note -------------------------
    result.checks_run.append("memo-note")
    clear_memo()
    memo_cm, note = memoized_cm_with_note(
        module, None, hierarchy, engine="symbolic"
    )
    _diff_counters(
        "memo-note",
        "direct-fast",
        fast.counters(),
        "memoized-symbolic",
        memo_cm.counters(),
        result.disagreements,
    )
    if result.symbolic_supported and note is not None:
        result.disagreements.append(
            Disagreement(
                "memo-note",
                f"symbolic engine supports the kernel but memo reported a "
                f"fallback note: {note!r}",
            )
        )
    if result.symbolic_supported is False:
        if note is None:
            result.disagreements.append(
                Disagreement(
                    "memo-note",
                    "symbolic engine fell back but memo note is None",
                )
            )
        elif not note.startswith(FALLBACK_NOTE_PREFIX):
            result.disagreements.append(
                Disagreement(
                    "memo-note",
                    f"fallback note lacks the structured prefix: {note!r}",
                )
            )
    cached_cm, cached_note = memoized_cm_with_note(
        module, None, hierarchy, engine="symbolic"
    )
    if cached_cm.counters() != memo_cm.counters() or cached_note != note:
        result.disagreements.append(
            Disagreement(
                "memo-note",
                "second memoized call disagrees with the first "
                "(LRU hit is not value-transparent)",
            )
        )
    clear_memo()

    # --- differential: degradation plumbing is a no-op when idle ---------
    result.checks_run.append("degradation-noop")
    relaxed = polyufc_cm(trace, hierarchy, deadline=Deadline(3600.0))
    _diff_counters(
        "degradation-noop",
        "fast",
        fast.counters(),
        "fast+deadline",
        relaxed.counters(),
        result.disagreements,
    )
    truncated = generate_trace(
        module, max_accesses=max(1, len(trace)), truncate=True
    )
    if len(truncated) != len(trace):
        result.disagreements.append(
            Disagreement(
                "degradation-noop",
                f"truncate=True at full budget shortened the trace: "
                f"{len(truncated)} != {len(trace)}",
            )
        )

    # --- differential: simulator cross-invariants -------------------------
    result.checks_run.append("simulator-invariants")
    sim = simulate_hierarchy(trace, hierarchy)
    sim_l0 = sim.counters()[0]
    model_l0 = reference.counters()[0]
    if sim_l0[1] != model_l0.accesses:
        result.disagreements.append(
            Disagreement(
                "simulator-invariants",
                f"level-0 access counts differ: sim={sim_l0[1]} "
                f"model={model_l0.accesses}",
            )
        )
    distinct_lines = len(set(trace.line_ids(hierarchy.line_bytes).tolist()))
    if model_l0.cold_misses != distinct_lines:
        result.disagreements.append(
            Disagreement(
                "simulator-invariants",
                f"model cold misses at level 0 ({model_l0.cold_misses}) != "
                f"distinct lines touched ({distinct_lines})",
            )
        )
    if sim_l0[2] < model_l0.cold_misses:
        result.disagreements.append(
            Disagreement(
                "simulator-invariants",
                f"simulator missed fewer times ({sim_l0[2]}) than the "
                f"model's cold misses ({model_l0.cold_misses})",
            )
        )

    # --- differential: vectorized simulator vs the reference loop --------
    result.checks_run.append("simulator-diff")
    shared = polyufc_cm(trace, hierarchy, hardware=SimulatorTail(hierarchy))
    _diff_counters(
        "simulator-diff",
        "reference",
        reference.counters(),
        "shared-fast",
        shared.counters(),
        result.disagreements,
    )
    reference_sa = reference_simulate_hierarchy(trace, hierarchy).counters()
    fa = hierarchy.fully_associative()
    compared = [
        ("SA", sim.counters(), reference_sa),
        (
            "FA", simulate_hierarchy(trace, fa).counters(),
            reference_simulate_hierarchy(trace, fa).counters(),
        ),
    ]
    if shared.hardware is None:
        result.disagreements.append(
            Disagreement("simulator-diff", "the shared path ran no tail")
        )
    else:
        compared.append(("SA shared", shared.hardware.counters(), reference_sa))
    for kind, vectorized, reference_levels in compared:
        for fast_level, reference_level in zip(vectorized, reference_levels):
            if fast_level != reference_level:
                result.disagreements.append(
                    Disagreement(
                        "simulator-diff",
                        f"{kind} level {reference_level[0]}: "
                        f"reference={reference_level} "
                        f"vectorized={fast_level}",
                    )
                )

    # --- metamorphic properties (fast engine; engine-diff above makes
    # --- the choice of engine immaterial) ---------------------------------
    _metamorphic_checks(spec, module, trace, fast, result)
    return result


def _level0_misses(cm: CacheModelResult) -> Tuple[int, int]:
    level = cm.counters()[0]
    return level.cold_misses, level.capacity_conflict_misses


def _single_level(config: CacheLevelConfig) -> CacheHierarchy:
    return CacheHierarchy((config,))


def _metamorphic_checks(
    spec: KernelSpec,
    module,
    trace,
    fast: CacheModelResult,
    result: CaseResult,
) -> None:
    base = build_hierarchy(spec).levels[0]
    line = base.line_bytes
    base_lines = base.size_bytes // line

    # FA capacity monotonicity: misses(2c) <= misses(c) for FA caches.
    result.checks_run.append("capacity-monotonic")
    fa_small = CacheLevelConfig("FAc", base.size_bytes, line, base_lines)
    fa_big = CacheLevelConfig("FA2c", 2 * base.size_bytes, line, 2 * base_lines)
    cm_small = polyufc_cm(trace, _single_level(fa_small))
    cm_big = polyufc_cm(trace, _single_level(fa_big))
    small_cold, small_cc = _level0_misses(cm_small)
    big_cold, big_cc = _level0_misses(cm_big)
    if big_cold + big_cc > small_cold + small_cc:
        result.disagreements.append(
            Disagreement(
                "capacity-monotonic",
                f"doubling FA capacity raised misses: "
                f"{small_cold + small_cc} -> {big_cold + big_cc}",
            )
        )

    # Fixed-num_sets associativity monotonicity + cold invariance.
    result.checks_run.append("associativity-monotonic")
    num_sets = base.size_bytes // (line * base.associativity)
    sa_lo = CacheLevelConfig("SAk", base.size_bytes, line, base.associativity)
    sa_hi = CacheLevelConfig(
        "SA2k", 2 * base.size_bytes, line, 2 * base.associativity
    )
    cm_lo = polyufc_cm(trace, _single_level(sa_lo))
    cm_hi = polyufc_cm(trace, _single_level(sa_hi))
    lo_cold, lo_cc = _level0_misses(cm_lo)
    hi_cold, hi_cc = _level0_misses(cm_hi)
    assert sa_hi.num_sets == num_sets  # same mapping, deeper stacks
    if hi_cc > lo_cc:
        result.disagreements.append(
            Disagreement(
                "associativity-monotonic",
                f"doubling associativity at {num_sets} sets raised "
                f"capacity/conflict misses: {lo_cc} -> {hi_cc}",
            )
        )

    result.checks_run.append("cold-invariance")
    colds = {small_cold, big_cold, lo_cold, hi_cold, fast.counters()[0].cold_misses}
    if len(colds) != 1:
        result.disagreements.append(
            Disagreement(
                "cold-invariance",
                f"cold misses vary across same-line-size geometries: "
                f"{sorted(colds)}",
            )
        )

    # Dimension-rename invariance.
    result.checks_run.append("rename-invariance")
    renamed_spec = rename_dims(spec)
    renamed_module = build_module(renamed_spec)
    renamed_trace = generate_trace(renamed_module)
    renamed = polyufc_cm(renamed_trace, build_hierarchy(renamed_spec))
    _diff_counters(
        "rename-invariance",
        "original",
        fast.counters(),
        "renamed",
        renamed.counters(),
        result.disagreements,
    )
    orig_oi, orig_verdict = _oi_and_verdict(fast)
    new_oi, new_verdict = _oi_and_verdict(renamed)
    if orig_oi != new_oi or orig_verdict != new_verdict:
        result.disagreements.append(
            Disagreement(
                "rename-invariance",
                f"OI changed under renaming: {orig_oi} ({orig_verdict}) "
                f"-> {new_oi} ({new_verdict})",
            )
        )
