"""PolyUFC-CM: the paper's approximate set-associative cache model.

The model follows Sec. IV of the paper:

* **Assumptions** (footnote 4): inclusive caches, LRU, write-allocate +
  write-through, no hardware prefetching, empty initial cache, homogeneous
  associativity.
* **Cold misses**: first access per cache line (the cardinality of the
  lexicographically-minimal access per line; evaluated numerically over the
  scheduled access relation).
* **Capacity/conflict misses**: per cache set, the backward reuse distance
  (number of distinct lines mapped to the same set since the previous access
  to this line); a reuse distance of at least the associativity ``k`` is a
  miss.  Each set is treated fully-associatively within itself -- the
  simplification that makes PolyUFC-CM scale (Sec. VIII).
* **Write-through**: every miss at level ``c_i`` becomes a read at
  ``c_{i+1}`` and every write is forwarded to ``c_{i+1}``.
* **OpenMP heuristic**: for loop-parallel kernels, miss counts are divided
  by the thread count (a first-order model of working-set sharing that
  ignores inter-thread conflict and coherence misses).

Compared to the hardware simulator (:mod:`repro.cache.simulator`), the
differences are the write policy (write-through vs write-back), the thread
heuristic (divide-by-T vs actually interleaved execution), and the absence
of writeback traffic -- which is exactly the kind of model error the paper
reports (<7 % performance estimation error on RPL, Fig. 6).  The policies
differ only after each access is classified as a hit or a miss, so when
asked (:class:`SimulatorTail`) the fast engine hands its first-level
classification to the simulator instead of both classifying the trace.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.cache.fast_model import (
    MissClassification,
    classify_level,
    model_level as _fast_model_level,
)
from repro.cache.simulator import CacheSimResult, simulate_hierarchy
from repro.cache.trace import AccessTrace, LineStream, line_stream
from repro.runtime import Deadline, check as _check_deadline, faults

log = logging.getLogger("repro.runtime")

#: Selectable CM evaluation engines.  ``fast`` is the vectorized NumPy
#: stack-distance kernel (:mod:`repro.cache.fast_model`); ``symbolic``
#: (:mod:`repro.cache.symbolic_model`) computes the same
#: :class:`LevelModelStats` without materializing the access trace and
#: falls back to ``fast`` outside its supported quasi-affine class.
#: ``parametric`` evaluates like ``symbolic`` at the cache layer (same
#: numbers by construction) and additionally marks the job eligible for
#: kernel-family artifact reuse in the service layer
#: (:mod:`repro.cache.parametric_model`).
#: All engines produce identical :class:`LevelModelStats` where exact,
#: and identical to the per-access oracle :func:`reference_cm`.
CM_ENGINES = ("fast", "symbolic", "parametric")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine name: explicit arg, else ``fast``."""
    if engine is None:
        engine = "fast"
    if engine not in CM_ENGINES:
        raise ValueError(
            f"unknown CM engine {engine!r}; expected one of {CM_ENGINES}"
        )
    return engine


class LevelCounters(NamedTuple):
    """The engine-comparable counters of one cache level.

    Every CM engine (fast, symbolic) and the oracle :func:`reference_cm`
    must produce these four numbers bit-for-bit identically; the
    differential verifier (:mod:`repro.verify`) diffs them through this
    struct so a disagreement names the exact level and counter that
    drifted.
    """

    name: str
    accesses: int
    cold_misses: int
    capacity_conflict_misses: int


@dataclass(frozen=True)
class LevelModelStats:
    """Model counters for one cache level."""

    name: str
    accesses: int
    cold_misses: int
    capacity_conflict_misses: int

    def counters(self) -> LevelCounters:
        """This level's counters as the engine-comparable struct."""
        return LevelCounters(
            self.name,
            self.accesses,
            self.cold_misses,
            self.capacity_conflict_misses,
        )

    @property
    def misses(self) -> int:
        """Total misses: |COLDMISS| + |M_ci| (Sec. IV-B)."""
        return self.cold_misses + self.capacity_conflict_misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


@dataclass(frozen=True)
class CacheModelResult:
    """PolyUFC-CM output for one kernel.

    ``hardware`` is the write-back simulation of the same trace through
    the same hierarchy when the evaluation ran the simulator tail
    (:class:`SimulatorTail`); it is not a model counter, so it takes no
    part in comparisons.
    """

    levels: Tuple[LevelModelStats, ...]
    line_bytes: int
    total_accesses: int
    threads: int
    hardware: Optional[CacheSimResult] = field(
        default=None, compare=False, repr=False
    )

    @property
    def llc(self) -> LevelModelStats:
        return self.levels[-1]

    @property
    def miss_llc(self) -> int:
        return self.llc.misses

    @property
    def q_dram_bytes(self) -> int:
        """Q_DRAM = Miss_LLC * line size (Sec. IV-C)."""
        return self.miss_llc * self.line_bytes

    def counters(self) -> Tuple[LevelCounters, ...]:
        """Per-level engine-comparable counters (see :class:`LevelCounters`)."""
        return tuple(level.counters() for level in self.levels)


@dataclass
class SimulatorTail:
    """A request that :func:`polyufc_cm` also simulate ``hierarchy``.

    The fast engine honours it when it models that very hierarchy: its
    first-level classification then feeds the write-back simulator too,
    once every model level has finished.  ``seconds`` adds up the
    wall-clock of the tails run, so a caller can keep them out of the CM
    stage's time.
    """

    hierarchy: CacheHierarchy
    seconds: float = 0.0

    def run(
        self, stream: LineStream, first_level: MissClassification
    ) -> Optional[CacheSimResult]:
        """The simulation, or ``None`` when it failed.

        The model side is complete by now and must not degrade because
        of the hardware side, so any failure only drops the simulation:
        the caller's own simulator path then recomputes it (and meets a
        real error there again).  No fault site fires in here.
        """
        started = time.perf_counter()
        try:
            return simulate_hierarchy(stream, self.hierarchy, first_level)
        except Exception as exc:
            log.warning(
                "simulator tail failed (%s); dropping the simulation", exc,
                exc_info=True,
            )
            return None
        finally:
            self.seconds += time.perf_counter() - started


def polyufc_cm(
    trace: Union[AccessTrace, LineStream],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    deadline: Optional[Deadline] = None,
    hardware: Optional[SimulatorTail] = None,
) -> CacheModelResult:
    """Run PolyUFC-CM over a kernel's scheduled access relation.

    ``trace`` is the relation's :class:`~repro.cache.trace.LineStream`
    for the hierarchy's line size, or a trace to derive it from; the
    vectorized stack-distance kernel (:mod:`repro.cache.fast_model`)
    evaluates it.
    ``threads``/``parallel`` enable the paper's OpenMP sharing heuristic:
    miss counts of loop-parallel kernels are divided by the thread count.
    ``deadline`` is checkpointed at every level boundary and inside the
    engine's chunk loops, so an armed ``cm_timeout_s`` interrupts the
    evaluation mid-unit instead of after the fact.

    ``hardware`` asks for the result's ``hardware`` simulation (see
    :class:`SimulatorTail`); it is ignored unless its hierarchy is
    ``hierarchy``, so the shared classification is always the one the
    simulator would compute itself.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    faults.fire("cm.engine")
    _check_deadline(deadline, "cm.engine")
    stream = line_stream(trace, hierarchy.line_bytes)
    lines = np.ascontiguousarray(stream.lines, dtype=np.int64)
    writes = stream.writes
    share = hardware is not None and hardware.hierarchy == hierarchy
    first_level: Optional[MissClassification] = None
    last = len(hierarchy.levels) - 1
    divider = threads if (parallel and threads > 1) else 1
    stats: List[LevelModelStats] = []
    for index, config in enumerate(hierarchy.levels):
        faults.fire("cm.chunk")
        _check_deadline(deadline, f"cm.level:{config.name}")
        accesses = len(lines)
        # Only a shared first-level classification outlives its level;
        # every other one is released inside the level.
        stages = None
        if index == 0 and share:
            stages = first_level = classify_level(lines, config, deadline)
        if index < last:
            cold, cap_conflict, lines, writes = _fast_model_level(
                lines, writes, config, deadline=deadline, stages=stages
            )
        else:
            # Nothing reads a stream past the last level: count only.
            if stages is None:
                stages = classify_level(lines, config, deadline)
            cold, cap_conflict = stages.cold, stages.capacity_conflict
        del stages
        # The paper's heuristic divides miss counts by the thread count to
        # model working-set sharing.  Two refinements keep the counts
        # physical: (1) cold misses are never divided (threads share the
        # machine, not the data -- Q_DRAM cannot drop below the footprint),
        # and (2) the division applies at the *shared* LLC only; private
        # L1/L2 behaviour replicates per thread rather than shrinking.
        shared_level = index == last
        stats.append(
            LevelModelStats(
                config.name,
                accesses=accesses,
                cold_misses=cold,
                capacity_conflict_misses=_divide(
                    cap_conflict, divider if shared_level else 1
                ),
            )
        )
    del lines, writes
    return CacheModelResult(
        tuple(stats), hierarchy.line_bytes, len(stream), threads,
        hardware=hardware.run(stream, first_level) if share else None,
    )


def _reference_level(
    lines: List[int], writes: List[bool], config: CacheLevelConfig
) -> Tuple[int, int, List[int], List[bool]]:
    """One write-through level, per access: (cold, capacity_conflict,
    next-level lines, next-level write flags).

    Per-set LRU stacks give the backward reuse distance implicitly: a line
    found in its set's stack within the top ``k`` entries is a hit; found
    deeper (or absent after its set filled) is a capacity/conflict miss;
    never seen before is a cold miss.
    """
    num_sets = config.num_sets
    assoc = config.associativity
    # A reuse distance >= k means "not within the k most-recent distinct
    # lines of this set", so a stack capped at k entries plus a seen-set is
    # equivalent to the unbounded reuse-distance formulation for
    # hit / capacity-conflict / cold classification -- and stays O(k).
    stacks: List[List[int]] = [[] for _ in range(num_sets)]
    seen: List[set] = [set() for _ in range(num_sets)]
    cold = 0
    cap_conflict = 0
    next_lines: List[int] = []
    next_writes: List[bool] = []
    for line, is_write in zip(lines, writes):
        set_index = line % num_sets
        stack = stacks[set_index]
        missed = False
        try:
            depth = stack.index(line)
            stack.insert(0, stack.pop(depth))
        except ValueError:
            missed = True
            set_seen = seen[set_index]
            if line in set_seen:
                cap_conflict += 1
            else:
                cold += 1
                set_seen.add(line)
            stack.insert(0, line)
            if len(stack) > assoc:
                stack.pop()
        if missed:
            next_lines.append(line)
            next_writes.append(False)
        if is_write:
            # write-through: the write itself is forwarded down
            next_lines.append(line)
            next_writes.append(True)
    return cold, cap_conflict, next_lines, next_writes


def reference_cm(
    trace: Union[AccessTrace, LineStream], hierarchy: CacheHierarchy
) -> CacheModelResult:
    """The per-access oracle of :func:`polyufc_cm`, for one thread.

    Walks every level with :func:`_reference_level` in plain Python.  No
    pipeline path runs it: the fast engine must equal it bit for bit,
    and the tests, the differential fuzzer (:mod:`repro.verify`) and
    ``benchmarks/bench_perf_cm.py`` diff against it.
    """
    stream = line_stream(trace, hierarchy.line_bytes)
    lines = stream.lines.tolist()
    writes = stream.writes.tolist()
    stats: List[LevelModelStats] = []
    for config in hierarchy.levels:
        accesses = len(lines)
        cold, cap_conflict, lines, writes = _reference_level(
            lines, writes, config
        )
        stats.append(
            LevelModelStats(
                config.name,
                accesses=accesses,
                cold_misses=cold,
                capacity_conflict_misses=cap_conflict,
            )
        )
    return CacheModelResult(tuple(stats), hierarchy.line_bytes, len(stream), 1)


def _divide(count: int, divider: int) -> int:
    if divider == 1:
        return count
    return max(1, math.ceil(count / divider)) if count else 0
