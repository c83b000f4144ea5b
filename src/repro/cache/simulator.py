"""Trace-driven multi-level cache simulator (the "hardware").

Inclusive, set-associative, true-LRU, write-allocate + write-back.  Each
level filters the stream for the next: misses become fetches and dirty
evictions become writebacks.  DRAM traffic is LLC fetches + LLC writebacks.

This simulator provides the ground truth that the simulated platforms
expose through PAPI-like counters; PolyUFC-CM (:mod:`repro.cache.
static_model`) is the *model* being evaluated against it.

:func:`simulate_hierarchy` works on whole arrays, on the miss
classification stages of :mod:`repro.cache.fast_model`.  Write-back
never changes which accesses hit, so when the CM has just classified the
same stream through the same first level it hands that classification
over (``first_level``) and the simulator only runs its write-back tail
there.  :func:`reference_simulate_hierarchy` is the same simulator one
access at a time in Python lists, kept as the oracle it is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.cache.fast_model import (
    MissClassification,
    classify_misses,
    level_lines,
)
from repro.cache.trace import AccessTrace, LineStream, line_stream


@dataclass(frozen=True)
class LevelStats:
    """Counters for one simulated cache level."""

    name: str
    accesses: int
    hits: int
    misses: int
    writebacks: int


@dataclass(frozen=True)
class CacheSimResult:
    """Hierarchy-wide simulation result."""

    levels: Tuple[LevelStats, ...]
    line_bytes: int
    total_accesses: int

    @property
    def llc(self) -> LevelStats:
        return self.levels[-1]

    @property
    def dram_fetch_bytes(self) -> int:
        return self.llc.misses * self.line_bytes

    @property
    def dram_writeback_bytes(self) -> int:
        return self.llc.writebacks * self.line_bytes

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic (fetches + writebacks)."""
        return self.dram_fetch_bytes + self.dram_writeback_bytes

    def counters(self) -> Tuple[Tuple[str, int, int, int], ...]:
        """Per-level ``(name, accesses, misses, writebacks)`` tuples.

        The simulator-side analogue of
        :meth:`repro.cache.static_model.CacheModelResult.counters` -- a
        plain comparable struct for differential and regression checks
        (the split differs because the simulator does not distinguish
        cold from capacity/conflict misses).
        """
        return tuple(
            (level.name, level.accesses, level.misses, level.writebacks)
            for level in self.levels
        )


def _simulate_level(
    lines: np.ndarray,
    writes: np.ndarray,
    config: CacheLevelConfig,
    stages: Optional[MissClassification] = None,
) -> Tuple[int, int, int, np.ndarray, np.ndarray]:
    """Simulate one write-back LRU level on whole arrays.

    Returns ``(hits, misses, writebacks, next_lines, next_writes)``: the
    filtered stream the next level observes -- at every miss, in program
    order, the fetch (a read) and then the dirty victim it evicts (a
    write).  Bit-for-bit the stream and counters of
    :func:`_reference_level`.

    Hits and misses come from the shared classification stages of
    :mod:`repro.cache.fast_model` (write-back changes which lines are
    written back, never which accesses hit); ``stages`` is that
    classification when the caller already holds it.  The rest rests on one
    identity: inside a set, LRU evicts residencies in the order of their
    final touches, so the ``k``-th miss of a set (``k >= assoc``) evicts
    the residency with the ``(k - assoc)``-th earliest final touch there.
    A *residency* runs from a miss of a line to the last touch before
    the line's next miss; it is dirty iff a write falls inside it, and
    every dirty residency is written back exactly once -- when evicted
    or at the end-of-kernel flush.
    """
    n = lines.size
    if n == 0:
        return 0, 0, 0, lines, np.empty(0, dtype=bool)
    if stages is None:
        stages = classify_misses(lines, config)
    times, kept_idx, kept_lines, order, missed, _cold = stages
    del stages
    m = kept_idx.size

    # Per run head: does the collapsed run write?
    run_writes = np.logical_or.reduceat(
        writes if times is None else writes[times], kept_idx
    )
    # In (line, time) order each miss opens a residency, which ends right
    # before the next one; the first head of every line is a cold miss.
    opens = np.flatnonzero(missed[order])
    dirty = np.logical_or.reduceat(run_writes[order], opens)
    del run_writes
    ends = np.empty_like(opens)
    ends[:-1] = opens[1:] - 1
    ends[-1] = m - 1
    # Residencies by final touch: run-head positions are set-major, so a
    # scatter + flatnonzero is the per-set sort (1 = clean, 2 = dirty).
    final = np.zeros(m, dtype=np.int8)
    final[order[ends]] = 1 + dirty
    del order, opens, ends
    finals = np.flatnonzero(final)
    final_dirty = final[finals] == 2
    del final
    final_lines = kept_lines[finals]

    # Misses (= residencies by start), set-major and in program order per
    # set; the same per-set counts as ``finals``, so the k-th miss of a
    # set sits exactly ``assoc`` places after the residency it evicts.
    fetches = np.flatnonzero(missed)
    misses = fetches.size
    writebacks = int(np.count_nonzero(final_dirty))
    sets = kept_lines[fetches] % config.num_sets
    head = np.empty(misses, dtype=bool)
    head[0] = True
    np.not_equal(sets[1:], sets[:-1], out=head[1:])
    rank = np.arange(misses)
    rank -= np.maximum.accumulate(np.where(head, rank, 0))
    evicting = np.flatnonzero(rank >= config.associativity)
    victims = evicting - config.associativity
    spills = final_dirty[victims]
    victim_lines = final_lines[victims[spills]]
    del final_dirty, final_lines, victims
    # Program position of every miss, and of the misses that spill.
    fetch_times = kept_idx[fetches]
    if times is not None:
        fetch_times = times[fetch_times]
    spill_times = fetch_times[evicting[spills]]
    del times, kept_idx, kept_lines, missed

    # Next-level stream: 1 = fetch only, 2 = fetch then writeback.
    emit = np.zeros(n, dtype=np.int8)
    emit[fetch_times] = 1
    emit[spill_times] = 2
    del fetch_times
    at = np.flatnonzero(emit)
    emit = emit[at]
    slot = np.cumsum(emit, dtype=np.int64)
    slot -= emit
    next_lines = np.empty(misses + victim_lines.size, dtype=lines.dtype)
    next_writes = np.zeros(next_lines.size, dtype=bool)
    next_lines[slot] = lines[at]
    spill_slots = slot[emit == 2] + 1
    next_lines[spill_slots] = victim_lines[np.argsort(spill_times)]
    next_writes[spill_slots] = True
    return n - misses, misses, writebacks, next_lines, next_writes


def simulate_hierarchy(
    trace: Union[AccessTrace, LineStream],
    hierarchy: CacheHierarchy,
    first_level: Optional[MissClassification] = None,
) -> CacheSimResult:
    """Run a line stream through every level of the hierarchy.

    ``trace`` is the :class:`~repro.cache.trace.LineStream` for the
    hierarchy's line size, or a trace to derive it from.
    ``first_level`` is the :func:`~repro.cache.fast_model.classify_misses`
    result of those line ids through ``hierarchy.levels[0]`` when the
    caller already holds it; the first level then runs only its
    write-back tail, and the levels below run as always.
    """
    stream = line_stream(trace, hierarchy.line_bytes)
    lines = level_lines(stream.lines)
    writes = stream.writes
    stats: List[LevelStats] = []
    for config in hierarchy.levels:
        accesses = int(lines.size)
        hits, misses, writebacks, lines, writes = _simulate_level(
            lines, writes, config, first_level
        )
        first_level = None
        stats.append(
            LevelStats(config.name, accesses, hits, misses, writebacks)
        )
    return CacheSimResult(tuple(stats), hierarchy.line_bytes, len(stream))


def _reference_level(
    lines: List[int],
    writes: List[bool],
    config: CacheLevelConfig,
) -> Tuple[int, int, int, List[int], List[bool]]:
    """One write-back LRU level, one access at a time (the reference).

    Returns (hits, misses, writebacks, next_lines, next_writes): the filtered
    stream the next level observes (fetch reads + writeback writes).
    """
    num_sets = config.num_sets
    assoc = config.associativity
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    dirty: List[List[bool]] = [[] for _ in range(num_sets)]
    hits = 0
    misses = 0
    writebacks = 0
    next_lines: List[int] = []
    next_writes: List[bool] = []

    for line, is_write in zip(lines, writes):
        set_index = line % num_sets
        ways = sets[set_index]
        flags = dirty[set_index]
        try:
            way = ways.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            hits += 1
            ways.insert(0, ways.pop(way))
            flags.insert(0, flags.pop(way) or is_write)
        else:
            misses += 1
            next_lines.append(line)
            next_writes.append(False)  # fetch is a read
            if len(ways) >= assoc:
                evicted_dirty = flags.pop()
                evicted_line = ways.pop()
                if evicted_dirty:
                    writebacks += 1
                    next_lines.append(evicted_line)
                    next_writes.append(True)
            ways.insert(0, line)
            flags.insert(0, is_write)

    # Flush: dirty lines still resident write back at kernel end.
    for flags_list in dirty:
        flushed = sum(flags_list)
        writebacks += flushed
    # (flush writebacks are charged to this level's writeback count and to
    # DRAM via the caller when this is the LLC; they are not replayed into
    # the next level stream to keep level filtering causal.)
    return hits, misses, writebacks, next_lines, next_writes


def reference_simulate_hierarchy(
    trace: AccessTrace, hierarchy: CacheHierarchy
) -> CacheSimResult:
    """:func:`simulate_hierarchy` one access at a time in Python lists.

    The oracle the vectorized simulator is checked against (tests and
    the :mod:`repro.verify` differential fuzzer); never on a hot path.
    """
    line_ids = trace.line_ids(hierarchy.line_bytes)
    lines: List[int] = line_ids.tolist()
    writes: List[bool] = trace.is_write.tolist()
    stats: List[LevelStats] = []
    for config in hierarchy.levels:
        accesses = len(lines)
        hits, misses, writebacks, lines, writes = _reference_level(
            lines, writes, config
        )
        stats.append(
            LevelStats(config.name, accesses, hits, misses, writebacks)
        )
    return CacheSimResult(tuple(stats), hierarchy.line_bytes, len(trace))
