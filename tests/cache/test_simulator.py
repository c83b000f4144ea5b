"""Unit tests for the hardware cache simulator.

The vectorized simulator must be bit-for-bit the per-access reference
loop: the same hits, misses and writebacks at every level *and* the same
next-level stream (fetches and dirty victims) in the same order.  So
must the shared path, where one first-level classification feeds both
the CM's write-through tail and the simulator's write-back tail.
"""

import numpy as np
import pytest

from repro.cache import (
    AccessTrace,
    CacheHierarchy,
    CacheLevelConfig,
    LineStream,
    generate_trace,
    simulate_hierarchy,
)
from repro.cache import fast_model
from repro.cache.fast_model import classify_misses, model_level
from repro.cache.simulator import (
    _reference_level,
    _simulate_level,
    reference_simulate_hierarchy,
)
from repro.cache.static_model import (
    SimulatorTail,
    _reference_level as _reference_cm_level,
    polyufc_cm,
    reference_cm,
)
from repro.hw.platform import get_platform
from repro.ir.core import Buffer, F64
from tests.cache.test_engine_agreement import ALL_BENCHMARKS, _build
from tests.cache.test_fast_model import (
    record_prefix_distances,
    wide_hit_window,
)


def synthetic_trace(offsets, writes=None, element_bytes=8, buffer_len=None):
    """A trace over a single synthetic buffer."""
    offsets = np.asarray(offsets, dtype=np.int64)
    length = buffer_len or int(offsets.max()) + 1
    buffer = Buffer("synthetic", (length,), F64)
    if writes is None:
        writes = np.zeros(len(offsets), dtype=bool)
    else:
        writes = np.asarray(writes, dtype=bool)
    return AccessTrace(
        [buffer],
        np.zeros(len(offsets), dtype=np.int32),
        offsets,
        writes,
    )


def small_hierarchy(l1_lines=4, assoc=2, levels=1):
    configs = []
    size = l1_lines * 64
    for index in range(levels):
        configs.append(
            CacheLevelConfig(f"L{index + 1}", size, 64, assoc)
        )
        size *= 4
    return CacheHierarchy(tuple(configs))


class TestLevelConfig:
    def test_derived_counts(self):
        config = CacheLevelConfig("L1", 8 * 1024, 64, 8)
        assert config.num_lines == 128
        assert config.num_sets == 16

    def test_divisibility_check(self):
        with pytest.raises(ValueError):
            CacheLevelConfig("L1", 1000, 64, 8)

    def test_hierarchy_checks(self):
        with pytest.raises(ValueError):
            CacheHierarchy(())
        with pytest.raises(ValueError):
            CacheHierarchy(
                (
                    CacheLevelConfig("L1", 1024, 64, 2),
                    CacheLevelConfig("L2", 1024, 64, 2),
                )
            )
        with pytest.raises(ValueError):
            CacheHierarchy(
                (
                    CacheLevelConfig("L1", 1024, 64, 2),
                    CacheLevelConfig("L2", 4096, 128, 2),
                )
            )

    def test_fully_associative_variant(self):
        hier = small_hierarchy(l1_lines=8, assoc=2, levels=2)
        fa = hier.fully_associative()
        assert all(l.num_sets == 1 for l in fa.levels)
        assert [l.size_bytes for l in fa.levels] == [
            l.size_bytes for l in hier.levels
        ]


class TestSingleLevel:
    def test_cold_misses_only(self):
        # 4 distinct lines, cache holds 4 lines: all cold, repeats hit
        trace = synthetic_trace([0, 8, 16, 24, 0, 8, 16, 24])
        sim = simulate_hierarchy(trace, small_hierarchy())
        assert sim.levels[0].misses == 4
        assert sim.levels[0].hits == 4

    def test_lru_eviction(self):
        # one set (stride 64 bytes * num_sets keeps same set), assoc 2
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 2),))
        # lines 0,1,2 map to set 0 of a single-set cache; LRU evicts 0
        trace = synthetic_trace([0, 8, 16, 0])
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[0].misses == 4  # 0,1,2 cold + 0 again after evict

    def test_lru_recency_update(self):
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 2),))
        # touch 0, 1, re-touch 0 (now MRU), then 2 evicts 1 not 0
        trace = synthetic_trace([0, 8, 0, 16, 0])
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[0].misses == 3
        assert sim.levels[0].hits == 2

    def test_writeback_counted_on_dirty_eviction(self):
        hier = CacheHierarchy((CacheLevelConfig("L1", 1 * 64, 64, 1),))
        trace = synthetic_trace([0, 8], writes=[True, False])
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[0].writebacks == 1  # dirty line 0 evicted by line 1

    def test_flush_writebacks(self):
        hier = CacheHierarchy((CacheLevelConfig("L1", 4 * 64, 64, 4),))
        trace = synthetic_trace([0, 8], writes=[True, True])
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[0].writebacks == 2  # both flushed at kernel end

    def test_set_mapping_avoids_conflicts(self):
        # 2 sets: lines 0,2 -> set 0; line 1 -> set 1. assoc 1.
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 1),))
        trace = synthetic_trace([0, 8, 0, 8])  # lines 0 and 1, disjoint sets
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[0].misses == 2
        conflict = synthetic_trace([0, 16, 0, 16])  # lines 0 and 2 collide
        sim2 = simulate_hierarchy(conflict, hier)
        assert sim2.levels[0].misses == 4


class TestHierarchy:
    def test_filtering(self):
        hier = small_hierarchy(l1_lines=2, assoc=1, levels=2)
        # L1: 2 sets assoc 1; lines 0..3: 0,2 -> set 0; 1,3 -> set 1
        trace = synthetic_trace([0, 16, 0, 16])  # ping-pong set 0
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[0].misses == 4
        # L2 holds both lines: 2 cold misses then hits
        assert sim.levels[1].accesses == 4
        assert sim.levels[1].misses == 2

    def test_dram_traffic(self):
        hier = small_hierarchy(levels=2)
        trace = synthetic_trace(np.arange(0, 800, 8), writes=None)
        sim = simulate_hierarchy(trace, hier)
        assert sim.dram_fetch_bytes == sim.llc.misses * 64
        assert sim.dram_bytes >= sim.dram_fetch_bytes

    def test_total_accesses(self):
        trace = synthetic_trace([0, 8, 16])
        sim = simulate_hierarchy(trace, small_hierarchy())
        assert sim.total_accesses == 3
        assert sim.levels[0].accesses == 3

    def test_inclusive_reload(self):
        """After capacity eviction everywhere, a re-access misses everywhere."""
        hier = small_hierarchy(l1_lines=2, assoc=2, levels=2)
        llc_lines = hier.levels[1].num_lines
        span = (llc_lines + 4) * 8  # element stride 8 = one per line
        offsets = list(range(0, span * 8, 8)) + [0]
        trace = synthetic_trace(offsets)
        sim = simulate_hierarchy(trace, hier)
        assert sim.levels[1].misses > hier.levels[1].num_lines


def level_config(num_sets, assoc, line=64):
    return CacheLevelConfig("T", num_sets * assoc * line, line, assoc)


def assert_level_matches(lines, writes, config):
    """Vectorized and reference levels agree on counters and stream, on
    int32 and on int64 line ids; the stream keeps the ids' dtype."""
    writes = np.asarray(writes, dtype=bool)
    ref_hits, ref_misses, ref_wb, ref_lines, ref_writes = _reference_level(
        np.asarray(lines, dtype=np.int64).tolist(), writes.tolist(), config
    )
    for dtype in (np.int32, np.int64):
        ids = np.asarray(lines, dtype=dtype)
        hits, misses, writebacks, next_lines, next_writes = _simulate_level(
            ids, writes, config
        )
        assert (hits, misses, writebacks) == (ref_hits, ref_misses, ref_wb)
        assert all(type(c) is int for c in (hits, misses, writebacks))
        assert next_lines.dtype == ids.dtype
        assert next_lines.tolist() == ref_lines
        assert next_writes.tolist() == ref_writes


class TestVectorizedLevel:
    @pytest.mark.parametrize("assoc", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("num_sets", [1, 2, 4, 8])
    def test_random_streams(self, num_sets, assoc):
        rng = np.random.default_rng(num_sets * 10 + assoc)
        config = level_config(num_sets, assoc)
        for _ in range(30):
            n = int(rng.integers(1, 400))
            span = int(rng.integers(1, 80))
            lines = rng.integers(0, span, n)
            writes = rng.random(n) < rng.random()
            assert_level_matches(lines, writes, config)

    def test_empty_stream(self):
        assert_level_matches([], [], level_config(2, 2))

    def test_dirty_victims_follow_their_fetch(self):
        # One 1-way set: every miss after the first evicts the previous
        # line; stores make every victim dirty.
        assert_level_matches(
            [0, 1, 2, 1, 0], [True, True, False, False, True],
            level_config(1, 1),
        )

    def test_huge_windows_reach_prefix_counting(self, monkeypatch):
        # Three passes over far more lines than ways: the third pass's
        # reuse windows are too wide for the chunk rounds.
        calls = record_prefix_distances(monkeypatch)
        distinct = (fast_model._PREFIX_DIRECT + 4) * fast_model._CHUNK
        lines = np.tile(np.arange(distinct, dtype=np.int64), 3)
        writes = np.random.default_rng(5).random(lines.size) < 0.25
        assert_level_matches(lines, writes, level_config(1, 4))
        assert calls, "expected the huge windows to reach prefix counting"

    def test_prefix_counting_finds_a_hit(self, monkeypatch):
        calls = record_prefix_distances(monkeypatch)
        assert_level_matches(*wide_hit_window())
        assert calls == [[3], [3]]

    def test_hard_queries_span_several_batches(self):
        # Cycling slightly more lines than ways with random stores: every
        # reuse is a hard query, many more than one gather batch.
        lines = np.tile(np.arange(40, dtype=np.int64), 400)
        writes = np.random.default_rng(9).random(lines.size) < 0.3
        assert lines.size > 2 * fast_model._QUERY_BATCH
        assert_level_matches(lines, writes, level_config(1, 36))


class TestVectorizedHierarchy:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_multilevel_traces(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(50, 3000))
        offsets = rng.integers(0, int(rng.integers(64, 4096)), n)
        writes = rng.random(n) < rng.random()
        trace = synthetic_trace(offsets, writes)
        hier = small_hierarchy(
            l1_lines=int(rng.choice([2, 4, 8])),
            assoc=int(rng.choice([1, 2])),
            levels=int(rng.integers(1, 4)),
        )
        assert (
            simulate_hierarchy(trace, hier).counters()
            == reference_simulate_hierarchy(trace, hier).counters()
        )


def _level_result(result):
    """A level tuple with its streams as plain lists."""
    return tuple(
        part.tolist() if isinstance(part, np.ndarray) else part
        for part in result
    )


def assert_shared_path_matches(trace, hierarchy):
    """One first-level classification through both tails equals the
    standalone fast paths and the per-access references."""
    lines = np.ascontiguousarray(
        trace.line_ids(hierarchy.line_bytes), dtype=np.int64
    )
    writes = trace.is_write
    first = hierarchy.levels[0]
    stages = classify_misses(lines, first)

    shared = _level_result(model_level(lines, writes, first, stages=stages))
    assert shared == _level_result(model_level(lines, writes, first))
    assert shared == _level_result(
        _reference_cm_level(lines.tolist(), writes.tolist(), first)
    )
    shared = _level_result(_simulate_level(lines, writes, first, stages))
    assert shared == _level_result(_simulate_level(lines, writes, first))
    assert shared == _level_result(
        _reference_level(lines.tolist(), writes.tolist(), first)
    )

    reference = reference_simulate_hierarchy(trace, hierarchy).counters()
    assert simulate_hierarchy(trace, hierarchy).counters() == reference
    assert (
        simulate_hierarchy(trace, hierarchy, stages).counters() == reference
    )
    tail = SimulatorTail(hierarchy)
    cm = polyufc_cm(trace, hierarchy, hardware=tail)
    assert cm.hardware.counters() == reference
    assert cm.counters() == reference_cm(trace, hierarchy).counters()


class TestSharedClassification:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("num_sets", [1, 2, 8])
    def test_random_streams_one_level(self, num_sets, assoc):
        rng = np.random.default_rng(1000 + num_sets * 10 + assoc)
        hierarchy = CacheHierarchy((level_config(num_sets, assoc),))
        for _ in range(10):
            n = int(rng.integers(1, 400))
            offsets = rng.integers(0, int(rng.integers(1, 80)), n) * 8
            writes = rng.random(n) < rng.random()
            assert_shared_path_matches(
                synthetic_trace(offsets, writes), hierarchy
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multilevel_traces(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(50, 3000))
        offsets = rng.integers(0, int(rng.integers(64, 4096)), n)
        writes = rng.random(n) < rng.random()
        hierarchy = small_hierarchy(
            l1_lines=int(rng.choice([2, 4, 8])),
            assoc=int(rng.choice([1, 2])),
            levels=int(rng.integers(1, 4)),
        )
        assert_shared_path_matches(synthetic_trace(offsets, writes), hierarchy)

    def test_empty_stream(self):
        assert_shared_path_matches(
            synthetic_trace([], buffer_len=1), small_hierarchy(levels=2)
        )

    def test_ids_beyond_int32(self):
        # A stream line_stream would hold as int64: every level runs on
        # int64 ids and still equals both per-access oracles.
        rng = np.random.default_rng(17)
        lines = (1 << 40) + rng.integers(0, 300, 3000)
        writes = rng.random(lines.size) < 0.3
        stream = LineStream(64, lines, writes)
        hierarchy = small_hierarchy(l1_lines=8, assoc=2, levels=3)
        reference = []
        ids, flags = lines.tolist(), writes.tolist()
        for config in hierarchy.levels:
            hits, misses, writebacks, ids, flags = _reference_level(
                ids, flags, config
            )
            reference.append((config.name, hits + misses, misses, writebacks))
        assert simulate_hierarchy(stream, hierarchy).counters() == tuple(
            reference
        )
        cm = polyufc_cm(stream, hierarchy, hardware=SimulatorTail(hierarchy))
        assert cm.hardware.counters() == tuple(reference)
        assert cm.counters() == reference_cm(stream, hierarchy).counters()

    def test_tail_only_for_the_modelled_hierarchy(self):
        trace = synthetic_trace(np.arange(0, 800, 8))
        hierarchy = small_hierarchy(levels=2)
        tail = SimulatorTail(hierarchy)
        cm = polyufc_cm(trace, hierarchy.fully_associative(), hardware=tail)
        assert cm.hardware is None
        assert tail.seconds == 0.0
        cm = polyufc_cm(trace, hierarchy, hardware=tail)
        assert cm.hardware is not None and tail.seconds > 0.0

    def test_failed_tail_keeps_the_model(self, monkeypatch):
        from repro.cache import static_model

        def broken(*args, **kwargs):
            raise MemoryError("simulated")

        trace = synthetic_trace(np.arange(0, 800, 8), np.arange(100) % 3 == 0)
        hierarchy = small_hierarchy(levels=2)
        expected = polyufc_cm(trace, hierarchy)
        monkeypatch.setattr(static_model, "simulate_hierarchy", broken)
        cm = polyufc_cm(trace, hierarchy, hardware=SimulatorTail(hierarchy))
        assert cm.hardware is None
        assert cm == expected


class TestRegistryKernels:
    """Every registered kernel, small sizes, through the real platforms
    (plus a tiny hierarchy where the small working sets do evict)."""

    TINY = CacheHierarchy(
        (
            CacheLevelConfig("L1", 8 * 64 * 2, 64, 2),
            CacheLevelConfig("L2", 32 * 64 * 4, 64, 4),
            CacheLevelConfig("L3", 128 * 64 * 8, 64, 8),
        )
    )

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_matches_reference(self, name):
        trace = generate_trace(_build(name))
        for hierarchy in (
            get_platform("rpl").hierarchy,
            get_platform("bdw").hierarchy,
        ):
            assert_shared_path_matches(trace, hierarchy)
        assert (
            simulate_hierarchy(trace, self.TINY).counters()
            == reference_simulate_hierarchy(trace, self.TINY).counters()
        ), name
