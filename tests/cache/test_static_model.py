"""Unit + property tests for PolyUFC-CM (the static cache model)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    polyufc_cm,
    simulate_hierarchy,
)
from tests.cache.test_simulator import small_hierarchy, synthetic_trace


class TestColdMisses:
    def test_cold_equals_distinct_lines(self):
        trace = synthetic_trace([0, 8, 16, 0, 8, 16, 24])
        cm = polyufc_cm(trace, small_hierarchy(l1_lines=16, assoc=4))
        assert cm.levels[0].cold_misses == 4
        assert cm.levels[0].capacity_conflict_misses == 0

    def test_empty_trace(self):
        trace = synthetic_trace([], buffer_len=1)
        cm = polyufc_cm(trace, small_hierarchy())
        assert cm.total_accesses == 0
        assert cm.miss_llc == 0


class TestReuseDistanceMisses:
    def test_capacity_miss_when_distance_exceeds_assoc(self):
        # single-set assoc-2 cache; pattern 0,1,2,0: RD(0)=2 >= k -> miss
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 2),))
        trace = synthetic_trace([0, 8, 16, 0])
        cm = polyufc_cm(trace, hier)
        assert cm.levels[0].cold_misses == 3
        assert cm.levels[0].capacity_conflict_misses == 1

    def test_hit_within_assoc(self):
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 2),))
        trace = synthetic_trace([0, 8, 0, 8])
        cm = polyufc_cm(trace, hier)
        assert cm.levels[0].misses == 2
        assert cm.levels[0].hits == 2

    def test_conflict_between_sets(self):
        # 2 sets assoc 1: lines 0 and 2 collide in set 0; line 1 never does
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 1),))
        trace = synthetic_trace([0, 16, 0, 8, 8])
        cm = polyufc_cm(trace, hier)
        assert cm.levels[0].cold_misses == 3
        assert cm.levels[0].capacity_conflict_misses == 1  # second 0


class TestWriteThrough:
    def test_writes_forwarded_to_next_level(self):
        hier = small_hierarchy(l1_lines=16, assoc=4, levels=2)
        trace = synthetic_trace([0, 0, 0], writes=[False, True, True])
        cm = polyufc_cm(trace, hier)
        # L2 sees: 1 miss fill + 2 forwarded writes
        assert cm.levels[1].accesses == 3

    def test_q_dram_is_llc_misses_times_line(self):
        trace = synthetic_trace(np.arange(0, 4096, 8))
        hier = small_hierarchy(levels=3)
        cm = polyufc_cm(trace, hier)
        assert cm.q_dram_bytes == cm.miss_llc * 64


class TestThreadHeuristic:
    def base_trace(self):
        # thrash a single-set cache to generate capacity misses
        return synthetic_trace([0, 8, 16, 24] * 50)

    def test_parallel_divides_capacity_misses(self):
        hier = CacheHierarchy((CacheLevelConfig("L1", 2 * 64, 64, 2),))
        seq = polyufc_cm(self.base_trace(), hier, threads=4, parallel=False)
        par = polyufc_cm(self.base_trace(), hier, threads=4, parallel=True)
        assert seq.levels[0].cold_misses == par.levels[0].cold_misses
        assert par.levels[0].capacity_conflict_misses * 4 >= (
            seq.levels[0].capacity_conflict_misses
        ) > par.levels[0].capacity_conflict_misses

    def test_threads_validation(self):
        with pytest.raises(ValueError):
            polyufc_cm(self.base_trace(), small_hierarchy(), threads=0)


class TestModelVsSimulator:
    def test_read_only_single_level_identical(self):
        """With no writes, one level, model and simulator agree exactly."""
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, 64, size=400) * 8
        trace = synthetic_trace(offsets, buffer_len=520)
        hier = small_hierarchy(l1_lines=8, assoc=2)
        cm = polyufc_cm(trace, hier)
        sim = simulate_hierarchy(trace, hier)
        assert cm.levels[0].misses == sim.levels[0].misses

    def test_fully_assoc_fewer_misses_on_conflict_trace(self):
        """On a same-set ping-pong, FA eliminates the conflict misses.

        (This only holds level-by-level for the *same* input stream --
        deeper levels see different filtered streams, so only L1 is
        compared.)
        """
        hier = CacheHierarchy((CacheLevelConfig("L1", 4 * 64, 64, 1),))
        # lines 0 and 4 collide in a 4-set direct-mapped cache
        trace = synthetic_trace([0, 256, 0, 256, 0, 256] * 10,
                                buffer_len=300)
        sa = polyufc_cm(trace, hier)
        fa = polyufc_cm(trace, hier.fully_associative())
        assert fa.levels[0].misses == 2  # cold only
        assert sa.levels[0].misses == 60  # every access conflicts
        assert fa.levels[0].misses < sa.levels[0].misses


@st.composite
def random_read_trace(draw):
    length = draw(st.integers(min_value=1, max_value=200))
    offsets = draw(
        st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=length,
            max_size=length,
        )
    )
    return synthetic_trace([o * 8 for o in offsets], buffer_len=300)


@given(random_read_trace(), st.integers(min_value=0, max_value=2),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=40, deadline=None)
def test_property_model_matches_simulator_reads(trace, sets_pow, assoc):
    """Read-only traces, one level: per-set LRU reuse distance == LRU sim."""
    num_sets = 2 ** sets_pow
    hier = CacheHierarchy(
        (CacheLevelConfig("L1", num_sets * assoc * 64, 64, assoc),)
    )
    cm = polyufc_cm(trace, hier)
    sim = simulate_hierarchy(trace, hier)
    assert cm.levels[0].misses == sim.levels[0].misses
    assert cm.levels[0].hits == sim.levels[0].hits


@given(random_read_trace())
@settings(max_examples=30, deadline=None)
def test_property_cold_misses_equal_distinct_lines(trace):
    hier = small_hierarchy(l1_lines=4, assoc=2)
    cm = polyufc_cm(trace, hier)
    distinct = len(set(trace.line_ids(64).tolist()))
    assert cm.levels[0].cold_misses == distinct


@given(random_read_trace())
@settings(max_examples=30, deadline=None)
def test_property_miss_monotone_in_associativity(trace):
    """More ways (same sets) never increases misses under LRU (inclusion)."""
    small = CacheHierarchy((CacheLevelConfig("L1", 2 * 2 * 64, 64, 2),))
    large = CacheHierarchy((CacheLevelConfig("L1", 2 * 4 * 64, 64, 4),))
    cm_small = polyufc_cm(trace, small)
    cm_large = polyufc_cm(trace, large)
    assert cm_large.levels[0].misses <= cm_small.levels[0].misses


@given(random_read_trace())
@settings(max_examples=30, deadline=None)
def test_property_ratios_consistent(trace):
    hier = small_hierarchy(levels=2)
    cm = polyufc_cm(trace, hier)
    for level in cm.levels:
        assert level.hits + level.misses == level.accesses
        assert 0 <= level.misses <= level.accesses
