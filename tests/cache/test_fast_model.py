"""Equivalence suite for the vectorized CM engine.

The fast engine must be bit-for-bit identical to the per-access oracle
(:func:`repro.cache.reference_cm` and its per-level walk): same cold /
capacity-conflict counters at every level *and* the same write-through
next-level stream in the same order.  The randomized cases
sweep ``num_sets``, ``associativity`` and the write mix; the constructed
cases force each stage of the filtering cascade (including the radix-8
prefix-counting escalation for huge reuse windows).
"""

import numpy as np
import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    generate_trace,
    polyufc_cm,
    reference_cm,
)
from repro.cache import fast_model
from repro.cache.fast_model import le_rank, model_level
from repro.cache.polyhedral_model import exact_first_level_counts
from repro.cache.static_model import _reference_level, resolve_engine
from repro.ir import F64, Module
from repro.ir.builder import AffineBuilder
from repro.isllite import LinExpr
from repro.poly import extract_scop


def level_config(num_sets, assoc, line=64):
    return CacheLevelConfig("T", num_sets * assoc * line, line, assoc)


def assert_levels_match(lines, writes, config):
    """Fast and reference agree on counters and the forwarded stream, on
    int32 and on int64 line ids; the stream keeps the ids' dtype."""
    writes = np.asarray(writes, dtype=bool)
    ref_cold, ref_cc, ref_lines, ref_writes = _reference_level(
        np.asarray(lines, dtype=np.int64).tolist(), writes.tolist(), config
    )
    for dtype in (np.int32, np.int64):
        ids = np.asarray(lines, dtype=dtype)
        cold, cc, next_lines, next_writes = model_level(ids, writes, config)
        assert (cold, cc) == (ref_cold, ref_cc)
        assert all(type(c) is int for c in (cold, cc))
        assert next_lines.dtype == ids.dtype
        assert next_lines.tolist() == ref_lines
        assert next_writes.tolist() == ref_writes
    return next_lines, next_writes


def wide_hit_window():
    """A hit whose reuse window is too wide for the chunk rounds.

    One set of 4 ways: ten other lines (so the conflict-free shortcut
    does not fire), then line 0, ``[1, 2, 3]`` 2,774 times and line 0
    again.  The last access's window spans more than ``_PREFIX_DIRECT``
    chunks but holds only 3 distinct lines.
    """
    lines = np.concatenate(
        (np.arange(100, 110), [0], np.tile([1, 2, 3], 2774), [0])
    )
    writes = np.arange(lines.size) % 5 == 0
    return lines, writes, level_config(1, 4)


def record_prefix_distances(monkeypatch):
    """Wrap ``_prefix_count``; the returned list gets the reuse distances
    of every call's queries."""
    calls = []
    original = fast_model._prefix_count

    def recording(w, gi, wq, **kwargs):
        counts = original(w, gi, wq, **kwargs)
        calls.append((counts - wq).tolist())
        return counts

    monkeypatch.setattr(fast_model, "_prefix_count", recording)
    return calls


class TestLeRank:
    @pytest.mark.parametrize("n", [0, 1, 7, 32, 33, 100, 257])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, max(1, n // 2), n)
        expected = [
            sum(1 for j in range(i) if values[j] <= values[i])
            for i in range(n)
        ]
        assert le_rank(values).tolist() == expected


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        lines = rng.integers(0, int(rng.integers(1, 50)), n)
        writes = rng.random(n) < rng.random()
        config = level_config(
            int(rng.choice([1, 2, 4, 8])), int(rng.integers(1, 8))
        )
        assert_levels_match(lines, writes, config)

    @pytest.mark.parametrize("num_sets,assoc", [(1, 1), (1, 4), (4, 2), (8, 8)])
    def test_write_mixes(self, num_sets, assoc):
        rng = np.random.default_rng(num_sets * 31 + assoc)
        lines = rng.integers(0, 40, 500)
        for write_fraction in (0.0, 0.3, 1.0):
            writes = rng.random(500) < write_fraction
            assert_levels_match(lines, writes, level_config(num_sets, assoc))

    def test_multi_level_chain(self):
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 120, 2000)
        writes = rng.random(2000) < 0.4
        for config in (
            level_config(4, 2),
            level_config(8, 4),
            level_config(16, 8),
        ):
            lines, writes = assert_levels_match(lines, writes, config)


class TestCascadeStages:
    def test_conflict_free_shortcut(self):
        # every set's population fits its ways -> only cold misses
        lines = np.tile(np.arange(8, dtype=np.int64), 50)
        writes = np.zeros(400, dtype=bool)
        assert_levels_match(lines, writes, level_config(4, 2))

    def test_single_set_is_fully_associative(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 30, 600)
        writes = rng.random(600) < 0.5
        assert_levels_match(lines, writes, level_config(1, 6))

    def test_prefix_escalation_on_huge_windows(self, monkeypatch):
        # Three passes over a working set far larger than the ways: the
        # third pass's reuse windows span the whole second pass (no cold
        # accesses inside), defeating the cold lower bound, and their
        # width exceeds the direct-routing threshold -- so the prefix
        # counter must run, and must agree with the reference loop.
        calls = record_prefix_distances(monkeypatch)
        distinct = (fast_model._PREFIX_DIRECT + 4) * fast_model._CHUNK
        lines = np.tile(np.arange(distinct, dtype=np.int64), 3)
        rng = np.random.default_rng(5)
        writes = rng.random(lines.size) < 0.25
        assert_levels_match(lines, writes, level_config(1, 4))
        assert calls, "expected the huge windows to reach prefix counting"

    def test_prefix_counting_finds_a_hit(self, monkeypatch):
        # The only hard query is a hit routed straight to prefix counting:
        # one call per id width, each answering distance 3.
        calls = record_prefix_distances(monkeypatch)
        assert_levels_match(*wide_hit_window())
        assert calls == [[3], [3]]

    def test_rounds_early_termination(self):
        # Cycling a set slightly larger than the ways: every reuse window
        # is all-new, so the chunk rounds terminate at assoc immediately.
        lines = np.tile(np.arange(200, dtype=np.int64), 10)
        writes = np.zeros(lines.size, dtype=bool)
        assert_levels_match(lines, writes, level_config(1, 16))


class TestEngineSwitch:
    def small_hier(self, lines=8, assoc=2):
        return CacheHierarchy(
            (CacheLevelConfig("L1", lines * 64, 64, assoc),)
        )

    def test_engines_identical_on_kernel(self):
        module = POLYBENCH_BUILDERS["gemm"](ni=10, nj=8, nk=6)
        trace = generate_trace(module)
        hierarchy = self.small_hier()
        assert polyufc_cm(trace, hierarchy) == reference_cm(trace, hierarchy)

    def test_fast_matches_exact_polyhedral_ground_truth(self):
        def tri_module():
            tri = Module("tri")
            a = tri.add_buffer("A", (10, 10), F64)
            builder = AffineBuilder(tri)
            with builder.loop("i", 0, 10):
                with builder.loop("j", 0, LinExpr.var("i") + 1):
                    builder.store(builder.const(0.0), a, ["i", "j"])
            return tri

        for builder in (
            lambda: POLYBENCH_BUILDERS["gemm"](ni=6, nj=5, nk=4),
            lambda: POLYBENCH_BUILDERS["mvt"](n=7),
            tri_module,
        ):
            module = builder()
            for lines, assoc in ((4, 1), (4, 2), (8, 2), (16, 4)):
                hierarchy = self.small_hier(lines, assoc)
                exact = exact_first_level_counts(
                    extract_scop(module), hierarchy
                )
                cm = polyufc_cm(generate_trace(module), hierarchy)
                assert exact.accesses == cm.levels[0].accesses
                assert exact.cold_misses == cm.levels[0].cold_misses
                assert exact.capacity_conflict_misses == (
                    cm.levels[0].capacity_conflict_misses
                )

    def test_unknown_engine_rejected(self):
        # The per-access oracle is not an engine a caller can select.
        for name in ("turbo", "reference"):
            with pytest.raises(ValueError, match="unknown CM engine"):
                resolve_engine(name)

    def test_argument_selects_engine(self):
        assert resolve_engine() == "fast"
        assert resolve_engine("symbolic") == "symbolic"
