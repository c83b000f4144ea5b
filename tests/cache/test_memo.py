"""Tests for the line-stream/CM memoization layer."""

import numpy as np
import pytest

from repro.benchsuite import get_benchmark, list_benchmarks
from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    AccessTrace,
    CacheHierarchy,
    CacheLevelConfig,
    clear_memo,
    generate_trace,
    line_stream,
    memoized_cm_with_note,
    memoized_stream,
    polyufc_cm,
    unit_fingerprint,
)
from repro.cache import memo
from repro.cache.memo import _cm_lru, _stream_lru
from repro.hw.platform import get_platform
from repro.ir import F64, Module
from repro.mlpolyufc.characterization import group_affine_units
from repro.pipeline import _lower_to_affine
from repro.poly.transforms import tile_and_parallelize
from repro.runtime import Deadline, DeadlineExceeded


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def hier(lines=8, assoc=2):
    return CacheHierarchy((CacheLevelConfig("L1", lines * 64, 64, assoc),))


def module(ni=8):
    return POLYBENCH_BUILDERS["gemm"](ni=ni, nj=6, nk=5)


def memo_cm(*args, **kwargs):
    """The memoized counters without the engine note."""
    cm, _note = memoized_cm_with_note(*args, **kwargs)
    return cm


def registry_fingerprints(kernel):
    """Unit fingerprints of one kernel lowered and tiled as the pipeline
    does it."""
    tiled, _ = tile_and_parallelize(
        _lower_to_affine(get_benchmark(kernel).module({})), tile_size=32
    )
    hierarchy = get_platform("rpl").hierarchy
    return [
        unit_fingerprint(tiled, ops, hierarchy)
        for _name, ops in group_affine_units(tiled, "linalg")
    ]


class TestFingerprint:
    def test_stable_across_equal_modules(self):
        assert unit_fingerprint(module(), None, hier()) == unit_fingerprint(
            module(), None, hier()
        )

    @pytest.mark.parametrize("kernel", list_benchmarks())
    def test_stable_across_lowerings(self, kernel):
        first = registry_fingerprints(kernel)
        assert first and registry_fingerprints(kernel) == first

    def test_sensitive_to_every_input(self):
        base = unit_fingerprint(module(), None, hier())
        assert base != unit_fingerprint(
            POLYBENCH_BUILDERS["gemm"](ni=9, nj=6, nk=5), None, hier()
        )
        assert base != unit_fingerprint(module(), None, hier(lines=16))
        assert base != unit_fingerprint(module(), None, hier(), threads=8)
        assert base != unit_fingerprint(module(), None, hier(), parallel=True)

    def test_sensitive_to_traced_ops(self):
        mod = module()
        assert unit_fingerprint(mod, None, hier()) != unit_fingerprint(
            mod, mod.ops[:1], hier()
        )


class TestInProcessMemo:
    def test_cm_reused(self):
        result_a = memo_cm(module(), None, hier())
        hits_before = _cm_lru.hits
        result_b = memo_cm(module(), None, hier())
        assert result_a == result_b
        assert _cm_lru.hits == hits_before + 1

    def test_matches_unmemoized(self):
        mod = module()
        direct = polyufc_cm(generate_trace(mod), hier())
        assert memo_cm(mod, None, hier()) == direct

    def test_distinct_requests_not_conflated(self):
        serial = memo_cm(module(), None, hier())
        threaded = memo_cm(
            module(), None, hier(), threads=4, parallel=True
        )
        assert serial.threads != threaded.threads


class TestStreamMemo:
    def test_stream_holds_the_trace_line_ids(self):
        trace = generate_trace(module())
        stream = memoized_stream(module(), None, 64)
        assert stream.lines.dtype == np.int32
        np.testing.assert_array_equal(stream.lines, trace.line_ids(64))
        np.testing.assert_array_equal(stream.writes, trace.is_write)
        assert len(stream) == len(trace)
        assert stream.nbytes == 5 * len(trace)

    def test_stream_copies_the_write_flags(self):
        trace = generate_trace(module())
        stream = line_stream(trace, 64)
        np.testing.assert_array_equal(stream.writes, trace.is_write)
        assert not np.shares_memory(stream.writes, trace.is_write)

    def test_int64_where_ids_do_not_fit(self):
        holder = Module("huge")
        small = holder.add_buffer("small", (4,), F64)
        huge = holder.add_buffer("huge", (2 ** 36,), F64)
        trace = AccessTrace(
            [small, huge],
            np.array([0, 1, 1], dtype=np.int32),
            np.array([3, 0, 2 ** 36 - 1], dtype=np.int64),
            np.array([False, True, False]),
        )
        stream = line_stream(trace, 64)
        assert stream.lines.dtype == np.int64
        np.testing.assert_array_equal(stream.lines, trace.line_ids(64))
        assert int(stream.lines.max()) > np.iinfo(np.int32).max

    def test_stream_keeps_its_line_size(self):
        stream = line_stream(generate_trace(module()), 64)
        assert line_stream(stream, 64) is stream
        with pytest.raises(ValueError):
            line_stream(stream, 128)

    def test_platforms_share_one_trace(self, monkeypatch):
        generated = []
        generate = memo.generate_trace

        def spy(*args, **kwargs):
            generated.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(memo, "generate_trace", spy)
        rpl = get_platform("rpl").hierarchy
        bdw = get_platform("bdw").hierarchy
        assert rpl != bdw and rpl.line_bytes == bdw.line_bytes
        mod = module()
        for hierarchy in (rpl, bdw):
            direct = polyufc_cm(generate(mod), hierarchy)
            assert memo_cm(mod, None, hierarchy) == direct
        assert len(generated) == 1

    def test_interrupted_generation_keeps_nothing(self):
        with pytest.raises(DeadlineExceeded):
            memo_cm(module(), None, hier(), deadline=Deadline(0))
        assert not _stream_lru._data and _stream_lru.weight == 0
        assert not _cm_lru._data


class TestLruBounds:
    def test_capacity_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(memo, "CM_CAPACITY", 2)
        hierarchies = [hier(lines=4 * (i + 1)) for i in range(3)]
        for h in hierarchies:
            memo_cm(module(), None, h)
        assert len(_cm_lru._data) == 2

    def test_streams_evict_oldest_by_bytes(self, monkeypatch):
        a, b, c = (memoized_stream(module(ni), None, 64) for ni in (8, 9, 10))
        clear_memo()
        monkeypatch.setattr(
            memo, "STREAM_BUDGET_BYTES", a.nbytes + b.nbytes + c.nbytes - 1
        )
        memoized_stream(module(8), None, 64)
        memoized_stream(module(9), None, 64)
        memoized_stream(module(8), None, 64)  # a hit: 9 is now the oldest
        memoized_stream(module(10), None, 64)
        assert memo.lookup_stream(module(9), None, 64) is None
        assert memo.lookup_stream(module(8), None, 64) is not None
        assert memo.lookup_stream(module(10), None, 64) is not None
        assert _stream_lru.weight == a.nbytes + c.nbytes

    def test_replacing_a_key_counts_its_bytes_once(self):
        first = line_stream(generate_trace(module()), 64)
        second = line_stream(generate_trace(module()), 64)
        _stream_lru.put("unit", first)
        _stream_lru.put("unit", second)
        assert _stream_lru.weight == second.nbytes
        assert _stream_lru.get("unit") is second

    def test_over_budget_stream_is_returned_not_kept(self, monkeypatch):
        small = memoized_stream(module(8), None, 64)
        monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", small.nbytes)
        stream = memoized_stream(module(16), None, 64)
        np.testing.assert_array_equal(
            stream.lines, generate_trace(module(16)).line_ids(64)
        )
        # Neither kept nor allowed to push the entries that fit out.
        assert memo.lookup_stream(module(16), None, 64) is None
        assert memo.lookup_stream(module(8), None, 64) is small
        assert _stream_lru.weight == small.nbytes
