"""Tests for the trace/CM memoization layer."""

import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    clear_memo,
    generate_trace,
    memoized_cm_with_note,
    memoized_trace,
    polyufc_cm,
    unit_fingerprint,
)
from repro.cache import memo
from repro.cache.memo import _cm_lru


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def hier(lines=8, assoc=2):
    return CacheHierarchy((CacheLevelConfig("L1", lines * 64, 64, assoc),))


def module():
    return POLYBENCH_BUILDERS["gemm"](ni=8, nj=6, nk=5)


def memo_cm(*args, **kwargs):
    """The memoized counters without the engine note."""
    cm, _note = memoized_cm_with_note(*args, **kwargs)
    return cm


class TestFingerprint:
    def test_stable_across_equal_modules(self):
        assert unit_fingerprint(module(), None, hier()) == unit_fingerprint(
            module(), None, hier()
        )

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

    def test_trace_reused(self):
        trace_a = memoized_trace(module())
        trace_b = memoized_trace(module())
        assert trace_a is trace_b

    def test_matches_unmemoized(self):
        mod = module()
        direct = polyufc_cm(generate_trace(mod), hier())
        assert memo_cm(mod, None, hier()) == direct

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CM_MEMO", "0")
        memo_cm(module(), None, hier())
        memo_cm(module(), None, hier())
        assert _cm_lru.hits == 0 and _cm_lru.misses == 0

    def test_distinct_requests_not_conflated(self):
        serial = memo_cm(module(), None, hier())
        threaded = memo_cm(
            module(), None, hier(), threads=4, parallel=True
        )
        assert serial.threads != threaded.threads


class TestLruBounds:
    def test_capacity_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(memo, "MEMO_CAPACITY", 2)
        hierarchies = [hier(lines=4 * (i + 1)) for i in range(3)]
        for h in hierarchies:
            memo_cm(module(), None, h)
        assert len(_cm_lru._data) == 2
