"""The hardware side simulates the trace the CM stage already built."""

import pytest

from repro.cache import memo
from repro.service import executor
from repro.service.executor import execute_report
from repro.service.spec import JobSpec
from repro.service.store import ResultStore

SPEC = JobSpec(benchmark="atax", sizes={"m": 48, "n": 48})


@pytest.fixture()
def hw_traces(monkeypatch):
    """The ops of every trace the hardware side generates itself."""
    calls = []
    original = executor.generate_trace

    def counting(module, ops=None, **kwargs):
        calls.append(ops)
        return original(module, ops, **kwargs)

    monkeypatch.setattr(executor, "generate_trace", counting)
    memo.clear_memo()
    yield calls
    memo.clear_memo()


def _hw_counters(report):
    return [
        (unit.level_accesses_hw, unit.dram_fetch_bytes_hw,
         unit.dram_writeback_bytes_hw, unit.dram_lines_hw)
        for unit in report.units
    ]


def test_cold_report_reuses_the_cm_trace(hw_traces):
    report = execute_report(SPEC)
    assert len(report.units) > 1
    assert hw_traces == []


def test_memo_off_traces_once_per_unit(hw_traces, monkeypatch):
    reused = execute_report(SPEC)
    monkeypatch.setenv("REPRO_CM_MEMO", "0")
    fresh = execute_report(SPEC)
    assert len(hw_traces) == len(fresh.units)
    assert _hw_counters(fresh) == _hw_counters(reused)


def test_chart_served_job_leaves_the_trace_memo_alone(hw_traces, tmp_path):
    store = ResultStore(tmp_path / "store")

    def gemm(ni):
        return JobSpec(
            benchmark="gemm", engine="parametric",
            sizes={"ni": ni, "nj": 16, "nk": 16},
        )

    for ni in (16, 24, 32, 56):
        execute_report(gemm(ni), store=store)
    entries = len(memo._trace_lru._data)
    del hw_traces[:]
    info = {}
    report = execute_report(gemm(40), store=store, family_info=info)
    assert info["source"] == "chart"
    # Nothing traced the unit on the CM side, so the hardware side built
    # the trace itself -- and did not leave it in the memo.
    assert len(hw_traces) == len(report.units)
    assert len(memo._trace_lru._data) == entries
