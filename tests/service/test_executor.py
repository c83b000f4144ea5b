"""Where the hardware side of a job gets its simulator counters.

A job that still needs hardware rows (no store, or a store without its
workload object) has the fast CM classify each set-associative unit's
first cache level once and run the simulator's write-back tail on that
same classification.  Every other unit is simulated by the executor, on
the line stream the CM stage already built when the memo still holds it.
"""

import dataclasses
import time

import pytest

from repro.cache import fast_model, memo, simulator, static_model
from repro.hw.platform import get_platform
from repro.runtime import faults
from repro.runtime.errors import EngineFailure
from repro.service import executor
from repro.service.executor import execute_report
from repro.service.spec import JobSpec
from repro.service.store import ResultStore

SPEC = JobSpec(benchmark="atax", sizes={"m": 48, "n": 48})
L1 = get_platform(SPEC.platform).hierarchy.levels[0].name


@dataclasses.dataclass
class Spies:
    #: Level name of every miss classification, CM and simulator alike.
    classified: list = dataclasses.field(default_factory=list)
    #: The ops of every trace the hardware side generates itself.
    hw_traces: list = dataclasses.field(default_factory=list)
    #: Simulations the hardware side runs itself.
    hw_sims: int = 0
    #: Simulator tails the CM runs on its own classification.
    tails: int = 0

    def clear(self):
        self.classified.clear()
        self.hw_traces.clear()
        self.hw_sims = self.tails = 0


@pytest.fixture()
def spies(monkeypatch):
    spied = Spies()
    classify = fast_model.classify_misses
    generate = executor.generate_trace
    hw_simulate = executor.simulate_hierarchy
    tail_simulate = static_model.simulate_hierarchy

    def classifying(lines, config, *args):
        stages = classify(lines, config, *args)
        spied.classified.append(config.name)
        return stages

    def tracing(module, ops=None, **kwargs):
        spied.hw_traces.append(ops)
        return generate(module, ops, **kwargs)

    def simulating(*args):
        spied.hw_sims += 1
        return hw_simulate(*args)

    def tailing(*args):
        spied.tails += 1
        return tail_simulate(*args)

    monkeypatch.setattr(fast_model, "classify_misses", classifying)
    monkeypatch.setattr(simulator, "classify_misses", classifying)
    monkeypatch.setattr(executor, "generate_trace", tracing)
    monkeypatch.setattr(executor, "simulate_hierarchy", simulating)
    monkeypatch.setattr(static_model, "simulate_hierarchy", tailing)
    memo.clear_memo()
    yield spied
    memo.clear_memo()


def _hw_counters(report):
    return [
        (unit.level_accesses_hw, unit.dram_fetch_bytes_hw,
         unit.dram_writeback_bytes_hw, unit.dram_lines_hw)
        for unit in report.units
    ]


def test_store_knows_which_workloads_it_holds(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = SPEC.workload_digest()
    assert not store.has_workload(key)
    store.put_workload(key, [])
    assert store.has_workload(key)
    assert not store.has_workload(JobSpec(benchmark="gemm").workload_digest())


def test_cold_job_classifies_each_unit_once(spies, tmp_path):
    store = ResultStore(tmp_path / "store")
    report = execute_report(SPEC, store=store)
    assert len(report.units) > 1
    assert spies.classified.count(L1) == len(report.units)
    assert spies.tails == len(report.units)
    assert spies.hw_traces == [] and spies.hw_sims == 0
    assert store.has_workload(SPEC.workload_digest())


def test_stored_rows_run_no_simulator_tail(spies, tmp_path):
    store = ResultStore(tmp_path / "store")
    first = execute_report(SPEC, store=store)
    memo.clear_memo()
    spies.clear()
    again = execute_report(SPEC, store=store)
    assert spies.tails == 0 and spies.hw_sims == 0
    assert spies.classified.count(L1) == len(again.units)
    assert _hw_counters(again) == _hw_counters(first)


def test_cold_report_reuses_the_cm_trace(spies):
    report = execute_report(SPEC)
    assert len(report.units) > 1
    assert spies.hw_traces == []


def test_memo_off_jobs_share_too(spies, request):
    reused = execute_report(SPEC)
    request.getfixturevalue("no_memo")
    fresh = execute_report(SPEC)
    assert spies.hw_traces == []
    assert _hw_counters(fresh) == _hw_counters(reused)


@pytest.mark.parametrize(
    "change", [{"set_associative": False}, {"engine": "symbolic"}],
    ids=["fully-associative", "symbolic-engine"],
)
def test_other_cm_paths_keep_the_simulator_path(spies, change):
    shared = execute_report(SPEC)
    memo.clear_memo()
    spies.clear()
    report = execute_report(dataclasses.replace(SPEC, **change))
    assert spies.tails == 0
    assert spies.hw_sims == len(report.units)
    assert _hw_counters(report) == _hw_counters(shared)


def test_fa_job_reuses_the_sa_rows(spies, tmp_path):
    """The simulator always runs the platform's hierarchy, so a fully-
    associative job finds its set-associative sibling's stored rows."""
    store = ResultStore(tmp_path / "store")
    sa = execute_report(SPEC, store=store)
    memo.clear_memo()
    spies.clear()
    fa = execute_report(
        dataclasses.replace(SPEC, set_associative=False), store=store
    )
    assert spies.tails == 0 and spies.hw_sims == 0
    assert spies.hw_traces == []
    assert _hw_counters(fa) == _hw_counters(sa)


def test_chunk_fault_mid_unit_degrades_without_a_simulation(
    spies, monkeypatch
):
    clean = execute_report(SPEC)
    memo.clear_memo()
    spies.clear()
    fire = faults.fire
    armed = []

    def fire_once_after_first_l1(site):
        # The first checkpoint after the first unit's L1 classification
        # returned: the CM's L2 level boundary of that unit.
        if site == "cm.chunk" and L1 in spies.classified and not armed:
            armed.append(site)
            raise EngineFailure("injected mid-unit fault", site=site)
        fire(site)

    monkeypatch.setattr(faults, "fire", fire_once_after_first_l1)
    report = execute_report(SPEC)
    assert armed
    assert [unit.degraded for unit in report.units] == (
        ["approx"] + ["exact"] * (len(report.units) - 1)
    )
    # The degraded unit is simulated on today's path, the rest shared.
    assert spies.hw_sims == 1
    assert spies.tails == len(report.units) - 1
    assert _hw_counters(report) == _hw_counters(clean)


def test_cm_stage_time_leaves_the_tail_out(spies, monkeypatch):
    tail = static_model.simulate_hierarchy

    def slow_tail(*args):
        time.sleep(0.5)
        return tail(*args)

    monkeypatch.setattr(static_model, "simulate_hierarchy", slow_tail)
    report = execute_report(SPEC)
    assert spies.tails == len(report.units) > 1
    assert report.timings_ms["polyufc_cm"] < 500


def test_chart_served_job_leaves_the_trace_memo_alone(spies, tmp_path):
    store = ResultStore(tmp_path / "store")

    def gemm(ni):
        return JobSpec(
            benchmark="gemm", engine="parametric",
            sizes={"ni": ni, "nj": 16, "nk": 16},
        )

    for ni in (16, 24, 32, 56):
        execute_report(gemm(ni), store=store)
    entries = len(memo._stream_lru._data)
    spies.clear()
    info = {}
    report = execute_report(gemm(40), store=store, family_info=info)
    assert info["source"] == "chart"
    # Nothing traced the unit on the CM side, so the hardware side built
    # the trace itself -- and did not leave its stream in the memo.
    assert len(spies.hw_traces) == len(report.units)
    assert len(memo._stream_lru._data) == entries
