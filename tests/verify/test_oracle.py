"""Oracle: the check battery passes on correct engines and trips on drift."""

import math

import pytest

from repro.cache import clear_memo
from repro.cache.simulator import CacheSimResult, LevelStats
from repro.verify import generate_spec, run_case
from repro.verify.oracle import (
    VERDICT_BALANCE_FPB,
    CaseResult,
    Disagreement,
    _oi_and_verdict,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.mark.parametrize("index", range(12))
def test_random_cases_produce_no_disagreements(index):
    result = run_case(generate_spec(0, index))
    assert result.ok, "\n".join(str(d) for d in result.disagreements)


def test_all_checks_run_on_every_case():
    result = run_case(generate_spec(0, 0))
    assert set(result.checks_run) >= {
        "trace-diff",
        "engine-diff",
        "oi-verdict",
        "memo-note",
        "degradation-noop",
        "simulator-invariants",
        "simulator-diff",
        "capacity-monotonic",
        "associativity-monotonic",
        "cold-invariance",
        "rename-invariance",
    }


def test_simulator_arm_trips_on_a_drifting_simulator(monkeypatch):
    from repro.verify import oracle

    honest = oracle.simulate_hierarchy

    def one_writeback_too_many(trace, hierarchy):
        sim = honest(trace, hierarchy)
        first, *rest = sim.levels
        drifted = LevelStats(
            first.name, first.accesses, first.hits, first.misses,
            first.writebacks + 1,
        )
        return CacheSimResult(
            (drifted, *rest), sim.line_bytes, sim.total_accesses
        )

    monkeypatch.setattr(oracle, "simulate_hierarchy", one_writeback_too_many)
    result = run_case(generate_spec(0, 0))
    checks = {d.check for d in result.disagreements}
    assert checks == {"simulator-diff"}
    details = [d.detail for d in result.disagreements]
    assert any(d.startswith("SA level ") for d in details)
    assert any(d.startswith("FA level ") for d in details)


def test_trace_arm_trips_on_a_drifting_walker(monkeypatch):
    from repro.verify import oracle

    honest = oracle.reference_generate_trace

    def last_offset_off_by_one(module, **kwargs):
        trace = honest(module, **kwargs)
        trace.offsets[-1] += 1
        return trace

    monkeypatch.setattr(
        oracle, "reference_generate_trace", last_offset_off_by_one
    )
    result = run_case(generate_spec(0, 0))
    assert {d.check for d in result.disagreements} == {"trace-diff"}
    details = [d.detail for d in result.disagreements]
    assert any(d.startswith("full trace: offsets differ") for d in details)
    assert any("-access prefix: offsets differ" in d for d in details)


def test_symbolic_supportedness_is_recorded():
    outcomes = {
        run_case(generate_spec(0, index)).symbolic_supported
        for index in range(12)
    }
    # The sampled class straddles the symbolic engine's frontier: both
    # supported and fallback kernels must appear.
    assert outcomes == {True, False}


def test_oi_verdict_helper():
    class FakeCM:
        def __init__(self, accesses, q):
            self.total_accesses = accesses
            self.q_dram_bytes = q

    oi, verdict = _oi_and_verdict(FakeCM(100, 64))
    assert oi == 200 / 64
    assert verdict == ("CB" if oi >= VERDICT_BALANCE_FPB else "BB")
    oi_inf, verdict_inf = _oi_and_verdict(FakeCM(10, 0))
    assert math.isinf(oi_inf) and verdict_inf == "CB"


def test_case_result_ok_flips_on_disagreement():
    result = CaseResult(generate_spec(0, 0))
    assert result.ok
    result.disagreements.append(Disagreement("engine-diff", "boom"))
    assert not result.ok
    assert "engine-diff" in str(result.disagreements[0])
