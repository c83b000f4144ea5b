"""Degradation-ladder and deadline-enforcement tests.

The acceptance scenario from the robustness issue: with a fault injected
that makes exact per-unit analysis pathologically slow, the pipeline must
return within roughly the requested budget (plus one checkpoint
interval), with the affected units capped at ``f_max`` and marked
``degraded="timeout-cap"`` -- never a hang, never a crash.
"""

import time

import pytest

from repro import get_constants, get_platform, polyufc_compile
from repro.cache import generate_trace, memo, polyufc_cm
from repro.ir import F32, Module
from repro.ir.dialects.linalg import FillOp, MatmulOp
from repro.mlpolyufc.characterization import (
    APPROX_TRACE_ACCESSES,
    characterize_units,
)
from repro.pipeline import _lower_to_affine
from repro.poly.transforms import tile_and_parallelize
from repro.runtime import Deadline, DeadlineExceeded, faults


@pytest.fixture(scope="module")
def platform():
    return get_platform("rpl")


@pytest.fixture(scope="module")
def constants(platform):
    return get_constants(platform)


def small_gemm(n=64):
    module = Module("gemm_deg")
    a = module.add_buffer("A", (n, n), F32)
    b = module.add_buffer("B", (n, n), F32)
    c = module.add_buffer("C", (n, n), F32)
    module.append(FillOp(c, 0.0))
    module.append(MatmulOp(a, b, c))
    return module


def tiled_gemm(n=64):
    tiled, _ = tile_and_parallelize(_lower_to_affine(small_gemm(n)))
    return tiled


class TestEngineInterrupts:
    """The CM engine honours the deadline at chunk boundaries."""

    def test_expired_deadline_interrupts_cm(self, platform):
        trace = generate_trace(tiled_gemm(32))
        with pytest.raises(DeadlineExceeded):
            polyufc_cm(trace, platform.hierarchy, deadline=Deadline(0.0))

    def test_slow_chunks_hit_deadline_mid_unit(self, platform):
        # Each chunk checkpoint sleeps, so a healthy-looking trace takes
        # far longer than the budget -- the checkpoint must fire mid-unit.
        trace = generate_trace(tiled_gemm(32))
        with faults.inject("cm.chunk", "slow", arg=0.02):
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                polyufc_cm(
                    trace, platform.hierarchy, deadline=Deadline(0.05)
                )
            assert time.monotonic() - start < 2.0

    def test_trace_generation_honours_deadline(self):
        with pytest.raises(DeadlineExceeded):
            generate_trace(tiled_gemm(), deadline=Deadline(0.0))

    def test_truncated_trace_never_raises_on_deadline(self):
        trace = generate_trace(
            tiled_gemm(), truncate=True, deadline=Deadline(0.0)
        )
        assert len(trace) >= 0  # a (possibly empty) prefix, not an error


class TestLadder:
    def test_trace_budget_overflow_degrades_to_approx(
        self, platform, constants, monkeypatch, no_memo
    ):
        monkeypatch.setattr(memo, "TRACE_BUDGET", 2_000)
        units = characterize_units(tiled_gemm(), platform, constants)
        degraded = {unit.name: unit.degraded for unit in units}
        assert any(rung == "approx" for rung in degraded.values()), degraded
        for unit in units:
            assert unit.degraded in ("exact", "approx")
            if unit.degraded == "approx":
                assert unit.warning and "truncated-trace" in unit.warning
                assert unit.cm.total_accesses > 0

    def test_approx_counters_are_scaled_to_full_size(
        self, platform, constants, monkeypatch, no_memo
    ):
        monkeypatch.setattr(memo, "TRACE_BUDGET", 2_000)
        units = characterize_units(tiled_gemm(), platform, constants)
        matmul = units[-1]
        assert matmul.degraded == "approx"
        # gemm(64) makes ~1M accesses; the scaled estimate must be well
        # beyond the trace prefix the rung actually evaluated.
        assert matmul.cm.total_accesses > 5 * APPROX_TRACE_ACCESSES

    def test_transient_engine_failure_degrades_one_unit(
        self, platform, constants, no_memo
    ):
        with faults.inject("cm.engine", "fail", arg=1):
            result = polyufc_compile(
                small_gemm(), platform, constants=constants
            )
        assert result.degradation() == ["approx", "exact"]
        assert not result.fully_exact
        assert "injected engine fault" in result.units[0].warning

    def test_parametric_approx_rung_runs_the_fast_engine(
        self, platform, constants, no_memo
    ):
        units = {}
        for engine in ("fast", "parametric"):
            with faults.inject("cm.engine", "fail", arg=1):
                units[engine] = characterize_units(
                    tiled_gemm(32), platform, constants, engine=engine
                )
        assert [unit.degraded for unit in units["parametric"]] == [
            "approx", "exact"
        ]
        assert [unit.cm for unit in units["parametric"]] == [
            unit.cm for unit in units["fast"]
        ]

    def test_exact_runs_report_exact(self, platform, constants):
        result = polyufc_compile(small_gemm(), platform, constants=constants)
        assert result.fully_exact
        assert result.degradation() == ["exact", "exact"]
        assert all(unit.warning is None for unit in result.units)


class TestDeadlineAcceptance:
    def test_slow_unit_returns_within_budget_and_caps_fmax(
        self, platform, constants, no_memo
    ):
        budget = 0.2
        # ~256 checkpoints would fire on the exact path at 0.05s each
        # (>10x the budget); the deadline must cut that short.
        with faults.inject("cm.chunk", "slow", arg=0.05):
            start = time.monotonic()
            result = polyufc_compile(
                small_gemm(), platform, constants=constants,
                cm_timeout_s=budget,
            )
            elapsed = time.monotonic() - start
        assert elapsed < budget + 3.0  # budget + checkpoints + slack
        assert result.timed_out
        assert "timeout-cap" in result.degradation()
        for unit, cap in zip(result.units, result.caps()):
            if unit.degraded == "timeout-cap":
                assert cap == platform.uncore.f_max_ghz
                assert unit.warning

    def test_zero_budget_degrades_every_unit(self, platform, constants):
        result = polyufc_compile(
            small_gemm(), platform, constants=constants, cm_timeout_s=0.0
        )
        assert result.timed_out
        assert not result.fully_exact
        assert all(rung == "timeout-cap" for rung in result.degradation())
        assert all(
            cap == platform.uncore.f_max_ghz for cap in result.caps()
        )

    def test_generous_budget_stays_exact(self, platform, constants):
        result = polyufc_compile(
            small_gemm(), platform, constants=constants, cm_timeout_s=120.0
        )
        assert not result.timed_out
        assert result.fully_exact
