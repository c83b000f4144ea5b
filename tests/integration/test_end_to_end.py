"""End-to-end integration tests for the full PolyUFC flow."""

import numpy as np
import pytest

from repro import get_constants, get_platform, polyufc_compile
from repro.cache import generate_trace, simulate_hierarchy
from repro.hw import (
    run_capped_sequence,
    run_governed_sequence,
    workload_from_sim,
)
from repro.ir import F32, Module, run_module
from repro.ir.dialects.linalg import ElementwiseOp, FillOp, MatmulOp
from repro.ir.dialects.polyufc import SetUncoreCapOp
from repro.poly import extract_scop


@pytest.fixture(scope="module")
def platform():
    return get_platform("rpl")


@pytest.fixture(scope="module")
def constants(platform):
    return get_constants(platform)


def small_gemm(n=64):
    module = Module("gemm_it")
    a = module.add_buffer("A", (n, n), F32)
    b = module.add_buffer("B", (n, n), F32)
    c = module.add_buffer("C", (n, n), F32)
    module.append(FillOp(c, 0.0))
    module.append(MatmulOp(a, b, c))
    return module


def big_stream(n=512):
    module = Module("stream_it")
    x = module.add_buffer("X", (n, n), F32)
    y = module.add_buffer("Y", (n, n), F32)
    module.append(ElementwiseOp("add", [x, y], y))
    return module


class TestFullFlow:
    def test_cb_kernel_gets_low_cap(self, platform, constants):
        result = polyufc_compile(small_gemm(), platform, constants=constants)
        matmul_unit = result.units[-1]
        assert str(matmul_unit.boundedness) == "CB"
        caps = result.caps()
        assert max(caps) < platform.uncore.f_max_ghz

    def test_bb_kernel_gets_high_cap(self, platform, constants):
        result = polyufc_compile(big_stream(), platform, constants=constants)
        assert str(result.units[0].boundedness) == "BB"
        assert result.caps()[0] >= 0.6 * platform.uncore.f_max_ghz

    def test_capped_module_structure(self, platform, constants):
        result = polyufc_compile(small_gemm(), platform, constants=constants)
        kinds = [type(op).__name__ for op in result.capped_module.ops]
        assert "SetUncoreCapOp" in kinds
        # caps precede the nests they govern
        first_cap = kinds.index("SetUncoreCapOp")
        assert first_cap < kinds.index("AffineForOp")

    def test_capped_module_executes_like_input(self, platform, constants):
        result = polyufc_compile(small_gemm(), platform, constants=constants)
        ref = run_module(result.input_module, seed=21)
        out = run_module(result.capped_module, seed=21)
        np.testing.assert_allclose(ref["C"], out["C"], rtol=1e-5)

    def test_compile_timings_recorded(self, platform, constants):
        result = polyufc_compile(small_gemm(), platform, constants=constants)
        assert result.timings.polyufc_cm_ms > 0

    def test_deterministic_compilation(self, platform, constants):
        first = polyufc_compile(small_gemm(), platform, constants=constants)
        second = polyufc_compile(small_gemm(), platform, constants=constants)
        assert first.caps() == second.caps()
        assert first.boundedness_sequence() == second.boundedness_sequence()

    def test_objectives_order_caps(self, platform, constants):
        module = small_gemm()
        energy = polyufc_compile(
            module, platform, constants=constants, objective="energy"
        )
        perf = polyufc_compile(
            small_gemm(), platform, constants=constants,
            objective="performance",
        )
        assert min(energy.caps()) <= max(perf.caps())

    def test_granularity_affects_unit_count(self, platform, constants):
        from repro.benchsuite import get_benchmark

        module = get_benchmark("sdpa_gemma2").module()
        linalg_res = polyufc_compile(
            module, platform, constants=constants, granularity="linalg"
        )
        torch_res = polyufc_compile(
            get_benchmark("sdpa_gemma2").module(), platform,
            constants=constants, granularity="torch",
        )
        assert len(linalg_res.units) == 10
        assert len(torch_res.units) == 1


class TestCappingImprovesEDP:
    def test_cb_kernel_beats_baseline_edp(self, platform, constants):
        result = polyufc_compile(small_gemm(96), platform, constants=constants)
        scop = extract_scop(result.tiled_module)
        workloads = []
        caps = []
        for unit, decision in zip(result.units, result.decisions):
            trace = generate_trace(result.tiled_module, unit.ops)
            sim = simulate_hierarchy(trace, platform.hierarchy)
            workload = workload_from_sim(
                unit.name, unit.omega, sim, unit.parallel, platform.threads
            )
            workloads.append(workload)
            caps.append((workload, decision.f_cap_ghz))
        reps = 60
        baseline = run_governed_sequence(platform, workloads * reps)
        capped = run_capped_sequence(platform, caps * reps)
        # CB capping trades a bounded slowdown for a clear energy win and
        # at-least-parity EDP (this ad-hoc gemm is borderline CB; the
        # benchmark harnesses check the stronger paper-scale numbers).
        assert capped.energy_j < baseline.energy_j * 0.95
        assert capped.edp < baseline.edp * 1.05
        assert capped.time_s < baseline.time_s * 1.15

    def test_timeout_falls_back_to_max(self, platform, constants):
        result = polyufc_compile(
            small_gemm(), platform, constants=constants, cm_timeout_s=0.0
        )
        assert result.timed_out
        assert all(
            cap == platform.uncore.f_max_ghz for cap in result.caps()
        )


class TestExperimentRunner:
    def test_kernel_report_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import kernel_report

        fresh = kernel_report("doitgen", "rpl")
        cached = kernel_report("doitgen", "rpl")
        assert fresh.caps() == cached.caps()
        assert fresh.oi_model == cached.oi_model
        assert [u.name for u in fresh.units] == [u.name for u in cached.units]
        assert list((tmp_path / "store" / "reports").glob("*.json"))

    def test_cache_disable_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro.experiments import kernel_report

        kernel_report("doitgen", "rpl")
        assert not list(tmp_path.rglob("*.json"))
