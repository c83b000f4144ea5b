"""Tests for ML-PolyUFC: grouping, phases, capping, rewrites."""

import pytest

from repro.benchsuite import get_benchmark
from repro.benchsuite.ml_kernels import _sdpa
from repro.hw import raptorlake_sim
from repro.ir import IRError, Module, lower_linalg_to_affine, lower_torch_to_linalg
from repro.ir.dialects.affine import AffineForOp
from repro.ir.dialects.linalg import FillOp, MatmulOp
from repro.ir.dialects.polyufc import SetUncoreCapOp
from repro.mlpolyufc import (
    aggregate_cap,
    group_affine_units,
    phase_string,
    phase_transitions,
    remove_redundant_caps,
)
from repro.mlpolyufc.phases import longest_run, phase_runs
from repro.mlpolyufc.rewrite import count_caps
from repro.pipeline import get_constants, polyufc_compile
from repro.poly import tile_and_parallelize
from repro.poly.fusion import fuse_pointwise_nests


@pytest.fixture(scope="module")
def platform():
    return raptorlake_sim()


@pytest.fixture(scope="module")
def constants(platform):
    return get_constants(platform)


@pytest.fixture(scope="module")
def sdpa_result(platform, constants):
    module = get_benchmark("sdpa_bert").module()
    return polyufc_compile(module, platform, constants=constants)


def small_sdpa():
    """A 1x1x40x36 sdpa, small enough to interpret in seconds; neither
    extent is a multiple of the 32 tile, so edge tiles are partial."""
    return _sdpa("sdpa_small", 1, 1, 40, 36)


def sdpa_structure(result):
    """Unit labels, caps left after redundancy removal, fused nests."""
    _, fused = fuse_pointwise_nests(result.affine_module)
    return (
        result.boundedness_sequence(),
        count_caps(result.capped_module),
        fused,
    )


class TestPhases:
    def test_phase_runs(self):
        assert phase_runs(["CB", "BB", "BB", "CB"]) == [
            ("CB", 1), ("BB", 2), ("CB", 1)
        ]

    def test_phase_string_kleene(self):
        assert phase_string(["CB", "BB", "BB", "BB", "CB"]) == (
            "CB -> BB* -> CB"
        )
        assert phase_string(["CB"]) == "CB"
        assert phase_string([]) == ""

    def test_transitions(self):
        assert phase_transitions(["CB", "BB", "CB"]) == 2
        assert phase_transitions(["CB", "CB"]) == 0
        assert phase_transitions([]) == 0

    def test_longest_run(self):
        labels = ["BB", "CB", "BB", "BB", "BB", "CB"]
        assert longest_run(labels, "BB") == 3
        assert longest_run(labels, "CB") == 1
        assert longest_run(labels, "XX") == 0


class TestGrouping:
    def _affine_sdpa(self):
        module = get_benchmark("sdpa_bert").module()
        affine = lower_linalg_to_affine(lower_torch_to_linalg(module))
        tiled, _ = tile_and_parallelize(affine)
        return tiled

    def test_linalg_units_one_per_linalg_op(self):
        units = group_affine_units(self._affine_sdpa(), "linalg")
        assert len(units) == 10  # the sdpa decomposition

    def test_torch_units_merge_everything(self):
        units = group_affine_units(self._affine_sdpa(), "torch")
        assert len(units) == 1
        assert len(units[0][1]) == 10

    def test_affine_units_one_per_nest(self):
        units = group_affine_units(self._affine_sdpa(), "affine")
        assert len(units) == 10
        assert all(len(ops) == 1 for _, ops in units)

    def test_unknown_granularity(self):
        with pytest.raises(IRError):
            group_affine_units(self._affine_sdpa(), "llvm")

    def test_untagged_nests_get_own_units(self):
        module = get_benchmark("gemm").module()  # hand-written affine
        units = group_affine_units(module, "linalg")
        assert len(units) == len(
            [op for op in module.ops if isinstance(op, AffineForOp)]
        )


class TestAggregation:
    def test_min_for_cb_max_for_bb(self):
        caps = [1.2, 2.4, 3.0]
        assert aggregate_cap(caps, compute_bound=True) == 1.2
        assert aggregate_cap(caps, compute_bound=False) == 3.0
        with pytest.raises(ValueError):
            aggregate_cap([], True)

    def test_small_units_share_one_cap(self, sdpa_result):
        caps = set(round(c, 1) for c in sdpa_result.caps())
        # all 10 tiny sdpa units collapsed into one or two cap groups
        assert len(caps) <= 2

    def test_overhead_factor_zero_keeps_per_unit_caps(
        self, platform, constants
    ):
        module = get_benchmark("sdpa_bert").module()
        result = polyufc_compile(
            module, platform, constants=constants, cap_overhead_factor=0.0
        )
        assert len(set(result.caps())) >= 2


class TestCappedModule:
    def test_caps_inserted_before_units(self, sdpa_result):
        module = sdpa_result.capped_module
        assert count_caps(module) >= 1
        # a cap marker precedes the first affine nest
        first_cap = next(
            i for i, op in enumerate(module.ops)
            if isinstance(op, SetUncoreCapOp)
        )
        first_nest = next(
            i for i, op in enumerate(module.ops)
            if isinstance(op, AffineForOp)
        )
        assert first_cap < first_nest

    def test_cap_reasons_mention_class(self, sdpa_result):
        for op in sdpa_result.capped_module.ops:
            if isinstance(op, SetUncoreCapOp):
                assert ("CB" in op.reason) or ("BB" in op.reason)

    def test_capped_module_semantics_preserved(
        self, sdpa_result, platform, constants
    ):
        import numpy as np
        from repro.ir import run_module

        small = polyufc_compile(small_sdpa(), platform, constants=constants)
        assert sdpa_structure(small) == sdpa_structure(sdpa_result)
        ref = run_module(small.tiled_module, seed=9)
        out = run_module(small.capped_module, seed=9)
        np.testing.assert_allclose(ref["o"], out["o"], rtol=1e-6)


class TestRewrite:
    def _module_with_caps(self, caps_and_nests):
        module = Module("m")
        buffer = module.add_buffer("x", (8, 8))
        counter = [0]

        def nest():
            from repro.ir.builder import AffineBuilder

            sub = Module("tmp")
            sub.buffers["x"] = buffer
            builder = AffineBuilder(sub)
            counter[0] += 1
            with builder.loop(f"i{counter[0]}", 0, 8):
                builder.store(builder.const(0.0), buffer, [f"i{counter[0]}"] * 2)
            return sub.ops[0]

        for item in caps_and_nests:
            if isinstance(item, float):
                module.append(SetUncoreCapOp(item))
            else:
                module.append(nest())
        return module

    def test_shadowed_cap_removed(self):
        module = self._module_with_caps([1.2, 2.4, "nest"])
        cleaned = remove_redundant_caps(module)
        assert count_caps(cleaned) == 1
        cap = next(
            op for op in cleaned.ops if isinstance(op, SetUncoreCapOp)
        )
        assert cap.freq_ghz == 2.4

    def test_equal_cap_removed(self):
        module = self._module_with_caps([2.0, "nest", 2.0, "nest"])
        cleaned = remove_redundant_caps(module)
        assert count_caps(cleaned) == 1

    def test_distinct_caps_kept(self):
        module = self._module_with_caps([2.0, "nest", 3.0, "nest"])
        cleaned = remove_redundant_caps(module)
        assert count_caps(cleaned) == 2

    def test_trailing_cap_dropped(self):
        module = self._module_with_caps(["nest", 2.0])
        cleaned = remove_redundant_caps(module)
        assert count_caps(cleaned) == 0

    def test_kernel_order_preserved(self):
        module = self._module_with_caps([2.0, "nest", 2.0, "nest", 3.0, "nest"])
        cleaned = remove_redundant_caps(module)
        kinds = [
            "cap" if isinstance(op, SetUncoreCapOp) else "nest"
            for op in cleaned.ops
        ]
        assert kinds == ["cap", "nest", "nest", "cap", "nest"]
