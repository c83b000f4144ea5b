"""Tests for loop fusion."""

import numpy as np

from repro.benchsuite import get_benchmark
from repro.hw import raptorlake_sim
from repro.ir import (
    F32,
    Module,
    lower_linalg_to_affine,
    lower_torch_to_linalg,
    run_module,
)
from repro.ir.builder import AffineBuilder
from repro.ir.dialects.affine import (
    AffineForOp,
    outer_loops,
    verify_affine,
)
from repro.isllite import LinExpr
from repro.pipeline import polyufc_compile
from repro.poly.fusion import fuse_pointwise_nests
from tests.mlpolyufc.test_mlpolyufc import sdpa_structure, small_sdpa


def elementwise_chain(n=12, stages=3):
    """x -> exp -> scale -> add(y): a chain of pointwise nests."""
    module = Module("chain")
    x = module.add_buffer("x", (n, n), F32)
    y = module.add_buffer("y", (n, n), F32)
    t = module.add_buffer("t", (n, n), F32)
    builder = AffineBuilder(module)
    with builder.loop("i0", 0, n):
        with builder.loop("j0", 0, n):
            builder.store(builder.exp(builder.load(x, ["i0", "j0"])), t,
                          ["i0", "j0"])
    with builder.loop("i1", 0, n):
        with builder.loop("j1", 0, n):
            builder.store(
                builder.mul(builder.load(t, ["i1", "j1"]), builder.const(0.5)),
                t, ["i1", "j1"],
            )
    if stages >= 3:
        with builder.loop("i2", 0, n):
            with builder.loop("j2", 0, n):
                builder.store(
                    builder.add(
                        builder.load(t, ["i2", "j2"]),
                        builder.load(y, ["i2", "j2"]),
                    ),
                    y, ["i2", "j2"],
                )
    return module


class TestFusion:
    def test_chain_collapses_to_one_nest(self):
        module = elementwise_chain()
        fused, count = fuse_pointwise_nests(module)
        assert count == 2
        assert len(outer_loops(fused)) == 1
        fused.verify()
        verify_affine(fused)

    def test_semantics_preserved(self):
        module = elementwise_chain()
        fused, _ = fuse_pointwise_nests(module)
        ref = run_module(module, seed=8)
        out = run_module(fused, seed=8)
        np.testing.assert_allclose(ref["y"], out["y"], rtol=1e-6)
        np.testing.assert_allclose(ref["t"], out["t"], rtol=1e-6)

    def test_mismatched_bounds_not_fused(self):
        module = Module("mismatch")
        a = module.add_buffer("a", (16,), F32)
        builder = AffineBuilder(module)
        with builder.loop("i", 0, 16):
            builder.store(builder.const(1.0), a, ["i"])
        with builder.loop("j", 0, 8):
            builder.store(
                builder.add(builder.load(a, ["j"]), builder.const(1.0)),
                a, ["j"],
            )
        fused, count = fuse_pointwise_nests(module)
        assert count == 0
        assert len(outer_loops(fused)) == 2

    def test_shifted_dependence_not_fused(self):
        """B reads A[i-1] after A[i] is written: not pointwise."""
        module = Module("shift")
        a = module.add_buffer("a", (16,), F32)
        b = module.add_buffer("b", (16,), F32)
        builder = AffineBuilder(module)
        with builder.loop("i", 1, 16):
            builder.store(builder.const(2.0), a, ["i"])
        with builder.loop("j", 1, 16):
            builder.store(
                builder.load(a, [LinExpr.var("j") - 1]), b, ["j"]
            )
        fused, count = fuse_pointwise_nests(module)
        assert count == 0
        ref = run_module(module, seed=1)
        out = run_module(fused, seed=1)
        np.testing.assert_allclose(ref["b"], out["b"])

    def test_read_read_sharing_is_fusable(self):
        module = Module("rr")
        x = module.add_buffer("x", (10,), F32)
        a = module.add_buffer("a", (10,), F32)
        b = module.add_buffer("b", (10,), F32)
        builder = AffineBuilder(module)
        with builder.loop("i", 0, 10):
            builder.store(
                builder.load(x, [LinExpr.cst(9) - LinExpr.var("i")]), a, ["i"]
            )
        with builder.loop("j", 0, 10):
            builder.store(builder.load(x, ["j"]), b, ["j"])
        fused, count = fuse_pointwise_nests(module)
        assert count == 1  # only x is shared, and only as reads
        ref = run_module(module, seed=2)
        out = run_module(fused, seed=2)
        np.testing.assert_allclose(ref["a"], out["a"])
        np.testing.assert_allclose(ref["b"], out["b"])

    def test_sdpa_bb_run_fuses(self):
        """The sdpa scale/sub/exp/div pointwise stages fuse, raising OI."""
        platform = raptorlake_sim()
        bert = get_benchmark("sdpa_bert").module()
        module = small_sdpa()
        assert sdpa_structure(polyufc_compile(module, platform)) == (
            sdpa_structure(polyufc_compile(bert, platform))
        )
        affine = lower_linalg_to_affine(lower_torch_to_linalg(module))
        before = len(outer_loops(affine))
        fused, count = fuse_pointwise_nests(affine)
        assert count >= 1
        assert len(outer_loops(fused)) == before - count
        ref = run_module(affine, seed=6)
        out = run_module(fused, seed=6)
        np.testing.assert_allclose(ref["o"], out["o"], rtol=1e-5)

    def test_fused_nest_tagged(self):
        fused, _ = fuse_pointwise_nests(elementwise_chain())
        assert outer_loops(fused)[0].attrs.get("fused") is True

