"""Interpreter and lowering tests: every dialect level must agree.

For each torch op the chain torch -> linalg -> affine is executed at all
three levels on identical inputs and compared elementwise; this is the
semantic-preservation guarantee every later transformation builds on.
"""

import numpy as np
import pytest

from repro.ir import (
    F32,
    F64,
    IRError,
    Module,
    lower_linalg_to_affine,
    lower_torch_to_linalg,
    print_module,
    run_module,
)
from repro.ir.builder import AffineBuilder
from repro.ir.dialects.affine import AffineForOp, verify_affine
from repro.ir.dialects.linalg import (
    BatchMatmulOp,
    BroadcastCombineOp,
    Conv2DNchwFchwOp,
    ElementwiseOp,
    FillOp,
    MatmulOp,
    ReduceOp,
)
from repro.ir.dialects.torch_d import (
    TorchConv2dOp,
    TorchMatmulOp,
    TorchReluOp,
    TorchSdpaOp,
    TorchSoftmaxOp,
)


def run_all_levels(module, seed=7):
    """Interpret at torch, linalg and affine levels; return the results."""
    torch_out = run_module(module, seed=seed)
    linalg = lower_torch_to_linalg(module)
    linalg.verify()
    linalg_out = run_module(linalg, seed=seed)
    affine = lower_linalg_to_affine(linalg)
    affine.verify()
    verify_affine(affine)
    affine_out = run_module(affine, seed=seed)
    return torch_out, linalg_out, affine_out


def assert_level_agreement(module, outputs, seed=7):
    torch_out, linalg_out, affine_out = run_all_levels(module, seed)
    for name in outputs:
        np.testing.assert_allclose(
            torch_out[name], linalg_out[name], rtol=1e-6, atol=1e-9,
            err_msg=f"torch vs linalg on {name}",
        )
        np.testing.assert_allclose(
            torch_out[name], affine_out[name], rtol=1e-6, atol=1e-9,
            err_msg=f"torch vs affine on {name}",
        )


class TestTorchLoweringChain:
    def test_matmul(self):
        module = Module("mm")
        a = module.add_buffer("a", (5, 7))
        b = module.add_buffer("b", (7, 4))
        c = module.add_buffer("c", (5, 4))
        module.append(TorchMatmulOp(a, b, c))
        assert_level_agreement(module, ["c"])
        ref = run_module(module, seed=7)
        arrays = run_module(module, seed=7)
        np.testing.assert_allclose(ref["c"], arrays["a"] @ arrays["b"])

    def test_conv2d(self):
        module = Module("conv")
        i = module.add_buffer("i", (2, 3, 8, 8))
        w = module.add_buffer("w", (4, 3, 3, 3))
        o = module.add_buffer("o", (2, 4, 6, 6))
        module.append(TorchConv2dOp(i, w, o))
        assert_level_agreement(module, ["o"])

    def test_conv2d_strided(self):
        module = Module("conv_s")
        i = module.add_buffer("i", (1, 2, 9, 9))
        w = module.add_buffer("w", (3, 2, 3, 3))
        o = module.add_buffer("o", (1, 3, 4, 4))
        module.append(TorchConv2dOp(i, w, o, stride=(2, 2)))
        assert_level_agreement(module, ["o"])

    def test_softmax(self):
        module = Module("sm")
        x = module.add_buffer("x", (3, 10))
        y = module.add_buffer("y", (3, 10))
        module.append(TorchSoftmaxOp(x, y))
        assert_level_agreement(module, ["y"])
        out = run_module(module, seed=3)
        np.testing.assert_allclose(out["y"].sum(axis=-1), 1.0, rtol=1e-9)

    def test_relu(self):
        module = Module("relu")
        x = module.add_buffer("x", (4, 4))
        y = module.add_buffer("y", (4, 4))
        module.append(TorchReluOp(x, y))
        assert_level_agreement(module, ["y"])
        out = run_module(module, seed=3)
        assert (out["y"] >= 0).all()

    def test_sdpa(self):
        module = Module("sdpa")
        shape = (1, 2, 6, 4)
        q = module.add_buffer("q", shape)
        k = module.add_buffer("k", shape)
        v = module.add_buffer("v", shape)
        o = module.add_buffer("o", shape)
        module.append(TorchSdpaOp(q, k, v, o))
        assert_level_agreement(module, ["o"])

    def test_sdpa_linalg_decomposition_shape(self):
        module = Module("sdpa")
        shape = (1, 2, 6, 4)
        buffers = [module.add_buffer(n, shape) for n in "qkvo"]
        module.append(TorchSdpaOp(*buffers))
        linalg = lower_torch_to_linalg(module)
        names = [f"{op.dialect}.{op.name}" for op in linalg.ops]
        # two batched matmuls around a run of pointwise/reduction ops
        assert names.count("linalg.batch_matmul") == 2
        assert names[1] == "linalg.batch_matmul"
        assert names[-1] == "linalg.batch_matmul"
        assert len(names) == 10

    def test_lowering_tags_source_ops(self):
        module = Module("sdpa")
        shape = (1, 2, 6, 4)
        buffers = [module.add_buffer(n, shape) for n in "qkvo"]
        module.append(TorchSdpaOp(*buffers))
        affine = lower_linalg_to_affine(lower_torch_to_linalg(module))
        for op in affine.ops:
            assert op.attrs["torch_source_index"] == 0
            assert "source_index" in op.attrs

    def test_affine_requires_linalg_first(self):
        module = Module("m")
        shape = (1, 2, 6, 4)
        buffers = [module.add_buffer(n, shape) for n in "qkvo"]
        module.append(TorchSdpaOp(*buffers))
        with pytest.raises(IRError):
            lower_linalg_to_affine(module)


class TestLinalgLowering:
    def cases(self):
        module = Module("mix")
        x = module.add_buffer("x", (6, 8))
        y = module.add_buffer("y", (6, 8))
        z = module.add_buffer("z", (6, 8))
        r = module.add_buffer("r", (6,))
        module.append(FillOp(z, 3.0))
        module.append(ElementwiseOp("mul", [x, y], z))
        module.append(ElementwiseOp("scale", [z], z, scalar=0.5))
        module.append(ElementwiseOp("add_scalar", [z], z, scalar=1.0))
        module.append(ElementwiseOp("exp", [x], y))
        module.append(ReduceOp("sum", z, r))
        module.append(BroadcastCombineOp("div", z, r, z))
        module.append(ReduceOp("max", y, r))
        return module

    def test_mixed_pipeline_agrees(self):
        module = self.cases()
        linalg_out = run_module(module, seed=11)
        affine = lower_linalg_to_affine(module)
        affine_out = run_module(affine, seed=11)
        for name in ("z", "r", "y"):
            np.testing.assert_allclose(
                linalg_out[name], affine_out[name], rtol=1e-7, atol=1e-10
            )

    def test_lowering_twice_prints_identically(self):
        module = self.cases()
        first = lower_linalg_to_affine(module)
        assert print_module(lower_linalg_to_affine(module)) == print_module(
            first
        )
        names = [
            op.iv_name for op in first.walk() if isinstance(op, AffineForOp)
        ]
        assert len(names) == len(set(names))

    def test_flop_counts_match_lowered_arith(self):
        """Each linalg op's flops() must equal the arith ops its nest runs."""
        from repro.poly import extract_scop

        module = self.cases()
        affine = lower_linalg_to_affine(module)
        scop = extract_scop(affine)
        by_root = {}
        for statement in scop.statements:
            root = statement.loops[0]
            by_root.setdefault(id(root), 0)
            by_root[id(root)] += statement.total_flops({})
        for op in affine.ops:
            source = op.attrs["source_op"]
            assert by_root[id(op)] == source.flops(), source

    def test_batch_matmul_transpose(self):
        module = Module("bmm")
        a = module.add_buffer("a", (2, 4, 3))
        b = module.add_buffer("b", (2, 5, 3))
        c = module.add_buffer("c", (2, 4, 5))
        module.append(FillOp(c, 0.0))
        module.append(BatchMatmulOp(a, b, c, transpose_b=True))
        out = run_module(module, seed=2)
        expected = out["a"] @ np.swapaxes(out["b"], -1, -2)
        np.testing.assert_allclose(out["c"], expected, rtol=1e-7)
        affine = lower_linalg_to_affine(module)
        out2 = run_module(affine, seed=2)
        np.testing.assert_allclose(out2["c"], expected, rtol=1e-7)


class TestInterpreterDetails:
    def test_init_buffers_deterministic(self):
        module = Module("m")
        module.add_buffer("x", (4, 4))
        from repro.ir import init_buffers

        a = init_buffers(module, seed=5)
        b = init_buffers(module, seed=5)
        np.testing.assert_array_equal(a["x"], b["x"])

    def test_provided_buffers_copied_not_aliased(self):
        module = Module("m")
        module.add_buffer("x", (2,))
        from repro.ir import init_buffers

        source = np.array([1.0, 2.0])
        arrays = init_buffers(module, provided={"x": source})
        arrays["x"][0] = 99.0
        assert source[0] == 1.0

    def test_provided_shape_checked(self):
        module = Module("m")
        module.add_buffer("x", (2,))
        from repro.ir import init_buffers

        with pytest.raises(IRError):
            init_buffers(module, provided={"x": np.zeros((3,))})

    def test_affine_interp_small_loop(self):
        module = Module("m")
        a = module.add_buffer("a", (10,))
        builder = AffineBuilder(module)
        with builder.loop("i", 2, 8, step=2):
            builder.store(builder.const(1.0), a, ["i"])
        out = run_module(module, buffers={"a": np.zeros(10)})
        np.testing.assert_array_equal(
            out["a"], [0, 0, 1, 0, 1, 0, 1, 0, 0, 0]
        )

    def test_printer_smoke(self):
        module = self_contained = Module("m")
        a = module.add_buffer("a", (4,), F32)
        builder = AffineBuilder(module)
        with builder.loop("i", 0, 4, parallel=True):
            builder.store(builder.const(0.0), a, ["i"])
        text = print_module(module)
        assert "affine.parallel" in text
        assert "memref<4xf32>" in text
        assert "affine.store" in text
