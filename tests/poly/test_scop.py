"""Unit tests for SCoP extraction."""

import pytest

from repro.ir import F32, IRError, Module, lower_linalg_to_affine
from repro.ir.builder import AffineBuilder
from repro.ir.dialects.linalg import FillOp, MatmulOp
from repro.isllite import LinExpr
from repro.poly import extract_scop


def matmul_module(n=8):
    module = Module("mm")
    a = module.add_buffer("A", (n, n), F32)
    b = module.add_buffer("B", (n, n), F32)
    c = module.add_buffer("C", (n, n), F32)
    module.append(FillOp(c, 0.0))
    module.append(MatmulOp(a, b, c))
    return lower_linalg_to_affine(module)


def test_statement_count_and_order():
    scop = extract_scop(matmul_module())
    assert [s.name for s in scop.statements] == ["S0", "S1"]
    assert scop.statements[0].depth == 2
    assert scop.statements[1].depth == 3


def test_domain_sizes():
    scop = extract_scop(matmul_module(8))
    assert scop.statements[0].domain_size({}) == 64
    assert scop.statements[1].domain_size({}) == 512


def test_flop_counts():
    scop = extract_scop(matmul_module(8))
    assert scop.statements[0].flops_per_point == 0
    assert scop.statements[1].flops_per_point == 2
    assert scop.total_flops() == 2 * 512


def test_accesses_in_order():
    scop = extract_scop(matmul_module())
    accesses = scop.statements[1].accesses
    assert [a.buffer.name for a in accesses] == ["A", "B", "C", "C"]
    assert [a.is_write for a in accesses] == [False, False, False, True]
    assert len(scop.statements[1].reads()) == 3
    assert len(scop.statements[1].writes()) == 1


def test_triangular_domain():
    module = Module("tri")
    a = module.add_buffer("A", (10, 10), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 10):
        with builder.loop("j", 0, LinExpr.var("i")):
            builder.store(builder.const(0.0), a, ["i", "j"])
    scop = extract_scop(module)
    assert scop.statements[0].domain_size({}) == 45


def test_imperfect_nest_statements():
    """init-store + inner reduction loop = two statements, shared prefix."""
    module = Module("reduce")
    x = module.add_buffer("x", (4, 8), F32)
    out = module.add_buffer("out", (4,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 4):
        builder.store(builder.const(0.0), out, ["i"])
        with builder.loop("j", 0, 8):
            val = builder.add(
                builder.load(out, ["i"]), builder.load(x, ["i", "j"])
            )
            builder.store(val, out, ["i"])
    scop = extract_scop(module)
    assert len(scop.statements) == 2
    init, body = scop.statements
    assert init.depth == 1 and body.depth == 2
    assert scop.common_loops(init, body) == 1
    assert init.schedule_prefix < body.schedule_prefix


def test_parametric_bounds():
    module = Module("param")
    module.set_param("n", 12)
    a = module.add_buffer("A", (32,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, LinExpr.var("n")):
        builder.store(builder.const(0.0), a, ["i"])
    scop = extract_scop(module)
    assert scop.statements[0].domain_size({"n": 12}) == 12
    assert scop.statements[0].total_flops(scop.params) == 0


def test_unknown_symbol_rejected():
    module = Module("bad")
    a = module.add_buffer("A", (32,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, LinExpr.var("mystery")):
        builder.store(builder.const(0.0), a, ["i"])
    with pytest.raises(IRError):
        extract_scop(module)


def test_nonunit_step_rejected():
    module = Module("step")
    a = module.add_buffer("A", (32,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 32, step=4):
        builder.store(builder.const(0.0), a, ["i"])
    with pytest.raises(IRError):
        extract_scop(module)


def test_parallel_loops_recorded():
    module = Module("par")
    a = module.add_buffer("A", (8, 8), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 8, parallel=True):
        with builder.loop("j", 0, 8):
            builder.store(builder.const(0.0), a, ["i", "j"])
    scop = extract_scop(module)
    assert [loop.parallel for loop in scop.statements[0].loops] == [
        True, False
    ]
