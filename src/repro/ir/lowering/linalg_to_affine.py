"""Lower linalg structured ops to affine loop nests.

Each linalg op becomes one top-level ``affine.for`` nest whose arith-op
count per iteration matches the op's unitary flop model.  The generated root
loop is tagged with ``source_op``/``source_index`` attributes so the
ML-PolyUFC passes can map analysis results back to linalg granularity.

Loop names are numbered per call (``n<nest>_d<axis>``), so lowering one
module twice prints the same IR: the memo's fingerprints
(:mod:`repro.cache.memo`) key on that text.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

from repro.ir.core import IRError, Module
from repro.ir.builder import AffineBuilder
from repro.ir.dialects.linalg import (
    BatchMatmulOp,
    BroadcastCombineOp,
    Conv2DNchwFchwOp,
    ElementwiseOp,
    FillOp,
    LinalgOp,
    MatmulOp,
    ReduceOp,
)
from repro.ir.dialects.torch_d import TorchOp
from repro.isllite import LinExpr

def lower_linalg_to_affine(module: Module) -> Module:
    """A new module in which every linalg op is an affine loop nest."""
    lowered = module.clone_structure(f"{module.name}.affine")
    nest_ids = itertools.count()
    for index, op in enumerate(module.ops):
        if isinstance(op, TorchOp):
            raise IRError(
                f"lower torch op {op!r} to linalg before lowering to affine"
            )
        if isinstance(op, LinalgOp):
            before = len(lowered.ops)
            _lower_linalg_op(op, lowered, nest_ids)
            for generated in lowered.ops[before:]:
                generated.attrs["source_op"] = op
                generated.attrs["source_index"] = index
                if "torch_source_index" in op.attrs:
                    generated.attrs["torch_source_op"] = op.attrs[
                        "torch_source_op"
                    ]
                    generated.attrs["torch_source_index"] = op.attrs[
                        "torch_source_index"
                    ]
        else:
            lowered.append(op)
    return lowered


def _ivs(nest_ids: Iterator[int], count: int) -> List[str]:
    nest = next(nest_ids)
    return [f"n{nest}_d{axis}" for axis in range(count)]


def _open_loops(builder: AffineBuilder, names, extents, stack):
    for name, extent in zip(names, extents):
        context = builder.loop(name, 0, extent)
        context.__enter__()
        stack.append(context)


def _close_loops(stack) -> None:
    while stack:
        stack.pop().__exit__(None, None, None)


def _lower_linalg_op(
    op: LinalgOp, module: Module, nest_ids: Iterator[int]
) -> None:
    builder = AffineBuilder(module)
    stack: List = []
    try:
        if isinstance(op, FillOp):
            names = _ivs(nest_ids, op.output.rank)
            _open_loops(builder, names, op.output.shape, stack)
            builder.store(builder.const(op.value), op.output, names)
        elif isinstance(op, MatmulOp):
            m_extent, n_extent, k_extent = op.iteration_extents()
            m, n, k = _ivs(nest_ids, 3)
            _open_loops(builder, [m, n, k], (m_extent, n_extent, k_extent), stack)
            a = builder.load(op.a, [m, k])
            b = builder.load(op.b, [n, k] if op.transpose_b else [k, n])
            c = builder.load(op.c, [m, n])
            builder.store(builder.add(c, builder.mul(a, b)), op.c, [m, n])
        elif isinstance(op, BatchMatmulOp):
            extents = op.iteration_extents()
            names = _ivs(nest_ids, len(extents))
            _open_loops(builder, names, extents, stack)
            batch = names[:-3]
            m, n, k = names[-3:]
            a = builder.load(op.a, batch + [m, k])
            b = builder.load(
                op.b, batch + ([n, k] if op.transpose_b else [k, n])
            )
            c = builder.load(op.c, batch + [m, n])
            builder.store(
                builder.add(c, builder.mul(a, b)), op.c, batch + [m, n]
            )
        elif isinstance(op, Conv2DNchwFchwOp):
            extents = op.iteration_extents()
            n, f, oh, ow, c, kh, kw = _ivs(nest_ids, 7)
            _open_loops(builder, [n, f, oh, ow, c, kh, kw], extents, stack)
            sh, sw = op.stride
            in_h = LinExpr.var(oh) * sh + LinExpr.var(kh)
            in_w = LinExpr.var(ow) * sw + LinExpr.var(kw)
            x = builder.load(op.input, [n, c, in_h, in_w])
            w = builder.load(op.kernel, [f, c, kh, kw])
            acc = builder.load(op.output, [n, f, oh, ow])
            builder.store(
                builder.add(acc, builder.mul(x, w)), op.output, [n, f, oh, ow]
            )
        elif isinstance(op, ElementwiseOp):
            names = _ivs(nest_ids, op.output.rank)
            _open_loops(builder, names, op.output.shape, stack)
            first = builder.load(op.inputs[0], names)
            builder.store(
                _apply_elementwise(builder, op, first, names), op.output, names
            )
        elif isinstance(op, ReduceOp):
            outer = _ivs(nest_ids, op.output.rank)
            _open_loops(builder, outer, op.output.shape, stack)
            if op.kind == "sum":
                builder.store(builder.const(0.0), op.output, outer)
            else:
                builder.store(
                    builder.load(op.input, outer + [0]), op.output, outer
                )
            (inner,) = _ivs(nest_ids, 1)
            with builder.loop(inner, 0, op.input.shape[-1]):
                acc = builder.load(op.output, outer)
                element = builder.load(op.input, outer + [inner])
                combined = (
                    builder.add(acc, element)
                    if op.kind == "sum"
                    else builder.maxf(acc, element)
                )
                builder.store(combined, op.output, outer)
        elif isinstance(op, BroadcastCombineOp):
            names = _ivs(nest_ids, op.input.rank)
            _open_loops(builder, names, op.input.shape, stack)
            big = builder.load(op.input, names)
            small = builder.load(op.reduced, names[:-1])
            kind = {"add": "addf", "sub": "subf", "mul": "mulf",
                    "div": "divf", "max": "maxf"}[op.kind]
            builder.store(
                builder._binary(kind, big, small), op.output, names
            )
        else:
            raise IRError(f"no affine lowering for linalg op {op!r}")
    finally:
        _close_loops(stack)


def _apply_elementwise(builder: AffineBuilder, op: ElementwiseOp, first, names):
    kind = op.kind
    if kind == "exp":
        return builder.exp(first)
    if kind == "relu":
        from repro.ir.dialects import arith

        return builder._append(arith.UnaryOp("relu", first)).result
    if kind == "neg":
        return builder.neg(first)
    if kind == "copy":
        return first
    if kind == "scale":
        return builder.mul(first, builder.const(op.scalar))
    if kind == "add_scalar":
        return builder.add(first, builder.const(op.scalar))
    second = builder.load(op.inputs[1], names)
    kind_map = {"add": "addf", "sub": "subf", "mul": "mulf",
                "div": "divf", "max": "maxf"}
    return builder._binary(kind_map[kind], first, second)
