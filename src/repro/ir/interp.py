"""Reference interpreter for all dialects, on numpy arrays.

``run_module`` executes a module at whatever abstraction level it is in
(torch, linalg, affine, or a mixture).  It is intentionally simple -- the
affine path walks loops one iteration at a time -- and exists to give every
lowering and every polyhedral transformation an executable semantics to be
tested against (interpret before == interpret after).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.ir.core import IRError, Module, Op
from repro.ir.dialects import arith
from repro.ir.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
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
from repro.ir.dialects.polyufc import SetUncoreCapOp
from repro.ir.dialects.torch_d import (
    TorchConv2dOp,
    TorchMatmulOp,
    TorchReluOp,
    TorchSdpaOp,
    TorchSoftmaxOp,
)

_BINARY = {
    "addf": lambda a, b: a + b,
    "subf": lambda a, b: a - b,
    "mulf": lambda a, b: a * b,
    "divf": lambda a, b: a / b,
    "maxf": max,
    "minf": min,
}

_UNARY = {
    "negf": lambda a: -a,
    "expf": math.exp,
    "sqrtf": math.sqrt,
    "absf": abs,
    "relu": lambda a: a if a > 0 else 0.0,
}

_EW_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "max": np.maximum,
}


def init_buffers(
    module: Module, seed: int = 0, provided: Optional[Dict[str, np.ndarray]] = None
) -> Dict[str, np.ndarray]:
    """Deterministically initialized arrays for every module buffer.

    Buffers in ``provided`` are copied; everything else gets reproducible
    pseudo-random contents so two interpretations of equivalent programs can
    be compared elementwise.
    """
    provided = provided or {}
    rng = np.random.default_rng(seed)
    arrays: Dict[str, np.ndarray] = {}
    for name, buffer in module.buffers.items():
        if name in provided:
            given = np.asarray(provided[name], dtype=np.float64)
            if given.shape != buffer.shape:
                raise IRError(
                    f"buffer {name!r}: provided shape {given.shape}, "
                    f"declared {buffer.shape}"
                )
            arrays[name] = given.copy()
        else:
            arrays[name] = rng.uniform(-1.0, 1.0, size=buffer.shape)
    return arrays


def run_module(
    module: Module,
    buffers: Optional[Dict[str, np.ndarray]] = None,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Execute the module; returns the final buffer contents by name."""
    arrays = init_buffers(module, seed=seed, provided=buffers)
    for op in module.ops:
        _execute(op, arrays, module)
    return arrays


def _execute(op: Op, arrays: Dict[str, np.ndarray], module: Module) -> None:
    if isinstance(op, AffineForOp):
        _run_affine_for(op, arrays, dict(module.params), {})
    elif isinstance(op, LinalgOp):
        _run_linalg(op, arrays)
    elif isinstance(
        op, (TorchConv2dOp, TorchMatmulOp, TorchSdpaOp, TorchSoftmaxOp, TorchReluOp)
    ):
        _run_torch(op, arrays)
    elif isinstance(op, SetUncoreCapOp):
        pass  # execution-model concern, not a semantic one
    else:
        raise IRError(f"interpreter cannot execute top-level {op!r}")


# -- affine ----------------------------------------------------------------


def _run_affine_for(
    loop: AffineForOp,
    arrays: Dict[str, np.ndarray],
    env: Dict[str, int],
    values: Dict[int, float],
) -> None:
    lower, upper = loop.eval_bounds(env)
    for iv in range(lower, upper, loop.step):
        env[loop.iv_name] = iv
        for op in loop.body.ops:
            _run_affine_op(op, arrays, env, values)
    env.pop(loop.iv_name, None)


def _run_affine_op(op, arrays, env, values) -> None:
    if isinstance(op, AffineForOp):
        _run_affine_for(op, arrays, env, values)
    elif isinstance(op, AffineLoadOp):
        index = tuple(expr.evaluate_int(env) for expr in op.indices)
        values[id(op.result)] = float(arrays[op.buffer.name][index])
    elif isinstance(op, AffineStoreOp):
        index = tuple(expr.evaluate_int(env) for expr in op.indices)
        arrays[op.buffer.name][index] = values[id(op.value)]
    elif isinstance(op, arith.ConstantOp):
        values[id(op.result)] = op.value
    elif isinstance(op, arith.BinaryOp):
        fn = _BINARY[op.kind]
        values[id(op.result)] = fn(values[id(op.lhs)], values[id(op.rhs)])
    elif isinstance(op, arith.UnaryOp):
        fn = _UNARY[op.kind]
        values[id(op.result)] = fn(values[id(op.operand)])
    elif isinstance(op, SetUncoreCapOp):
        pass
    else:
        raise IRError(f"interpreter cannot execute {op!r} inside affine.for")


# -- linalg ----------------------------------------------------------------


def _run_linalg(op: LinalgOp, arrays: Dict[str, np.ndarray]) -> None:
    if isinstance(op, FillOp):
        arrays[op.output.name][...] = op.value
    elif isinstance(op, MatmulOp):
        a = arrays[op.a.name]
        b = arrays[op.b.name]
        rhs = b.T if op.transpose_b else b
        arrays[op.c.name] += a @ rhs
    elif isinstance(op, BatchMatmulOp):
        a = arrays[op.a.name]
        b = arrays[op.b.name]
        rhs = np.swapaxes(b, -1, -2) if op.transpose_b else b
        arrays[op.c.name] += a @ rhs
    elif isinstance(op, Conv2DNchwFchwOp):
        _run_conv2d(
            arrays[op.input.name],
            arrays[op.kernel.name],
            arrays[op.output.name],
            op.stride,
        )
    elif isinstance(op, ElementwiseOp):
        _run_elementwise(op, arrays)
    elif isinstance(op, ReduceOp):
        source = arrays[op.input.name]
        if op.kind == "sum":
            arrays[op.output.name][...] = source.sum(axis=-1)
        else:
            arrays[op.output.name][...] = source.max(axis=-1)
    elif isinstance(op, BroadcastCombineOp):
        fn = _EW_BINARY[op.kind]
        big = arrays[op.input.name]
        reduced = arrays[op.reduced.name][..., np.newaxis]
        arrays[op.output.name][...] = fn(big, reduced)
    else:
        raise IRError(f"interpreter cannot execute linalg op {op!r}")


def _run_conv2d(inp, kernel, out, stride) -> None:
    n, f, oh, ow = out.shape
    _, c, kh, kw = kernel.shape
    sh, sw = stride
    for y in range(oh):
        for x in range(ow):
            patch = inp[:, :, y * sh : y * sh + kh, x * sw : x * sw + kw]
            # (n, c, kh, kw) x (f, c, kh, kw) -> (n, f)
            out[:, :, y, x] += np.einsum("nchw,fchw->nf", patch, kernel)


def _run_elementwise(op: ElementwiseOp, arrays) -> None:
    out = arrays[op.output.name]
    first = arrays[op.inputs[0].name]
    kind = op.kind
    if kind == "exp":
        out[...] = np.exp(first)
    elif kind == "relu":
        out[...] = np.maximum(first, 0.0)
    elif kind == "neg":
        out[...] = -first
    elif kind == "copy":
        out[...] = first
    elif kind == "scale":
        out[...] = first * op.scalar
    elif kind == "add_scalar":
        out[...] = first + op.scalar
    else:
        second = arrays[op.inputs[1].name]
        out[...] = _EW_BINARY[kind](first, second)


# -- torch -----------------------------------------------------------------


def _run_torch(op, arrays: Dict[str, np.ndarray]) -> None:
    if isinstance(op, TorchConv2dOp):
        arrays[op.output.name][...] = 0.0
        _run_conv2d(
            arrays[op.input.name],
            arrays[op.weight.name],
            arrays[op.output.name],
            op.stride,
        )
    elif isinstance(op, TorchMatmulOp):
        arrays[op.output.name][...] = arrays[op.a.name] @ arrays[op.b.name]
    elif isinstance(op, TorchSoftmaxOp):
        arrays[op.output.name][...] = _softmax(arrays[op.input.name])
    elif isinstance(op, TorchReluOp):
        arrays[op.output.name][...] = np.maximum(arrays[op.input.name], 0.0)
    elif isinstance(op, TorchSdpaOp):
        q = arrays[op.query.name]
        k = arrays[op.key.name]
        v = arrays[op.value.name]
        scores = (q @ np.swapaxes(k, -1, -2)) * op.scale
        arrays[op.output.name][...] = _softmax(scores) @ v
    else:
        raise IRError(f"interpreter cannot execute torch op {op!r}")


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)
