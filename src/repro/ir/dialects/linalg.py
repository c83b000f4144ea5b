"""The ``linalg`` dialect: structured whole-buffer operations.

Every linalg op knows its canonical iteration space (:meth:`LinalgOp.
iteration_extents`) and its flop count under the paper's unitary model, so
the characterization pass can work at linalg granularity, and the
linalg->affine lowering (:mod:`repro.ir.lowering.linalg_to_affine`) emits a
loop nest whose arith-op count matches :meth:`LinalgOp.flops` exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.core import Buffer, IRError, Op

UNARY_EW_KINDS = ("exp", "relu", "neg", "copy", "scale", "add_scalar")
BINARY_EW_KINDS = ("add", "sub", "mul", "div", "max")
REDUCE_KINDS = ("sum", "max")


class LinalgOp(Op):
    """Base class for structured ops."""

    dialect = "linalg"

    def iteration_extents(self) -> Tuple[int, ...]:
        """Extents of the canonical loop nest implementing this op."""
        raise NotImplementedError

    def flops(self) -> int:
        """Total flop count (unitary model, matches the affine lowering)."""
        raise NotImplementedError

    def iteration_points(self) -> int:
        total = 1
        for extent in self.iteration_extents():
            total *= extent
        return total


class FillOp(LinalgOp):
    """``linalg.fill``: output[...] = constant."""

    name = "fill"

    def __init__(self, output: Buffer, value: float = 0.0):
        super().__init__()
        self.output = output
        self.attrs["value"] = float(value)

    @property
    def value(self) -> float:
        return self.attrs["value"]

    def buffers_written(self) -> List[Buffer]:
        return [self.output]

    def iteration_extents(self) -> Tuple[int, ...]:
        return self.output.shape

    def flops(self) -> int:
        return 0


class MatmulOp(LinalgOp):
    """``linalg.matmul``: C[m,n] += A[m,k] * B[k,n] (output must be init'd).

    ``transpose_b`` reads B as [n,k], the layout sdpa's QK^T step needs.
    """

    name = "matmul"

    def __init__(
        self, a: Buffer, b: Buffer, c: Buffer, transpose_b: bool = False
    ):
        super().__init__()
        self.a, self.b, self.c = a, b, c
        self.attrs["transpose_b"] = bool(transpose_b)
        m, k = a.shape if a.rank == 2 else (None, None)
        if a.rank != 2 or b.rank != 2 or c.rank != 2:
            raise IRError("linalg.matmul needs rank-2 operands")
        bk, bn = (b.shape[1], b.shape[0]) if transpose_b else b.shape
        if c.shape != (m, bn) or k != bk:
            raise IRError(
                f"matmul shape mismatch: {a.shape} x {b.shape}"
                f"{'^T' if transpose_b else ''} -> {c.shape}"
            )

    @property
    def transpose_b(self) -> bool:
        return self.attrs["transpose_b"]

    def buffers_read(self) -> List[Buffer]:
        return [self.a, self.b, self.c]

    def buffers_written(self) -> List[Buffer]:
        return [self.c]

    def iteration_extents(self) -> Tuple[int, ...]:
        m, k = self.a.shape
        n = self.c.shape[1]
        return (m, n, k)

    def flops(self) -> int:
        return 2 * self.iteration_points()


class BatchMatmulOp(LinalgOp):
    """``linalg.batch_matmul``: C[b...,m,n] += A[b...,m,k] * B[b...,k,n].

    Leading dims (all but the last two) are batch dims and must agree.
    """

    name = "batch_matmul"

    def __init__(
        self, a: Buffer, b: Buffer, c: Buffer, transpose_b: bool = False
    ):
        super().__init__()
        self.a, self.b, self.c = a, b, c
        self.attrs["transpose_b"] = bool(transpose_b)
        if a.rank < 3 or a.rank != b.rank or a.rank != c.rank:
            raise IRError("linalg.batch_matmul needs equal ranks >= 3")
        if a.shape[:-2] != b.shape[:-2] or a.shape[:-2] != c.shape[:-2]:
            raise IRError("batch dims mismatch in batch_matmul")
        m, k = a.shape[-2:]
        bk, bn = (
            (b.shape[-1], b.shape[-2]) if transpose_b else b.shape[-2:]
        )
        if c.shape[-2:] != (m, bn) or k != bk:
            raise IRError(
                f"batch_matmul inner shape mismatch: {a.shape} x {b.shape}"
            )

    @property
    def transpose_b(self) -> bool:
        return self.attrs["transpose_b"]

    def buffers_read(self) -> List[Buffer]:
        return [self.a, self.b, self.c]

    def buffers_written(self) -> List[Buffer]:
        return [self.c]

    def iteration_extents(self) -> Tuple[int, ...]:
        m, k = self.a.shape[-2:]
        n = self.c.shape[-1]
        return self.a.shape[:-2] + (m, n, k)

    def flops(self) -> int:
        return 2 * self.iteration_points()


class Conv2DNchwFchwOp(LinalgOp):
    """``linalg.conv_2d_nchw_fchw``: O[n,f,oh,ow] += I[n,c,oh*sh+kh,ow*sw+kw] * K[f,c,kh,kw]."""

    name = "conv_2d_nchw_fchw"

    def __init__(
        self,
        input_: Buffer,
        kernel: Buffer,
        output: Buffer,
        stride: Tuple[int, int] = (1, 1),
    ):
        super().__init__()
        self.input = input_
        self.kernel = kernel
        self.output = output
        self.attrs["stride"] = (int(stride[0]), int(stride[1]))
        if input_.rank != 4 or kernel.rank != 4 or output.rank != 4:
            raise IRError("conv2d needs rank-4 operands")
        n, c, h, w = input_.shape
        f, kc, kh, kw = kernel.shape
        sh, sw = self.stride
        oh = (h - kh) // sh + 1
        ow = (w - kw) // sw + 1
        if kc != c:
            raise IRError(f"conv2d channel mismatch: input {c}, kernel {kc}")
        if output.shape != (n, f, oh, ow):
            raise IRError(
                f"conv2d output shape {output.shape}, expected {(n, f, oh, ow)}"
            )

    @property
    def stride(self) -> Tuple[int, int]:
        return self.attrs["stride"]

    def buffers_read(self) -> List[Buffer]:
        return [self.input, self.kernel, self.output]

    def buffers_written(self) -> List[Buffer]:
        return [self.output]

    def iteration_extents(self) -> Tuple[int, ...]:
        n, f, oh, ow = self.output.shape
        _, c, kh, kw = self.kernel.shape
        return (n, f, oh, ow, c, kh, kw)

    def flops(self) -> int:
        return 2 * self.iteration_points()


class ElementwiseOp(LinalgOp):
    """``linalg.elemwise``: pointwise map over same-shape buffers.

    Unary kinds take one input (``scale``/``add_scalar`` use the ``scalar``
    attribute); binary kinds take two same-shape inputs.
    """

    name = "elemwise"

    def __init__(
        self,
        kind: str,
        inputs: List[Buffer],
        output: Buffer,
        scalar: Optional[float] = None,
    ):
        super().__init__()
        if kind in UNARY_EW_KINDS:
            if len(inputs) != 1:
                raise IRError(f"unary elemwise {kind!r} takes one input")
            if kind in ("scale", "add_scalar") and scalar is None:
                raise IRError(f"elemwise {kind!r} needs a scalar")
        elif kind in BINARY_EW_KINDS:
            if len(inputs) != 2:
                raise IRError(f"binary elemwise {kind!r} takes two inputs")
        else:
            raise IRError(f"unknown elemwise kind {kind!r}")
        for buffer in inputs:
            if buffer.shape != output.shape:
                raise IRError(
                    f"elemwise shape mismatch: {buffer.shape} vs {output.shape}"
                )
        self.inputs = list(inputs)
        self.output = output
        self.attrs["kind"] = kind
        self.attrs["scalar"] = scalar if scalar is None else float(scalar)

    @property
    def kind(self) -> str:
        return self.attrs["kind"]

    @property
    def scalar(self) -> Optional[float]:
        return self.attrs["scalar"]

    def buffers_read(self) -> List[Buffer]:
        return list(self.inputs)

    def buffers_written(self) -> List[Buffer]:
        return [self.output]

    def iteration_extents(self) -> Tuple[int, ...]:
        return self.output.shape

    def flops(self) -> int:
        if self.kind == "copy":
            return 0
        return self.iteration_points()


class ReduceOp(LinalgOp):
    """``linalg.reduce``: fold the last axis with sum or max."""

    name = "reduce"

    def __init__(self, kind: str, input_: Buffer, output: Buffer):
        super().__init__()
        if kind not in REDUCE_KINDS:
            raise IRError(f"unknown reduce kind {kind!r}")
        if input_.shape[:-1] != output.shape:
            raise IRError(
                f"reduce shape mismatch: {input_.shape} -> {output.shape}"
            )
        self.input = input_
        self.output = output
        self.attrs["kind"] = kind

    @property
    def kind(self) -> str:
        return self.attrs["kind"]

    def buffers_read(self) -> List[Buffer]:
        return [self.input, self.output]

    def buffers_written(self) -> List[Buffer]:
        return [self.output]

    def iteration_extents(self) -> Tuple[int, ...]:
        return self.input.shape

    def flops(self) -> int:
        return self.iteration_points()


class BroadcastCombineOp(LinalgOp):
    """``linalg.broadcast_combine``: out[...,j] = in[...,j] <kind> reduced[...].

    Combines a tensor with a last-axis-reduced companion (softmax's subtract
    -max and divide-by-sum steps).
    """

    name = "broadcast_combine"

    def __init__(self, kind: str, input_: Buffer, reduced: Buffer, output: Buffer):
        super().__init__()
        if kind not in BINARY_EW_KINDS:
            raise IRError(f"unknown broadcast_combine kind {kind!r}")
        if input_.shape != output.shape:
            raise IRError("broadcast_combine input/output shapes differ")
        if reduced.shape != input_.shape[:-1]:
            raise IRError(
                f"broadcast_combine reduced shape {reduced.shape} != "
                f"{input_.shape[:-1]}"
            )
        self.input = input_
        self.reduced = reduced
        self.output = output
        self.attrs["kind"] = kind

    @property
    def kind(self) -> str:
        return self.attrs["kind"]

    def buffers_read(self) -> List[Buffer]:
        return [self.input, self.reduced]

    def buffers_written(self) -> List[Buffer]:
        return [self.output]

    def iteration_extents(self) -> Tuple[int, ...]:
        return self.input.shape

    def flops(self) -> int:
        return self.iteration_points()
