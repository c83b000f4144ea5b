"""The ``affine`` dialect: loop nests with affine bounds and accesses.

Loop bounds and access subscripts are :class:`repro.isllite.LinExpr`
expressions over enclosing induction-variable names and module parameters,
which is exactly the class of programs the polyhedral middle end
(:mod:`repro.poly`) can extract.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ir.core import Buffer, IRError, Module, Op, Region, Value
from repro.isllite import LinExpr


def _as_bound(bound) -> Tuple[LinExpr, ...]:
    """Coerce a bound spec (expr or list of exprs) to a tuple of LinExprs."""
    if isinstance(bound, (list, tuple)):
        exprs = tuple(LinExpr.coerce(b) for b in bound)
        if not exprs:
            raise IRError("bound list must not be empty")
        return exprs
    return (LinExpr.coerce(bound),)


class AffineForOp(Op):
    """``affine.for %iv = max(lowers) to min(uppers) step s``.

    ``lower`` is inclusive and ``upper`` exclusive, matching MLIR.  Like
    MLIR's affine.for, each bound may be a *list* of affine expressions:
    the effective lower bound is their maximum and the effective upper bound
    their minimum (tiled point loops need ``min(N, (t+1)*T)``).  The body
    region has one block argument, the induction variable; subscript and
    bound expressions refer to induction variables *by name*.
    """

    dialect = "affine"
    name = "for"

    def __init__(
        self,
        iv_name: str,
        lower,
        upper,
        step: int = 1,
        parallel: bool = False,
    ):
        if step <= 0:
            raise IRError(f"affine.for step must be positive, got {step}")
        iv = Value(name=iv_name)
        super().__init__(regions=[Region(args=[iv])])
        self.attrs["iv_name"] = iv_name
        self.attrs["lowers"] = _as_bound(lower)
        self.attrs["uppers"] = _as_bound(upper)
        self.attrs["step"] = int(step)
        self.attrs["parallel"] = bool(parallel)

    @property
    def iv_name(self) -> str:
        return self.attrs["iv_name"]

    @property
    def iv(self) -> Value:
        return self.body.args[0]

    @property
    def lowers(self) -> Tuple[LinExpr, ...]:
        return self.attrs["lowers"]

    @property
    def uppers(self) -> Tuple[LinExpr, ...]:
        return self.attrs["uppers"]

    @property
    def lower(self) -> LinExpr:
        """The single lower bound; raises if the bound is a max of several."""
        if len(self.lowers) != 1:
            raise IRError("composite lower bound; use .lowers")
        return self.lowers[0]

    @property
    def upper(self) -> LinExpr:
        """The single upper bound; raises if the bound is a min of several."""
        if len(self.uppers) != 1:
            raise IRError("composite upper bound; use .uppers")
        return self.uppers[0]

    @property
    def step(self) -> int:
        return self.attrs["step"]

    @property
    def parallel(self) -> bool:
        return self.attrs["parallel"]

    @property
    def body(self) -> Region:
        return self.regions[0]

    def eval_bounds(self, env: Dict[str, int]) -> Tuple[int, int]:
        """Concrete (inclusive lower, exclusive upper) under ``env``."""
        lower = max(expr.evaluate_int(env) for expr in self.lowers)
        upper = min(expr.evaluate_int(env) for expr in self.uppers)
        return lower, upper

    def trip_count(self, env: Dict[str, int]) -> int:
        lower, upper = self.eval_bounds(env)
        if upper <= lower:
            return 0
        return (upper - lower + self.step - 1) // self.step

    def buffers_read(self) -> List[Buffer]:
        reads: List[Buffer] = []
        for op in self.body.walk():
            if isinstance(op, AffineLoadOp):
                reads.append(op.buffer)
        return reads

    def buffers_written(self) -> List[Buffer]:
        writes: List[Buffer] = []
        for op in self.body.walk():
            if isinstance(op, AffineStoreOp):
                writes.append(op.buffer)
        return writes


class AffineLoadOp(Op):
    """``%r = affine.load %buffer[subscripts]``."""

    dialect = "affine"
    name = "load"

    def __init__(self, buffer: Buffer, indices: Sequence["LinExpr | int"]):
        super().__init__(num_results=1, result_dtype=buffer.dtype)
        self.buffer = buffer
        self.indices: Tuple[LinExpr, ...] = tuple(
            LinExpr.coerce(i) for i in indices
        )
        if len(self.indices) != buffer.rank:
            raise IRError(
                f"load of {buffer!r} with {len(self.indices)} subscripts"
            )

    def buffers_read(self) -> List[Buffer]:
        return [self.buffer]


class AffineStoreOp(Op):
    """``affine.store %value, %buffer[subscripts]``."""

    dialect = "affine"
    name = "store"

    def __init__(
        self, value: Value, buffer: Buffer, indices: Sequence["LinExpr | int"]
    ):
        super().__init__(operands=[value])
        self.buffer = buffer
        self.indices: Tuple[LinExpr, ...] = tuple(
            LinExpr.coerce(i) for i in indices
        )
        if len(self.indices) != buffer.rank:
            raise IRError(
                f"store to {buffer!r} with {len(self.indices)} subscripts"
            )

    @property
    def value(self) -> Value:
        return self.operands[0]

    def buffers_written(self) -> List[Buffer]:
        return [self.buffer]


def outer_loops(module: Module) -> List[AffineForOp]:
    """Top-level affine.for ops of a module, in program order."""
    return [op for op in module.ops if isinstance(op, AffineForOp)]


def loop_nest_depth(loop: AffineForOp) -> int:
    """Maximum affine.for nesting depth of the nest rooted at ``loop``."""
    deepest = 1
    for op in loop.body.ops:
        if isinstance(op, AffineForOp):
            deepest = max(deepest, 1 + loop_nest_depth(op))
    return deepest


def perfectly_nested_band(loop: AffineForOp) -> List[AffineForOp]:
    """The maximal perfectly-nested loop band starting at ``loop``.

    The band extends while the body consists of exactly one op which is
    itself an affine.for.
    """
    band = [loop]
    current = loop
    while len(current.body.ops) == 1 and isinstance(
        current.body.ops[0], AffineForOp
    ):
        current = current.body.ops[0]
        band.append(current)
    return band


def verify_affine(module: Module) -> None:
    """Contextual checks: subscripts/bounds only use visible iv names/params.

    :meth:`Module.verify` covers SSA and buffer registration; this adds the
    affine-specific name-scoping rules.
    """
    params = set(module.params)

    def check_expr(expr: LinExpr, visible: set, what: str) -> None:
        unknown = expr.names() - visible - params
        if unknown:
            raise IRError(f"{what} uses unknown names {sorted(unknown)}")

    def check_region(region: Region, visible: set) -> None:
        for op in region.ops:
            if isinstance(op, AffineForOp):
                for expr in op.lowers:
                    check_expr(expr, visible, f"{op!r} lower bound")
                for expr in op.uppers:
                    check_expr(expr, visible, f"{op!r} upper bound")
                if op.iv_name in visible:
                    raise IRError(f"shadowed induction variable {op.iv_name!r}")
                check_region(op.body, visible | {op.iv_name})
            elif isinstance(op, (AffineLoadOp, AffineStoreOp)):
                for index in op.indices:
                    check_expr(index, visible, f"{op!r} subscript")
            else:
                for region_ in op.regions:
                    check_region(region_, visible)

    for op in module.ops:
        if isinstance(op, AffineForOp):
            for expr in op.lowers:
                check_expr(expr, set(), f"{op!r} lower bound")
            for expr in op.uppers:
                check_expr(expr, set(), f"{op!r} upper bound")
            check_region(op.body, {op.iv_name})
        else:
            for region in op.regions:
                check_region(region, set())
