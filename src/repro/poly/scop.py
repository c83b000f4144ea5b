"""SCoP extraction: affine IR -> statements with domains, accesses, schedules.

A *statement* is a maximal run of non-loop ops inside a loop body (loads,
arith, one or more stores).  Each statement carries:

* its iteration domain as an isllite :class:`BasicSet` over the enclosing
  induction variables,
* its access list (buffer, subscript expressions, read/write) in program
  order,
* its per-iteration flop count (unitary model),
* a 2d+1-style schedule prefix for syntactic ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.core import Buffer, IRError, Module, Op
from repro.ir.dialects import arith
from repro.ir.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.isllite import BasicSet, Constraint, LinExpr, Space, count_points


@dataclass(frozen=True)
class AccessRef:
    """One memory access of a statement."""

    buffer: Buffer
    indices: Tuple[LinExpr, ...]
    is_write: bool


@dataclass
class Statement:
    """A polyhedral statement."""

    name: str
    loops: Tuple[AffineForOp, ...]
    domain: BasicSet
    accesses: Tuple[AccessRef, ...]
    flops_per_point: int
    schedule_prefix: Tuple[int, ...]
    body_ops: Tuple[Op, ...] = field(default=(), repr=False)

    @property
    def loop_names(self) -> Tuple[str, ...]:
        return tuple(loop.iv_name for loop in self.loops)

    @property
    def depth(self) -> int:
        return len(self.loops)

    def domain_size(self, params: Dict[str, int]) -> int:
        """Number of iteration points (exact count, fast closed forms)."""
        return int(count_points(self.domain, params))

    def reads(self) -> List[AccessRef]:
        return [a for a in self.accesses if not a.is_write]

    def writes(self) -> List[AccessRef]:
        return [a for a in self.accesses if a.is_write]

    def total_flops(self, params: Dict[str, int]) -> int:
        return self.flops_per_point * self.domain_size(params)


@dataclass
class SCoP:
    """All statements of a module, in execution (syntactic) order."""

    statements: List[Statement]
    module: Module

    @property
    def params(self) -> Dict[str, int]:
        return self.module.params

    def total_flops(self) -> int:
        """Total flop count Omega = sum over statements of w_s * |D_s|."""
        return sum(s.total_flops(self.params) for s in self.statements)

    def statements_under(self, root: AffineForOp) -> List[Statement]:
        return [s for s in self.statements if s.loops and s.loops[0] is root]

    def common_loops(self, a: Statement, b: Statement) -> int:
        """Length of the shared enclosing-loop prefix of two statements."""
        depth = 0
        for la, lb in zip(a.loops, b.loops):
            if la is not lb:
                break
            depth += 1
        return depth


def _domain_constraints(
    loops: Sequence[AffineForOp],
) -> List[Constraint]:
    constraints: List[Constraint] = []
    for loop in loops:
        if loop.step != 1:
            raise IRError(
                f"SCoP extraction requires unit-step loops, got step "
                f"{loop.step} on {loop.iv_name!r} (tiling emits tile-index "
                f"loops precisely to keep domains affine)"
            )
        iv = LinExpr.var(loop.iv_name)
        for lower in loop.lowers:
            constraints.append(Constraint(iv - lower))
        for upper in loop.uppers:
            constraints.append(Constraint(upper - iv - 1))
    return constraints


def extract_scop(module: Module) -> SCoP:
    """Extract the SCoP of every top-level affine nest in the module."""
    statements: List[Statement] = []
    params = set(module.params)
    counter = [0]

    def visit(loops: Tuple[AffineForOp, ...], body_ops, prefix: Tuple[int, ...]):
        run: List[Op] = []
        position = 0

        def flush(run_ops: List[Op]) -> None:
            if not run_ops:
                return
            statements.append(
                _make_statement(
                    f"S{counter[0]}",
                    loops,
                    tuple(run_ops),
                    prefix + (position,),
                    params,
                )
            )
            counter[0] += 1

        for op in body_ops:
            if isinstance(op, AffineForOp):
                flush(run)
                run = []
                position += 1
                visit(loops + (op,), op.body.ops, prefix + (position,))
                position += 1
            else:
                run.append(op)
        flush(run)

    top_position = 0
    for op in module.ops:
        if isinstance(op, AffineForOp):
            visit((op,), op.body.ops, (top_position,))
        top_position += 1
    return SCoP(statements, module)


def _make_statement(
    name: str,
    loops: Tuple[AffineForOp, ...],
    body_ops: Tuple[Op, ...],
    prefix: Tuple[int, ...],
    params: set,
) -> Statement:
    accesses: List[AccessRef] = []
    flops = 0
    for op in body_ops:
        if isinstance(op, AffineLoadOp):
            accesses.append(AccessRef(op.buffer, op.indices, is_write=False))
        elif isinstance(op, AffineStoreOp):
            accesses.append(AccessRef(op.buffer, op.indices, is_write=True))
        elif isinstance(op, (arith.BinaryOp, arith.UnaryOp)):
            flops += op.flops()
        elif isinstance(op, arith.ConstantOp):
            pass
        else:
            raise IRError(f"unsupported op {op!r} inside a statement body")

    loop_names = tuple(loop.iv_name for loop in loops)
    used_params = set()
    for loop in loops:
        for expr in loop.lowers + loop.uppers:
            used_params |= expr.names() - set(loop_names)
    unknown = used_params - params
    if unknown:
        raise IRError(f"loop bounds use unknown symbols {sorted(unknown)}")
    space = Space(loop_names, params=tuple(sorted(used_params)))
    domain = BasicSet(space, _domain_constraints(loops))
    return Statement(
        name=name,
        loops=loops,
        domain=domain,
        accesses=tuple(accesses),
        flops_per_point=flops,
        schedule_prefix=prefix,
        body_ops=body_ops,
    )
