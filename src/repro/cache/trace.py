"""Memory-trace generation from affine IR.

The trace is the numeric evaluation of the polyhedral access relation
composed with the schedule: statement instances are visited in schedule
(program) order and each instance emits its accesses in body order.

:func:`generate_trace` evaluates a whole loop subtree at once over arrays
of outer instances.  Each loop's ``max(lowers)`` / ``min(uppers)`` is
evaluated on the arrays of enclosing induction-variable values, which
gives a trip count per instance, and each body lays its items (accesses
and nested loops) out per instance in program order.  Where the trip
counts do not depend on the instance the subtree is a dense grid, and
every access is written by broadcasting into a strided view of the
output; elsewhere the instances are flattened and the accesses placed by
an exclusive cumsum over per-instance counts and one scatter.  The trace
is counted before anything trace-sized is allocated (the count stops as
soon as it passes the budget), allocated once and filled in batches of at
most :data:`TRACE_BATCH` accesses.  No step of counting or filling
evaluates more than :data:`TRACE_BATCH` loop iterations at once, so the
work between deadline checkpoints and the temporary arrays stay bounded
whatever the problem size.  :func:`reference_generate_trace`, a
per-iteration walker, is the oracle it must equal bit for bit
(:func:`trace_differences` compares the two).

The cache engines and the simulator do not read the trace itself but its
:func:`line_stream`: one global cache-line id per access plus the write
flags, 5 bytes per access where the trace takes 13.  That stream is what
the memo (:mod:`repro.cache.memo`) keeps between jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.ir.core import Buffer, IRError, Module, Op
from repro.ir.dialects import arith
from repro.ir.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.ir.dialects.linalg import LinalgOp
from repro.ir.dialects.polyufc import SetUncoreCapOp
from repro.isllite import LinExpr
from repro.runtime import Deadline, faults


class TraceBudgetExceeded(IRError):
    """The module generates more accesses than the configured cap."""


class _TraceTruncated(Exception):
    """Internal: stop tracing and keep the prefix (truncate mode)."""


class _Over(Exception):
    """Internal: a count passed the budget it was given."""


#: Most accesses one fill batch writes, and most loop iterations one step
#: of counting or filling evaluates at once: the bound on temporary arrays
#: and on the work between cooperative deadline checkpoints.
TRACE_BATCH = 1 << 16


@dataclass
class AccessTrace:
    """A flat memory trace.

    ``buffer_ids[i]`` indexes into ``buffers``; ``offsets[i]`` is the element
    offset within that buffer; ``is_write[i]`` marks stores.  The cache
    engines read its :func:`line_stream` instead.
    """

    buffers: List[Buffer]
    buffer_ids: np.ndarray
    offsets: np.ndarray
    is_write: np.ndarray

    def __len__(self) -> int:
        return len(self.buffer_ids)

    def buffer_bases(self, line_bytes: int) -> np.ndarray:
        """Per-buffer base byte addresses for a line-aligned layout."""
        bases = np.zeros(len(self.buffers), dtype=np.int64)
        cursor = 0
        for index, buffer in enumerate(self.buffers):
            bases[index] = cursor
            lines = -(-buffer.size_bytes // line_bytes)  # ceil
            cursor += lines * line_bytes
        return bases

    def element_sizes(self) -> np.ndarray:
        """Per-buffer element sizes in bytes."""
        return np.array(
            [buffer.dtype.size_bytes for buffer in self.buffers],
            dtype=np.int64,
        )

    def line_ids(self, line_bytes: int) -> np.ndarray:
        """Global cache-line ids (int64): buffers laid out line-aligned end
        to end.  Recomputed on every call."""
        byte_addr = self.offsets * self.element_sizes()[self.buffer_ids]
        byte_addr += self.buffer_bases(line_bytes)[self.buffer_ids]
        byte_addr //= line_bytes
        return byte_addr

    def footprint_bytes(self) -> int:
        """Total bytes of distinct elements touched.

        One vectorized unique over a combined ``(buffer_id, offset)`` key;
        per-buffer distinct counts fall out of the unique keys' ids.
        """
        if not len(self):
            return 0
        span = int(self.offsets.max()) + 1 if len(self) else 1
        key = self.buffer_ids.astype(np.int64) * span + self.offsets
        unique_ids = np.unique(key) // span
        counts = np.bincount(unique_ids, minlength=len(self.buffers))
        return int(counts @ self.element_sizes())


@dataclass(frozen=True, eq=False)
class LineStream:
    """A trace as the cache engines read it: one line id per access.

    ``lines[i]`` is :meth:`AccessTrace.line_ids` of access ``i`` for
    ``line_bytes``-byte lines, stored as int32 when every id fits and as
    int64 otherwise; ``writes[i]`` marks stores.  ``writes`` is the
    stream's own array, never a view of the trace's, so a stream does not
    keep its trace alive: 5 bytes per access against the trace's 13.
    """

    line_bytes: int
    lines: np.ndarray
    writes: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def nbytes(self) -> int:
        return self.lines.nbytes + self.writes.nbytes


#: Accesses per step of :func:`line_stream`: the bound on its int64
#: temporaries.
_STREAM_STEP = 1 << 20

_INT32 = np.iinfo(np.int32)


def line_stream(
    source: Union[AccessTrace, LineStream], line_bytes: int
) -> LineStream:
    """The line stream of ``source`` for ``line_bytes``-byte lines.

    A :class:`LineStream` is returned as it is and must have that line
    size.  A trace's ids are computed :data:`_STREAM_STEP` accesses at a
    time straight into the int32 column; a step with an id outside int32
    switches the whole stream to :meth:`AccessTrace.line_ids`.  Buffer
    bases are multiples of the line size, so a buffer's first line plus
    the line of the byte offset within it is the id ``line_ids`` gives.
    """
    if isinstance(source, LineStream):
        if source.line_bytes != line_bytes:
            raise ValueError(
                f"a stream of {source.line_bytes}-byte lines cannot be "
                f"read with {line_bytes}-byte lines"
            )
        return source
    trace = source
    sizes = trace.element_sizes()
    first_lines = trace.buffer_bases(line_bytes) // line_bytes
    lines = np.empty(len(trace), dtype=np.int32)
    for start in range(0, len(trace), _STREAM_STEP):
        part = slice(start, start + _STREAM_STEP)
        ids = trace.buffer_ids[part]
        step = trace.offsets[part] * sizes[ids]
        step //= line_bytes
        step += first_lines[ids]
        if step.min() < _INT32.min or step.max() > _INT32.max:
            lines = trace.line_ids(line_bytes)
            break
        lines[part] = step
    writes = np.array(trace.is_write, dtype=bool)  # a copy, never a view
    return LineStream(line_bytes, lines, writes)


def generate_trace(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
    truncate: bool = False,
    deadline: Optional[Deadline] = None,
) -> AccessTrace:
    """Trace the given top-level ops (default: the whole module).

    The accesses are counted before anything trace-sized is allocated, and
    the count stops once it passes ``max_accesses``, so a module over the
    budget raises :class:`TraceBudgetExceeded` after about
    ``max_accesses`` accesses' worth of counting, without being generated.
    With ``truncate=True`` it instead returns exactly the first
    ``min(max_accesses, total)`` accesses -- the sampling mode the
    degradation ladder's approximate rung runs on.  The ``deadline`` is
    checked once per fill batch and once per counting step over
    :data:`TRACE_BATCH` loop iterations: expiry raises
    :class:`repro.runtime.DeadlineExceeded`, or under ``truncate=True``
    returns the batches filled so far (possibly none).
    """
    faults.fire("cm.trace")
    if deadline is not None and not truncate:
        deadline.check("cm.trace")
    return _TraceGenerator(
        module, ops, max_accesses, truncate, deadline
    ).run()


def reference_generate_trace(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
    truncate: bool = False,
) -> AccessTrace:
    """The per-iteration oracle for :func:`generate_trace`.

    Walks every loop iteration in Python and emits one access at a time,
    registering each buffer at its first access.  Slow but plainly right:
    :func:`generate_trace` must equal it bit for bit (buffer order, ids,
    offsets, writes), including the prefix ``truncate=True`` returns.
    """
    buffers: List[Buffer] = []
    index: Dict[str, int] = {}
    layouts: Dict[int, tuple] = {}
    ids: List[int] = []
    offsets: List[int] = []
    writes: List[bool] = []

    def emit(op, env: Dict[str, int]) -> None:
        if len(ids) == max_accesses:
            if truncate:
                raise _TraceTruncated()
            raise TraceBudgetExceeded(_budget_message(max_accesses))
        layout = layouts.get(id(op))
        if layout is None:
            buffer = op.buffer
            if buffer.name not in index:
                index[buffer.name] = len(buffers)
                buffers.append(buffer)
            layout = layouts[id(op)] = (
                index[buffer.name],
                tuple(zip(op.indices, buffer.strides())),
                isinstance(op, AffineStoreOp),
            )
        buffer_id, terms, write = layout
        ids.append(buffer_id)
        offsets.append(
            sum(expr.evaluate_int(env) * stride for expr, stride in terms)
        )
        writes.append(write)

    def walk(loop: AffineForOp, env: Dict[str, int]) -> None:
        lower, upper = loop.eval_bounds(env)
        for iv in range(lower, upper, loop.step):
            env[loop.iv_name] = iv
            for op in loop.body.ops:
                if isinstance(op, AffineForOp):
                    walk(op, env)
                elif isinstance(op, (AffineLoadOp, AffineStoreOp)):
                    emit(op, env)
        env.pop(loop.iv_name, None)

    try:
        for op in ops if ops is not None else module.ops:
            if _is_nest(op):
                walk(op, dict(module.params))
    except _TraceTruncated:
        pass
    return AccessTrace(
        buffers,
        np.array(ids, dtype=np.int32),
        np.array(offsets, dtype=np.int64),
        np.array(writes, dtype=bool),
    )


def trace_differences(trace: AccessTrace, reference: AccessTrace) -> List[str]:
    """How ``trace`` differs from ``reference`` bit for bit; empty if not.

    Compares the buffer names in order, then the ids, offsets and writes
    with their dtypes; a differing column names its first differing access.
    """
    differences = []
    names = [buffer.name for buffer in trace.buffers]
    reference_names = [buffer.name for buffer in reference.buffers]
    if names != reference_names:
        differences.append(
            f"buffers {names} != reference {reference_names}"
        )
    for column in ("buffer_ids", "offsets", "is_write"):
        left = getattr(trace, column)
        right = getattr(reference, column)
        if left.dtype != right.dtype or not np.array_equal(left, right):
            common = min(len(left), len(right))
            differs = np.flatnonzero(left[:common] != right[:common])
            at = int(differs[0]) if len(differs) else common
            differences.append(
                f"{column} differ from access {at} (lengths "
                f"{len(left)}/{len(right)}, dtypes {left.dtype}/{right.dtype})"
            )
    return differences


def _budget_message(max_accesses: int) -> str:
    return (
        f"trace exceeds {max_accesses} accesses; "
        "shrink the problem size or raise max_accesses"
    )


def _is_nest(op: Op) -> bool:
    """Whether a top-level op is traced (a loop nest) or skipped."""
    if isinstance(op, AffineForOp):
        return True
    if isinstance(op, (SetUncoreCapOp, arith.ConstantOp)):
        return False
    if isinstance(op, LinalgOp):
        raise IRError(f"trace generation needs affine IR; lower {op!r} first")
    raise IRError(f"cannot trace top-level op {op!r}")


# -- the vectorized generator ----------------------------------------------
#
# Values bound to a name are Python ints or int64 arrays broadcastable to
# the current instance shape (one axis per enclosing loop evaluated as a
# grid, or one flat axis after a non-rectangular loop).  Output positions
# ("where") are either ``(start, strides)`` -- a dense layout in which the
# instance at grid index ``g`` starts at ``start + sum(strides * g)`` -- or
# an explicit int64 array of start positions broadcastable to the shape.

#: ``const + sum(coeff * name)`` with module parameters folded in.
_Affine = Tuple[int, Tuple[Tuple[str, int], ...]]
_Value = Union[int, np.ndarray]


def _evaluate(expr: _Affine, env: Dict[str, _Value]) -> _Value:
    value, terms = expr
    for name, coeff in terms:
        value = value + coeff * env[name]
    return value


def _flat(value: _Value, shape: Tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(value, shape).reshape(-1)


def _uniform(trip: _Value) -> Optional[int]:
    """The trip count shared by every instance, or None if they differ."""
    if not isinstance(trip, np.ndarray):
        return int(trip)
    first = trip.flat[0]
    return int(first) if (trip == first).all() else None


def _total(count: _Value, shape: Tuple[int, ...]) -> int:
    """The sum of a per-instance count broadcast to ``shape``."""
    size = math.prod(shape)
    if not isinstance(count, np.ndarray):
        return int(count) * size
    return int(count.sum()) * (size // count.size) if count.size else 0


def _spend(budget: Optional[int], count: _Value, shape) -> Optional[int]:
    """What is left of ``budget`` after ``count``; raises :class:`_Over`
    when it runs out.  A budget of None is unbounded."""
    if budget is None:
        return None
    budget -= _total(count, shape)
    if budget < 0:
        raise _Over()
    return budget


def _runs(sizes: np.ndarray):
    """Slices of consecutive instances holding at most :data:`TRACE_BATCH`
    together, or one instance alone that holds more."""
    ends = np.concatenate(([0], np.cumsum(sizes)))
    index = 0
    while index < len(sizes):
        stop = int(
            np.searchsorted(ends, ends[index] + TRACE_BATCH, side="right")
        ) - 1
        stop = max(stop, index + 1)
        yield slice(index, stop)
        index = stop


def _alone(sizes: np.ndarray, part: slice) -> bool:
    """Whether a run is one instance alone holding more than a batch."""
    return part.stop - part.start == 1 and sizes[part.start] > TRACE_BATCH


def _take(env, shape, names, index) -> Dict[str, _Value]:
    """The ``names`` of ``env`` at instances ``index`` of the flattened
    ``shape`` (an int index gives scalars)."""
    return {
        name: _flat(value, shape)[index]
        if isinstance(value, np.ndarray) else value
        for name, value in env.items()
        if name in names
    }


class _Access(NamedTuple):
    buffer_id: int  # provisional: the buffer's first appearance in the IR
    write: bool
    offset: _Affine  # element offset within the buffer


class _Loop(NamedTuple):
    iv: str
    lowers: Tuple[_Affine, ...]
    uppers: Tuple[_Affine, ...]
    step: int
    items: Tuple[Union[_Access, "_Loop"], ...]
    #: Enclosing names the subtree reads (bounds and subscripts).
    free: FrozenSet[str]
    #: Names any bound in the subtree reads, this loop's included.
    bound_names: FrozenSet[str]
    #: Whether the body's access count can depend on ``iv``.
    counts_vary: bool


class _TraceGenerator:
    def __init__(
        self,
        module: Module,
        ops: Optional[Sequence[Op]],
        max_accesses: int,
        truncate: bool,
        deadline: Optional[Deadline],
    ):
        self.params = dict(module.params)
        self.max_accesses = max_accesses
        self.truncate = truncate
        self.deadline = deadline
        self.buffers: List[Buffer] = []
        self.buffer_index: Dict[str, int] = {}
        self.nests = [
            self._compile(op, frozenset())
            for op in (ops if ops is not None else module.ops)
            if _is_nest(op)
        ]
        #: Provisional buffer id -> trace position of its first access.
        self.first: Dict[int, int] = {}
        self.batch_start = 0
        self.filled = 0

    # -- compiling the IR ----------------------------------------------------

    def _lower(self, expr: LinExpr, scope: FrozenSet[str], what) -> _Affine:
        const = expr.const
        terms = []
        unbound = []
        for name, coeff in expr.coeffs.items():
            if name in scope:
                terms.append((name, coeff))
            elif name in self.params:
                const += coeff * self.params[name]
            else:
                unbound.append(name)
        if unbound:
            raise IRError(
                f"{what} {expr!r} uses unbound names {sorted(unbound)}"
            )
        return const, tuple(terms)

    def _compile(self, loop: AffineForOp, scope: FrozenSet[str]) -> _Loop:
        inner = scope | {loop.iv_name}
        items: List[Union[_Access, _Loop]] = []
        for op in loop.body.ops:
            if isinstance(op, AffineForOp):
                items.append(self._compile(op, inner))
            elif isinstance(op, (AffineLoadOp, AffineStoreOp)):
                items.append(self._compile_access(op, inner))
        lowers = tuple(self._lower(e, scope, "bound") for e in loop.lowers)
        uppers = tuple(self._lower(e, scope, "bound") for e in loop.uppers)
        bound_names = {
            name for _, terms in lowers + uppers for name, _ in terms
        }
        names = set(bound_names)
        for item in items:
            if isinstance(item, _Loop):
                names |= item.free
                bound_names |= item.bound_names
            else:
                names.update(name for name, _ in item.offset[1])
        names.discard(loop.iv_name)
        counts_vary = any(
            isinstance(item, _Loop) and loop.iv_name in item.bound_names
            for item in items
        )
        return _Loop(
            loop.iv_name, lowers, uppers, loop.step, tuple(items),
            frozenset(names), frozenset(bound_names), counts_vary,
        )

    def _compile_access(self, op, scope: FrozenSet[str]) -> _Access:
        buffer = op.buffer
        buffer_id = self.buffer_index.get(buffer.name)
        if buffer_id is None:
            buffer_id = self.buffer_index[buffer.name] = len(self.buffers)
            self.buffers.append(buffer)
        const = 0
        coeffs: Dict[str, int] = {}
        for expr, stride in zip(op.indices, buffer.strides()):
            value, terms = self._lower(expr, scope, "subscript")
            const += value * stride
            for name, coeff in terms:
                coeffs[name] = coeffs.get(name, 0) + coeff * stride
        terms = tuple((name, c) for name, c in coeffs.items() if c)
        return _Access(
            buffer_id, isinstance(op, AffineStoreOp), (const, terms)
        )

    # -- sizing --------------------------------------------------------------

    def run(self) -> AccessTrace:
        """Count the trace, allocate it once at its final length, fill it."""
        try:
            self.length = sum(
                _total(count, ())
                for count in self._counts(
                    self.nests, {}, (), self.max_accesses
                )
            )
        except _Over:
            if not self.truncate:
                raise TraceBudgetExceeded(
                    _budget_message(self.max_accesses)
                ) from None
            self.length = self.max_accesses
        except _TraceTruncated:  # the deadline expired while counting
            self.length = 0
        # One allocation holds all three columns: three arrays per trace
        # fragmented the heap of a service whose memo kept traces
        # (perfbench service_mixed on a 2-vCPU host: peak RSS 967-1074 MB
        # across seeds, 963-968 MB with one block).  Any view keeps the
        # whole block alive, which is why a LineStream copies the flags.
        block = np.empty(13 * self.length, dtype=np.uint8)
        self.offsets = block[: 8 * self.length].view(np.int64)
        self.ids = block[8 * self.length: 12 * self.length].view(np.int32)
        self.writes = block[12 * self.length:].view(bool)
        try:
            self._fill_items(self.nests, {}, 0)
        except _TraceTruncated:
            pass
        return self._finish()

    def _checkpoint(self) -> None:
        """The cooperative deadline check: under ``truncate`` expiry keeps
        the prefix filled so far."""
        if self.deadline is not None and self.deadline.expired():
            if self.truncate:
                raise _TraceTruncated()
            self.deadline.check("cm.trace")

    def _windows(self, loop: _Loop, env):
        """``(env, count)`` per window of at most :data:`TRACE_BATCH`
        iterations of ``loop`` under a scalar ``env``, which binds the
        loop's induction variable to the window's values."""
        lower, trip = self._bounds(loop, env)
        for first in range(0, trip, TRACE_BATCH):
            count = min(TRACE_BATCH, trip - first)
            ivs = lower + loop.step * np.arange(first, first + count)
            yield {**env, loop.iv: ivs}, count

    def _bounds(self, loop: _Loop, env) -> Tuple[_Value, _Value]:
        """Per-instance lower bound and trip count."""
        lower = _evaluate(loop.lowers[0], env)
        for expr in loop.lowers[1:]:
            lower = np.maximum(lower, _evaluate(expr, env))
        upper = _evaluate(loop.uppers[0], env)
        for expr in loop.uppers[1:]:
            upper = np.minimum(upper, _evaluate(expr, env))
        trip = (upper - lower + loop.step - 1) // loop.step
        if isinstance(trip, np.ndarray):
            return lower, np.maximum(trip, 0)
        return int(lower), max(0, int(trip))

    def _counts(self, items, env, shape, budget=None) -> List[_Value]:
        """Each item's access count per instance of the enclosing body.

        With a ``budget`` it raises :class:`_Over` as soon as the items'
        accesses over all instances pass it.
        """
        counts = []
        for item in items:
            if isinstance(item, _Access):
                count = 1
            else:
                count = self._count(item, env, shape, budget)
            budget = _spend(budget, count, shape)
            counts.append(count)
        return counts

    def _count(self, loop: _Loop, env, shape, budget) -> _Value:
        lower, trip = self._bounds(loop, env)
        uniform = _uniform(trip)
        if uniform == 0:
            return 0
        if not loop.counts_vary:
            if uniform is None and not trip.all():
                return self._count_entered(loop, env, shape, trip, budget)
            return trip * sum(self._counts(loop.items, env, shape, budget))
        if _total(trip, shape) > TRACE_BATCH:
            return self._count_split(loop, env, shape, trip, budget)
        if uniform is not None:
            inner, grid = self._grid(loop, env, shape, lower, uniform)
            per = sum(self._counts(loop.items, inner, grid, budget))
            if not isinstance(per, np.ndarray):
                return uniform * per
            return np.broadcast_to(per, grid).sum(axis=-1)
        inner, flat, trips, starts = self._flatten(
            loop, env, shape, lower, trip
        )
        per = np.broadcast_to(
            sum(self._counts(loop.items, inner, flat, budget)), flat
        )
        ends = np.concatenate(([0], np.cumsum(per)))
        return (ends[starts + trips] - ends[starts]).reshape(shape)

    def _count_entered(self, loop: _Loop, env, shape, trip, budget):
        """Count a loop whose body count does not vary over only the
        instances that enter it: the others must neither evaluate its body
        nor spend the budget on it."""
        trips = _flat(trip, shape)
        entered = np.flatnonzero(trips)
        inner = _take(env, shape, loop.free, entered)
        per = sum(self._counts(loop.items, inner, (len(entered),), budget))
        counts = np.zeros(len(trips), dtype=np.int64)
        counts[entered] = trips[entered] * per
        return counts.reshape(shape)

    def _count_split(self, loop: _Loop, env, shape, trip, budget):
        """Count a loop with more iterations over all instances than one
        step evaluates: over runs of instances holding at most
        :data:`TRACE_BATCH` iterations, and over windows of iterations for
        an instance that alone holds more."""
        trips = _flat(trip, shape)
        counts = np.zeros(len(trips), dtype=np.int64)
        for part in _runs(trips):
            self._checkpoint()
            if not _alone(trips, part):
                count = self._count(
                    loop, _take(env, shape, loop.free, part),
                    (part.stop - part.start,), budget,
                )
                budget = _spend(budget, count, (part.stop - part.start,))
                counts[part] = count
                continue
            instance = _take(env, shape, loop.free, part.start)
            for inner, size in self._windows(loop, instance):
                self._checkpoint()
                per = sum(self._counts(loop.items, inner, (size,), budget))
                window = _total(per, (size,))
                budget = _spend(budget, window, ())
                counts[part.start] += window
        return counts.reshape(shape)

    def _grid(self, loop: _Loop, env, shape, lower, trip: int):
        """Bind ``loop``'s iterations as a new trailing grid axis."""
        steps = loop.step * np.arange(trip)
        inner = {
            name: value[..., None] if isinstance(value, np.ndarray) else value
            for name, value in env.items()
            if name in loop.free
        }
        if isinstance(lower, np.ndarray):
            inner[loop.iv] = lower[..., None] + steps
        else:
            inner[loop.iv] = (lower + steps).reshape(
                (1,) * len(shape) + (trip,)
            )
        return inner, shape + (trip,)

    def _flatten(self, loop: _Loop, env, shape, lower, trip):
        """Bind ``loop``'s iterations of every instance on one flat axis."""
        trips = _flat(trip, shape)
        starts = np.cumsum(trips) - trips
        total = int(trips.sum())
        inner = {
            name: np.repeat(_flat(value, shape), trips)
            if isinstance(value, np.ndarray) else value
            for name, value in env.items()
            if name in loop.free
        }
        inner[loop.iv] = np.repeat(
            _flat(lower, shape) - loop.step * starts, trips
        ) + loop.step * np.arange(total)
        return inner, (total,), trips, starts

    # -- filling -------------------------------------------------------------

    def _fill_items(self, items, env, pos: int) -> int:
        """Fill one instance of a body under a scalar ``env`` from ``pos``;
        returns the end."""
        for item in items:
            if isinstance(item, _Access):
                self._scalar(item, env, pos)
                pos += 1
            else:
                for window in self._windows(item, env):
                    pos = self._fill_window(item, *window, pos)
        return pos

    def _fill_window(self, loop: _Loop, env, count: int, pos: int) -> int:
        """Fill the ``count`` iterations of ``loop`` ``env`` binds.

        Iterations that would pass the trace's length are halved until
        they fit; one that alone would is filled item by item, which stops
        at the length.
        """
        if pos >= self.length:
            raise _TraceTruncated()
        try:
            counts = self._counts(
                loop.items, env, (count,), self.length - pos
            )
        except _Over:
            # Halve outside the handler: its traceback holds the failed
            # count's arrays.
            counts = None
        if counts is None:
            if count == 1:
                return self._fill_items(
                    loop.items, _take(env, (count,), env, 0), pos
                )
            half = count // 2
            ivs = env[loop.iv]
            pos = self._fill_window(
                loop, {**env, loop.iv: ivs[:half]}, half, pos
            )
            return self._fill_window(
                loop, {**env, loop.iv: ivs[half:]}, count - half, pos
            )
        sizes = np.broadcast_to(sum(counts), (count,))
        for part in _runs(sizes):
            if _alone(sizes, part):
                # One iteration alone exceeds a batch: walk its body item
                # by item, batching each nested loop on its own.
                pos = self._fill_items(
                    loop.items, _take(env, (count,), env, part.start), pos
                )
                continue
            pos = self._batch(
                loop.items,
                [c[part] if isinstance(c, np.ndarray) else c for c in counts],
                {
                    name: v[part] if isinstance(v, np.ndarray) else v
                    for name, v in env.items()
                },
                sizes[part],
                pos,
            )
        return pos

    def _batch(self, items, counts, env, sizes: np.ndarray, pos: int) -> int:
        """Fill consecutive iterations of one loop, ``sizes`` accesses each;
        returns the end."""
        self._checkpoint()
        self.batch_start = pos
        if (sizes == sizes[0]).all():
            where = (pos, (int(sizes[0]),))
        else:
            where = pos + np.cumsum(sizes) - sizes
        self._fill(items, counts, env, (len(sizes),), where)
        self.filled = pos + int(sizes.sum())
        return self.filled

    def _fill(self, items, counts, env, shape, where) -> None:
        """Fill each item of a body, laid out per instance in body order."""
        offset: _Value = 0
        for item, count in zip(items, counts):
            if isinstance(offset, np.ndarray):
                here = self._explicit(where, shape) + offset
            elif isinstance(where, tuple):
                here = (where[0] + offset, where[1])
            else:
                here = where + offset if offset else where
            if isinstance(item, _Access):
                self._put(item, env, shape, here)
            else:
                self._fill_loop(item, env, shape, here)
            offset = offset + count

    def _fill_loop(self, loop: _Loop, env, shape, where) -> None:
        lower, trip = self._bounds(loop, env)
        uniform = _uniform(trip)
        if uniform == 0:
            return
        if _total(trip, shape) > TRACE_BATCH:
            self._fill_split(loop, env, shape, trip, where)
            return
        if uniform is not None:
            env, grid = self._grid(loop, env, shape, lower, uniform)
            counts = self._counts(loop.items, env, grid)
            per = sum(counts)
            if isinstance(per, np.ndarray):
                per = np.broadcast_to(per, grid)
                where = self._explicit(where, shape)[..., None] + (
                    np.cumsum(per, axis=-1) - per
                )
            elif isinstance(where, tuple):
                where = (where[0], where[1] + (int(per),))
            else:
                where = where[..., None] + per * np.arange(uniform)
            shape = grid
        else:
            env, flat, trips, starts = self._flatten(
                loop, env, shape, lower, trip
            )
            counts = self._counts(loop.items, env, flat)
            per = np.broadcast_to(sum(counts), flat)
            ends = np.concatenate(([0], np.cumsum(per)))
            where = np.repeat(
                _flat(self._explicit(where, shape), shape) - ends[starts],
                trips,
            ) + ends[:-1]
            shape = flat
        self._fill(loop.items, counts, env, shape, where)

    def _fill_split(self, loop: _Loop, env, shape, trip, where) -> None:
        """Fill a loop with more iterations than one step evaluates (its
        iterations without accesses): in the runs :meth:`_count_split`
        counts in."""
        trips = _flat(trip, shape)
        where = _flat(self._explicit(where, shape), shape)
        for part in _runs(trips):
            if not _alone(trips, part):
                self._fill_loop(
                    loop, _take(env, shape, loop.free, part),
                    (part.stop - part.start,), where[part],
                )
                continue
            pos = int(where[part.start])
            instance = _take(env, shape, loop.free, part.start)
            for inner, count in self._windows(loop, instance):
                counts = self._counts(loop.items, inner, (count,))
                sizes = np.broadcast_to(sum(counts), (count,))
                ends = pos + np.cumsum(sizes)
                self._fill(loop.items, counts, inner, (count,), ends - sizes)
                pos = int(ends[-1])

    @staticmethod
    def _explicit(where, shape) -> np.ndarray:
        """Start positions as an array broadcastable to ``shape``."""
        if not isinstance(where, tuple):
            return where
        positions = np.asarray(where[0])
        for axis, (extent, stride) in enumerate(zip(shape, where[1])):
            step = [1] * len(shape)
            step[axis] = extent
            positions = positions + stride * np.arange(extent).reshape(step)
        return positions

    def _put(self, access: _Access, env, shape, where) -> None:
        """Write one access item at every instance of ``shape``."""
        if isinstance(where, tuple):
            start, strides = where
            self._note(access.buffer_id, start)
            ids, offsets, writes = (
                np.ndarray(
                    shape, out.dtype, out, start * out.itemsize,
                    [s * out.itemsize for s in strides],
                )
                for out in (self.ids, self.offsets, self.writes)
            )
            ids[...] = access.buffer_id
            writes[...] = access.write
            const, terms = access.offset
            if not terms:
                offsets[...] = const
                return
            # The last term lands straight in the output view.
            name, coeff = terms[-1]
            np.add(
                _evaluate((const, terms[:-1]), env), coeff * env[name],
                out=offsets,
            )
        else:
            offsets = _evaluate(access.offset, env)
            self._note(access.buffer_id, int(where.min()))
            where = np.broadcast_to(where, shape)
            self.ids[where] = access.buffer_id
            self.offsets[where] = offsets
            self.writes[where] = access.write

    def _scalar(self, access: _Access, env, pos: int) -> None:
        if pos >= self.length:
            raise _TraceTruncated()
        self.batch_start = pos
        self._note(access.buffer_id, pos)
        self.ids[pos] = access.buffer_id
        self.offsets[pos] = _evaluate(access.offset, env)
        self.writes[pos] = access.write
        self.filled = pos + 1

    def _note(self, buffer_id: int, start: int) -> None:
        """Record trace position ``start`` as a first access."""
        known = self.first.get(buffer_id)
        if known is not None and known < self.batch_start:
            return  # first seen in an earlier batch; nothing can precede it
        if known is None or start < known:
            self.first[buffer_id] = start

    def _finish(self) -> AccessTrace:
        """Renumber buffers in first-access order and trim to the prefix."""
        length = self.filled
        order = [
            buffer_id
            for first, buffer_id in sorted(
                (first, buffer_id)
                for buffer_id, first in self.first.items()
                if first < length
            )
        ]
        ids, offsets, writes = self.ids, self.offsets, self.writes
        if length < len(ids):
            ids, offsets = ids[:length], offsets[:length]
            writes = writes[:length]
        if order != list(range(len(order))):
            renumber = np.zeros(len(self.buffers), dtype=np.int32)
            renumber[order] = np.arange(len(order), dtype=np.int32)
            ids[:] = renumber[ids]
        return AccessTrace(
            [self.buffers[buffer_id] for buffer_id in order],
            ids, offsets, writes,
        )
