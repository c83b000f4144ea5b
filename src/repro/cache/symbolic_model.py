"""Trace-free symbolic evaluation of the PolyUFC-CM cache model.

The trace engines (:mod:`repro.cache.static_model`,
:mod:`repro.cache.fast_model`) enumerate every access of the scheduled
access relation.  This module computes the *same* per-level
cold / capacity-conflict classification by counting points in the
quasi-affine reuse sets instead -- the compile-time formulation of the
paper's Sec. IV (there evaluated with barvinok), so analysis cost is a
function of the loop-nest *structure*, not the trip counts.

Pipeline, per unit:

1. **Extraction** -- the affine nest is walked symbolically into
   *statements* (maximal load/store runs) with mixed-radix flattened
   timestamps ``t(u) = base + sum_d w_d u_d + pos``, and one *access
   geometry* per textual access: an affine map from the iteration box to
   cache-line ids.  Triangular / trapezoidal nests -- loop bounds
   affine in outer iterators, the trisolv / lu walks -- are handled by
   *outer-iterator unrolling*: the dependent iterator is bound as a
   constant parameter per iteration, which folds every inner bound and
   subscript rectangular again (budgeted by :data:`_MAX_BOXES`).
   Non-affine subscripts or non-injective line maps raise
   :class:`SymbolicUnsupported`.
2. **Classification** -- an access misses iff its backward per-set reuse
   distance reaches the associativity.  The predecessor (previous access
   to the same line) is found in closed form; the distinct same-set lines
   inside the reuse window are counted per member geometry from the
   window's mixed-radix box decomposition with AP-mod-``S`` closed forms.
   Instances are grouped into classes that provably share every quantity
   the decision depends on, so each class is decided once.
3. **Propagation** -- write-through: misses re-emit as next-level reads
   and every store is forwarded, as per-dimension filtered sub-boxes, and
   the next level is classified the same way.

Exactness is non-negotiable: whenever a closed form does not apply the
engine *escapes* (enumerates a bounded representative window, or evaluates
the residual levels with the vectorized trace kernel on a synthesized
stream) rather than approximating, and when even that is impossible it
raises :class:`SymbolicUnsupported` so the caller falls back to the
``fast`` engine -- recorded as a structured note on the unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.cache.fast_model import model_level as _fast_model_level
from repro.cache.static_model import (
    CacheModelResult,
    LevelModelStats,
    _divide,
)
from repro.ir.core import Buffer, IRError, Module, Op
from repro.ir.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.ir.dialects.linalg import LinalgOp
from repro.runtime import Deadline, check as _check_deadline, faults


class SymbolicUnsupported(Exception):
    """The unit is outside the symbolic engine's supported class."""


#: Residue-splitting a non-line-divisible dimension multiplies the box
#: count by the period; beyond this the splits stop paying for themselves.
_MAX_RESIDUE_PERIOD = 64

#: Hard ceiling on boxes produced while splitting one unit's geometries.
_MAX_BOXES = 4096

#: Budget (window instances) for one representative-window enumeration.
_ENUM_BUDGET = 1 << 24

#: Maximum outer-product factors when a fetch mask does not factor as a
#: single per-dim selection (e.g. the first row of a misaligned buffer
#: sharing its leading line with the previous row).
_MAX_MASK_FACTORS = 8

#: Budget for brute-force multi-AP per-set counting (product of the
#: enumerated extents; the largest extent stays closed-form).
_AP_ENUM_BUDGET = 4096


# ---------------------------------------------------------------------------
# Extraction: affine IR -> statements + access geometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Dim:
    """One normalized loop dimension of an access box.

    ``w`` is the mixed-radix time weight (time advances by ``w`` per unit
    step), ``e`` the element-offset coefficient, ``n`` the extent; the
    instance set is ``{0, ..., n-1}`` filtered by ``vals`` when present
    (a sorted subset, used for next-level sub-streams).
    """

    w: int
    e: int
    n: int
    vals: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return int(self.vals.size) if self.vals is not None else self.n

    def values(self) -> np.ndarray:
        if self.vals is not None:
            return self.vals
        return np.arange(self.n, dtype=np.int64)


@dataclass(frozen=True)
class _Box:
    """One access geometry over a rectangular (possibly filtered) box.

    ``tbase`` is the global time of the ``(0, ..., 0)`` instance (the
    access's slot inside its statement already added); ``ebase`` the
    element offset at the origin; ``dims`` ordered by decreasing time
    weight.  ``stmt`` identifies the originating statement, ``acc`` the
    access slot within it (stable identity across levels).
    """

    buffer_id: int
    is_write: bool
    tbase: int
    ebase: int
    dims: Tuple[_Dim, ...]
    stmt: int
    acc: int
    #: Start time of the enclosing top-level nest and the time span of one
    #: iteration of its outermost loop -- the slab-translation unit used
    #: by the class compressor (0 outer_w = not inside a loop).
    nest_base: int = 0
    outer_w: int = 0

    @property
    def size(self) -> int:
        total = 1
        for dim in self.dims:
            total *= dim.size
        return total

    @property
    def tmax(self) -> int:
        """Time of the last instance of the box."""
        t = self.tbase
        for dim in self.dims:
            values = dim.values()
            if values.size:
                t += dim.w * int(values[-1])
        return t


@dataclass
class _Unit:
    """A symbolic unit: geometries plus the buffer layout."""

    buffers: List[Buffer]
    boxes: List[_Box]
    total_accesses: int
    total_time: int


class _Extractor:
    """Walks affine IR into statements with flattened timestamps.

    Mirrors the trace generator's program order exactly (including buffer
    registration order) so line ids are bit-for-bit those of the trace
    layout.  Two passes: the first measures every subtree's time span,
    the second assigns bases and emits access boxes.
    """

    def __init__(self, module: Module):
        self.module = module
        self.params = dict(module.params)
        self.buffers: List[Buffer] = []
        self.buffer_index: Dict[str, int] = {}
        self.boxes: List[_Box] = []
        self.total_accesses = 0
        self._stmt_counter = 0

    # -- bounds ------------------------------------------------------------

    def _const(self, expr) -> int:
        partial = expr.partial(self.params)
        if partial.names():
            raise SymbolicUnsupported(
                f"non-affine-foldable bound {expr!r} "
                f"(depends on unbound names {sorted(partial.names())})"
            )
        value = partial.const
        if not float(value).is_integer():
            raise SymbolicUnsupported(f"non-integer bound {expr!r}")
        return int(value)

    def _loop_range(self, loop: AffineForOp) -> Tuple[int, int, int]:
        lowers = [self._const(e) for e in loop.lowers]
        uppers = [self._const(e) for e in loop.uppers]
        lower, upper = max(lowers), min(uppers)
        step = loop.step
        if step <= 0:
            raise SymbolicUnsupported(f"non-positive step {step}")
        extent = max(0, -(-(upper - lower) // step))
        return lower, step, extent

    def _bounds_depend(self, op: Op, name: str) -> bool:
        """True iff any loop bound in ``op``'s subtree references ``name``."""
        if isinstance(op, AffineForOp):
            for expr in list(op.lowers) + list(op.uppers):
                if name in expr.names():
                    return True
            return any(
                self._bounds_depend(child, name) for child in op.body.ops
            )
        return False

    def _unrolls(self, op: AffineForOp) -> bool:
        """True iff the loop must be unrolled (triangular/trapezoidal).

        A loop whose *descendant bounds* depend on its own iterator does
        not sweep a rectangle; binding the iterator as a constant
        parameter per iteration folds every inner bound (and subscript)
        back into the rectangular class.
        """
        return any(
            self._bounds_depend(child, op.iv_name) for child in op.body.ops
        )

    def _bind(self, name: str, value: int):
        """Set ``params[name] = value``; returns the restore thunk."""
        missing = object()
        previous = self.params.get(name, missing)
        self.params[name] = value

        def restore() -> None:
            if previous is missing:
                del self.params[name]
            else:
                self.params[name] = previous

        return restore

    def _unrolled_span(self, op: AffineForOp) -> int:
        lower, step, extent = self._loop_range(op)
        total = 0
        for k in range(extent):
            restore = self._bind(op.iv_name, lower + step * k)
            try:
                total += sum(self._span(child) for child in op.body.ops)
            finally:
                restore()
        return total

    def _buffer_id(self, buffer: Buffer) -> int:
        index = self.buffer_index.get(buffer.name)
        if index is None:
            index = len(self.buffers)
            self.buffer_index[buffer.name] = index
            self.buffers.append(buffer)
        return index

    # -- pass 1: spans -----------------------------------------------------

    def _span(self, op: Op) -> int:
        """Time units consumed by one execution of ``op``."""
        if isinstance(op, (AffineLoadOp, AffineStoreOp)):
            return 1
        if isinstance(op, AffineForOp):
            if self._unrolls(op):
                return self._unrolled_span(op)
            _, _, extent = self._loop_range(op)
            body = sum(self._span(child) for child in op.body.ops)
            return extent * body
        if isinstance(op, LinalgOp):
            raise IRError(
                f"symbolic CM needs affine IR; lower {op!r} first"
            )
        # Pure compute / annotation ops (arith, uncore caps) take no time
        # and touch no memory -- the trace generator skips them too.
        return 0

    # -- pass 2: emission --------------------------------------------------

    def run(self, ops: Sequence[Op]) -> _Unit:
        cursor = 0
        for op in ops:
            self._nest_base = cursor
            # Unrolled (triangular) nests have a different body span per
            # outer iteration, so slab translation does not apply: 0
            # disables the class compressor for their boxes.
            self._outer_w = (
                sum(self._span(child) for child in op.body.ops)
                if isinstance(op, AffineForOp) and not self._unrolls(op)
                else 0
            )
            cursor += self._emit(op, cursor, [])
        return _Unit(self.buffers, self.boxes, self.total_accesses, cursor)

    def _emit(self, op: Op, base: int, nest) -> int:
        """Emit ``op`` starting at time ``base``; returns its time span.

        ``nest`` carries ``(w, lower, step, iv_name, extent)`` per
        enclosing loop, outer to inner, with ``w`` the per-step weight.
        """
        if isinstance(op, (AffineLoadOp, AffineStoreOp)):
            self._emit_access(op, base, nest)
            return 1
        if isinstance(op, AffineForOp):
            lower, step, extent = self._loop_range(op)
            if self._unrolls(op):
                cursor = base
                for k in range(extent):
                    restore = self._bind(op.iv_name, lower + step * k)
                    try:
                        for child in op.body.ops:
                            cursor += self._emit(child, cursor, nest)
                    finally:
                        restore()
                    if len(self.boxes) > _MAX_BOXES:
                        raise SymbolicUnsupported(
                            f"unrolling {op.iv_name} exceeds the "
                            f"{_MAX_BOXES}-box budget"
                        )
                return cursor - base
            body_span = sum(self._span(child) for child in op.body.ops)
            if extent == 0 or body_span == 0:
                return extent * body_span
            nest.append((body_span, lower, step, op.iv_name, extent))
            cursor = base
            for child in op.body.ops:
                cursor += self._emit(child, cursor, nest)
            nest.pop()
            return extent * body_span
        if isinstance(op, LinalgOp):
            raise IRError(
                f"symbolic CM needs affine IR; lower {op!r} first"
            )
        return 0

    def _emit_access(self, op, base: int, nest) -> None:
        buffer = op.buffer
        buffer_id = self._buffer_id(buffer)
        ebase = 0
        coeffs = [0] * len(nest)
        names = [entry[3] for entry in nest]
        for expr, stride in zip(op.indices, buffer.strides()):
            partial = expr.partial(self.params)
            const = partial.const
            if not float(const).is_integer():
                raise SymbolicUnsupported(f"non-integer subscript {expr!r}")
            ebase += int(const) * stride
            leftover = set(partial.names())
            for d, name in enumerate(names):
                coeff = partial.coeff(name)
                if coeff:
                    if not float(coeff).is_integer():
                        raise SymbolicUnsupported(
                            f"non-integer coefficient in {expr!r}"
                        )
                    coeffs[d] += int(coeff) * stride
                    leftover.discard(name)
            if leftover:
                raise SymbolicUnsupported(
                    f"subscript {expr!r} uses unbound names {sorted(leftover)}"
                )
        dims: List[_Dim] = []
        for (w, lower, step, _name, extent), coeff in zip(nest, coeffs):
            ebase += coeff * lower
            dims.append(_Dim(w=w, e=coeff * step, n=extent))
        box = _Box(
            buffer_id=buffer_id,
            is_write=isinstance(op, AffineStoreOp),
            tbase=base,
            ebase=ebase,
            dims=tuple(dims),
            stmt=0,
            acc=len(self.boxes),
            nest_base=self._nest_base,
            outer_w=self._outer_w,
        )
        self.boxes.append(box)
        self.total_accesses += box.size


def _extract_unit(module: Module, ops: Optional[Sequence[Op]]) -> _Unit:
    """Extract the symbolic unit for ``ops`` (default: whole module)."""
    extractor = _Extractor(module)
    return extractor.run(list(ops) if ops is not None else list(module.ops))


# ---------------------------------------------------------------------------
# Line geometry: element-affine boxes -> cache-line-affine boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LDim:
    """One dimension of a line-space box.

    ``w``: time weight; ``n``: extent; ``s``: line stride (line ids move
    by ``s`` per step); ``b``: residual byte coefficient (non-zero only on
    the single *fine* dimension, ``0 < b < line_bytes``); ``vals``: sorted
    value subset (``None`` = full range ``0..n-1``).
    """

    w: int
    n: int
    s: int
    b: int = 0
    vals: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return int(self.vals.size) if self.vals is not None else self.n

    def values(self) -> np.ndarray:
        if self.vals is not None:
            return self.vals
        return np.arange(self.n, dtype=np.int64)


@dataclass(frozen=True)
class _LineBox:
    """An access geometry in line space over a (filtered) box.

    ``line(u) = lbase + sum_d s_d u_d + (phi + b_f u_f) // L`` where ``L``
    is the line size, ``phi = byte_base % L`` and the single fine
    dimension (if any) carries ``b_f``.  The injectivity certificate
    guarantees distinct in-box coordinates map to distinct lines
    (free dims with ``s == 0 and b == 0`` excluded).
    """

    buffer_id: int
    is_write: bool
    tbase: int
    lbase: int
    phi: int
    dims: Tuple[_LDim, ...]
    acc: int
    line_bytes: int
    injective: bool
    nest_base: int = 0
    outer_w: int = 0
    #: Upper bound on how many instance-disjoint sibling sub-boxes of the
    #: same textual access (residue variants, mask factors) can map *any*
    #: one line -- the over-count factor of summing their distinct-line
    #: counts.  1 for aligned accesses; 2 for a split dim whose finer
    #: span almost reaches its stride (row-major misalignment).
    mult: int = 1

    @property
    def size(self) -> int:
        total = 1
        for dim in self.dims:
            total *= dim.size
        return total

    @property
    def tmax(self) -> int:
        """Time of the last instance of the box."""
        t = self.tbase
        for dim in self.dims:
            values = dim.values()
            if values.size:
                t += dim.w * int(values[-1])
        return t

    @property
    def fine(self) -> Optional[int]:
        for index, dim in enumerate(self.dims):
            if dim.b:
                return index
        return None

    def block_span(self) -> int:
        """Max of ``(phi + b_f u_f) // L`` over the fine values (0 if none)."""
        f = self.fine
        if f is None:
            return 0
        dim = self.dims[f]
        values = dim.values()
        if not values.size:
            return 0
        return (self.phi + dim.b * int(values[-1])) // self.line_bytes

    def times(self, coords: np.ndarray) -> np.ndarray:
        """Global times for coordinate rows ``(rows, ndims)``."""
        t = np.full(coords.shape[0], self.tbase, dtype=np.int64)
        for d, dim in enumerate(self.dims):
            if dim.w:
                t += dim.w * coords[:, d]
        return t

    def lines(self, coords: np.ndarray) -> np.ndarray:
        """Global line ids for coordinate rows."""
        lines = np.full(coords.shape[0], self.lbase, dtype=np.int64)
        rem = np.full(coords.shape[0], self.phi, dtype=np.int64)
        for d, dim in enumerate(self.dims):
            if dim.s:
                lines += dim.s * coords[:, d]
            if dim.b:
                rem += dim.b * coords[:, d]
        return lines + rem // self.line_bytes


def _split_residue(
    dims: List[Tuple[int, int, int]], line_bytes: int
) -> List[List[Tuple[int, int, int, int, int]]]:
    """Residue-split dims so at most one keeps a sub-line coefficient.

    Input dims are ``(w, byte_coeff, n)``; output is a list of
    alternatives (cartesian residue choices), each a list of
    ``(w, byte_coeff, n, byte_shift, time_shift)`` where the shifts are
    the contributions of the fixed residue.  The dimension with the
    smallest-magnitude misaligned byte coefficient is kept as the fine
    dim; every other line-misaligned dim ``u = r + period * q`` is split
    into ``period`` sub-boxes whose ``q`` stride is line-aligned.
    """
    misaligned = [
        i for i, (_w, b, _n) in enumerate(dims) if b % line_bytes != 0
    ]
    fine_dim = None
    if misaligned:
        fine_dim = min(misaligned, key=lambda i: abs(dims[i][1]))
    variants: List[List[Tuple[int, int, int, int, int]]] = [[]]
    for i, (w, b, n) in enumerate(dims):
        if i == fine_dim or b % line_bytes == 0:
            for variant in variants:
                variant.append((w, b, n, 0, 0))
            continue
        period = line_bytes // math.gcd(abs(b), line_bytes)
        if period > _MAX_RESIDUE_PERIOD or len(variants) * period > _MAX_BOXES:
            raise SymbolicUnsupported(
                f"residue period {period} over {len(variants)} variants "
                "exceeds the splitting budget"
            )
        new_variants = []
        for variant in variants:
            for r in range(min(period, n)):
                q_extent = (n - r + period - 1) // period
                new_variants.append(
                    variant + [(w * period, b * period, q_extent, b * r, w * r)]
                )
        variants = new_variants
    return variants


def _normalize_box(
    box: _Box, line_bytes: int, bases: np.ndarray, elem_bytes: int
) -> List[_LineBox]:
    """Lower an element-affine box to line-affine boxes.

    ``bases`` are per-buffer byte bases (the trace layout).  Negative
    line strides and multiple surviving fine dims are unsupported; free
    dims (coefficient 0) pass through as pure time multiplicity.
    """
    byte_dims = [
        (dim.w, dim.e * elem_bytes, dim.n) for dim in box.dims
    ]
    base_bytes = int(bases[box.buffer_id]) + box.ebase * elem_bytes
    # Per-line multiplicity across the residue variants: for every dim
    # that _split_residue will split (misaligned, except the fine dim it
    # keeps), a line is reachable from at most ``hits`` of its values --
    # hence from at most that many residue classes.  Values of unsplit
    # dims do not distinguish variants, so they do not multiply.
    misaligned = [
        i for i, (_w, b, _n) in enumerate(byte_dims) if b % line_bytes
    ]
    fine_dim = (
        min(misaligned, key=lambda i: abs(byte_dims[i][1]))
        if misaligned
        else None
    )
    mult = 1
    for i, (w, b, n) in enumerate(byte_dims):
        if i == fine_dim or b % line_bytes == 0 or n <= 1:
            continue
        finer = sum(
            abs(b2) * (n2 - 1)
            for _w2, b2, n2 in byte_dims
            if b2 and abs(b2) < abs(b)
        ) + (elem_bytes - 1)
        mult *= int((line_bytes - 1 + finer) // abs(b) + 1)
    out: List[_LineBox] = []
    for variant in _split_residue(byte_dims, line_bytes):
        vbase = base_bytes + sum(bs for (_w, _b, _n, bs, _ts) in variant)
        tbase = box.tbase + sum(ts for (_w, _b, _n, _bs, ts) in variant)
        lbase, phi = divmod(vbase, line_bytes)
        dims: List[_LDim] = []
        fine_seen = False
        for w, b, n, _bs, _ts in variant:
            if b % line_bytes == 0:
                s = b // line_bytes
                if s < 0:
                    raise SymbolicUnsupported(
                        f"negative line stride {s} (reversed access)"
                    )
                dims.append(_LDim(w=w, n=n, s=s, b=0))
            else:
                if fine_seen:
                    raise SymbolicUnsupported("two sub-line dims survive")
                if b < 0:
                    raise SymbolicUnsupported(
                        f"negative fine coefficient {b}"
                    )
                fine_seen = True
                dims.append(_LDim(w=w, n=n, s=0, b=b))
        # Degenerate dims (single value 0) contribute nothing to time or
        # lines but can wreck the mixed-radix weight ordering: a residue
        # split multiplies the quotient dim's weight by the period, and
        # when the extent collapses to 1 (n <= period) that inflated
        # weight may exceed an *outer* loop's weight, so sorting by -w
        # would place a non-dominant digit above a wider one.
        ordered = tuple(
            sorted((d for d in dims if d.n > 1), key=lambda d: -d.w)
        )
        span = 0
        for d in reversed(ordered):
            if d.w <= span:
                raise SymbolicUnsupported(
                    "time weights are not mixed-radix separable"
                )
            span += d.w * (d.n - 1)
        fine_idx = next((i for i, d in enumerate(ordered) if d.b), None)
        if fine_idx == 0 and any(d.s for d in ordered[1:]):
            # A sub-line dim as the *outermost* loop over line-strided
            # inner dims (a column-wise walk, e.g. A[j][i] with i outer)
            # puts every reuse-window delta at the fine level, where the
            # interval families genuinely overlap in lines -- the closed
            # forms degenerate to enumeration and the trace engines
            # handle this traversal class faster than we can.
            raise SymbolicUnsupported(
                "sub-line dim is the outermost loop of a line-strided "
                "access (column-wise traversal)"
            )
        lbox = _LineBox(
            buffer_id=box.buffer_id,
            is_write=box.is_write,
            tbase=tbase,
            lbase=lbase,
            phi=phi,
            dims=ordered,
            acc=box.acc,
            line_bytes=line_bytes,
            injective=False,
            nest_base=box.nest_base,
            outer_w=box.outer_w,
            mult=mult,
        )
        out.append(replace(lbox, injective=_is_injective(lbox)))
    return out


# ---------------------------------------------------------------------------
# Mixed-radix rank machinery (vectorized over query rows)
# ---------------------------------------------------------------------------


def _inner_sizes(box: _LineBox) -> List[int]:
    """Instances per unit step of each dim (product of inner dim sizes)."""
    sizes = [1] * len(box.dims)
    for d in range(len(box.dims) - 2, -1, -1):
        sizes[d] = sizes[d + 1] * box.dims[d + 1].size
    return sizes


def _dim_lt(dim: _LDim, q: np.ndarray) -> np.ndarray:
    """How many allowed values of ``dim`` are strictly below ``q``."""
    if dim.vals is None:
        return np.clip(q, 0, dim.n)
    return np.searchsorted(dim.vals, q, side="left")


def _dim_has(dim: _LDim, q: np.ndarray) -> np.ndarray:
    """Whether ``q`` is an allowed value of ``dim`` (bool array)."""
    if dim.vals is None:
        return (q >= 0) & (q < dim.n)
    idx = np.searchsorted(dim.vals, q, side="left")
    idx_c = np.minimum(idx, dim.vals.size - 1)
    return (idx < dim.vals.size) & (dim.vals[np.maximum(idx_c, 0)] == q)


def _rank_lt(box: _LineBox, t: np.ndarray) -> np.ndarray:
    """#instances of ``box`` with time strictly below ``t`` (per row).

    Standard mixed-radix digit descent: at each level the instances with
    a smaller digit contribute a full inner block; descent continues only
    while the digit is an allowed value.  Exact for filtered dims because
    weights dominate inner spans by construction.
    """
    t = np.asarray(t, dtype=np.int64)
    rem = t - box.tbase
    count = np.zeros(t.shape, dtype=np.int64)
    alive = np.ones(t.shape, dtype=bool)
    inner = _inner_sizes(box)
    for d, dim in enumerate(box.dims):
        if not alive.any():
            break
        q = rem // dim.w
        count += np.where(alive, _dim_lt(dim, q) * inner[d], 0)
        alive = alive & _dim_has(dim, q)
        rem = rem - q * dim.w
    count += alive & (rem > 0)
    return count


def _unrank(box: _LineBox, r: np.ndarray) -> np.ndarray:
    """Coordinates (values, not indices) of the ``r``-th instances."""
    r = np.asarray(r, dtype=np.int64)
    coords = np.empty((r.size, len(box.dims)), dtype=np.int64)
    rem = r.copy()
    inner = _inner_sizes(box)
    for d, dim in enumerate(box.dims):
        idx, rem = np.divmod(rem, inner[d])
        if dim.vals is None:
            coords[:, d] = idx
        else:
            coords[:, d] = dim.vals[idx]
    return coords


def _indices(box: _LineBox, coords: np.ndarray) -> np.ndarray:
    """Per-dim positions of coordinate values within the allowed sets."""
    idx = np.empty_like(coords)
    for d, dim in enumerate(box.dims):
        if dim.vals is None:
            idx[:, d] = coords[:, d]
        else:
            idx[:, d] = np.searchsorted(dim.vals, coords[:, d])
    return idx


# ---------------------------------------------------------------------------
# Per-set distinct-line counting over rank-interval families
# ---------------------------------------------------------------------------

#: One family of sub-boxes, vectorized over rows: per dim an index
#: interval [lo, hi] into the dim's allowed values (inclusive), plus a
#: validity mask and a structural tag ``(kind, level)`` with kind "P"
#: (point), "M" (middle, level = the first differing dim) or "A"/"B"
#: (boundary tails, level = the dim they vary).  Two families are
#: instance-disjoint at a known dim: tails against anything deeper at
#: their own level, everything else at the row's first differing dim.
#: Fixed digits are lo == hi.
_Family = Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]], Tuple[str, int]]


def _interval_families(
    box: _LineBox, a: np.ndarray, b: np.ndarray
) -> Tuple[List[_Family], np.ndarray]:
    """Decompose rank intervals ``[a, b)`` into per-dim index boxes.

    Returns up to ``2 * ndims + 1`` families plus the per-row first
    differing digit (``ndims`` for single-point intervals).  Rows with
    ``a >= b`` are masked invalid everywhere.  Index intervals address
    positions within each dim's allowed-value array.
    """
    ndims = len(box.dims)
    nonempty = a < b
    safe_a = np.where(nonempty, a, 0)
    safe_b = np.where(nonempty, b - 1, 0)
    da = _indices(box, _unrank(box, safe_a))
    db = _indices(box, _unrank(box, safe_b))
    sizes = np.array([dim.size for dim in box.dims], dtype=np.int64)

    same = np.ones(a.shape, dtype=bool)
    first_diff = np.full(a.shape, ndims, dtype=np.int64)
    for d in range(ndims):
        differs = same & (da[:, d] != db[:, d])
        first_diff = np.where(differs, d, first_diff)
        same &= ~differs

    families: List[_Family] = []

    def add(valid, spec, tag):
        if valid.any():
            families.append((valid, spec, tag))

    # Single point / full-prefix-equal interval: one box where dims up to
    # first_diff are fixed and the rest... cannot differ, so a == b - 1.
    point_valid = nonempty & (first_diff == ndims)
    add(
        point_valid,
        [(da[:, d], da[:, d]) for d in range(ndims)],
        ("P", ndims),
    )

    for delta in range(ndims):
        is_delta = nonempty & (first_diff == delta)
        # Middle: prefix fixed, dim delta strictly between (inclusive at
        # the innermost level, where there is no deeper tail), inner full.
        last = delta == ndims - 1
        mid_lo = da[:, delta] + (0 if last else 1)
        mid_hi = db[:, delta] - (0 if last else 1)
        valid = is_delta & (mid_lo <= mid_hi)
        spec = []
        for d in range(ndims):
            if d < delta:
                spec.append((da[:, d], da[:, d]))
            elif d == delta:
                spec.append((mid_lo, mid_hi))
            else:
                spec.append((np.zeros_like(a), sizes[d] - 1 + np.zeros_like(a)))
        add(valid, spec, ("M", delta))
        # A-side / B-side tails for every deeper level.
        for level in range(delta + 1, ndims):
            lo = da[:, level] + (1 if level < ndims - 1 else 0)
            valid = is_delta & (lo <= sizes[level] - 1)
            spec = []
            for d in range(ndims):
                if d < level:
                    spec.append((da[:, d], da[:, d]))
                elif d == level:
                    spec.append((lo, sizes[level] - 1 + np.zeros_like(a)))
                else:
                    spec.append(
                        (np.zeros_like(a), sizes[d] - 1 + np.zeros_like(a))
                    )
            add(valid, spec, ("A", level))
            hi = db[:, level] - (1 if level < ndims - 1 else 0)
            valid = is_delta & (hi >= 0)
            spec = []
            for d in range(ndims):
                if d < level:
                    spec.append((db[:, d], db[:, d]))
                elif d == level:
                    spec.append((np.zeros_like(a), hi))
                else:
                    spec.append(
                        (np.zeros_like(a), sizes[d] - 1 + np.zeros_like(a))
                    )
            add(valid, spec, ("B", level))
    return families, first_diff


def _dim_value_ap(dim: _LDim) -> Tuple[int, int]:
    """The dim's allowed values as ``(v0, dv)`` of an AP, else raise.

    Full dims are ``(0, 1)``.  Filtered dims must be arithmetic (the
    factorized next-level selectors usually are); arbitrary subsets
    escalate to the explicit-stream escape via the caller.
    """
    if dim.vals is None:
        return 0, 1
    vals = dim.vals
    if vals.size == 1:
        return int(vals[0]), 1
    diffs = np.diff(vals)
    if not (diffs == diffs[0]).all():
        raise SymbolicUnsupported("non-arithmetic dim filter")
    return int(vals[0]), int(diffs[0])


def _ap_count_mod(
    first: np.ndarray, step: int, cnt: np.ndarray, sigma: np.ndarray, S: int
) -> np.ndarray:
    """#terms of ``first + step * t`` (``t in [0, cnt)``) congruent to
    ``sigma`` mod ``S``; vectorized over rows with scalar step/S."""
    cnt = np.maximum(cnt, 0)
    if S == 1:
        return cnt.astype(np.int64)
    step_m = step % S
    delta = (sigma - first) % S
    if step_m == 0:
        return np.where(delta == 0, cnt, 0).astype(np.int64)
    d = math.gcd(step_m, S)
    Sd = S // d
    inv = pow(step_m // d, -1, Sd)
    ok = delta % d == 0
    t0 = (delta // d * inv) % Sd
    hit = ok & (t0 < cnt)
    return np.where(hit, (cnt - 1 - t0) // Sd + 1, 0).astype(np.int64)


def _count_sigma(
    box: _LineBox,
    families: List[_Family],
    first_diff: np.ndarray,
    sigma: np.ndarray,
    S: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct lines of ``box`` congruent to ``sigma`` within families.

    Returns ``(lower, upper)`` bounds.  Families are disjoint in
    instance space, and any two are disjoint at a *known* dim: a
    boundary tail against every deeper family at its own level,
    everything else at the row's first differing digit.  When that dim
    is strided, injectivity makes the two line sets disjoint, so counts
    add; when it is free or fine, the same lines can appear in both
    (the lower bound takes a max there, the upper bound still adds).
    Fully strided boxes therefore get ``lower == upper`` exactly.  Per
    family, every contributing dimension is an AP of line ids; all but
    the longest are enumerated (padded, budgeted) and the longest is
    counted with the mod-``S`` closed form.
    """
    if not box.injective:
        raise SymbolicUnsupported("non-injective access geometry")
    rows = sigma.shape[0]
    ndims = len(box.dims)
    mid = np.zeros(rows, dtype=np.int64)
    tails: Dict[Tuple[str, int], np.ndarray] = {}
    total = np.zeros(rows, dtype=np.int64)
    L = box.line_bytes
    fine = box.fine
    for valid, spec, tag in families:
        aps: List[Tuple[np.ndarray, int, np.ndarray]] = []
        base = np.full(rows, box.lbase, dtype=np.int64)
        degenerate = np.zeros(rows, dtype=bool)
        for d, dim in enumerate(box.dims):
            lo, hi = spec[d]
            cnt = hi - lo + 1
            degenerate |= valid & (cnt <= 0)
            if dim.s == 0 and dim.b == 0:
                continue
            v0, dv = _dim_value_ap(dim)
            first_val = v0 + dv * lo
            if d == fine:
                bstep = dim.b * dv
                if bstep % L == 0:
                    aps.append(
                        (
                            (box.phi + dim.b * first_val) // L,
                            bstep // L,
                            cnt,
                        )
                    )
                elif bstep < L:
                    blk_lo = (box.phi + dim.b * first_val) // L
                    blk_hi = (
                        box.phi + dim.b * (first_val + dv * (hi - lo))
                    ) // L
                    aps.append((blk_lo, 1, blk_hi - blk_lo + 1))
                else:
                    raise SymbolicUnsupported(
                        "fine dim filter crosses lines irregularly"
                    )
            else:
                aps.append((dim.s * first_val, dim.s * dv, cnt))
        use = valid & ~degenerate
        if not use.any():
            continue
        if not aps:
            # No line-contributing dims: a single line per family.
            contrib = np.where(
                use, ((base - sigma) % S == 0) if S > 1 else 1, 0
            ).astype(np.int64)
            total += contrib
            if tag[0] in ("P", "M"):
                mid += contrib
            else:
                tails[tag] = tails.get(tag, 0) + contrib
            continue
        # Keep the AP with the largest worst-case count closed-form.
        widths = [int(np.max(np.where(use, cnt, 0))) for (_f, _s, cnt) in aps]
        closed = int(np.argmax(widths))
        enum_budget = 1
        for j, width in enumerate(widths):
            if j != closed:
                enum_budget *= max(width, 1)
        if enum_budget > _AP_ENUM_BUDGET:
            raise SymbolicUnsupported(
                f"AP enumeration budget exceeded ({enum_budget})"
            )
        offsets = base[:, None]
        combo_ok = use[:, None]
        for j, (first, step, cnt) in enumerate(aps):
            if j == closed:
                continue
            width = max(widths[j], 1)
            t = np.arange(width, dtype=np.int64)
            term = first[:, None] + step * t[None, :]
            term_ok = t[None, :] < cnt[:, None]
            offsets = (offsets[:, :, None] + term[:, None, :]).reshape(
                rows, -1
            )
            combo_ok = (combo_ok[:, :, None] & term_ok[:, None, :]).reshape(
                rows, -1
            )
        first_c, step_c, cnt_c = aps[closed]
        counts = _ap_count_mod(
            offsets + first_c[:, None],
            step_c,
            np.broadcast_to(cnt_c[:, None], offsets.shape),
            sigma[:, None],
            S,
        )
        contrib = np.where(combo_ok, counts, 0).sum(axis=1)
        total += contrib
        if tag[0] in ("P", "M"):
            mid += contrib
        else:
            tails[tag] = tails.get(tag, 0) + contrib
    # Lower bound: chain the boundary tails innermost-out.  A tail at
    # level ``l`` is disjoint from every deeper family at dim ``l``:
    # strided there -> line-disjoint, counts add; *free* there -> the
    # deeper families' lines are subsets of the tail's (same strided
    # prefix, deeper dims covered fully), so the max IS the union;
    # *fine* there -> genuine partial overlap, the max is only a bound.
    # The middle/point part combines with both chains the same way at
    # the row's first differing digit.  Rows whose assembly never hit a
    # lossy fine-level max have an exact count, so the upper bound
    # collapses onto the lower one for them.
    strided = [bool(dim.s) for dim in box.dims]
    is_fine = [bool(dim.b) and not dim.s for dim in box.dims]
    zero = np.zeros(rows, dtype=np.int64)
    acc_a = zero
    acc_b = zero
    exact = np.ones(rows, dtype=bool)
    for level in range(ndims - 1, -1, -1):
        ca = tails.get(("A", level))
        cb = tails.get(("B", level))
        if strided[level]:
            acc_a = acc_a if ca is None else ca + acc_a
            acc_b = acc_b if cb is None else cb + acc_b
        else:
            if is_fine[level]:
                if ca is not None:
                    exact &= ~((ca > 0) & (acc_a > 0))
                if cb is not None:
                    exact &= ~((cb > 0) & (acc_b > 0))
            acc_a = acc_a if ca is None else np.maximum(ca, acc_a)
            acc_b = acc_b if cb is None else np.maximum(cb, acc_b)
    delta_strided = np.array(strided + [True], dtype=bool)[
        np.minimum(first_diff, ndims)
    ]
    delta_fine = np.array(is_fine + [False], dtype=bool)[
        np.minimum(first_diff, ndims)
    ]
    lower = np.where(
        delta_strided,
        mid + acc_a + acc_b,
        np.maximum(mid, np.maximum(acc_a, acc_b)),
    )
    # Free first-differing digit: the middle family (deeper dims full)
    # contains both chains, so the max is exact unless the middle is
    # empty while both chains contribute.  Fine digit: any two nonzero
    # parts may partially overlap.
    nz = (
        (mid > 0).astype(np.int64)
        + (acc_a > 0).astype(np.int64)
        + (acc_b > 0).astype(np.int64)
    )
    lossy_free = (
        ~delta_strided & ~delta_fine & (mid == 0) & (acc_a > 0) & (acc_b > 0)
    )
    lossy_fine = delta_fine & (nz >= 2)
    exact &= ~(lossy_free | lossy_fine)
    return lower, np.where(exact, lower, total)


# ---------------------------------------------------------------------------
# Closed-form predecessor (last touch of a line before a time)
# ---------------------------------------------------------------------------


def _last_touch(
    member: _LineBox, line: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Latest time ``< t`` at which ``member`` touches ``line`` (-1 none).

    Two phases, both exact thanks to the injectivity certificate and the
    mixed-radix weight dominance: (1) greedy stride descent recovers the
    unique strided coordinates that can produce the line (or proves there
    are none); (2) the remaining per-row sub-box (free dims full, fine dim
    restricted to the block's preimage interval) is ranked against ``t``
    and the latest instance is the one at rank ``r - 1``.
    """
    if not member.injective:
        raise SymbolicUnsupported("non-injective access geometry")
    rows = line.shape[0]
    L = member.line_bytes
    fine = member.fine
    valid = np.ones(rows, dtype=bool)
    target = line - member.lbase

    order = sorted(
        (d for d, dim in enumerate(member.dims) if dim.s),
        key=lambda d: -member.dims[d].s,
    )
    # Residual line span below each strided dim (deeper strides + blocks).
    fixed_vals: Dict[int, np.ndarray] = {}
    for pos, d in enumerate(order):
        dim = member.dims[d]
        span = member.block_span()
        for d2 in order[pos + 1 :]:
            dim2 = member.dims[d2]
            values2 = dim2.values()
            if values2.size:
                span += dim2.s * int(values2[-1] - values2[0])
        vmin = 0 if dim.vals is None else int(dim.values()[0])
        shifted = target - dim.s * vmin
        v = vmin + shifted // dim.s
        rem = shifted % dim.s
        # The unique candidate leaves the residual within [0, span]; a
        # too-large residual can only be absorbed by bumping v by one when
        # the stride is tight -- impossible here because span < s.
        valid &= rem <= span
        valid &= _dim_has(dim, v)
        fixed_vals[d] = v
        target = target - dim.s * np.where(valid, v, vmin)

    # ``target`` must now be realizable as the fine block offset.
    if fine is not None:
        bdim = member.dims[fine]
        blk = target
        f_lo = -(-(blk * L - member.phi) // bdim.b)
        f_hi = ((blk + 1) * L - 1 - member.phi) // bdim.b
        valid &= f_lo <= f_hi
    else:
        valid &= target == 0
        f_lo = f_hi = None

    # Phase 2: per-row sub-box rank.  Strided dims are pinned to the
    # recovered digit, the fine dim is restricted to the block preimage
    # interval, free dims stay full.  Greedy maximization is wrong here
    # (a tight fine lower bound may require backtracking an outer free
    # digit); counting instances below ``t`` and unranking ``r - 1`` is
    # exact by the same weight-dominance argument as :func:`_rank_lt`.
    ndims = len(member.dims)
    sizes = np.ones((rows, ndims), dtype=np.int64)
    lo_idx = np.zeros((rows, ndims), dtype=np.int64)
    for d, dim in enumerate(member.dims):
        if dim.s:
            continue
        if d == fine:
            if dim.vals is None:
                lo = np.clip(f_lo, 0, dim.n)
                hi = np.clip(f_hi, -1, dim.n - 1)
            else:
                lo = np.searchsorted(dim.vals, f_lo, side="left")
                hi = np.searchsorted(dim.vals, f_hi, side="right") - 1
            nonempty = lo <= hi
            valid &= nonempty
            lo_idx[:, d] = np.where(nonempty, lo, 0)
            sizes[:, d] = np.where(nonempty, hi - lo + 1, 1)
        else:
            sizes[:, d] = dim.size
    inner = np.ones((rows, ndims), dtype=np.int64)
    for d in range(ndims - 2, -1, -1):
        inner[:, d] = inner[:, d + 1] * sizes[:, d + 1]

    rem = t - member.tbase
    count = np.zeros(rows, dtype=np.int64)
    alive = valid.copy()
    for d, dim in enumerate(member.dims):
        q = rem // dim.w
        if dim.s:
            v = fixed_vals[d]
            cnt_lt = (q > v).astype(np.int64)
            has = q == v
        elif dim.vals is None:
            pos = np.clip(q, 0, dim.n)
            cnt_lt = np.clip(pos - lo_idx[:, d], 0, sizes[:, d])
            has = (q >= lo_idx[:, d]) & (q < lo_idx[:, d] + sizes[:, d])
        else:
            pos = np.searchsorted(dim.vals, q, side="left")
            cnt_lt = np.clip(pos - lo_idx[:, d], 0, sizes[:, d])
            in_set = (pos < dim.vals.size) & (
                dim.vals[np.minimum(pos, dim.vals.size - 1)] == q
            )
            has = (
                in_set
                & (pos >= lo_idx[:, d])
                & (pos < lo_idx[:, d] + sizes[:, d])
            )
        count += np.where(alive, cnt_lt * inner[:, d], 0)
        alive &= has
        rem = rem - q * dim.w
    count += (alive & (rem > 0)).astype(np.int64)

    exists = valid & (count >= 1)
    rem2 = np.where(exists, count - 1, 0)
    tpred = np.full(rows, member.tbase, dtype=np.int64)
    for d, dim in enumerate(member.dims):
        idx, rem2 = np.divmod(rem2, inner[:, d])
        if dim.s:
            value = fixed_vals[d]
        else:
            pos = lo_idx[:, d] + idx
            if dim.vals is None:
                value = pos
            else:
                value = dim.vals[np.clip(pos, 0, dim.vals.size - 1)]
        tpred = tpred + dim.w * value
    return np.where(exists, tpred, np.int64(-1))


def _is_injective(box: _LineBox) -> bool:
    """Distinct non-free coordinates imply distinct lines.

    Classic super-increasing certificate: sorted ascending, every stride
    must exceed the total line span of everything below it (including the
    fine dim's block span).
    """
    span = box.block_span()
    strided = sorted(
        (dim for dim in box.dims if dim.s), key=lambda d: d.s
    )
    for dim in strided:
        if dim.n <= 1:
            continue
        if dim.s <= span:
            return False
        values = dim.values()
        if values.size == 0:
            return True
        span += dim.s * int(values[-1] - values[0])
    return True


# ---------------------------------------------------------------------------
# Level classification
# ---------------------------------------------------------------------------

_INF = np.int64(1) << 60


def _grid(box: _LineBox) -> np.ndarray:
    """All coordinates of the box, C-order over its dim values."""
    if not box.dims:
        return np.zeros((1, 0), dtype=np.int64)
    inner = _inner_sizes(box)
    total = inner[0] * box.dims[0].size
    out = np.empty((total, len(box.dims)), dtype=np.int64)
    for d, dim in enumerate(box.dims):
        block = np.repeat(dim.values(), inner[d])
        out[:, d] = np.tile(block, total // block.size) if block.size else 0
    return out


def _lattice_sig(box: _LineBox):
    """Members with equal signatures share the rank -> line map exactly,
    so their window rank intervals may be unioned (gap-checked)."""
    return (
        box.buffer_id,
        box.lbase,
        box.phi,
        tuple(
            (
                dim.n,
                dim.s,
                dim.b,
                None if dim.vals is None else dim.vals.tobytes(),
            )
            for dim in box.dims
        ),
    )


def _lines_at_ranks(box: _LineBox, ranks: np.ndarray) -> np.ndarray:
    """Line ids of the ``ranks``-th instances (fused unrank + lines)."""
    rem = ranks
    acc = np.full(ranks.shape, box.lbase, dtype=np.int64)
    off = np.full(ranks.shape, box.phi, dtype=np.int64)
    inner = _inner_sizes(box)
    for d, dim in enumerate(box.dims):
        idx, rem = np.divmod(rem, inner[d])
        if not dim.s and not dim.b:
            continue
        value = idx if dim.vals is None else dim.vals[idx]
        if dim.s:
            acc += dim.s * value
        if dim.b:
            off += dim.b * value
    return acc + off // box.line_bytes


def _line_range(box: _LineBox) -> Tuple[int, int]:
    """Inclusive [min, max] line ids the box can touch (coeffs are >= 0)."""
    lo = hi = box.lbase
    olo = ohi = box.phi
    for dim in box.dims:
        values = dim.values()
        if not values.size:
            continue
        v0, v1 = int(values[0]), int(values[-1])
        lo += dim.s * v0
        hi += dim.s * v1
        olo += dim.b * v0
        ohi += dim.b * v1
    L = box.line_bytes
    return lo + olo // L, hi + ohi // L


def _monotone_lines(box: _LineBox) -> bool:
    """Line ids never decrease along the box's rank (time) order.

    Stepping dim ``d`` resets every deeper dim from its last value to its
    first, so monotonicity needs each dim's minimum line increase to
    absorb the worst-case deeper drop.  Row-major walks qualify; free or
    fine dims above line-contributing ones do not.
    """
    L = box.line_bytes
    fine = box.fine
    drop = 0
    for d in range(len(box.dims) - 1, -1, -1):
        dim = box.dims[d]
        if dim.s:
            min_step = dim.s
        else:
            # Free dims repeat the deeper walk; fine steps can stay
            # within a line.  Either way the minimum increase is 0.
            min_step = 0
        if min_step < drop:
            return False
        values = dim.values()
        if not values.size:
            continue
        if d == fine:
            fmin = (box.phi + dim.b * int(values[0])) // L
            fmax = (box.phi + dim.b * int(values[-1])) // L
            drop += fmax - fmin
        else:
            drop += dim.s * int(values[-1] - values[0])
    return True


def _contiguous_lines(box: _LineBox) -> bool:
    """No step ever skips a line the deeper walk has not covered.

    Together with :func:`_monotone_lines` this makes the line image of
    any contiguous rank interval a contiguous line interval: each step of
    dim ``d`` advances at most one line past the ``[0, drop]`` range the
    deeper dims just swept.  Checked with upper bounds, so ``False`` only
    costs the closed form, never correctness.
    """
    L = box.line_bytes
    fine = box.fine
    drop = 0
    for d in range(len(box.dims) - 1, -1, -1):
        dim = box.dims[d]
        values = dim.values()
        if not values.size:
            continue
        gmax = int(np.max(np.diff(values))) if values.size > 1 else 0
        if gmax:
            if d == fine:
                if (dim.b * gmax) // L > drop:
                    return False
            elif dim.s * gmax > drop + 1:
                return False
        if d == fine:
            fmin = (box.phi + dim.b * int(values[0])) // L
            fmax = (box.phi + dim.b * int(values[-1])) // L
            drop += fmax - fmin
        else:
            drop += dim.s * int(values[-1] - values[0])
    return True


def _enumerate_windows(
    members: List[_LineBox],
    a_by: Dict[int, np.ndarray],
    b_by: Dict[int, np.ndarray],
    mask: np.ndarray,
    sigma: np.ndarray,
    s_sets: int,
) -> np.ndarray:
    """Exact per-row distinct same-set line counts by enumeration (E1).

    Only the rows selected by ``mask`` are enumerated; the summed window
    volume is budgeted, and overflow raises so the caller escapes to the
    explicit-stream evaluator instead of approximating.  A single member
    whose lines are monotone along rank order skips the sort: its kept
    subsequence per row is already sorted, so the distinct count is the
    number of run starts.
    """
    rows_u = np.flatnonzero(mask)
    n_u = rows_u.size
    sigma_u = sigma[rows_u]
    if all(
        _monotone_lines(member) and _contiguous_lines(member)
        for member in members
    ):
        # Every member's window image is a contiguous line interval, so
        # the union is a k-interval sweep with a mod-class closed form
        # per segment -- no rank enumeration at all.
        k = len(members)
        los = np.full((k, n_u), _INF, dtype=np.int64)
        his = np.full((k, n_u), -_INF, dtype=np.int64)
        for i, member in enumerate(members):
            a = a_by[id(member)][rows_u]
            b = b_by[id(member)][rows_u]
            ok = a < b
            if not ok.any():
                continue
            lo = _lines_at_ranks(member, np.where(ok, a, 0))
            hi = _lines_at_ranks(member, np.where(ok, b - 1, 0))
            los[i] = np.where(ok, lo, _INF)
            his[i] = np.where(ok, hi, -_INF)
        order = np.argsort(los, axis=0)
        los = np.take_along_axis(los, order, axis=0)
        his = np.take_along_axis(his, order, axis=0)
        cur = np.full(n_u, -_INF, dtype=np.int64)
        dist = np.zeros(n_u, dtype=np.int64)
        for i in range(k):
            valid = los[i] < _INF
            start = np.maximum(los[i], cur + 1)
            counted = (his[i] - sigma_u) // s_sets - (
                start - 1 - sigma_u
            ) // s_sets
            dist += np.where(valid & (his[i] >= start), counted, 0)
            cur = np.maximum(cur, np.where(valid, his[i], -_INF))
        return dist
    work = 0
    for member in members:
        span = b_by[id(member)][rows_u] - a_by[id(member)][rows_u]
        work += int(np.clip(span, 0, None).sum())
    if work > _ENUM_BUDGET:
        raise SymbolicUnsupported(
            f"window enumeration budget exceeded ({work})"
        )
    sortfree = len(members) == 1 and _monotone_lines(members[0])
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    dist = np.zeros(n_u, dtype=np.int64)
    for member in members:
        a = a_by[id(member)][rows_u]
        c = np.clip(b_by[id(member)][rows_u] - a, 0, None)
        total = int(c.sum())
        if not total:
            continue
        # Hard rows of one box share most of their windows: the summed
        # span is often far larger than the global rank range they
        # cover.  Unrank each rank once over that range and bucket the
        # positions by set residue -- each row then slices only its own
        # set's positions out of its window, so the per-instance arrays
        # scale with the *kept* volume (total / s_sets), not the raw
        # window volume (the residue-split SA boxes hit this hardest).
        live = c > 0
        rmin = int(a[live].min())
        rmax = int((a + c)[live].max())
        rng = rmax - rmin
        if rng <= total:
            lines_all = _lines_at_ranks(
                member, np.arange(rmin, rmax, dtype=np.int64)
            )
            if s_sets > 1:
                order = np.argsort(
                    lines_all % s_sets, kind="stable"
                ).astype(np.int64)
                keys = (lines_all % s_sets)[order] * rng + order
                lo_i = np.searchsorted(keys, sigma_u * rng + (a - rmin))
                hi_i = np.searchsorted(
                    keys, sigma_u * rng + (a + c - rmin)
                )
                c2 = hi_i - lo_i
                row_rep = np.repeat(np.arange(n_u, dtype=np.int64), c2)
                pos = np.repeat(
                    lo_i - (np.cumsum(c2) - c2), c2
                ) + np.arange(int(c2.sum()), dtype=np.int64)
                lines = lines_all[order[pos]]
            else:
                row_rep = np.repeat(np.arange(n_u, dtype=np.int64), c)
                ranks = np.repeat(a - (np.cumsum(c) - c), c) + np.arange(
                    total, dtype=np.int64
                )
                lines = lines_all[ranks - rmin]
        else:
            row_rep = np.repeat(np.arange(n_u, dtype=np.int64), c)
            ranks = np.repeat(a - (np.cumsum(c) - c), c) + np.arange(
                total, dtype=np.int64
            )
            lines = _lines_at_ranks(member, ranks)
            if s_sets > 1:
                keep = lines % s_sets == sigma_u[row_rep]
                row_rep = row_rep[keep]
                lines = lines[keep]
        if sortfree:
            if lines.size:
                run_start = np.empty(lines.size, dtype=bool)
                run_start[0] = True
                run_start[1:] = (lines[1:] != lines[:-1]) | (
                    row_rep[1:] != row_rep[:-1]
                )
                dist += np.bincount(row_rep[run_start], minlength=n_u)
            return dist
        pairs.append((row_rep, lines))
    if not pairs:
        return dist
    # Members share one buffer, so every line falls in the buffer's own
    # line range: a per-(row, line) presence bitmap unions the members
    # with O(N) scatters instead of an O(N log N) sort.
    lo = min(_line_range(member)[0] for member in members)
    hi = max(_line_range(member)[1] for member in members)
    width = int(hi - lo + 1)
    if 0 < width and n_u * width <= _ENUM_BUDGET:
        presence = np.zeros(n_u * width, dtype=bool)
        for row_rep, lines in pairs:
            presence[row_rep * width + (lines - lo)] = True
        return presence.reshape(n_u, width).sum(axis=1, dtype=np.int64)
    keys = [
        row_rep * (np.int64(1) << 40) + lines for row_rep, lines in pairs
    ]
    unique = np.unique(np.concatenate(keys))
    counts = np.bincount(unique >> 40, minlength=n_u)
    dist[: counts.size] = counts[:n_u]
    return dist


def _sweep_intervals(
    members: List[_LineBox],
    a_by: Dict[int, np.ndarray],
    b_by: Dict[int, np.ndarray],
    sigma: np.ndarray,
    s_sets: int,
) -> np.ndarray:
    """Exact distinct same-set line counts for interval-image members.

    Every member must be monotone and contiguous, so its window ``[a,
    b)`` touches exactly the lines ``[lines(a), lines(b - 1)]``.  The
    per-row union of those k intervals is swept in sorted order with the
    mod-``S`` closed form per segment (the same sweep the enumeration
    fast path uses, vectorized over all rows at once).
    """
    rows = sigma.shape[0]
    k = len(members)
    los = np.full((k, rows), _INF, dtype=np.int64)
    his = np.full((k, rows), -_INF, dtype=np.int64)
    for i, member in enumerate(members):
        a = a_by[id(member)]
        b = b_by[id(member)]
        ok = a < b
        if not ok.any():
            continue
        los[i] = np.where(
            ok, _lines_at_ranks(member, np.where(ok, a, 0)), _INF
        )
        his[i] = np.where(
            ok, _lines_at_ranks(member, np.where(ok, b - 1, 0)), -_INF
        )
    if k > 1:
        order = np.argsort(los, axis=0)
        los = np.take_along_axis(los, order, axis=0)
        his = np.take_along_axis(his, order, axis=0)
    cur = np.full(rows, -_INF, dtype=np.int64)
    dist = np.zeros(rows, dtype=np.int64)
    for i in range(k):
        valid = los[i] < _INF
        start = np.maximum(los[i], cur + 1)
        counted = (his[i] - sigma) // s_sets - (start - 1 - sigma) // s_sets
        dist += np.where(valid & (his[i] >= start), counted, 0)
        cur = np.maximum(cur, np.where(valid, his[i], -_INF))
    return dist


def _decide_hard(
    members: List[_LineBox],
    t: np.ndarray,
    pred: np.ndarray,
    sigma: np.ndarray,
    s_sets: int,
    assoc: int,
) -> np.ndarray:
    """Miss/hit decision for instances whose window may reach ``assoc``.

    Per lattice group the window rank intervals are unioned (exact when
    they chain without gaps) and counted with the AP closed forms.
    Buffers occupy disjoint line ranges, so the reuse distance is the
    *sum* of per-buffer distinct-line counts: each buffer keeps its own
    lower/upper bound, and the enumeration fallback (E1) only touches
    the buffers whose bounds disagree (or whose window hulls had gaps)
    -- the exact buffers contribute their closed-form counts directly.
    """
    rows = t.shape[0]
    a_by: Dict[int, np.ndarray] = {}
    b_by: Dict[int, np.ndarray] = {}
    for member in members:
        a_by[id(member)] = _rank_lt(member, pred + 1)
        b_by[id(member)] = _rank_lt(member, t)

    members_by: Dict[int, List[_LineBox]] = {}
    for member in members:
        members_by.setdefault(member.buffer_id, []).append(member)

    # Buffers all of whose members walk monotone, gapless line orders
    # admit an exact count without the interval-family machinery: each
    # member's window image is one contiguous line interval, and the
    # k-interval sweep counts the union's sigma-class members in closed
    # form.  On SA hierarchies this takes the row-major boxes (the bulk
    # of a matmul's accesses) off the per-family AP path entirely.
    exact_by: Dict[int, np.ndarray] = {}
    for buffer_id, buf_members in members_by.items():
        if all(
            _monotone_lines(m) and _contiguous_lines(m)
            for m in buf_members
        ):
            exact_by[buffer_id] = _sweep_intervals(
                buf_members, a_by, b_by, sigma, s_sets
            )

    groups: Dict[object, List[_LineBox]] = {}
    for member in members:
        if member.buffer_id in exact_by:
            continue
        groups.setdefault(_lattice_sig(member), []).append(member)

    gap_by: Dict[int, np.ndarray] = {}
    for member in members:
        if member.buffer_id in exact_by:
            continue
        gap_by.setdefault(
            member.buffer_id, np.zeros(rows, dtype=bool)
        )
    by_buffer: Dict[
        int,
        List[Tuple[np.ndarray, np.ndarray, Optional[Tuple[int, bool, int]]]],
    ] = {}
    for group in groups.values():
        if len(group) == 1:
            a = a_by[id(group[0])]
            b = b_by[id(group[0])]
        else:
            a_stack = np.stack([a_by[id(m)] for m in group])
            b_stack = np.stack([b_by[id(m)] for m in group])
            empty = a_stack >= b_stack
            a_sort = np.where(empty, _INF, a_stack)
            b_sort = np.where(empty, -_INF, b_stack)
            order = np.argsort(a_sort, axis=0)
            a_sorted = np.take_along_axis(a_sort, order, axis=0)
            b_sorted = np.take_along_axis(b_sort, order, axis=0)
            cover = b_sorted[0]
            for i in range(1, len(group)):
                live = a_sorted[i] < _INF
                gap_by[group[0].buffer_id] |= live & (a_sorted[i] > cover)
                cover = np.maximum(cover, b_sorted[i])
            a = a_sort.min(axis=0)
            b = b_sort.max(axis=0)
            nonempty = a < b
            a = np.where(nonempty, a, 0)
            b = np.where(nonempty, b, 0)
        families, first_diff = _interval_families(group[0], a, b)
        count_lo, count_hi = _count_sigma(
            group[0], families, first_diff, sigma, s_sets
        )
        # Class tag for the additive lower bound: groups of one
        # (access, direction) are instance-disjoint sub-boxes (residue
        # variants, mask factors) whose distinct-line counts over-count
        # any line at most ``mult`` times, so their sum / mult is a
        # sound per-buffer distance bound that -- unlike the plain max
        # -- sees the whole access, not one residue class.
        # Only unfiltered groups qualify: value-filtered sub-boxes (mask
        # factors) can partition along free or fine dims, where many
        # instances share one line beyond what ``mult`` accounts for.
        meta: Optional[Tuple[int, bool, int]] = None
        if all(
            m.acc == group[0].acc
            and m.is_write == group[0].is_write
            and all(dim.vals is None for dim in m.dims)
            for m in group
        ):
            meta = (group[0].acc, group[0].is_write, group[0].mult)
        by_buffer.setdefault(group[0].buffer_id, []).append(
            (count_lo, count_hi, meta)
        )
    lb = np.zeros(rows, dtype=np.int64)
    ub = np.zeros(rows, dtype=np.int64)
    lb_by: Dict[int, np.ndarray] = {}
    ub_by: Dict[int, np.ndarray] = {}
    for buffer_id, dist in exact_by.items():
        lb_by[buffer_id] = dist
        ub_by[buffer_id] = dist
        lb += dist
        ub += dist
    for buffer_id, entries in by_buffer.items():
        best = np.max(np.stack([lo for lo, _hi, _meta in entries]), axis=0)
        classes: Dict[Tuple[int, bool], List[int]] = {}
        for i, (_lo, _hi, meta) in enumerate(entries):
            if meta is not None:
                classes.setdefault((meta[0], meta[1]), []).append(i)
        for idxs in classes.values():
            if len(idxs) < 2:
                continue
            mult = max(entries[i][2][2] for i in idxs)
            total = np.sum([entries[i][0] for i in idxs], axis=0)
            best = np.maximum(best, -(-total // mult))
        gap = gap_by[buffer_id]
        # A gapped hull may count instances outside the true window, so
        # the buffer's lower bound is forfeited there (upper stays: the
        # hull covers the window).
        lb_by[buffer_id] = np.where(gap, 0, best)
        ub_by[buffer_id] = np.sum(
            [hi for _lo, hi, _meta in entries], axis=0
        )
        lb += lb_by[buffer_id]
        ub += ub_by[buffer_id]

    miss = lb >= assoc
    undecided = ~miss & (ub >= assoc)
    if undecided.any():
        und_idx = np.flatnonzero(undecided)
        dist = np.zeros(und_idx.size, dtype=np.int64)
        for buffer_id, buf_members in members_by.items():
            lo_u = lb_by[buffer_id][und_idx]
            hi_u = ub_by[buffer_id][und_idx]
            ambiguous = lo_u < hi_u
            dist += np.where(ambiguous, 0, lo_u)
            if ambiguous.any():
                sel = np.zeros(rows, dtype=bool)
                sel[und_idx[ambiguous]] = True
                dist[ambiguous] += _enumerate_windows(
                    buf_members, a_by, b_by, sel, sigma, s_sets
                )
        miss[und_idx] = dist >= assoc
    return miss


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _compress_plan(
    box: _LineBox, live: List[_LineBox], s_sets: int
) -> Optional[Tuple[int, int, int, bool]]:
    """Slab-translation certificate for ``box``; ``None`` = evaluate all.

    Returns ``(x_r, dx, qp, aligned)``: shifting an instance by ``dx``
    steps of the box's outermost dim advances time by ``qp`` outer-loop
    slabs and shifts every live same-nest member's lines by an integer
    amount that is *equal* across members of the box's own buffer.  A
    window confined to the last ``qp`` slabs then maps 1-1 onto the
    translated window (same predecessor gap, same per-buffer
    distinct-line sets up to a uniform shift), so cold / shortcut
    decisions replicate from the representative slab block ``[x_r,
    x_r + dx)`` to every later one.  ``aligned`` further certifies that
    all member line shifts are congruent mod the set count, making the
    per-set counts -- and hence *hard*-row decisions -- replicable too.

    Members whose support is confined to the first slabs (cold-only
    fetch boxes) or that only miss the first slabs (contiguous suffix
    filters) are admitted by pushing the representative block past their
    irregular region instead of rejecting the nest.  Other nests are
    wholly earlier/later in time and cannot intersect a confined window,
    so they are ignored.
    """
    tau = box.outer_w
    if tau <= 0 or not box.dims:
        return None
    top = box.dims[0]
    if top.vals is not None or top.w % tau or top.w // tau < 1:
        return None
    p_c = top.w // tau
    L = box.line_bytes
    nb = box.nest_base
    members: List[Tuple[_LineBox, int]] = []
    q_struct = 1
    edge = 0  # slabs at the nest start with non-translatable structure
    for m in live:
        if m.nest_base != nb:
            continue
        suffix_from = 0
        ok = bool(m.dims) and m.outer_w == tau
        if ok:
            mtop = m.dims[0]
            if mtop.vals is not None:
                vals = mtop.vals
                contiguous = vals.size and vals[-1] == mtop.n - 1 and (
                    vals.size == vals[-1] - vals[0] + 1
                )
                if contiguous:
                    suffix_from = int(vals[0])
                else:
                    ok = False
            if ok and (mtop.w % tau or mtop.w // tau < 1):
                ok = False
            if ok:
                p_m = mtop.w // tau
                if (mtop.s and mtop.b) or (mtop.s * L) % p_m:
                    ok = False
        if not ok:
            if m is box:
                return None
            # A member outside the certificate is harmless if its whole
            # time support fits in the leading edge: confined windows of
            # slabs past the edge never intersect it.
            e_m = -(-(m.tmax + 1 - nb) // tau)
            if e_m > _MAX_RESIDUE_PERIOD * 4:
                return None
            edge = max(edge, e_m)
            continue
        if suffix_from:
            edge = max(edge, (suffix_from + 1) * p_m)
        bps = (mtop.s * L) // p_m + mtop.b  # bytes moved per slab
        # Line-exact translation: qp * bps must be a whole number of
        # lines and qp a whole number of member top-digit steps.
        q_struct = _lcm(q_struct, p_m)
        q_struct = _lcm(q_struct, L // math.gcd(L, bps % L))
        if q_struct > _MAX_RESIDUE_PERIOD:
            return None
        members.append((m, bps))
    bps_c = next(b for m, b in members if m is box)
    for m, bps in members:
        # Predecessors come from same-buffer members; their translation
        # must shift the classified lines by exactly the same amount.
        if m.buffer_id == box.buffer_id and bps != bps_c:
            return None

    def feasible(qp: int) -> Optional[Tuple[int, int]]:
        if qp % p_c:
            return None
        dx = qp // p_c
        x_r = max(dx, -(-(edge + qp) // p_c))
        if dx < 1 or top.n < x_r + dx + 1:
            return None
        return x_r, dx

    def is_aligned(qp: int) -> bool:
        dl_c = qp * bps_c // L
        return all(
            (qp * bps // L - dl_c) % s_sets == 0 for _m, bps in members
        )

    plan = feasible(q_struct)
    if plan is None:
        return None
    if not is_aligned(q_struct):
        # Scale the translation until every member's line shift is
        # congruent mod the set count: hard rows then replicate too.
        scale = 1
        dl_c = q_struct * bps_c // L
        for _m, bps in members:
            diff = (q_struct * bps // L - dl_c) % s_sets
            if diff:
                scale = _lcm(scale, s_sets // math.gcd(s_sets, diff))
        scaled = feasible(q_struct * scale)
        if scaled is not None:
            x_r, dx = scaled
            return x_r, dx, q_struct * scale, True
        x_r, dx = plan
        return x_r, dx, q_struct, False
    x_r, dx = plan
    return x_r, dx, q_struct, True


def _eval_rows(
    box: _LineBox,
    same_buffer: List[_LineBox],
    live: List[_LineBox],
    coords: np.ndarray,
    s_sets: int,
    assoc: int,
    conf_qp: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Classify a row subset of ``box``: (cold, miss, hard, confined).

    ``confined`` (requested via ``conf_qp``) marks rows whose reuse
    window lies entirely within the last ``conf_qp`` outer-loop slabs of
    the nest -- the translation-safety predicate of the class compressor.
    Cold rows are never confined (their window reaches before the nest).
    """
    t = box.times(coords)
    line = box.lines(coords)
    sigma = line % s_sets
    pred = np.full(t.shape[0], -1, dtype=np.int64)
    for member in same_buffer:
        np.maximum(pred, _last_touch(member, line, t), out=pred)
    cold = pred < 0
    # A window of time length d contains at most d - 1 accesses, so the
    # reuse distance cannot reach the associativity.
    hard = ~cold & (t - pred - 1 >= assoc)
    miss = np.zeros(t.shape[0], dtype=bool)
    if hard.any():
        miss[np.flatnonzero(hard)] = _decide_hard(
            live, t[hard], pred[hard], sigma[hard], s_sets, assoc
        )
    conf = None
    if conf_qp is not None:
        tau = box.outer_w
        nb = box.nest_base
        conf = pred >= nb + ((t - nb) // tau - conf_qp) * tau
    return cold, miss, hard, conf


def _classify_level(
    boxes: List[_LineBox],
    config: CacheLevelConfig,
    deadline: Optional[Deadline],
) -> Tuple[int, int, int, List[np.ndarray]]:
    """Classify one level; returns (accesses, cold, cap_conflict, masks).

    ``masks[i]`` is the fetch mask (cold | capacity-conflict) of
    ``boxes[i]`` in C-order over its dim values.  Boxes holding a
    slab-translation certificate are *compressed*: only the leading
    boundary block, one representative block, and the rows whose
    decisions provably cannot replicate (unconfined windows; hard rows
    under set-misaligned shifts) are evaluated instance-wise, and the
    representative decisions are tiled across the remaining slabs.
    """
    s_sets = config.num_sets
    assoc = config.associativity
    live = [box for box in boxes if box.size]
    by_buffer: Dict[int, List[_LineBox]] = {}
    for box in live:
        by_buffer.setdefault(box.buffer_id, []).append(box)
    accesses = 0
    cold_total = 0
    cap_total = 0
    masks: List[np.ndarray] = []
    for box in boxes:
        size = box.size
        if not size:
            masks.append(np.zeros(0, dtype=bool))
            continue
        faults.fire("cm.chunk")
        _check_deadline(deadline, "cm.symbolic")
        accesses += size
        grid = _grid(box)
        same_buffer = by_buffer[box.buffer_id]
        plan = _compress_plan(box, live, s_sets)
        if plan is None:
            cold, miss, _hard, _conf = _eval_rows(
                box, same_buffer, live, grid, s_sets, assoc
            )
        else:
            x_r, dx, qp, aligned = plan
            n_top = box.dims[0].n
            inner0 = size // n_top
            cold = np.zeros(size, dtype=bool)
            miss = np.zeros(size, dtype=bool)
            # Boundary blocks [0, x_r) and the representative block
            # [x_r, x_r + dx), evaluated instance-wise with the
            # confinement predicate.
            n_a = (x_r + dx) * inner0
            cold_a, miss_a, hard_a, conf_a = _eval_rows(
                box, same_buffer, live, grid[:n_a], s_sets, assoc, conf_qp=qp
            )
            cold[:n_a] = cold_a
            miss[:n_a] = miss_a
            rep = slice(x_r * inner0, n_a)
            copyable = conf_a[rep]
            if not aligned:
                copyable = copyable & ~hard_a[rep]
            # Tile the representative decisions across the later slabs
            # (chain x -> x_r + ((x - x_r) mod dx)), then overwrite the
            # non-replicable rows with explicit evaluations.
            xs = np.arange(x_r + dx, n_top)
            src = x_r + ((xs - x_r) % dx)
            cold_v = cold.reshape(n_top, inner0)
            miss_v = miss.reshape(n_top, inner0)
            cold_v[xs] = cold_v[src]
            miss_v[xs] = miss_v[src]
            if not copyable.all():
                pend_v = (~copyable).reshape(dx, inner0)
                chunks = []
                for x in range(x_r + dx, n_top):
                    rest = np.flatnonzero(pend_v[(x - x_r) % dx])
                    if rest.size:
                        chunks.append(x * inner0 + rest)
                if chunks:
                    idx_b = np.concatenate(chunks)
                    cold_b, miss_b, _hb, _cb = _eval_rows(
                        box, same_buffer, live, grid[idx_b], s_sets, assoc
                    )
                    cold[idx_b] = cold_b
                    miss[idx_b] = miss_b
        cold_total += int(cold.sum())
        cap_total += int(miss.sum())
        masks.append(cold | miss)
    return accesses, cold_total, cap_total, masks


# ---------------------------------------------------------------------------
# Next-level propagation (write-through) and the explicit-stream escape
# ---------------------------------------------------------------------------


class _MaskNotSeparable(Exception):
    """A fetch mask does not factor into per-dim selections."""


def _mask_factors(grid_mask: np.ndarray) -> List[Tuple[np.ndarray, ...]]:
    """Partition a boolean nd-mask into per-dim outer-product factors.

    Greedy along the leading axis: rows sharing the same inner pattern
    form one selection, and each distinct pattern factors recursively.
    A mask that *is* an outer product yields exactly one factor; masks
    with a bounded number of leading-row patterns (a misaligned buffer's
    first row sharing its leading line with the previous nest, say)
    yield one factor per pattern.  Raises :class:`_MaskNotSeparable`
    past :data:`_MAX_MASK_FACTORS`.
    """
    shape = grid_mask.shape
    if not grid_mask.any():
        return []
    if grid_mask.all():
        return [tuple(np.ones(n, dtype=bool) for n in shape)]
    if len(shape) == 1:
        return [(grid_mask,)]
    flat = grid_mask.reshape(shape[0], -1)
    any_rows = flat.any(axis=1)
    rows = np.flatnonzero(any_rows)
    sub = flat[rows]
    # First-appearance pattern scan: the factor cap bounds the number of
    # distinct row patterns, so comparing each row against at most
    # ``_MAX_MASK_FACTORS`` representatives (pre-filtered by popcount)
    # beats sorting every row as a giant structured key.
    sums = sub.sum(axis=1)
    reps: List[int] = []
    inverse = np.empty(rows.size, dtype=np.int64)
    for i in range(rows.size):
        for pattern, r in enumerate(reps):
            if sums[i] == sums[r] and np.array_equal(sub[i], sub[r]):
                inverse[i] = pattern
                break
        else:
            if len(reps) >= _MAX_MASK_FACTORS:
                raise _MaskNotSeparable()
            inverse[i] = len(reps)
            reps.append(i)
    factors: List[Tuple[np.ndarray, ...]] = []
    for pattern, r in enumerate(reps):
        sel0 = np.zeros(shape[0], dtype=bool)
        sel0[rows[inverse == pattern]] = True
        for sub_factor in _mask_factors(sub[r].reshape(shape[1:])):
            factors.append((sel0,) + sub_factor)
            if len(factors) > _MAX_MASK_FACTORS:
                raise _MaskNotSeparable()
    return factors


def _filter_box(
    box: _LineBox, mask: np.ndarray, slot: int, is_write: bool
) -> List[_LineBox]:
    """The sub-boxes of instances selected by ``mask`` at the next level.

    Times double and take ``slot`` (0 fetch / 1 forwarded write) so the
    fetch emitted by a missing store precedes its forwarded write, as in
    the trace engines.  Raises :class:`_MaskNotSeparable` when the mask
    does not partition into a few per-dim outer-product selections.
    """
    if not mask.any():
        return []
    shape = tuple(dim.size for dim in box.dims)
    out: List[_LineBox] = []
    for factor in _mask_factors(mask.reshape(shape)):
        dims = []
        for dim, sel in zip(box.dims, factor):
            vals = dim.vals
            if not sel.all():
                vals = dim.values()[sel]
            dims.append(
                _LDim(w=dim.w * 2, n=dim.n, s=dim.s, b=dim.b, vals=vals)
            )
        out.append(
            replace(
                box,
                is_write=is_write,
                tbase=box.tbase * 2 + slot,
                dims=tuple(dims),
                nest_base=box.nest_base * 2,
                outer_w=box.outer_w * 2,
            )
        )
    return out


def _next_level_boxes(
    boxes: List[_LineBox], masks: List[np.ndarray]
) -> List[_LineBox]:
    out: List[_LineBox] = []
    for box, mask in zip(boxes, masks):
        if not box.size:
            continue
        out.extend(_filter_box(box, mask, slot=0, is_write=False))
        if box.is_write:
            out.extend(
                _filter_box(
                    box,
                    np.ones(box.size, dtype=bool),
                    slot=1,
                    is_write=True,
                )
            )
    return out


def _sorted_stream(
    chunks_t: List[np.ndarray],
    chunks_l: List[np.ndarray],
    chunks_w: List[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    if not chunks_t:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    t = np.concatenate(chunks_t)
    order = np.argsort(t, kind="stable")
    lines = np.concatenate(chunks_l)[order]
    writes = np.concatenate(chunks_w)[order]
    return np.ascontiguousarray(lines), np.ascontiguousarray(writes)


def _stream_from_boxes(
    boxes: List[_LineBox],
) -> Tuple[np.ndarray, np.ndarray]:
    """The level's input stream, explicitly (escape E2, pre-classification)."""
    ts, ls, ws = [], [], []
    for box in boxes:
        if not box.size:
            continue
        coords = _grid(box)
        ts.append(box.times(coords))
        ls.append(box.lines(coords))
        ws.append(np.full(box.size, box.is_write, dtype=bool))
    return _sorted_stream(ts, ls, ws)


def _stream_from_emissions(
    boxes: List[_LineBox], masks: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The next level's stream from this level's fetch masks (escape E2)."""
    ts, ls, ws = [], [], []
    for box, mask in zip(boxes, masks):
        if not box.size:
            continue
        coords = _grid(box)
        t = box.times(coords)
        line = box.lines(coords)
        if mask.any():
            ts.append(2 * t[mask])
            ls.append(line[mask])
            ws.append(np.zeros(int(mask.sum()), dtype=bool))
        if box.is_write:
            ts.append(2 * t + 1)
            ls.append(line)
            ws.append(np.ones(box.size, dtype=bool))
    return _sorted_stream(ts, ls, ws)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def symbolic_cm(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    hierarchy: Optional[CacheHierarchy] = None,
    threads: int = 1,
    parallel: bool = False,
    deadline: Optional[Deadline] = None,
) -> CacheModelResult:
    """Run PolyUFC-CM symbolically, without materializing the trace.

    Matches :func:`repro.cache.static_model.polyufc_cm` bit-for-bit where
    the quasi-affine class applies.  Units outside the class raise
    :class:`SymbolicUnsupported` *during extraction* so the caller can
    fall back to the trace engines; after extraction the engine never
    raises it -- internal escapes re-evaluate the affected levels exactly
    on a synthesized stream with the vectorized trace kernel.
    """
    if hierarchy is None:
        raise ValueError("symbolic_cm requires a cache hierarchy")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    faults.fire("cm.engine")
    _check_deadline(deadline, "cm.engine")
    unit = _extract_unit(module, ops)
    line_bytes = hierarchy.line_bytes
    bases = np.zeros(max(len(unit.buffers), 1), dtype=np.int64)
    cursor = 0
    for index, buffer in enumerate(unit.buffers):
        bases[index] = cursor
        cursor += -(-buffer.size_bytes // line_bytes) * line_bytes
    boxes: List[_LineBox] = []
    for box in unit.boxes:
        elem_bytes = unit.buffers[box.buffer_id].dtype.size_bytes
        boxes.extend(_normalize_box(box, line_bytes, bases, elem_bytes))
    divider = threads if (parallel and threads > 1) else 1
    levels = hierarchy.levels
    stats: List[LevelModelStats] = []
    stream: Optional[np.ndarray] = None
    stream_writes: Optional[np.ndarray] = None
    for index, config in enumerate(levels):
        faults.fire("cm.chunk")
        _check_deadline(deadline, f"cm.level:{config.name}")
        shared_level = index == len(levels) - 1
        if stream is None:
            try:
                accesses, cold, cap, masks = _classify_level(
                    boxes, config, deadline
                )
            except SymbolicUnsupported:
                # Escape E2a: the symbolic form broke down at this level;
                # synthesize its input stream and continue exactly with
                # the vectorized trace kernel.
                stream, stream_writes = _stream_from_boxes(boxes)
            else:
                if index < len(levels) - 1:
                    try:
                        boxes = _next_level_boxes(boxes, masks)
                    except _MaskNotSeparable:
                        # Escape E2b: the level classified fine but the
                        # fetch masks don't factor; stream the emissions.
                        next_stream = _stream_from_emissions(boxes, masks)
                        stream, stream_writes = next_stream
                stats.append(
                    LevelModelStats(
                        config.name,
                        accesses=accesses,
                        cold_misses=cold,
                        capacity_conflict_misses=_divide(
                            cap, divider if shared_level else 1
                        ),
                    )
                )
                continue
        accesses = len(stream)
        cold, cap, stream, stream_writes = _fast_model_level(
            stream, stream_writes, config, deadline=deadline
        )
        stats.append(
            LevelModelStats(
                config.name,
                accesses=accesses,
                cold_misses=cold,
                capacity_conflict_misses=_divide(
                    cap, divider if shared_level else 1
                ),
            )
        )
    return CacheModelResult(
        tuple(stats), line_bytes, unit.total_accesses, threads
    )
