"""The exact polyhedral formulation of PolyUFC-CM (paper Sec. IV-A/B).

:func:`repro.cache.static_model.polyufc_cm` evaluates the cache model over
the scheduled access stream, which scales to the benchmark sizes.  This
module implements the *set-and-map formulation the paper actually writes
down*, using the integer set library:

* the **schedule map** ``S`` sends statement instances to 2d+1 schedule
  vectors (Sec. II-B),
* the **access map** ``A_ci`` sends statement instances to
  ``(line, set)`` pairs, where ``line = floor(offset*e / l)`` is expressed
  with the standard quasi-affine existential and ``set = line mod N_ci``
  with a second one,
* **COLDMISS** = per-line lexicographically-minimal accesses
  (``lexmin(A^-1 . S) . S^-1`` in the paper's notation): their cardinality
  counts the compulsory misses,
* the **backward reuse distance** of an access is the number of distinct
  lines mapped to the same set that were touched since the previous access
  to its line (the ``F_ci / B_ci`` reuse-pair construction); a distance of
  at least the associativity ``k_ci`` is a capacity/conflict miss.

Everything here is *exact* and evaluated by explicit manipulation of the
polyhedral objects, so it is only practical for small kernels; the test
suite uses it as the ground truth that the scalable streaming evaluation in
``static_model`` must reproduce (and the two agree bit-for-bit on every
kernel both can handle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.isllite import (
    BasicMap,
    BasicSet,
    Constraint,
    LinExpr,
    MapSpace,
    Space,
    count_points,
    ge,
    le,
    lexmin,
)
from repro.poly.scop import SCoP, Statement


@dataclass(frozen=True)
class ScheduledAccess:
    """One access of one statement, with its polyhedral artifacts."""

    statement: Statement
    access_index: int
    schedule_map: BasicMap  # domain -> 2d+1 schedule vector
    line_map: BasicMap  # domain -> (line,) for a given cache line size
    set_map: BasicMap  # domain -> (set,) for a given level
    is_write: bool


def schedule_map_for(statement: Statement, depth: int,
                     access_position: int) -> BasicMap:
    """The 2d+1-style schedule: interleave syntactic constants and ivs.

    The final coordinate is the access position inside the statement body
    so that accesses of one instance are totally ordered as well.
    """
    dims = statement.loop_names
    prefix = statement.schedule_prefix
    out_exprs: Dict[str, LinExpr] = {}
    out_names: List[str] = []
    for level in range(len(prefix)):
        name = f"c{level}"
        out_names.append(name)
        out_exprs[name] = LinExpr.cst(prefix[level])
        if level < len(dims):
            iv_out = f"s{level}"
            out_names.append(iv_out)
            out_exprs[iv_out] = LinExpr.var(dims[level])
    out_exprs["acc"] = LinExpr.cst(access_position)
    return BasicMap.from_exprs(
        dims, out_exprs, params=statement.domain.space.params,
        extra=statement.domain.constraints,
    )


def line_map_for(
    statement: Statement,
    access_index: int,
    element_offsets: Dict[str, int],
    line_bytes: int,
) -> BasicMap:
    """``domain -> (line,)`` with the floor-division existential.

    ``line_bytes * line <= byte_offset <= line_bytes * line + line_bytes-1``
    encodes ``line = floor(byte_offset / line_bytes)`` exactly.
    """
    access = statement.accesses[access_index]
    buffer = access.buffer
    byte_expr = LinExpr.cst(
        element_offsets[buffer.name]
    )
    for expr, stride in zip(access.indices, buffer.strides()):
        byte_expr = byte_expr + expr * (stride * buffer.dtype.size_bytes)
    line = LinExpr.var("line")
    constraints = [
        ge(byte_expr, line * line_bytes),
        le(byte_expr, line * line_bytes + (line_bytes - 1)),
    ]
    space = MapSpace(
        statement.loop_names, ("line",), statement.domain.space.params
    )
    return BasicMap(
        space,
        list(statement.domain.constraints) + constraints,
    )


def set_map_for(line_map: BasicMap, num_sets: int) -> BasicMap:
    """``domain -> (set,)`` where ``set = line mod num_sets``.

    Encoded with the existential quotient ``q``:
    ``line = num_sets*q + set`` and ``0 <= set < num_sets``.
    """
    in_dims = line_map.space.in_dims
    params = line_map.space.params
    wrapped = line_map.wrap()  # dims = in_dims + (line,)
    line = LinExpr.var("line")
    cset = LinExpr.var("cset")
    quotient = LinExpr.var("q")
    space = Space(
        wrapped.space.dims + ("cset", "q"), params
    )
    with_mod = BasicSet(
        space,
        list(wrapped.constraints)
        + [
            Constraint(line - cset - quotient * num_sets, is_eq=True),
            ge(cset, 0),
            le(cset, num_sets - 1),
        ],
    )
    projected = with_mod.project_out(["line", "q"])
    return BasicMap(
        MapSpace(in_dims, ("cset",), params),
        projected.constraints,
    )


@dataclass(frozen=True)
class ExactLevelCounts:
    """Exact miss counts for one cache level."""

    name: str
    accesses: int
    cold_misses: int
    capacity_conflict_misses: int

    @property
    def misses(self) -> int:
        return self.cold_misses + self.capacity_conflict_misses


class ExactPolyhedralCM:
    """Exact evaluation of the Sec. IV formulation for one SCoP.

    The constructor materializes schedule/line/set maps for every access;
    :meth:`count_level` evaluates the reuse-distance classification of one
    cache level exactly over the polyhedral objects.  Only the first-level
    analysis is offered (the paper's deeper levels need the write-through
    stream, which is not a polyhedral object -- the streaming evaluation in
    ``static_model`` handles that part).
    """

    def __init__(self, scop: SCoP, line_bytes: int):
        self.scop = scop
        self.line_bytes = line_bytes
        self.element_offsets = self._layout()
        self.params = dict(scop.params)
        max_depth = max(
            (len(s.schedule_prefix) for s in scop.statements), default=0
        )
        self.accesses: List[ScheduledAccess] = []
        for statement in scop.statements:
            for index, access in enumerate(statement.accesses):
                line_map = line_map_for(
                    statement, index, self.element_offsets, line_bytes
                )
                self.accesses.append(
                    ScheduledAccess(
                        statement=statement,
                        access_index=index,
                        schedule_map=schedule_map_for(
                            statement, max_depth, index
                        ),
                        line_map=line_map,
                        set_map=line_map,  # specialized per level later
                        is_write=access.is_write,
                    )
                )

    def _layout(self) -> Dict[str, int]:
        """Line-aligned element offsets of every buffer (bytes)."""
        offsets: Dict[str, int] = {}
        cursor = 0
        seen = set()
        for statement in self.scop.statements:
            for access in statement.accesses:
                buffer = access.buffer
                if buffer.name in seen:
                    continue
                seen.add(buffer.name)
                offsets[buffer.name] = cursor
                lines = -(-buffer.size_bytes // self.line_bytes)
                cursor += lines * self.line_bytes
        return offsets

    # -- evaluated artifacts -------------------------------------------------

    def scheduled_stream(self) -> List[Tuple[Tuple[int, ...], int, bool]]:
        """All accesses as (schedule_vector, line, is_write), sorted.

        This is the evaluation of ``S^-1`` composed with the access maps:
        the polyhedral objects are enumerated and ordered by their schedule
        vectors.  It is the bridge between the symbolic formulation and the
        classification below.
        """
        entries: List[Tuple[Tuple[int, ...], int, bool]] = []
        for access in self.accesses:
            domain_points = list(
                access.statement.domain.enumerate_points(self.params)
            )
            for point in domain_points:
                schedule = access.schedule_map.image_of(
                    point, self.params
                ).sample()
                line_img = access.line_map.image_of(
                    point, self.params
                ).sample()
                assert schedule is not None and line_img is not None
                entries.append((schedule, line_img[0], access.is_write))
        entries.sort(key=lambda e: e[0])
        return entries

    def cold_misses(self) -> int:
        """|COLDMISS|: distinct lines over all access-map ranges.

        Evaluates ``lexmin(A^-1 . S) . S^-1`` by counting the union of the
        line-map ranges (each line's lexicographically first access is
        unique, so the count of first accesses equals the count of distinct
        lines).
        """
        union_range = None
        for access in self.accesses:
            fixed = access.line_map.fix_params(self.params)
            rng = fixed.range().to_set()
            union_range = rng if union_range is None else union_range.union(rng)
        if union_range is None:
            return 0
        return int(count_points(union_range))

    def first_access_schedule(self, line: int) -> Optional[Tuple[int, ...]]:
        """The COLDMISS schedule vector of one line (lexmin over accesses)."""
        best: Optional[Tuple[int, ...]] = None
        for access in self.accesses:
            restricted = access.line_map.fix_params(self.params)
            preimage_cons = [
                c.partial({"line": line}) for c in restricted.constraints
            ]
            domain = BasicSet(
                Space(access.statement.loop_names), preimage_cons
            )
            point = lexmin(domain, {})
            if point is None:
                continue
            schedule = access.schedule_map.image_of(
                point, self.params
            ).sample()
            candidates = [schedule]
            # the lexmin domain point is not necessarily the lexmin schedule
            # point for non-identity schedules; scan all preimage points
            # (exact-but-small by design)
            for other in domain.enumerate_points():
                img = access.schedule_map.image_of(other, self.params).sample()
                candidates.append(img)
            local = min(candidates)
            if best is None or local < best:
                best = local
        return best

    def count_level(self, config: CacheLevelConfig) -> ExactLevelCounts:
        """Exact cold + capacity/conflict classification of one level.

        For each access, the backward reuse distance is the cardinality of
        the set of distinct same-set lines touched since the previous
        access to the same line (the ``RD_ci`` relation); a distance of at
        least ``k_ci`` is a capacity/conflict miss.
        """
        stream = self.scheduled_stream()
        num_sets = config.num_sets
        assoc = config.associativity
        last_seen: Dict[int, int] = {}
        cold = 0
        cap_conflict = 0
        for position, (_sched, line, _write) in enumerate(stream):
            previous = last_seen.get(line)
            if previous is None:
                cold += 1
            else:
                set_index = line % num_sets
                intervening = {
                    other_line
                    for (_s, other_line, _w) in stream[previous + 1 : position]
                    if other_line % num_sets == set_index
                    and other_line != line
                }
                if len(intervening) >= assoc:
                    cap_conflict += 1
            last_seen[line] = position
        return ExactLevelCounts(
            config.name, len(stream), cold, cap_conflict
        )


def exact_first_level_counts(
    scop: SCoP, hierarchy: CacheHierarchy
) -> ExactLevelCounts:
    """Convenience: exact L1 counts for a SCoP."""
    model = ExactPolyhedralCM(scop, hierarchy.line_bytes)
    return model.count_level(hierarchy.levels[0])
