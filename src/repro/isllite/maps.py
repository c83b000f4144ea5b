"""Integer maps (binary relations on integer tuples) and unions thereof."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.isllite.constraint import Constraint, eq
from repro.isllite.errors import IslError
from repro.isllite.fm import project, simplify
from repro.isllite.linexpr import LinExpr
from repro.isllite.sets import BasicSet, Set
from repro.isllite.space import MapSpace, Space, fresh_names


class BasicMap:
    """A relation ``{ in -> out : constraints }`` as one conjunction."""

    __slots__ = ("space", "constraints")

    def __init__(self, space: MapSpace, constraints: Iterable[Constraint] = ()):
        object.__setattr__(self, "space", space)
        cons = simplify(constraints)
        allowed = set(space.all_names())
        for con in cons:
            extra = con.names() - allowed
            if extra:
                raise IslError(
                    f"constraint {con!r} uses names {sorted(extra)} "
                    f"outside map space {space!r}"
                )
        object.__setattr__(self, "constraints", tuple(cons))

    def __setattr__(self, name, value):
        raise AttributeError("BasicMap is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_exprs(
        in_dims: Sequence[str],
        out_exprs: Mapping[str, LinExpr],
        params: Sequence[str] = (),
        extra: Iterable[Constraint] = (),
    ) -> "BasicMap":
        """The graph of an affine function: ``out == expr(in, params)``."""
        space = MapSpace(in_dims, tuple(out_exprs), params)
        constraints: List[Constraint] = [
            eq(LinExpr.var(name), expr) for name, expr in out_exprs.items()
        ]
        constraints.extend(extra)
        return BasicMap(space, constraints)

    @staticmethod
    def identity(dims: Sequence[str], params: Sequence[str] = ()) -> "BasicMap":
        out_dims = tuple(f"{d}'" for d in dims)
        space = MapSpace(dims, out_dims, params)
        cons = [
            eq(LinExpr.var(o), LinExpr.var(i)) for i, o in zip(dims, out_dims)
        ]
        return BasicMap(space, cons)

    # -- basic structure ---------------------------------------------------

    def wrap(self) -> BasicSet:
        """The map as a set over the concatenated in+out dims."""
        return BasicSet(self.space.wrapped_space(), self.constraints)

    def reverse(self) -> "BasicMap":
        return BasicMap(self.space.reversed(), self.constraints)

    def domain(self) -> BasicSet:
        cons = project(self.constraints, self.space.out_dims)
        return BasicSet(self.space.domain_space(), cons)

    def range(self) -> BasicSet:
        cons = project(self.constraints, self.space.in_dims)
        return BasicSet(self.space.range_space(), cons)

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "BasicMap") -> "BasicMap":
        self.space.check_compatible(other.space)
        return BasicMap(self.space, self.constraints + other.constraints)

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicMap":
        return BasicMap(self.space, self.constraints + tuple(constraints))

    def intersect_domain(self, bset: BasicSet) -> "BasicMap":
        if bset.space.dims != self.space.in_dims:
            raise IslError(
                f"domain space {bset.space!r} does not match {self.space!r}"
            )
        return self.add_constraints(bset.constraints)

    def fix_params(self, env: Mapping[str, int]) -> "BasicMap":
        remaining = tuple(p for p in self.space.params if p not in env)
        space = MapSpace(self.space.in_dims, self.space.out_dims, remaining)
        return BasicMap(space, [c.partial(env) for c in self.constraints])

    def rename(self, mapping: Mapping[str, str]) -> "BasicMap":
        space = MapSpace(
            [mapping.get(d, d) for d in self.space.in_dims],
            [mapping.get(d, d) for d in self.space.out_dims],
            [mapping.get(p, p) for p in self.space.params],
        )
        return BasicMap(space, [c.rename(mapping) for c in self.constraints])

    def apply_range(self, other: "BasicMap") -> "BasicMap":
        """Composition: ``self: A -> B``, ``other: B -> C`` gives ``A -> C``.

        The B dims are matched positionally, renamed to fresh names,
        conjoined and projected out.
        """
        if len(self.space.out_dims) != len(other.space.in_dims):
            raise IslError(
                f"arity mismatch composing {self.space!r} with {other.space!r}"
            )
        other = _avoid_collisions(other, self.space.in_dims)
        params = _merge_params(self.space.params, other.space.params)
        taken = (
            set(params)
            | set(self.space.in_dims)
            | set(other.space.out_dims)
        )
        mid = fresh_names("mid", len(self.space.out_dims), taken)
        left = self.rename(dict(zip(self.space.out_dims, mid)))
        right = other.rename(dict(zip(other.space.in_dims, mid)))
        cons = project(left.constraints + right.constraints, mid)
        space = MapSpace(self.space.in_dims, other.space.out_dims, params)
        return BasicMap(space, cons)

    def deltas(self) -> BasicSet:
        """The set ``{ out - in }`` for equal-arity maps (distance vectors)."""
        n = len(self.space.in_dims)
        if n != len(self.space.out_dims):
            raise IslError("deltas requires equal in/out arity")
        taken = set(self.space.all_names())
        delta_dims = fresh_names("delta", n, taken)
        cons: List[Constraint] = list(self.constraints)
        for d_name, in_name, out_name in zip(
            delta_dims, self.space.in_dims, self.space.out_dims
        ):
            cons.append(
                eq(LinExpr.var(d_name), LinExpr.var(out_name) - LinExpr.var(in_name))
            )
        projected = project(
            cons, list(self.space.in_dims) + list(self.space.out_dims)
        )
        return BasicSet(Space(delta_dims, self.space.params), projected)

    # -- evaluation --------------------------------------------------------

    def image_of(
        self, point: Sequence[int], env: Mapping[str, int] = None
    ) -> BasicSet:
        """The image of one input point as a set over the range space."""
        if len(point) != len(self.space.in_dims):
            raise IslError("point arity mismatch")
        assignment = dict(env or {})
        assignment.update(zip(self.space.in_dims, point))
        cons = [c.partial(assignment) for c in self.constraints]
        space = Space(
            self.space.out_dims,
            [p for p in self.space.params if p not in assignment],
        )
        return BasicSet(space, cons)

    def contains(
        self,
        in_point: Sequence[int],
        out_point: Sequence[int],
        env: Mapping[str, int] = None,
    ) -> bool:
        assignment: Dict[str, int] = dict(env or {})
        assignment.update(zip(self.space.in_dims, in_point))
        assignment.update(zip(self.space.out_dims, out_point))
        return all(c.satisfied(assignment) for c in self.constraints)

    def is_empty(self, env: Mapping[str, int] = None) -> bool:
        return self.wrap().is_empty(env)

    def to_map(self) -> "Map":
        return Map(self.space, [self])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicMap):
            return NotImplemented
        return self.space == other.space and set(self.constraints) == set(
            other.constraints
        )

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.constraints)))

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return (
            f"{{ [{', '.join(self.space.in_dims)}] -> "
            f"[{', '.join(self.space.out_dims)}] : {cons} }}"
        )


class Map:
    """A finite union of :class:`BasicMap` pieces in one map space."""

    __slots__ = ("space", "pieces")

    def __init__(self, space: MapSpace, pieces: Iterable[BasicMap] = ()):
        kept: List[BasicMap] = []
        seen = set()
        for piece in pieces:
            space.check_compatible(piece.space)
            if piece.constraints and piece.wrap().gist_is_false():
                continue
            if piece in seen:
                continue
            seen.add(piece)
            kept.append(piece)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pieces", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("Map is immutable")

    @staticmethod
    def empty(space: MapSpace) -> "Map":
        return Map(space, ())

    def union(self, other: "Map") -> "Map":
        self.space.check_compatible(other.space)
        return Map(self.space, self.pieces + other.pieces)

    def intersect(self, other: "Map") -> "Map":
        self.space.check_compatible(other.space)
        pieces = [a.intersect(b) for a in self.pieces for b in other.pieces]
        return Map(self.space, pieces)

    def reverse(self) -> "Map":
        return Map(self.space.reversed(), [p.reverse() for p in self.pieces])

    def domain(self) -> Set:
        return Set(self.space.domain_space(), [p.domain() for p in self.pieces])

    def range(self) -> Set:
        return Set(self.space.range_space(), [p.range() for p in self.pieces])

    def intersect_domain(self, dom: Set) -> "Map":
        pieces = [
            p.intersect_domain(b) for p in self.pieces for b in dom.pieces
        ]
        return Map(self.space, pieces)

    def apply_range(self, other: "Map") -> "Map":
        pieces = [a.apply_range(b) for a in self.pieces for b in other.pieces]
        space = pieces[0].space if pieces else MapSpace(
            self.space.in_dims, other.space.out_dims, self.space.params
        )
        return Map(space, pieces)

    def deltas(self) -> Set:
        pieces = [p.deltas() for p in self.pieces]
        if pieces:
            return Set(pieces[0].space, pieces)
        n = len(self.space.in_dims)
        dims = fresh_names("delta", n, self.space.all_names())
        return Set.empty(Space(dims, self.space.params))

    def wrap(self) -> Set:
        return Set(
            self.space.wrapped_space(), [p.wrap() for p in self.pieces]
        )

    def fix_params(self, env: Mapping[str, int]) -> "Map":
        pieces = [p.fix_params(env) for p in self.pieces]
        remaining = tuple(p for p in self.space.params if p not in env)
        space = MapSpace(self.space.in_dims, self.space.out_dims, remaining)
        return Map(space, pieces)

    def image_of(
        self, point: Sequence[int], env: Mapping[str, int] = None
    ) -> Set:
        images = [p.image_of(point, env) for p in self.pieces]
        space = images[0].space if images else self.space.range_space()
        return Set(space, images)

    def contains(
        self,
        in_point: Sequence[int],
        out_point: Sequence[int],
        env: Mapping[str, int] = None,
    ) -> bool:
        return any(p.contains(in_point, out_point, env) for p in self.pieces)

    def is_empty(self, env: Mapping[str, int] = None) -> bool:
        return all(p.is_empty(env) for p in self.pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Map):
            return NotImplemented
        return self.space == other.space and set(self.pieces) == set(other.pieces)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.pieces)))

    def __repr__(self) -> str:
        if not self.pieces:
            return f"{self.space!r} : false"
        return " union ".join(repr(p) for p in self.pieces)


def _merge_params(left: Tuple[str, ...], right: Tuple[str, ...]):
    merged = list(left)
    for name in right:
        if name not in merged:
            merged.append(name)
    return tuple(merged)


def _avoid_collisions(other: BasicMap, reserved: Sequence[str]) -> BasicMap:
    collisions = [d for d in other.space.out_dims if d in set(reserved)]
    if not collisions:
        return other
    taken = set(other.space.all_names()) | set(reserved)
    fresh = fresh_names("o", len(collisions), taken)
    return other.rename(dict(zip(collisions, fresh)))
