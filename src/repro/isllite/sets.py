"""Integer sets: conjunctions of affine constraints and unions thereof."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.isllite.constraint import Constraint
from repro.isllite.errors import IslError, SpaceMismatchError
from repro.isllite.fm import (
    FALSE_CONSTRAINT,
    constant_bounds,
    project,
    simplify,
    triangularize,
)
from repro.isllite.linexpr import LinExpr
from repro.isllite.space import Space


class BasicSet:
    """A conjunction of affine constraints over a :class:`Space`."""

    __slots__ = ("space", "constraints", "_levels")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()):
        object.__setattr__(self, "space", space)
        cons = simplify(constraints)
        allowed = set(space.all_names())
        for con in cons:
            extra = con.names() - allowed
            if extra:
                raise IslError(
                    f"constraint {con!r} uses names {sorted(extra)} "
                    f"outside space {space!r}"
                )
        object.__setattr__(self, "constraints", tuple(cons))
        object.__setattr__(self, "_levels", None)

    def __setattr__(self, name, value):
        raise AttributeError("BasicSet is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def universe(space: Space) -> "BasicSet":
        return BasicSet(space, ())

    @staticmethod
    def empty(space: Space) -> "BasicSet":
        return BasicSet(space, (FALSE_CONSTRAINT,))

    @staticmethod
    def from_box(
        space: Space, bounds: Mapping[str, Tuple[int, int]]
    ) -> "BasicSet":
        """Rectangular set: ``lo <= dim <= hi`` per entry of ``bounds``."""
        cons: List[Constraint] = []
        for name, (lo, hi) in bounds.items():
            cons.append(Constraint(LinExpr.var(name) - lo))
            cons.append(Constraint(LinExpr.cst(hi) - LinExpr.var(name)))
        return BasicSet(space, cons)

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        self.space.check_compatible(other.space)
        return BasicSet(self.space, self.constraints + other.constraints)

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.space, self.constraints + tuple(constraints))

    def fix_params(self, env: Mapping[str, int]) -> "BasicSet":
        """Substitute (some) parameters with integer values."""
        remaining = tuple(p for p in self.space.params if p not in env)
        space = Space(self.space.dims, remaining)
        return BasicSet(space, [c.partial(env) for c in self.constraints])

    def project_out(self, names: Iterable[str]) -> "BasicSet":
        names = list(names)
        for name in names:
            if name not in self.space.dims:
                raise IslError(f"{name!r} is not a dim of {self.space!r}")
        space = self.space.drop_dims(names)
        return BasicSet(space, project(self.constraints, names))

    def rename(self, mapping: Mapping[str, str]) -> "BasicSet":
        space = Space(
            [mapping.get(d, d) for d in self.space.dims],
            [mapping.get(p, p) for p in self.space.params],
        )
        return BasicSet(space, [c.rename(mapping) for c in self.constraints])

    def gist_is_false(self) -> bool:
        """Syntactic check: the constraint system is a known contradiction."""
        return self.constraints == (FALSE_CONSTRAINT,)

    # -- queries -----------------------------------------------------------

    def contains(self, point: Sequence[int], env: Mapping[str, int] = None) -> bool:
        assignment: Dict[str, int] = dict(env or {})
        if len(point) != len(self.space.dims):
            raise IslError("point arity mismatch")
        assignment.update(zip(self.space.dims, point))
        return all(c.satisfied(assignment) for c in self.constraints)

    def dim_bounds(
        self, name: str, env: Mapping[str, int] = None
    ) -> Tuple[float, float]:
        """Rational (lo, hi) bounds of one dim after projecting out the rest."""
        others = [d for d in self.space.dims if d != name]
        cons = project(self.constraints, others)
        if env:
            cons = simplify([c.partial(env) for c in cons])
        if cons == [FALSE_CONSTRAINT]:
            # Empty set: an inverted interval so spans come out non-positive.
            return float("inf"), float("-inf")
        return constant_bounds(cons, name)

    def _scan_levels(self) -> List[List[Constraint]]:
        levels = self._levels
        if levels is None:
            levels = triangularize(self.constraints, self.space.dims)
            object.__setattr__(self, "_levels", levels)
        return levels

    def _level_range(
        self, level: Sequence[Constraint], name: str, env: Mapping[str, int]
    ) -> Optional[Tuple[int, int]]:
        """Integer range of ``name`` at a scan level under ``env``; None if empty."""
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for con in level:
            partial = con.expr.partial(env)
            coeff = partial.coeff(name)
            if coeff == 0:
                if partial.names():
                    raise IslError(
                        f"scan level not triangular: {con!r} under {env}"
                    )
                if con.is_eq:
                    if partial.const != 0:
                        return None
                elif partial.const < 0:
                    return None
                continue
            bound = Fraction(-partial.const, coeff)
            if con.is_eq:
                lo = bound if lo is None else max(lo, bound)
                hi = bound if hi is None else min(hi, bound)
            elif coeff > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise IslError(f"dimension {name!r} is unbounded during scan")
        lo_int = math.ceil(lo)
        hi_int = math.floor(hi)
        if lo_int > hi_int:
            return None
        return lo_int, hi_int

    def iter_ranges(
        self, env: Mapping[str, int] = None
    ) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
        """Yield ``(prefix, lo, hi)`` triples: for each assignment of the
        leading dims, the contiguous integer range of the last dim.

        Parameters must be fully fixed by ``env``.  For 0-dim sets a single
        ``((), 0, 0)`` is yielded when the set is non-empty.
        """
        env = dict(env or {})
        missing = [p for p in self.space.params if p not in env]
        if missing:
            raise IslError(f"unfixed parameters {missing} during scan")
        dims = self.space.dims
        if self.gist_is_false():
            return
        if not dims:
            if all(c.partial(env).is_trivially_true() for c in self.constraints):
                yield ((), 0, 0)
            return
        levels = self._scan_levels()

        def recurse(index: int, prefix: Tuple[int, ...]):
            bounds = self._level_range(levels[index], dims[index], env)
            if bounds is None:
                return
            lo, hi = bounds
            if index == len(dims) - 1:
                yield prefix, lo, hi
                return
            name = dims[index]
            for value in range(lo, hi + 1):
                env[name] = value
                yield from recurse(index + 1, prefix + (value,))
            del env[name]

        yield from recurse(0, ())

    def enumerate_points(
        self, env: Mapping[str, int] = None
    ) -> Iterator[Tuple[int, ...]]:
        """All integer points, in lexicographic order of the dims."""
        if not self.space.dims:
            for _prefix, _lo, _hi in self.iter_ranges(env):
                yield ()
            return
        for prefix, lo, hi in self.iter_ranges(env):
            for value in range(lo, hi + 1):
                yield prefix + (value,)

    def points_array(self, env: Mapping[str, int] = None) -> np.ndarray:
        """All integer points as an ``(n, n_dims)`` int64 array."""
        n_dims = len(self.space.dims)
        chunks: List[np.ndarray] = []
        for prefix, lo, hi in self.iter_ranges(env):
            span = hi - lo + 1
            block = np.empty((span, n_dims), dtype=np.int64)
            if prefix:
                block[:, :-1] = prefix
            block[:, n_dims - 1] = np.arange(lo, hi + 1)
            chunks.append(block)
        if not chunks:
            return np.empty((0, n_dims), dtype=np.int64)
        return np.concatenate(chunks, axis=0)

    def is_empty(self, env: Mapping[str, int] = None) -> bool:
        """Integer emptiness when all params are fixed by ``env``; otherwise a
        rational emptiness check (sound: True implies truly empty)."""
        if self.gist_is_false():
            return True
        params_fixed = env is not None and all(
            p in env for p in self.space.params
        )
        if params_fixed:
            for _ in self.iter_ranges(env):
                return False
            return True
        cons = self.constraints
        if env:
            cons = [c.partial(env) for c in cons]
        remaining = project(cons, list(self.space.dims) + list(self.space.params))
        return remaining == [FALSE_CONSTRAINT]

    def sample(self, env: Mapping[str, int] = None) -> Optional[Tuple[int, ...]]:
        for point in self.enumerate_points(env):
            return point
        return None

    def to_set(self) -> "Set":
        return Set(self.space, [self])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self.space == other.space and set(self.constraints) == set(
            other.constraints
        )

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.constraints)))

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ [{', '.join(self.space.dims)}] : {cons} }}"


class Set:
    """A finite union of :class:`BasicSet` pieces in one space."""

    __slots__ = ("space", "pieces")

    def __init__(self, space: Space, pieces: Iterable[BasicSet] = ()):
        kept: List[BasicSet] = []
        seen = set()
        for piece in pieces:
            space.check_compatible(piece.space)
            if piece.gist_is_false():
                continue
            if piece in seen:
                continue
            seen.add(piece)
            kept.append(piece)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pieces", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("Set is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(space: Space) -> "Set":
        return Set(space, ())

    @staticmethod
    def universe(space: Space) -> "Set":
        return Set(space, [BasicSet.universe(space)])

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Set") -> "Set":
        self.space.check_compatible(other.space)
        return Set(self.space, self.pieces + other.pieces)

    def intersect(self, other: "Set") -> "Set":
        self.space.check_compatible(other.space)
        pieces = [
            a.intersect(b)
            for a in self.pieces
            for b in other.pieces
        ]
        return Set(self.space, pieces)

    def subtract(self, other: "Set") -> "Set":
        """Set difference.  Produces disjoint pieces per subtracted basic set
        by peeling one constraint at a time (the isl strategy)."""
        result = self
        for bset in other.pieces:
            result = result._subtract_basic(bset)
        return result

    def _subtract_basic(self, bset: BasicSet) -> "Set":
        inequalities: List[Constraint] = []
        for con in bset.constraints:
            inequalities.extend(con.as_inequalities())
        pieces: List[BasicSet] = []
        for mine in self.pieces:
            held: List[Constraint] = []
            for con in inequalities:
                piece = mine.add_constraints(held + [con.negate()])
                if not piece.gist_is_false():
                    pieces.append(piece)
                held.append(con)
        return Set(self.space, pieces)

    def coalesce(self) -> "Set":
        """Drop pieces syntactically contained in another piece.

        Piece P is contained in piece Q when Q's constraints are a subset of
        P's (fewer constraints describe a larger set).  Duplicate pieces are
        already removed by the constructor.
        """
        kept: List[BasicSet] = []
        dropped = set()
        for index, piece in enumerate(self.pieces):
            contained = False
            for other_index, other in enumerate(self.pieces):
                if other_index == index or other_index in dropped:
                    continue
                if piece.to_set()._subtract_basic(other).is_empty():
                    contained = True
                    break
            if contained:
                dropped.add(index)
            else:
                kept.append(piece)
        return Set(self.space, kept)

    def fix_params(self, env: Mapping[str, int]) -> "Set":
        pieces = [p.fix_params(env) for p in self.pieces]
        space = pieces[0].space if pieces else Space(
            self.space.dims,
            [p for p in self.space.params if p not in env],
        )
        return Set(space, pieces)

    def project_out(self, names: Iterable[str]) -> "Set":
        names = list(names)
        pieces = [p.project_out(names) for p in self.pieces]
        return Set(self.space.drop_dims(names), pieces)

    def rename(self, mapping: Mapping[str, str]) -> "Set":
        pieces = [p.rename(mapping) for p in self.pieces]
        space = Space(
            [mapping.get(d, d) for d in self.space.dims],
            [mapping.get(p, p) for p in self.space.params],
        )
        return Set(space, pieces)

    # -- queries -----------------------------------------------------------

    def contains(self, point: Sequence[int], env: Mapping[str, int] = None) -> bool:
        return any(p.contains(point, env) for p in self.pieces)

    def is_empty(self, env: Mapping[str, int] = None) -> bool:
        return all(p.is_empty(env) for p in self.pieces)

    def make_disjoint(self) -> "Set":
        """Rewrite the union so the pieces are pairwise disjoint."""
        disjoint: List[BasicSet] = []
        accumulated = Set.empty(self.space)
        for piece in self.pieces:
            fresh = piece.to_set().subtract(accumulated)
            disjoint.extend(fresh.pieces)
            accumulated = accumulated.union(piece.to_set())
        return Set(self.space, disjoint)

    def enumerate_points(
        self, env: Mapping[str, int] = None
    ) -> Iterator[Tuple[int, ...]]:
        if len(self.pieces) == 1:
            yield from self.pieces[0].enumerate_points(env)
            return
        for piece in self.make_disjoint().pieces:
            yield from piece.enumerate_points(env)

    def points_array(self, env: Mapping[str, int] = None) -> np.ndarray:
        source = self if len(self.pieces) <= 1 else self.make_disjoint()
        arrays = [p.points_array(env) for p in source.pieces]
        if not arrays:
            return np.empty((0, len(self.space.dims)), dtype=np.int64)
        return np.concatenate(arrays, axis=0)

    def sample(self, env: Mapping[str, int] = None) -> Optional[Tuple[int, ...]]:
        for piece in self.pieces:
            point = piece.sample(env)
            if point is not None:
                return point
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return self.space == other.space and set(self.pieces) == set(other.pieces)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.pieces)))

    def __repr__(self) -> str:
        if not self.pieces:
            return f"{{ [{', '.join(self.space.dims)}] : false }}"
        return " union ".join(repr(p) for p in self.pieces)
