"""Dependence analysis: direction vectors between statement pairs.

The analysis is a practical distance/direction-vector abstraction of the
dependence polyhedron, exact for uniform (constant-distance) dependences and
conservative otherwise:

* per common loop dimension, a component is an exact integer distance, or
  ``'*'`` (unknown),
* each vector is then refined with lexicographic positivity: scanning from
  the outermost dimension, if every earlier component is exactly 0, the
  first unknown component can only be non-negative (``'0+'``); vectors whose
  first fixed non-zero component is negative describe the reverse pair and
  are dropped.

Legality predicates consume the refined vectors: a loop dimension is
parallel when no dependence can be carried there, and a band is tilable
(fully permutable) when every component inside it is guaranteed
non-negative.  ``'*'`` is treated conservatively in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.ir.dialects.affine import AffineForOp
from repro.poly.scop import SCoP, Statement

#: A direction component: exact distance, '*' (unknown) or '0+' (>= 0).
Component = Union[int, str]


@dataclass(frozen=True)
class Dependence:
    """A dependence between two statements with a direction vector."""

    source: str
    sink: str
    buffer: str
    directions: Tuple[Component, ...]

    def carried_possible_at(self, dim: int) -> bool:
        """Could this dependence be carried by loop dimension ``dim``?"""
        for component in self.directions[:dim]:
            if component != 0 and component != "0+" and component != "*":
                return False  # definitely carried at an outer dim
            if component == "0+" or component == "*":
                # may be zero: keep scanning, still possibly carried at dim
                continue
        if dim >= len(self.directions):
            return False
        component = self.directions[dim]
        if component == 0:
            return False
        return True  # positive int, '0+', or '*': possibly carried here

    def nonnegative_through(self, depth: int) -> bool:
        """Are all components in dims [0, depth) guaranteed >= 0?"""
        for component in self.directions[:depth]:
            if component == "*":
                return False
            if isinstance(component, int) and component < 0:
                return False
        return True


def _subscript_constraint(
    fixed: Dict[int, int],
    star: Set[int],
    expr_a,
    expr_b,
    common_names: Sequence[str],
    all_iv_names: Set[str],
) -> bool:
    """Fold one subscript-pair equality into per-dim info.

    Returns False when the pair can never access the same element (no
    dependence at all).
    """
    name_to_dim = {name: index for index, name in enumerate(common_names)}
    coeffs_a = expr_a.coeffs
    coeffs_b = expr_b.coeffs

    involved_common = {
        name_to_dim[n]
        for n in set(coeffs_a) | set(coeffs_b)
        if n in name_to_dim
    }
    involves_inner = any(
        n in all_iv_names and n not in name_to_dim
        for n in set(coeffs_a) | set(coeffs_b)
    )

    if coeffs_a == coeffs_b and not involves_inner:
        iv_keys = [n for n in coeffs_a if n in name_to_dim]
        if len(iv_keys) == 0:
            # pure param/constant subscript: distinct constants never alias
            return expr_a.const == expr_b.const
        if len(iv_keys) == 1:
            dim = name_to_dim[iv_keys[0]]
            coeff = coeffs_a[iv_keys[0]]
            numerator = expr_a.const - expr_b.const
            if numerator % coeff != 0:
                return False
            distance = numerator // coeff
            if dim in fixed and fixed[dim] != distance:
                return False
            if dim in star:
                star.discard(dim)
            fixed[dim] = distance
            return True
    # coupled or mismatched subscripts: unknown directions for involved dims
    for dim in involved_common:
        if dim not in fixed:
            star.add(dim)
    return True


def _pair_directions(
    source: Statement, sink: Statement, depth: int
) -> List[Tuple[Component, ...]]:
    """Direction vectors for all conflicting access pairs of two statements."""
    common_names = source.loop_names[:depth]
    all_ivs = set(source.loop_names) | set(sink.loop_names)
    vectors: List[Tuple[Component, ...]] = []
    for access_a in source.accesses:
        for access_b in sink.accesses:
            if access_a.buffer is not access_b.buffer:
                continue
            if not (access_a.is_write or access_b.is_write):
                continue
            fixed: Dict[int, int] = {}
            star: Set[int] = set()
            feasible = True
            for expr_a, expr_b in zip(access_a.indices, access_b.indices):
                if not _subscript_constraint(
                    fixed, star, expr_a, expr_b, common_names, all_ivs
                ):
                    feasible = False
                    break
            if not feasible:
                continue
            raw = tuple(
                fixed.get(dim, "*") if dim not in star else "*"
                for dim in range(depth)
            )
            refined = _refine_lexpositive(raw)
            if refined is not None:
                vectors.append(refined)
    return vectors


def _refine_lexpositive(
    vector: Tuple[Component, ...]
) -> Optional[Tuple[Component, ...]]:
    """Apply lexicographic positivity; None when the vector is infeasible
    as a forward dependence (all-zero vectors are kept: loop-independent)."""
    refined: List[Component] = []
    all_zero_so_far = True
    for component in vector:
        if component == "*" and all_zero_so_far:
            refined.append("0+")
            all_zero_so_far = False  # may be positive; later dims unknown
        elif isinstance(component, int):
            if all_zero_so_far and component < 0:
                return None
            if component != 0:
                all_zero_so_far = False
            refined.append(component)
        else:
            refined.append(component)
    return tuple(refined)


def nest_dependences(scop: SCoP, root: AffineForOp) -> List[Dependence]:
    """All dependences among the statements under one top-level nest."""
    statements = scop.statements_under(root)
    deps: List[Dependence] = []
    seen = set()
    for source in statements:
        for sink in statements:
            depth = scop.common_loops(source, sink)
            if depth == 0:
                continue
            for vector in _pair_directions(source, sink, depth):
                # All-zero vectors are loop-independent dependences; they
                # only exist when the source precedes the sink in the body
                # (same-iteration ordering), never for a statement with
                # itself or for a source that follows its sink.
                if source.schedule_prefix >= sink.schedule_prefix and all(
                    c == 0 for c in vector
                ):
                    continue
                conflicting_buffer = _conflict_buffer(source, sink)
                key = (source.name, sink.name, conflicting_buffer, vector)
                if key in seen:
                    continue
                seen.add(key)
                deps.append(
                    Dependence(source.name, sink.name, conflicting_buffer, vector)
                )
    return deps


def _conflict_buffer(source: Statement, sink: Statement) -> str:
    for access_a in source.accesses:
        for access_b in sink.accesses:
            if access_a.buffer is access_b.buffer and (
                access_a.is_write or access_b.is_write
            ):
                return access_a.buffer.name
    return "?"


def is_parallel_dim(deps: Sequence[Dependence], dim: int) -> bool:
    """True when no dependence can be carried by loop dimension ``dim``."""
    return not any(dep.carried_possible_at(dim) for dep in deps)


def permutable_prefix_depth(deps: Sequence[Dependence], max_depth: int) -> int:
    """Largest k <= max_depth with all dependence components in dims [0,k)
    guaranteed non-negative (the band is fully permutable, hence tilable)."""
    depth = 0
    while depth < max_depth and all(
        dep.nonnegative_through(depth + 1) for dep in deps
    ):
        depth += 1
    return depth
