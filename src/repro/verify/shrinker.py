"""Greedy spec shrinker: minimize a failing differential case.

Given a :class:`~repro.verify.generator.KernelSpec` and a *failure
predicate* (``predicate(spec) -> True`` while the bug still reproduces),
:func:`shrink` repeatedly applies structural reductions and keeps every
candidate on which the predicate still holds, until a fixpoint:

1. drop whole statements,
2. drop individual accesses (a statement left with no accesses is
   removed),
3. drop unused buffers and trailing cache levels,
4. collapse a loop dimension (substitute ``iv := lower`` everywhere),
5. halve loop extents,
6. normalize steps to 1, subscript constants to 0 and coefficients to 1.

Transformations need not preserve kernel semantics -- only the
predicate matters -- so the shrinker is free to take any reduction the
bug survives.  After every structural change the buffers are re-fitted
(:func:`~repro.verify.generator.fit_buffers`) so candidates stay
in-bounds.  Passes are ordered coarse-to-fine: removing a statement
shrinks the search space for every later pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

from repro.verify.generator import (
    AccessSpec,
    ExprData,
    KernelSpec,
    LoopSpec,
    StatementSpec,
    fit_buffers,
)

Predicate = Callable[[KernelSpec], bool]


def _expr_subst(expr: ExprData, iv: str, replacement: ExprData) -> ExprData:
    """Substitute ``iv := replacement`` inside an affine expression."""
    const, coeffs = expr
    remaining: Dict[str, int] = dict(coeffs)
    weight = remaining.pop(iv, 0)
    new_const = const + weight * replacement[0]
    for name, coeff in replacement[1]:
        remaining[name] = remaining.get(name, 0) + weight * coeff
    return (
        new_const,
        tuple(sorted((n, c) for n, c in remaining.items() if c)),
    )


def _with_statements(
    spec: KernelSpec, statements: Tuple[StatementSpec, ...]
) -> KernelSpec:
    used = {a.buffer for s in statements for a in s.accesses}
    buffers = tuple(b for b in spec.buffers if b.name in used)
    return fit_buffers(
        KernelSpec(spec.name, buffers, statements, spec.levels, spec.seed)
    )


def _drop_statements(spec: KernelSpec) -> Iterator[KernelSpec]:
    if len(spec.statements) <= 1:
        return
    for index in range(len(spec.statements)):
        kept = tuple(
            s for i, s in enumerate(spec.statements) if i != index
        )
        yield _with_statements(spec, kept)


def _drop_accesses(spec: KernelSpec) -> Iterator[KernelSpec]:
    for s_index, statement in enumerate(spec.statements):
        for a_index in range(len(statement.accesses)):
            accesses = tuple(
                a
                for i, a in enumerate(statement.accesses)
                if i != a_index
            )
            statements = list(spec.statements)
            if accesses:
                statements[s_index] = StatementSpec(
                    statement.loops, accesses
                )
            else:
                del statements[s_index]
            if statements:
                yield _with_statements(spec, tuple(statements))


def _drop_levels(spec: KernelSpec) -> Iterator[KernelSpec]:
    # Any prefix of a valid hierarchy is valid (strict growth, shared
    # line size are hereditary); the interesting level is usually L1.
    for keep in range(len(spec.levels) - 1, 0, -1):
        yield fit_buffers(
            KernelSpec(
                spec.name,
                spec.buffers,
                spec.statements,
                spec.levels[:keep],
                spec.seed,
            )
        )


def _collapse_loops(spec: KernelSpec) -> Iterator[KernelSpec]:
    for s_index, statement in enumerate(spec.statements):
        if len(statement.loops) <= 1:
            continue
        for depth in range(len(statement.loops)):
            victim = statement.loops[depth]
            value = victim.lower
            loops = []
            for loop in statement.loops[:depth]:
                loops.append(loop)
            for loop in statement.loops[depth + 1 :]:
                loops.append(
                    LoopSpec(
                        loop.iv,
                        _expr_subst(loop.lower, victim.iv, value),
                        _expr_subst(loop.upper, victim.iv, value),
                        loop.step,
                    )
                )
            accesses = tuple(
                AccessSpec(
                    a.buffer,
                    a.is_write,
                    tuple(
                        _expr_subst(s, victim.iv, value)
                        for s in a.subscripts
                    ),
                )
                for a in statement.accesses
            )
            statements = list(spec.statements)
            statements[s_index] = StatementSpec(tuple(loops), accesses)
            yield _with_statements(spec, tuple(statements))


def _halve_extents(spec: KernelSpec) -> Iterator[KernelSpec]:
    for s_index, statement in enumerate(spec.statements):
        for l_index, loop in enumerate(statement.loops):
            upper_const, upper_coeffs = loop.upper
            if upper_coeffs:
                continue  # triangular upper: extent rides an outer iv
            lower_const = loop.lower[0] if not loop.lower[1] else 0
            span = upper_const - lower_const
            if span <= 1:
                continue
            for new_span in (span // 2, 1):
                if new_span >= span:
                    continue
                loops = list(statement.loops)
                loops[l_index] = LoopSpec(
                    loop.iv,
                    loop.lower,
                    (lower_const + new_span, ()),
                    loop.step,
                )
                statements = list(spec.statements)
                statements[s_index] = StatementSpec(
                    tuple(loops), statement.accesses
                )
                yield _with_statements(spec, tuple(statements))


def _normalize(spec: KernelSpec) -> Iterator[KernelSpec]:
    for s_index, statement in enumerate(spec.statements):
        for l_index, loop in enumerate(statement.loops):
            if loop.step != 1:
                loops = list(statement.loops)
                loops[l_index] = LoopSpec(
                    loop.iv, loop.lower, loop.upper, 1
                )
                statements = list(spec.statements)
                statements[s_index] = StatementSpec(
                    tuple(loops), statement.accesses
                )
                yield _with_statements(spec, tuple(statements))
        for a_index, access in enumerate(statement.accesses):
            for x_index, subscript in enumerate(access.subscripts):
                const, coeffs = subscript
                simplified = (
                    0,
                    tuple((name, 1) for name, _ in coeffs),
                )
                if simplified == subscript:
                    continue
                subscripts = list(access.subscripts)
                subscripts[x_index] = simplified
                accesses = list(statement.accesses)
                accesses[a_index] = AccessSpec(
                    access.buffer, access.is_write, tuple(subscripts)
                )
                statements = list(spec.statements)
                statements[s_index] = StatementSpec(
                    statement.loops, tuple(accesses)
                )
                yield _with_statements(spec, tuple(statements))


_PASSES: Tuple[Callable[[KernelSpec], Iterator[KernelSpec]], ...] = (
    _drop_statements,
    _drop_accesses,
    _drop_levels,
    _collapse_loops,
    _halve_extents,
    _normalize,
)


def shrink(
    spec: KernelSpec,
    predicate: Predicate,
    max_evaluations: int = 500,
) -> KernelSpec:
    """Greedily minimize ``spec`` while ``predicate`` keeps returning True.

    The predicate is guarded: a candidate on which it *raises* is treated
    as not reproducing (some reductions leave the supported IR class in
    ways the predicate's machinery rejects).  ``max_evaluations`` bounds
    total predicate calls so a pathological case cannot stall a fuzz
    campaign; the best spec found so far is returned regardless.
    """
    evaluations = 0

    def still_fails(candidate: KernelSpec) -> bool:
        nonlocal evaluations
        if evaluations >= max_evaluations:
            return False
        evaluations += 1
        try:
            return bool(predicate(candidate))
        except Exception:
            return False

    current = spec
    progress = True
    while progress and evaluations < max_evaluations:
        progress = False
        for produce in _PASSES:
            accepted = True
            while accepted and evaluations < max_evaluations:
                accepted = False
                for candidate in produce(current):
                    if still_fails(candidate):
                        current = candidate
                        accepted = True
                        progress = True
                        break
    return current
