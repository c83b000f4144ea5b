"""Shrinker: structural reduction + the injected off-by-one demo.

The demo is the acceptance test for the whole harness: a throwaway copy
of the reference level walk with its eviction guard off by one
(``len(stack) >= assoc`` instead of ``> assoc``, i.e. the cache keeps one
way too few) must be *caught* by differential comparison on a fuzzed
kernel and *shrunk* to a tiny repro (<= 2 loop dims, <= 8 iterations).
"""

from typing import List, Tuple

from repro.cache import generate_trace, reference_cm
from repro.cache.config import CacheLevelConfig
from repro.verify import (
    build_hierarchy,
    build_module,
    generate_spec,
    iteration_count,
    shrink,
    spec_to_pytest,
)
from repro.verify.generator import KernelSpec
from repro.verify.shrinker import _expr_subst


# --- a deliberately broken engine copy (the bug under demo) -------------


def _broken_model_level(
    lines: List[int], writes: List[bool], config: CacheLevelConfig
) -> Tuple[int, int, List[int], List[bool]]:
    """The reference walk with an off-by-one eviction guard."""
    num_sets = config.num_sets
    assoc = config.associativity
    stacks: List[List[int]] = [[] for _ in range(num_sets)]
    seen: List[set] = [set() for _ in range(num_sets)]
    cold = 0
    cap_conflict = 0
    next_lines: List[int] = []
    next_writes: List[bool] = []
    for line, is_write in zip(lines, writes):
        set_index = line % num_sets
        stack = stacks[set_index]
        missed = False
        try:
            depth = stack.index(line)
            stack.insert(0, stack.pop(depth))
        except ValueError:
            missed = True
            set_seen = seen[set_index]
            if line in set_seen:
                cap_conflict += 1
            else:
                cold += 1
                set_seen.add(line)
            stack.insert(0, line)
            if len(stack) >= assoc:  # BUG: evicts one way too early
                stack.pop()
        if missed:
            next_lines.append(line)
            next_writes.append(False)
        if is_write:
            next_lines.append(line)
            next_writes.append(True)
    return cold, cap_conflict, next_lines, next_writes


def _broken_counters(spec: KernelSpec) -> Tuple[Tuple[int, int], ...]:
    trace = generate_trace(build_module(spec))
    hierarchy = build_hierarchy(spec)
    lines = trace.line_ids(hierarchy.line_bytes).tolist()
    writes = trace.is_write.tolist()
    per_level = []
    for config in hierarchy.levels:
        cold, cc, lines, writes = _broken_model_level(lines, writes, config)
        per_level.append((cold, cc))
    return tuple(per_level)


def _reference_counters(spec: KernelSpec) -> Tuple[Tuple[int, int], ...]:
    trace = generate_trace(build_module(spec))
    cm = reference_cm(trace, build_hierarchy(spec))
    return tuple(
        (level.cold_misses, level.capacity_conflict_misses)
        for level in cm.counters()
    )


def _bug_reproduces(spec: KernelSpec) -> bool:
    return _broken_counters(spec) != _reference_counters(spec)


def test_off_by_one_is_caught_and_shrunk_small():
    failing = None
    for index in range(200):
        spec = generate_spec(1234, index)
        if _bug_reproduces(spec):
            failing = spec
            break
    assert failing is not None, (
        "no fuzzed kernel exposed the injected off-by-one in 200 cases"
    )

    shrunk = shrink(failing, _bug_reproduces)
    assert _bug_reproduces(shrunk)
    # Acceptance bar: a tiny, human-readable repro.
    assert shrunk.max_depth <= 2
    assert shrunk.max_extent <= 8
    assert iteration_count(shrunk) <= 8
    assert iteration_count(shrunk) <= iteration_count(failing)
    # The repro must be emittable as a standalone pytest.
    source = spec_to_pytest(shrunk, "injected off-by-one demo")
    assert "SPEC_JSON" in source


def test_shrink_respects_evaluation_budget():
    spec = generate_spec(0, 4)
    calls = []

    def predicate(candidate):
        calls.append(candidate)
        return True  # everything "fails": worst case for the budget

    shrink(spec, predicate, max_evaluations=25)
    assert len(calls) <= 25


def test_shrink_is_identity_when_nothing_reproduces():
    spec = generate_spec(0, 2)
    assert shrink(spec, lambda candidate: False) == spec


def test_shrink_guards_raising_predicates():
    spec = generate_spec(0, 3)

    def explosive(candidate):
        raise RuntimeError("oracle machinery rejected the candidate")

    assert shrink(spec, explosive) == spec


def test_expr_subst():
    expr = (2, (("i", 3), ("j", 1)))
    assert _expr_subst(expr, "i", (4, ())) == (14, (("j", 1),))
    assert _expr_subst(expr, "i", (0, (("k", 2),))) == (
        2,
        (("j", 1), ("k", 6)),
    )
    assert _expr_subst(expr, "z", (9, ())) == expr
