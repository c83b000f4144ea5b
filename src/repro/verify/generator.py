"""Seeded random affine-kernel generator for differential verification.

A :class:`KernelSpec` is a pure-data description of one capping unit plus
the cache hierarchy it is evaluated against: loop nests (rectangular or
triangular bounds, unit or non-unit steps), load/store accesses with
affine subscripts (unit-stride, strided, transposed, line-misaligned),
and 1-3 buffers whose shapes are fitted to the accesses (odd extents give
partial-line buffers for free).  Being plain data, a spec can be

* built into an IR :class:`~repro.ir.core.Module` (:func:`build_module`),
* serialized to/from JSON (:func:`spec_to_json` / :func:`spec_from_json`)
  for corpus files and failure artifacts,
* transformed structurally by the shrinker (:mod:`repro.verify.shrinker`),
* rendered as a paste-able pytest repro (:func:`spec_to_pytest`).

:func:`generate_spec` samples the supported IR class from a seeded
``random.Random`` so every fuzz campaign is reproducible from its seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.ir.builder import AffineBuilder
from repro.ir.core import F32, F64, ElementType, Module
from repro.isllite import LinExpr

#: Serializable affine expression: constant + iv coefficients.
ExprData = Tuple[int, Tuple[Tuple[str, int], ...]]

_DTYPES: Dict[str, ElementType] = {"f32": F32, "f64": F64}


def _expr(const: int, **coeffs: int) -> ExprData:
    return (int(const), tuple(sorted((n, int(c)) for n, c in coeffs.items() if c)))


def expr_to_linexpr(expr: ExprData) -> LinExpr:
    const, coeffs = expr
    return LinExpr(dict(coeffs), const)


def _expr_names(expr: ExprData) -> Tuple[str, ...]:
    return tuple(name for name, _ in expr[1])


def _expr_eval(expr: ExprData, env: Dict[str, int]) -> int:
    const, coeffs = expr
    return const + sum(coeff * env[name] for name, coeff in coeffs)


def _expr_rename(expr: ExprData, mapping: Dict[str, str]) -> ExprData:
    const, coeffs = expr
    return (
        const,
        tuple(sorted((mapping.get(n, n), c) for n, c in coeffs)),
    )


@dataclass(frozen=True)
class BufferSpec:
    """One array: name, shape, element type."""

    name: str
    shape: Tuple[int, ...]
    dtype: str = "f64"


@dataclass(frozen=True)
class AccessSpec:
    """One textual access: buffer, read/write, affine subscripts."""

    buffer: str
    is_write: bool
    subscripts: Tuple[ExprData, ...]


@dataclass(frozen=True)
class LoopSpec:
    """One loop of a nest; bounds are affine in the *outer* ivs."""

    iv: str
    lower: ExprData
    upper: ExprData
    step: int = 1


@dataclass(frozen=True)
class StatementSpec:
    """One top-level nest: loops outer-to-inner plus its body accesses."""

    loops: Tuple[LoopSpec, ...]
    accesses: Tuple[AccessSpec, ...]


@dataclass(frozen=True)
class LevelSpec:
    """One cache level of the spec's hierarchy."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int


@dataclass(frozen=True)
class KernelSpec:
    """A self-contained differential-verification case."""

    name: str
    buffers: Tuple[BufferSpec, ...]
    statements: Tuple[StatementSpec, ...]
    levels: Tuple[LevelSpec, ...]
    seed: Optional[int] = None

    @property
    def max_depth(self) -> int:
        return max((len(s.loops) for s in self.statements), default=0)

    @property
    def max_extent(self) -> int:
        """Largest single-loop trip count over every statement's domain."""
        worst = 0
        for statement in self.statements:
            for depth in range(len(statement.loops)):
                for trip in _loop_trips(statement, depth):
                    worst = max(worst, trip)
        return worst

    def fingerprint(self) -> str:
        """A short stable identity for logs and artifact file names."""
        import hashlib

        return hashlib.sha256(spec_to_json(self).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Domain enumeration (tiny by construction; used for shape fitting)
# ---------------------------------------------------------------------------


def _domain_points(
    statement: StatementSpec,
) -> Iterator[Tuple[Dict[str, int], None]]:
    """Every iteration point of the (small) statement domain."""

    def walk(depth: int, env: Dict[str, int]) -> Iterator[Tuple[Dict[str, int], None]]:
        if depth == len(statement.loops):
            yield dict(env), None
            return
        loop = statement.loops[depth]
        lower = _expr_eval(loop.lower, env)
        upper = _expr_eval(loop.upper, env)
        for value in range(lower, upper, loop.step):
            env[loop.iv] = value
            yield from walk(depth + 1, env)
        env.pop(loop.iv, None)

    yield from walk(0, {})


def _loop_trips(statement: StatementSpec, depth: int) -> Iterator[int]:
    """Trip counts taken by loop ``depth`` across outer iterations."""

    def walk(d: int, env: Dict[str, int]) -> Iterator[int]:
        loop = statement.loops[d]
        lower = _expr_eval(loop.lower, env)
        upper = _expr_eval(loop.upper, env)
        if d == depth:
            span = max(0, upper - lower)
            yield (span + loop.step - 1) // loop.step if span else 0
            return
        for value in range(lower, upper, loop.step):
            env[loop.iv] = value
            yield from walk(d + 1, env)
        env.pop(loop.iv, None)

    if depth < len(statement.loops):
        yield from walk(0, {})


def iteration_count(spec: KernelSpec) -> int:
    """Total statement instances across the spec's domains."""
    total = 0
    for statement in spec.statements:
        total += sum(1 for _ in _domain_points(statement))
    return total


def fit_buffers(spec: KernelSpec) -> KernelSpec:
    """Re-size every buffer to exactly cover its accesses.

    Shapes become ``max subscript value + 1`` per dimension (at least 1),
    evaluated by brute force over the tiny iteration domains.  Called by
    the generator and after every shrinking transformation so shrunk
    kernels stay in-bounds and keep their partial-line character.
    """
    maxima: Dict[str, List[int]] = {
        buffer.name: [0] * len(buffer.shape) for buffer in spec.buffers
    }
    for statement in spec.statements:
        subscripted = [
            (access, maxima[access.buffer]) for access in statement.accesses
        ]
        for env, _ in _domain_points(statement):
            for access, dims in subscripted:
                for axis, subscript in enumerate(access.subscripts):
                    value = _expr_eval(subscript, env)
                    if value > dims[axis]:
                        dims[axis] = value
    buffers = tuple(
        BufferSpec(
            buffer.name,
            tuple(top + 1 for top in maxima[buffer.name]),
            buffer.dtype,
        )
        for buffer in spec.buffers
    )
    return KernelSpec(spec.name, buffers, spec.statements, spec.levels, spec.seed)


# ---------------------------------------------------------------------------
# Spec -> IR module / cache hierarchy
# ---------------------------------------------------------------------------


def build_module(spec: KernelSpec) -> Module:
    """Materialize the spec as an affine IR module."""
    module = Module(spec.name)
    buffers = {
        b.name: module.add_buffer(b.name, b.shape, _DTYPES[b.dtype])
        for b in spec.buffers
    }
    builder = AffineBuilder(module)
    for statement in spec.statements:

        def body(depth: int) -> None:
            if depth < len(statement.loops):
                loop = statement.loops[depth]
                with builder.loop(
                    loop.iv,
                    expr_to_linexpr(loop.lower),
                    expr_to_linexpr(loop.upper),
                    step=loop.step,
                ):
                    body(depth + 1)
                return
            value = builder.const(1.0)
            for access in statement.accesses:
                indices = [expr_to_linexpr(s) for s in access.subscripts]
                if access.is_write:
                    builder.store(value, buffers[access.buffer], indices)
                else:
                    builder.load(buffers[access.buffer], indices)

        body(0)
    return module


def build_hierarchy(spec: KernelSpec) -> CacheHierarchy:
    return CacheHierarchy(
        tuple(
            CacheLevelConfig(
                level.name,
                level.size_bytes,
                level.line_bytes,
                level.associativity,
            )
            for level in spec.levels
        )
    )


def rename_dims(spec: KernelSpec, prefix: str = "x") -> KernelSpec:
    """The same kernel with every induction variable renamed.

    Used by the OI-invariance metamorphic check: dimension names carry no
    semantics, so every engine must produce identical counters.
    """
    mapping: Dict[str, str] = {}
    for statement in spec.statements:
        for loop in statement.loops:
            if loop.iv not in mapping:
                mapping[loop.iv] = f"{prefix}{len(mapping)}"
    statements = tuple(
        StatementSpec(
            loops=tuple(
                LoopSpec(
                    mapping[loop.iv],
                    _expr_rename(loop.lower, mapping),
                    _expr_rename(loop.upper, mapping),
                    loop.step,
                )
                for loop in statement.loops
            ),
            accesses=tuple(
                AccessSpec(
                    access.buffer,
                    access.is_write,
                    tuple(
                        _expr_rename(s, mapping) for s in access.subscripts
                    ),
                )
                for access in statement.accesses
            ),
        )
        for statement in spec.statements
    )
    return KernelSpec(
        spec.name, spec.buffers, statements, spec.levels, spec.seed
    )


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _expr_to_data(expr: ExprData) -> dict:
    return {"const": expr[0], "coeffs": dict(expr[1])}


def _expr_from_data(data: dict) -> ExprData:
    return (
        int(data["const"]),
        tuple(sorted((str(n), int(c)) for n, c in data["coeffs"].items())),
    )


def spec_to_json(spec: KernelSpec) -> str:
    payload = {
        "name": spec.name,
        "seed": spec.seed,
        "buffers": [
            {"name": b.name, "shape": list(b.shape), "dtype": b.dtype}
            for b in spec.buffers
        ],
        "statements": [
            {
                "loops": [
                    {
                        "iv": loop.iv,
                        "lower": _expr_to_data(loop.lower),
                        "upper": _expr_to_data(loop.upper),
                        "step": loop.step,
                    }
                    for loop in statement.loops
                ],
                "accesses": [
                    {
                        "buffer": access.buffer,
                        "is_write": access.is_write,
                        "subscripts": [
                            _expr_to_data(s) for s in access.subscripts
                        ],
                    }
                    for access in statement.accesses
                ],
            }
            for statement in spec.statements
        ],
        "levels": [
            {
                "name": level.name,
                "size_bytes": level.size_bytes,
                "line_bytes": level.line_bytes,
                "associativity": level.associativity,
            }
            for level in spec.levels
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def spec_from_json(text: str) -> KernelSpec:
    data = json.loads(text)
    return KernelSpec(
        name=str(data["name"]),
        seed=data.get("seed"),
        buffers=tuple(
            BufferSpec(b["name"], tuple(int(d) for d in b["shape"]), b["dtype"])
            for b in data["buffers"]
        ),
        statements=tuple(
            StatementSpec(
                loops=tuple(
                    LoopSpec(
                        loop["iv"],
                        _expr_from_data(loop["lower"]),
                        _expr_from_data(loop["upper"]),
                        int(loop.get("step", 1)),
                    )
                    for loop in statement["loops"]
                ),
                accesses=tuple(
                    AccessSpec(
                        access["buffer"],
                        bool(access["is_write"]),
                        tuple(
                            _expr_from_data(s) for s in access["subscripts"]
                        ),
                    )
                    for access in statement["accesses"]
                ),
            )
            for statement in data["statements"]
        ),
        levels=tuple(
            LevelSpec(
                level["name"],
                int(level["size_bytes"]),
                int(level["line_bytes"]),
                int(level["associativity"]),
            )
            for level in data["levels"]
        ),
    )


def spec_to_pytest(spec: KernelSpec, reason: str = "") -> str:
    """A standalone paste-able pytest module reproducing the case.

    The spec travels as embedded JSON (robust to formatting) and the test
    body re-runs the full differential oracle, so the repro fails for
    exactly the reason the fuzzer found.
    """
    blob = spec_to_json(spec)
    header = f"# repro for: {reason}\n" if reason else ""
    return f'''"""Auto-generated differential-verification repro.

{header}Regenerate with ``python -m repro.cli fuzz`` (see docs/TESTING.md).
"""

from repro.verify import run_case, spec_from_json

SPEC_JSON = r\'\'\'
{blob}
\'\'\'


def test_engines_agree():
    result = run_case(spec_from_json(SPEC_JSON))
    assert result.ok, "\\n".join(str(d) for d in result.disagreements)
'''


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

#: Loop extents stay small so the reference (pure Python) engine is never
#: the bottleneck; adversarial behaviour comes from geometry, not scale.
_MAX_EXTENT = 8
_MAX_DEPTH = 3
_MAX_STATEMENTS = 3
_MAX_ACCESSES = 4


def _sample_hierarchy(rng: random.Random, case_name: str) -> Tuple[LevelSpec, ...]:
    line_bytes = rng.choice((16, 32, 64))
    depth = rng.choice((1, 1, 2, 2, 3))
    fully_associative = rng.random() < 0.35
    levels: List[LevelSpec] = []
    lines = rng.choice((2, 4, 8))
    for index in range(depth):
        if fully_associative:
            assoc = lines
        else:
            assoc = rng.choice([a for a in (1, 2, 4) if a <= lines])
        levels.append(
            LevelSpec(
                name=f"L{index + 1}",
                size_bytes=lines * line_bytes,
                line_bytes=line_bytes,
                associativity=assoc,
            )
        )
        lines *= rng.choice((2, 4))
    return tuple(levels)


def _sample_subscript(
    rng: random.Random, ivs: Sequence[str], allow_const: bool = True
) -> ExprData:
    coeffs: Dict[str, int] = {}
    for iv in ivs:
        roll = rng.random()
        if roll < 0.45:
            coeffs[iv] = 1
        elif roll < 0.60:
            coeffs[iv] = rng.choice((2, 3))
    const = rng.choice((0, 0, 0, 1, 2, 3)) if allow_const else 0
    return _expr(const, **coeffs)


def generate_spec(seed: int, index: int = 0) -> KernelSpec:
    """Deterministically sample one verification case.

    ``(seed, index)`` fully determines the result; a fuzz campaign is the
    sequence ``generate_spec(seed, 0), generate_spec(seed, 1), ...``.
    """
    rng = random.Random(f"repro.verify:{seed}:{index}")
    levels = _sample_hierarchy(rng, f"case{index}")

    buffer_count = rng.choice((1, 2, 2, 3))
    buffers = []
    for b in range(buffer_count):
        rank = rng.choice((1, 2, 2, 3))
        dtype = rng.choice(("f64", "f64", "f32"))
        buffers.append(BufferSpec(f"B{b}", (1,) * rank, dtype))

    iv_counter = 0
    statements: List[StatementSpec] = []
    for _ in range(rng.choice((1, 1, 2, _MAX_STATEMENTS))):
        depth = rng.choice((1, 2, 2, _MAX_DEPTH))
        loops: List[LoopSpec] = []
        outer: List[str] = []
        for _ in range(depth):
            iv = f"i{iv_counter}"
            iv_counter += 1
            lower: ExprData = _expr(rng.choice((0, 0, 0, 1)))
            extent = rng.randint(1, _MAX_EXTENT)
            upper: ExprData = _expr(lower[0] + extent)
            if outer and rng.random() < 0.3:
                # Triangular / trapezoidal: a bound (or both) is affine
                # in one outer iv.  Lower-triangular (lower = outer iv)
                # can yield empty domains when the outer value passes the
                # constant upper bound -- kept on purpose; the banded
                # form (both bounds riding the same anchor) walks a
                # constant-width trapezoidal wavefront.
                anchor = rng.choice(outer)
                roll = rng.random()
                if roll < 0.35:
                    lower = _expr(rng.choice((0, 0, 1)), **{anchor: 1})
                    upper = _expr(rng.randint(1, _MAX_EXTENT))
                elif roll < 0.7:
                    lower = _expr(rng.choice((0, 1)))
                    upper = _expr(rng.choice((0, 1, 2, 3)), **{anchor: 1})
                else:
                    lower = _expr(0, **{anchor: 1})
                    upper = _expr(rng.randint(1, 4), **{anchor: 1})
            step = rng.choice((1, 1, 1, 2))
            loops.append(LoopSpec(iv, lower, upper, step))
            outer.append(iv)
        accesses: List[AccessSpec] = []
        for position in range(rng.randint(1, _MAX_ACCESSES)):
            buffer = rng.choice(buffers)
            subscripts = []
            ivs = list(outer)
            if rng.random() < 0.3:
                ivs.reverse()  # transposed walk
            for _axis in range(len(buffer.shape)):
                subscripts.append(_sample_subscript(rng, ivs))
            is_write = rng.random() < (0.5 if position else 0.25)
            accesses.append(
                AccessSpec(buffer.name, is_write, tuple(subscripts))
            )
        statements.append(StatementSpec(tuple(loops), tuple(accesses)))

    spec = KernelSpec(
        name=f"fuzz_{seed}_{index}",
        buffers=tuple(buffers),
        statements=tuple(statements),
        levels=levels,
        seed=seed,
    )
    return fit_buffers(spec)
