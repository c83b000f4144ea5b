"""Counting integer points in sets: the barvinok substitute.

Counting strategy for a basic set with all parameters fixed:

1. decompose the dimensions into independent components (variables that never
   share a constraint factor into a product of lower-dimensional counts),
2. per component, closed form for rectangular boxes,
3. otherwise exact recursive scanning where the innermost dimension is
   counted as a whole range (never enumerated),
4. if the scan's estimated cost exceeds the budget, a seeded Monte-Carlo
   estimate over the bounding box (flagged ``exact=False``).

The returned :class:`CountResult` coerces to ``int``/``float`` so most call
sites can use it directly as a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.isllite.constraint import Constraint
from repro.isllite.errors import IslError
from repro.isllite.sets import BasicSet, Set
from repro.isllite.space import Space
from repro.runtime import Deadline, faults

#: Scan ranges between cooperative deadline checkpoints.
_SCAN_CHECK_EVERY = 1024


@dataclass(frozen=True)
class CountOptions:
    """Knobs for the counting engine.

    ``deadline`` makes exact scans cooperative: an expired deadline mid-
    scan degrades to the Monte-Carlo estimate instead of finishing the
    enumeration.
    """

    budget: int = 2_000_000
    mc_samples: int = 50_000
    seed: int = 0
    deadline: Optional[Deadline] = None


@dataclass(frozen=True)
class CountResult:
    """A point count; ``exact`` is False for Monte-Carlo estimates."""

    value: float
    exact: bool = True

    def __int__(self) -> int:
        return int(round(self.value))

    def __float__(self) -> float:
        return float(self.value)

    def __add__(self, other):
        if isinstance(other, CountResult):
            return CountResult(self.value + other.value, self.exact and other.exact)
        return CountResult(self.value + other, self.exact)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if isinstance(other, CountResult):
            return self.value == other.value and self.exact == other.exact
        return self.value == other


def _components(dims: Sequence[str], constraints: Sequence[Constraint]):
    """Partition dims into connected components of the co-occurrence graph."""
    parent: Dict[str, str] = {d: d for d in dims}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for con in constraints:
        involved = [n for n in con.names() if n in parent]
        for a, b in zip(involved, involved[1:]):
            union(a, b)
    groups: Dict[str, List[str]] = {}
    for dim in dims:
        groups.setdefault(find(dim), []).append(dim)
    return list(groups.values())


def _box_count(bset: BasicSet, env: Mapping[str, int]) -> Optional[int]:
    """Closed-form count when every constraint is univariate."""
    for con in bset.constraints:
        names = [n for n in con.expr.partial(env).names()]
        if len(names) > 1:
            return None
    total = 1
    for dim in bset.space.dims:
        lo, hi = bset.dim_bounds(dim, env)
        if lo > hi:
            return 0
        if math.isinf(lo) or math.isinf(hi):
            raise IslError(f"dimension {dim!r} unbounded while counting")
        span = math.floor(hi) - math.ceil(lo) + 1
        if span <= 0:
            return 0
        total *= span
    return total


def _scan_cost_estimate(bset: BasicSet, env: Mapping[str, int]) -> float:
    """Upper bound on the number of scan prefixes (product of outer spans)."""
    cost = 1.0
    for dim in bset.space.dims[:-1]:
        lo, hi = bset.dim_bounds(dim, env)
        if lo > hi:
            return 0.0
        if math.isinf(lo) or math.isinf(hi):
            return math.inf
        cost *= max(0.0, math.floor(hi) - math.ceil(lo) + 1)
    return cost


def _monte_carlo(
    bset: BasicSet, env: Mapping[str, int], options: CountOptions
) -> CountResult:
    dims = bset.space.dims
    lows: List[int] = []
    highs: List[int] = []
    for dim in dims:
        lo, hi = bset.dim_bounds(dim, env)
        if lo > hi:
            return CountResult(0, exact=True)
        if math.isinf(lo) or math.isinf(hi):
            raise IslError(f"dimension {dim!r} unbounded while sampling")
        lows.append(math.ceil(lo))
        highs.append(math.floor(hi))
    volume = 1.0
    for lo, hi in zip(lows, highs):
        if hi < lo:
            return CountResult(0, exact=True)
        volume *= hi - lo + 1
    rng = np.random.default_rng(options.seed)
    samples = rng.integers(
        low=lows,
        high=[h + 1 for h in highs],
        size=(options.mc_samples, len(dims)),
        dtype=np.int64,
    )
    hits = _count_contained(bset, samples, env)
    return CountResult(volume * hits / options.mc_samples, exact=False)


def _count_contained(
    bset: BasicSet, samples: np.ndarray, env: Mapping[str, int]
) -> int:
    """How many sample rows satisfy every constraint of ``bset``.

    Evaluates all constraints over the full ``(mc_samples, dims)`` matrix:
    with integer coefficient matrix ``A`` and constants ``b``, a row ``x``
    is inside iff ``A @ x + b`` is ``== 0`` on equality rows and ``>= 0``
    on inequality rows.  Falls back to the scalar ``contains`` walk when a
    constraint has non-integer coefficients after substitution.
    """
    dims = bset.space.dims
    substituted = [c.partial(env) for c in bset.constraints]
    rows: List[List[int]] = []
    consts: List[int] = []
    eq_flags: List[bool] = []
    for con in substituted:
        if not con.expr.names() <= set(dims):
            break
        coeffs = [con.expr.coeff(dim) for dim in dims]
        values = coeffs + [con.expr.const]
        if not all(float(v).is_integer() for v in values):
            break
        rows.append([int(v) for v in coeffs])
        consts.append(int(con.expr.const))
        eq_flags.append(con.is_eq)
    else:
        if not rows:
            return samples.shape[0]
        matrix = np.array(rows, dtype=np.int64)
        const = np.array(consts, dtype=np.int64)
        values = samples @ matrix.T + const  # (samples, constraints)
        is_eq = np.array(eq_flags, dtype=bool)
        inside = np.ones(samples.shape[0], dtype=bool)
        if is_eq.any():
            inside &= (values[:, is_eq] == 0).all(axis=1)
        if (~is_eq).any():
            inside &= (values[:, ~is_eq] >= 0).all(axis=1)
        return int(inside.sum())
    return sum(
        1
        for row in samples
        if bset.contains(tuple(int(v) for v in row), env)
    )


def _count_basic(
    bset: BasicSet, env: Mapping[str, int], options: CountOptions
) -> CountResult:
    if bset.gist_is_false():
        return CountResult(0)
    if not bset.space.dims:
        empty = bset.is_empty(env)
        return CountResult(0 if empty else 1)

    box = _box_count(bset, env)
    if box is not None:
        return CountResult(box)

    substituted = [c.partial(env) for c in bset.constraints]
    components = _components(bset.space.dims, substituted)
    if len(components) > 1:
        total = CountResult(1)
        for dims in components:
            names = set(dims)
            cons = [c for c in substituted if c.names() & names]
            sub = BasicSet(Space(tuple(dims)), cons)
            part = _count_basic(sub, {}, options)
            total = CountResult(
                total.value * part.value, total.exact and part.exact
            )
            if total.value == 0:
                return CountResult(0, exact=True)
        return total

    if _scan_cost_estimate(bset, env) > options.budget:
        return _monte_carlo(bset, env, options)

    faults.fire("cm.count")
    deadline = options.deadline
    until_check = _SCAN_CHECK_EVERY
    total = 0
    for _prefix, lo, hi in bset.iter_ranges(env):
        total += hi - lo + 1
        if deadline is not None:
            until_check -= 1
            if until_check <= 0:
                until_check = _SCAN_CHECK_EVERY
                if deadline.expired():
                    # Degrade mid-scan: the Monte-Carlo estimate is cheap
                    # and bounded, the exact scan is not.
                    return _monte_carlo(bset, env, options)
    return CountResult(total)


def count_points(
    obj, env: Mapping[str, int] = None, options: CountOptions = None
) -> CountResult:
    """Count integer points in a :class:`BasicSet` or :class:`Set`.

    ``env`` must fix every parameter of the space.  Unions are made disjoint
    before summing piece counts.
    """
    options = options or CountOptions()
    env = dict(env or {})
    if isinstance(obj, BasicSet):
        missing = [p for p in obj.space.params if p not in env]
        if missing:
            raise IslError(f"parameters {missing} not fixed for counting")
        return _count_basic(obj, env, options)
    if isinstance(obj, Set):
        missing = [p for p in obj.space.params if p not in env]
        if missing:
            raise IslError(f"parameters {missing} not fixed for counting")
        if not obj.pieces:
            return CountResult(0)
        if len(obj.pieces) == 1:
            return _count_basic(obj.pieces[0], env, options)
        total = CountResult(0)
        for piece in obj.make_disjoint().pieces:
            total = total + _count_basic(piece, env, options)
        return total
    raise TypeError(f"cannot count {type(obj).__name__}")
