"""Job specifications and content digests for the characterization service.

A :class:`JobSpec` names everything that determines a characterization
result: the kernel (a registered benchmark, which fixes the problem
size), the platform (which fixes the cache hierarchy), the unit
granularity, the capping objective, the search tolerance ``epsilon``,
the tiling, the cap-overhead scaling, and the CM engine.  Its
:meth:`~JobSpec.digest` is a canonical SHA-256 over those fields *plus
the model versions* (report schema, CM memo, envelope format), so the
result store is content-addressed: two requests share a slot iff they
are guaranteed to produce the same numbers, and any model change
invalidates every stale slot at once.

``cm_timeout_s`` is deliberately **excluded** from the digest: it bounds
how long the computation may take, never what the exact result is (a
degraded result is not persisted at all -- see ``repro.service.store``).

The hardware-side workload (exact cache-simulator counters) depends on a
strict subset of the fields -- not on ``objective``, ``epsilon`` or
``cap_overhead_factor``, which only steer cap selection, nor on the CM's
engine or ``set_associative``, because the simulator always runs the
platform's own hierarchy -- so it has its own coarser
:meth:`~JobSpec.workload_digest`, letting jobs that differ only in those
knobs share the expensive trace + simulation work.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

from repro.cache.memo import MEMO_VERSION
from repro.cache.static_model import CM_ENGINES, resolve_engine
from repro.mlpolyufc.characterization import GRANULARITIES
from repro.mlpolyufc.reports import REPORT_SCHEMA_VERSION
from repro.runtime.io import ENVELOPE_VERSION, canonical_json

#: Bump when the digest recipe itself changes shape.
SPEC_VERSION = 1

OBJECTIVES = ("edp", "energy", "performance")
PLATFORM_NAMES = ("rpl", "bdw")


def _is_number(value, kind=numbers.Real) -> bool:
    """``isinstance(value, kind)``, except that a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def model_versions() -> dict:
    """The version tuple folded into every digest."""
    return {
        "spec": SPEC_VERSION,
        "report": REPORT_SCHEMA_VERSION,
        "memo": MEMO_VERSION,
        "envelope": ENVELOPE_VERSION,
    }


@dataclass(frozen=True)
class JobSpec:
    """One characterization request (see module docstring)."""

    benchmark: str
    platform: str = "rpl"
    granularity: str = "linalg"
    objective: str = "edp"
    set_associative: bool = True
    tile_size: int = 32
    epsilon: float = 1e-3
    cap_overhead_factor: float = 50.0
    engine: Optional[str] = None
    #: Problem-size overrides for the benchmark's named size parameters
    #: (normalized to a sorted tuple of ``(name, int)`` pairs; a mapping
    #: is accepted at construction).  Folded into :meth:`digest` and
    #: :meth:`workload_digest` but **erased** from :meth:`family_digest`,
    #: so every instantiation of one kernel family shares a parametric
    #: characterization artifact.
    sizes: tuple = field(default=())
    #: Execution knob, not identity: excluded from the digest.
    cm_timeout_s: Optional[float] = None

    def __post_init__(self):
        raw = self.sizes
        pairs = raw.items() if isinstance(raw, Mapping) else tuple(raw or ())
        normalized = []
        for pair in pairs:
            try:
                name, value = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"job spec 'sizes' must map size names to ints, "
                    f"got {raw!r}"
                ) from None
            if (
                not isinstance(name, str)
                or isinstance(value, bool)
                or not isinstance(value, int)
            ):
                raise ValueError(
                    f"job spec 'sizes' must map size names to ints, "
                    f"got {raw!r}"
                )
            normalized.append((name, value))
        object.__setattr__(self, "sizes", tuple(sorted(normalized)))

    def validate(self) -> "JobSpec":
        """Raise ``ValueError`` on any malformed field; return self."""
        from repro.benchsuite import REGISTRY

        if self.benchmark not in REGISTRY:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.platform not in PLATFORM_NAMES:
            raise ValueError(
                f"unknown platform {self.platform!r}; "
                f"expected one of {PLATFORM_NAMES}"
            )
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {self.granularity!r}; "
                f"expected one of {GRANULARITIES}"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        if self.engine is not None and self.engine not in CM_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {CM_ENGINES}"
            )
        if not isinstance(self.set_associative, bool):
            raise ValueError(f"set_associative must be a bool, "
                             f"got {self.set_associative!r}")
        if not _is_number(self.tile_size, int) or self.tile_size <= 0:
            raise ValueError(f"tile_size must be a positive int, "
                             f"got {self.tile_size!r}")
        if not _is_number(self.epsilon) or not self.epsilon > 0:
            raise ValueError(
                f"epsilon must be a number > 0, got {self.epsilon!r}"
            )
        if (
            not _is_number(self.cap_overhead_factor)
            or not self.cap_overhead_factor >= 0
        ):
            raise ValueError(
                f"cap_overhead_factor must be a number >= 0, "
                f"got {self.cap_overhead_factor!r}"
            )
        if self.cm_timeout_s is not None and (
            not _is_number(self.cm_timeout_s) or self.cm_timeout_s < 0
        ):
            raise ValueError(
                f"cm_timeout_s must be a number >= 0, "
                f"got {self.cm_timeout_s!r}"
            )
        if self.sizes:
            size_names = set(REGISTRY[self.benchmark].size_names)
            unknown = sorted(
                name for name, _ in self.sizes if name not in size_names
            )
            if unknown:
                raise ValueError(
                    f"benchmark {self.benchmark!r} has no size parameters "
                    f"{unknown}; accepted: {sorted(size_names)}"
                )
            bad = [(n, v) for n, v in self.sizes if v < 1]
            if bad:
                raise ValueError(f"sizes must be positive ints, got {bad}")
        return self

    def resolved_engine(self) -> str:
        """The engine the job will actually run (``fast`` when unset)."""
        return resolve_engine(self.engine)

    def digest(self) -> str:
        """The content address of this job's full report."""
        blob = canonical_json(
            [
                "polyufc-report",
                model_versions(),
                {
                    "benchmark": self.benchmark,
                    "platform": self.platform,
                    "granularity": self.granularity,
                    "objective": self.objective,
                    "set_associative": self.set_associative,
                    "tile_size": self.tile_size,
                    "epsilon": self.epsilon,
                    "cap_overhead_factor": self.cap_overhead_factor,
                    "engine": self.resolved_engine(),
                    "sizes": dict(self.sizes),
                },
            ]
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def workload_digest(self) -> str:
        """The content address of the hardware-side workload counters.

        Coarser than :meth:`digest`: the exact simulator sees the tiled
        module and the platform's hierarchy, never the objective/epsilon/
        overhead knobs, the CM engine or the CM's associativity, so jobs
        differing only in those share this slot.
        """
        blob = canonical_json(
            [
                "polyufc-workload",
                model_versions(),
                {
                    "benchmark": self.benchmark,
                    "platform": self.platform,
                    "granularity": self.granularity,
                    "tile_size": self.tile_size,
                    "sizes": dict(self.sizes),
                },
            ]
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def effective_sizes(self) -> dict:
        """The full size-parameter valuation this job runs at.

        Registry defaults overlaid with the spec's overrides; empty for
        fixed-shape benchmarks (which have no size parameters).
        """
        from repro.benchsuite import get_benchmark

        full = dict(get_benchmark(self.benchmark).default_sizes)
        full.update(dict(self.sizes))
        return full

    def family_digest(self) -> str:
        """The content address of this job's **kernel family**.

        Size-erased and engine-erased: every concrete instantiation of
        one parametric kernel family -- any ``sizes``, any CM engine
        (they agree bit-for-bit where exact) -- maps to the same digest,
        which keys the store's parametric characterization artifacts
        (``repro.cache.parametric_model``).  The structural component is
        the *normalized* parametric kernel (loop dims positionally
        renamed, buffers renamed by first use, extents lifted to named
        size parameters), so a dim-renamed clone of a kernel shares the
        family slot while anything that changes the iteration space or
        access functions does not.  Granularity, platform, tiling and
        associativity stay in the recipe because they change the unit
        decomposition or the hierarchy the counters describe.
        """
        blob = canonical_json(
            [
                "polyufc-family",
                model_versions(),
                {
                    "platform": self.platform,
                    "granularity": self.granularity,
                    "set_associative": self.set_associative,
                    "tile_size": self.tile_size,
                    "structure": _family_structure(self.benchmark),
                },
            ]
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "platform": self.platform,
            "granularity": self.granularity,
            "objective": self.objective,
            "set_associative": self.set_associative,
            "tile_size": self.tile_size,
            "epsilon": self.epsilon,
            "cap_overhead_factor": self.cap_overhead_factor,
            "engine": self.engine,
            "sizes": dict(self.sizes),
            "cm_timeout_s": self.cm_timeout_s,
        }

    @classmethod
    def from_json(cls, data) -> "JobSpec":
        """Parse and validate a request payload (strict on shape)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"job spec must be an object, got {type(data).__name__}"
            )
        known = {
            "benchmark", "platform", "granularity", "objective",
            "set_associative", "tile_size", "epsilon",
            "cap_overhead_factor", "engine", "sizes", "cm_timeout_s",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown job spec fields {unknown}")
        if "benchmark" not in data:
            raise ValueError("job spec is missing 'benchmark'")
        spec = cls(**data)
        return spec.validate()

    def label(self) -> str:
        """Short human-readable identity for logs and events."""
        return f"{self.benchmark}/{self.platform}/{self.objective}"


def _expr_blob(expr, rename: dict) -> list:
    """A canonical JSON rendering of a LinExpr under a dim-rename map."""
    coeffs = sorted(
        [rename.get(name, name), coeff]
        for name, coeff in expr.coeffs.items()
    )
    return [expr.const, coeffs]


@lru_cache(maxsize=None)
def _family_structure(benchmark: str):
    """The normalized parametric structure folded into a family digest.

    Lifts every statement domain to named size parameters (finite
    differencing over probe builds -- see
    :func:`repro.cache.parametric_model.lift_statement_domains`), then
    renders statements with loop dims renamed positionally (``d0, d1,
    ...`` per nest depth) and buffers renamed by first appearance, so
    the blob is invariant under iterator/buffer renames and under the
    concrete problem size.  Falls back to the benchmark name when the
    kernel has no size parameters or sits outside the liftable class --
    the family then degenerates to a name-keyed slot, which is still
    correct, just not structure-shared.
    """
    from repro.benchsuite import get_benchmark

    bench = get_benchmark(benchmark)
    if not bench.size_names:
        return {"benchmark": benchmark}
    from repro.cache.parametric_model import lift_statement_domains
    from repro.isllite.parametric import UnsupportedParametricSet

    base = dict(bench.default_sizes)
    try:
        _module, lifted = lift_statement_domains(bench.module, base)
    except UnsupportedParametricSet:
        return {"benchmark": benchmark}
    buffers: dict = {}
    statements = []
    for statement, domain in lifted:
        rename = {
            name: f"d{depth}"
            for depth, name in enumerate(statement.loop_names)
        }
        accesses = []
        for access in statement.accesses:
            alias = buffers.setdefault(
                access.buffer.name, f"b{len(buffers)}"
            )
            accesses.append([
                alias,
                list(access.buffer.shape),
                access.is_write,
                [_expr_blob(index, rename) for index in access.indices],
            ])
        statements.append({
            "dims": [rename[name] for name in domain.space.dims],
            "params": list(domain.space.params),
            "constraints": [
                [con.is_eq, _expr_blob(con.expr, rename)]
                for con in domain.constraints
            ],
            "flops": statement.flops_per_point,
            "accesses": accesses,
        })
    return {"statements": statements}
