"""Size-sweep differential fuzzing of parametric family artifacts.

The concrete fuzzer (:mod:`repro.verify.harness`) checks that every CM
engine agrees on one kernel at one size.  This module checks the layer
above: that a :class:`~repro.cache.parametric_model.ParametricCharacterization`
built from a few sampled sizes of a kernel *family* answers every size
it claims to cover with exactly the counters the engines would have
computed.

A :class:`ParametricSpec` is a :class:`~repro.verify.generator.KernelSpec`
template whose loop *bounds* may reference named size parameters
(subscripts stay induction-variable-only, matching the generator's
affine class), plus base values for those parameters.
:func:`instantiate` substitutes concrete sizes into the bounds and
re-fits the buffer shapes, yielding an ordinary concrete spec.

:func:`run_parametric_case` is the oracle.  It walks the all-ones ray
``sizes(t) = base + t`` through the family:

* at each *sample* t it engine-diffs reference/fast/symbolic on the
  instantiated kernel and folds the agreed counters into a family
  artifact;
* after :meth:`try_fit` it *probes* a held-out lattice size: when the
  artifact serves it from the chart, the served vector must equal a
  fresh engine run bit-for-bit (an artifact that declines to answer is
  fine -- non-polynomial families legitimately never fit -- but a wrong
  answer is the soundness bug this fuzzer hunts);
* degenerate edges (all sizes zero / all sizes one, typically an empty
  or near-empty iteration domain) are engine-diffed too, and any
  artifact answer there must also match.

Failures are shrunk by a greedy parametric shrinker (the concrete
shrinker cannot be reused: its buffer re-fitting evaluates bounds with
unbound parameter names) and written out as replayable JSON + pytest
repros, exactly like the concrete harness.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cache import (
    SymbolicUnsupported,
    generate_trace,
    polyufc_cm,
    reference_cm,
    symbolic_cm,
)
from repro.cache.parametric_model import (
    FamilyFitError,
    ParametricCharacterization,
)
from repro.verify.generator import (
    AccessSpec,
    BufferSpec,
    ExprData,
    KernelSpec,
    LoopSpec,
    StatementSpec,
    _expr,
    _sample_hierarchy,
    _sample_subscript,
    build_hierarchy,
    build_module,
    fit_buffers,
    spec_from_json,
    spec_to_json,
)
from repro.verify.oracle import Disagreement, _diff_counters

#: Ray coordinates sampled into the family artifact.  Dense over the low
#: lattice plus one far point, so the fit window spans [0, 7] and the
#: held-out probe below sits strictly inside validated territory.
SAMPLE_TS = (0, 1, 2, 3, 4, 5, 7)

#: Ray coordinates never sampled: the artifact may only answer them from
#: its fitted chart, and that answer is diffed against fresh engine runs.
PROBE_TS = (6,)


@dataclass(frozen=True)
class ParametricSpec:
    """A size-parameterized kernel family.

    ``params`` binds each parameter name to its base value (sizes along
    the verification ray are ``base + t``); ``template`` is a concrete
    :class:`KernelSpec` whose loop-bound expressions may carry
    coefficients on the parameter names.
    """

    name: str
    params: Tuple[Tuple[str, int], ...]
    template: KernelSpec
    seed: Optional[int] = None

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.params))

    def base_sizes(self) -> Dict[str, int]:
        return dict(self.params)

    def fingerprint(self) -> str:
        return hashlib.sha256(
            pspec_to_json(self).encode()
        ).hexdigest()[:12]


def _expr_subst_params(
    expr: ExprData, sizes: Mapping[str, int]
) -> ExprData:
    """Fold parameter coefficients into the constant term."""
    const, coeffs = expr
    kept: Dict[str, int] = {}
    for name, coeff in coeffs:
        if name in sizes:
            const += coeff * sizes[name]
        else:
            kept[name] = coeff
    return _expr(const, **kept)


def instantiate(
    pspec: ParametricSpec, sizes: Mapping[str, int]
) -> KernelSpec:
    """The concrete kernel at ``sizes``, with buffers re-fitted.

    Raises ``ValueError`` when ``sizes`` does not bind exactly the
    family's parameters -- a template bound referencing an unbound name
    would otherwise crash deep inside domain enumeration.
    """
    if set(sizes) != set(self_names := pspec.param_names):
        raise ValueError(
            f"sizes must bind exactly {self_names}, got {sorted(sizes)}"
        )
    template = pspec.template
    statements = tuple(
        StatementSpec(
            loops=tuple(
                LoopSpec(
                    loop.iv,
                    _expr_subst_params(loop.lower, sizes),
                    _expr_subst_params(loop.upper, sizes),
                    loop.step,
                )
                for loop in statement.loops
            ),
            accesses=statement.accesses,
        )
        for statement in template.statements
    )
    suffix = "_".join(
        f"{name}{sizes[name]}" for name in pspec.param_names
    )
    concrete = KernelSpec(
        name=f"{pspec.name}__{suffix}",
        buffers=template.buffers,
        statements=statements,
        levels=template.levels,
        seed=pspec.seed,
    )
    return fit_buffers(concrete)


@dataclass
class ParametricCaseResult:
    """Everything the size-sweep oracle learned about one family."""

    pspec: ParametricSpec
    disagreements: List[Disagreement] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)
    chart_fitted: bool = False
    probes_served: int = 0
    sizes_checked: List[Dict[str, int]] = field(default_factory=list)
    symbolic_supported_sizes: int = 0

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _unit_vector(cm, fields: Tuple[str, ...]) -> Tuple[int, ...]:
    """One CM result in family-artifact field order.

    ``omega`` follows the oracle's synthetic convention (2 flops per
    access, see :func:`repro.verify.oracle._oi_and_verdict`) so the
    artifact's omega polynomial is exercised alongside the counters.
    """
    values = {
        "omega": 2 * cm.total_accesses,
        "total_accesses": cm.total_accesses,
        "threads": cm.threads,
    }
    for index, level in enumerate(cm.counters()):
        values[f"level{index}_accesses"] = level.accesses
        values[f"level{index}_cold_misses"] = level.cold_misses
        values[f"level{index}_capacity_conflict_misses"] = (
            level.capacity_conflict_misses
        )
    return tuple(int(values[name]) for name in fields)


def _engine_battery(concrete: KernelSpec, label: str, out: List[Disagreement]):
    """reference-vs-fast-vs-symbolic diff at one size; returns
    ``(reference_cm, symbolic_supported)``."""
    module = build_module(concrete)
    hierarchy = build_hierarchy(concrete)
    trace = generate_trace(module)
    reference = reference_cm(trace, hierarchy)
    fast = polyufc_cm(trace, hierarchy)
    _diff_counters(
        f"engine-diff@{label}",
        "reference",
        reference.counters(),
        "fast",
        fast.counters(),
        out,
    )
    supported = False
    try:
        symbolic = symbolic_cm(module, hierarchy=hierarchy)
        supported = True
    except SymbolicUnsupported:
        symbolic = None
    if symbolic is not None:
        _diff_counters(
            f"engine-diff@{label}",
            "reference",
            reference.counters(),
            "symbolic",
            symbolic.counters(),
            out,
        )
    return reference, supported


def run_parametric_case(pspec: ParametricSpec) -> ParametricCaseResult:
    """Run the full size-sweep battery on one kernel family."""
    result = ParametricCaseResult(pspec)
    base = pspec.base_sizes()
    template = pspec.template
    artifact = ParametricCharacterization(
        param_names=pspec.param_names,
        unit_names=("kernel",),
        level_names=tuple(level.name for level in template.levels),
        line_bytes=template.levels[0].line_bytes,
    )
    fields = artifact.fields
    invariants = artifact.invariants()

    def sizes_at(t: int) -> Dict[str, int]:
        return {name: value + t for name, value in base.items()}

    def battery(sizes: Dict[str, int], label: str):
        result.sizes_checked.append(dict(sizes))
        try:
            concrete = instantiate(pspec, sizes)
            reference, supported = _engine_battery(
                concrete, label, result.disagreements
            )
        except Exception as exc:  # crashes are findings, not aborts
            result.disagreements.append(
                Disagreement(f"crash@{label}", f"{type(exc).__name__}: {exc}")
            )
            return None
        if supported:
            result.symbolic_supported_sizes += 1
        return reference

    # --- sample the ray into the artifact ------------------------------
    result.checks_run.append("family-sample")
    for t in SAMPLE_TS:
        sizes = sizes_at(t)
        reference = battery(sizes, f"t{t}")
        if reference is None:
            continue
        try:
            artifact.add_sample(
                sizes, [_unit_vector(reference, fields)], invariants
            )
        except FamilyFitError as exc:
            result.disagreements.append(
                Disagreement(
                    "family-sample",
                    f"engine-agreed sample at {sizes} rejected: {exc}",
                )
            )

    # --- sampled sizes must round-trip through evaluate ----------------
    result.checks_run.append("family-roundtrip")
    for t in (SAMPLE_TS[0], SAMPLE_TS[-1]):
        sizes = sizes_at(t)
        answer = artifact.evaluate(sizes)
        if answer is None or answer.source != "sample":
            result.disagreements.append(
                Disagreement(
                    "family-roundtrip",
                    f"stored sample at {sizes} not served back "
                    f"(got {answer!r})",
                )
            )

    # --- fit, then probe a never-sampled lattice size ------------------
    result.checks_run.append("family-chart")
    result.chart_fitted = artifact.try_fit()
    for t in PROBE_TS:
        sizes = sizes_at(t)
        answer = artifact.evaluate(sizes)
        if answer is None:
            continue  # declining to answer is always sound
        reference = battery(sizes, f"probe-t{t}")
        if reference is None:
            continue
        expected = _unit_vector(reference, fields)
        if answer.units != (expected,):
            result.disagreements.append(
                Disagreement(
                    "family-chart",
                    f"artifact ({answer.source}) served {answer.units[0]} "
                    f"at {sizes} but engines computed {expected}",
                )
            )
        else:
            result.probes_served += 1

    # --- degenerate / empty-domain edges -------------------------------
    result.checks_run.append("family-degenerate")
    for edge in (0, 1):
        sizes = {name: edge for name in pspec.param_names}
        reference = battery(sizes, f"edge{edge}")
        if reference is None:
            continue
        answer = artifact.evaluate(sizes)
        if answer is not None:
            expected = _unit_vector(reference, fields)
            if answer.units != (expected,):
                result.disagreements.append(
                    Disagreement(
                        "family-degenerate",
                        f"artifact ({answer.source}) served "
                        f"{answer.units[0]} at degenerate {sizes} but "
                        f"engines computed {expected}",
                    )
                )
    return result


# ---------------------------------------------------------------------------
# JSON round-trip + pytest repro
# ---------------------------------------------------------------------------


def pspec_to_json(pspec: ParametricSpec) -> str:
    payload = {
        "kind": "parametric",
        "name": pspec.name,
        "seed": pspec.seed,
        "params": {name: value for name, value in pspec.params},
        "template": json.loads(spec_to_json(pspec.template)),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def pspec_from_json(text: str) -> ParametricSpec:
    data = json.loads(text)
    if data.get("kind") != "parametric":
        raise ValueError(
            "not a parametric spec (missing kind='parametric')"
        )
    return ParametricSpec(
        name=str(data["name"]),
        params=tuple(
            sorted((str(n), int(v)) for n, v in data["params"].items())
        ),
        template=spec_from_json(json.dumps(data["template"])),
        seed=data.get("seed"),
    )


def is_parametric_json(text: str) -> bool:
    """Cheap corpus dispatch: parametric files carry ``kind`` +
    ``params``; concrete :func:`spec_to_json` files carry neither."""
    try:
        data = json.loads(text)
    except ValueError:
        return False
    return (
        isinstance(data, dict)
        and data.get("kind") == "parametric"
        and "params" in data
    )


def pspec_to_pytest(pspec: ParametricSpec, reason: str = "") -> str:
    """A standalone paste-able pytest module reproducing the family."""
    blob = pspec_to_json(pspec)
    header = f"# repro for: {reason}\n" if reason else ""
    return f'''"""Auto-generated parametric size-sweep repro.

{header}Regenerate with ``python -m repro.cli fuzz --parametric``
(see docs/TESTING.md).
"""

from repro.verify import pspec_from_json, run_parametric_case

PSPEC_JSON = r\'\'\'
{blob}
\'\'\'


def test_family_agrees_at_every_size():
    result = run_parametric_case(pspec_from_json(PSPEC_JSON))
    assert result.ok, "\\n".join(str(d) for d in result.disagreements)
'''


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

_PARAM_NAMES = ("n", "m")


def generate_parametric_spec(seed: int, index: int = 0) -> ParametricSpec:
    """Deterministically sample one kernel family.

    ``(seed, index)`` fully determines the result.  Loop bounds mix
    parameter-affine uppers (rectangular sweeps), outer-iv anchors
    (triangular / trapezoidal wavefronts) and parameter-triangular
    combinations (lower rides an outer iv while the upper rides a size
    parameter, the trisolv shape); at least one bound always references
    a parameter so the family is never size-constant by construction.
    """
    rng = random.Random(f"repro.verify.parametric:{seed}:{index}")
    levels = _sample_hierarchy(rng, f"family{index}")

    param_count = rng.choice((1, 1, 2))
    params = tuple(
        (name, rng.randint(2, 4))
        for name in _PARAM_NAMES[:param_count]
    )
    param_names = [name for name, _ in params]

    buffer_count = rng.choice((1, 2, 2))
    buffers = []
    for b in range(buffer_count):
        rank = rng.choice((1, 2, 2))
        dtype = rng.choice(("f64", "f64", "f32"))
        buffers.append(BufferSpec(f"B{b}", (1,) * rank, dtype))

    iv_counter = 0
    statements: List[StatementSpec] = []
    statement_count = rng.choice((1, 1, 2))
    for s in range(statement_count):
        depth = rng.choice((1, 2, 2))
        loops: List[LoopSpec] = []
        outer: List[str] = []
        for d in range(depth):
            iv = f"i{iv_counter}"
            iv_counter += 1
            lower: ExprData = _expr(rng.choice((0, 0, 1)))
            roll = rng.random()
            force_param = s == 0 and d == 0
            if force_param or roll < 0.55:
                param = rng.choice(param_names)
                upper: ExprData = _expr(
                    rng.choice((0, 1, 2)), **{param: 1}
                )
            elif outer and roll < 0.70:
                anchor = rng.choice(outer)
                upper = _expr(rng.choice((1, 2)), **{anchor: 1})
            elif outer and roll < 0.85:
                # trisolv shape: triangular against a parametric upper.
                anchor = rng.choice(outer)
                param = rng.choice(param_names)
                lower = _expr(0, **{anchor: 1})
                upper = _expr(0, **{param: 1})
            else:
                upper = _expr(lower[0] + rng.randint(1, 4))
            step = rng.choice((1, 1, 1, 2))
            loops.append(LoopSpec(iv, lower, upper, step))
            outer.append(iv)
        accesses: List[AccessSpec] = []
        for position in range(rng.randint(1, 3)):
            buffer = rng.choice(buffers)
            ivs = list(outer)
            if rng.random() < 0.3:
                ivs.reverse()
            subscripts = tuple(
                _sample_subscript(rng, ivs) for _axis in buffer.shape
            )
            is_write = rng.random() < (0.5 if position else 0.25)
            accesses.append(AccessSpec(buffer.name, is_write, subscripts))
        statements.append(StatementSpec(tuple(loops), tuple(accesses)))

    template = KernelSpec(
        name=f"pfuzz_{seed}_{index}",
        buffers=tuple(buffers),
        statements=tuple(statements),
        levels=levels,
        seed=seed,
    )
    return ParametricSpec(
        name=template.name,
        params=params,
        template=template,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _with_template(
    pspec: ParametricSpec, template: KernelSpec
) -> ParametricSpec:
    return replace(pspec, template=template)


def _map_bounds(
    template: KernelSpec,
    transform: Callable[[int, int, str, ExprData], ExprData],
) -> KernelSpec:
    """Rebuild the template with ``transform`` applied to every bound."""
    statements = tuple(
        StatementSpec(
            loops=tuple(
                LoopSpec(
                    loop.iv,
                    transform(si, li, "lower", loop.lower),
                    transform(si, li, "upper", loop.upper),
                    loop.step,
                )
                for li, loop in enumerate(statement.loops)
            ),
            accesses=statement.accesses,
        )
        for si, statement in enumerate(template.statements)
    )
    return KernelSpec(
        template.name,
        template.buffers,
        statements,
        template.levels,
        template.seed,
    )


def _shrink_candidates(
    pspec: ParametricSpec,
) -> Iterator[ParametricSpec]:
    """Structurally smaller variants, most aggressive first."""
    template = pspec.template
    base = pspec.base_sizes()

    # Drop a whole statement.
    if len(template.statements) > 1:
        for skip in range(len(template.statements)):
            statements = tuple(
                s for i, s in enumerate(template.statements) if i != skip
            )
            yield _with_template(
                pspec,
                KernelSpec(
                    template.name,
                    template.buffers,
                    statements,
                    template.levels,
                    template.seed,
                ),
            )

    # Drop one access from a multi-access statement.
    for si, statement in enumerate(template.statements):
        if len(statement.accesses) <= 1:
            continue
        for skip in range(len(statement.accesses)):
            accesses = tuple(
                a for i, a in enumerate(statement.accesses) if i != skip
            )
            statements = tuple(
                StatementSpec(s.loops, accesses) if i == si else s
                for i, s in enumerate(template.statements)
            )
            yield _with_template(
                pspec,
                KernelSpec(
                    template.name,
                    template.buffers,
                    statements,
                    template.levels,
                    template.seed,
                ),
            )

    # Drop the deepest cache level.
    if len(template.levels) > 1:
        yield _with_template(
            pspec,
            KernelSpec(
                template.name,
                template.buffers,
                template.statements,
                template.levels[:-1],
                template.seed,
            ),
        )

    # Halve a parameter's base value toward 1.
    for name, value in pspec.params:
        smaller = max(1, value // 2)
        if smaller != value:
            params = tuple(
                (n, smaller if n == name else v) for n, v in pspec.params
            )
            yield replace(pspec, params=params)

    # De-parameterize one bound (freeze it at the base sizes).
    for si, statement in enumerate(template.statements):
        for li, loop in enumerate(statement.loops):
            for which, expr in (("lower", loop.lower), ("upper", loop.upper)):
                if not any(n in base for n, _ in expr[1]):
                    continue
                frozen = _expr_subst_params(expr, base)

                def freeze(s, l, w, e, _s=si, _l=li, _w=which, _f=frozen):
                    if (s, l, w) == (_s, _l, _w):
                        return _f
                    return e

                yield _with_template(pspec, _map_bounds(template, freeze))

    # Shrink a bound's constant offset toward zero.
    for si, statement in enumerate(template.statements):
        for li, loop in enumerate(statement.loops):
            for which, expr in (("lower", loop.lower), ("upper", loop.upper)):
                const, coeffs = expr
                if const == 0:
                    continue
                shrunk = (const // 2 if const > 0 else 0, coeffs)

                def trim(s, l, w, e, _s=si, _l=li, _w=which, _f=shrunk):
                    if (s, l, w) == (_s, _l, _w):
                        return _f
                    return e

                yield _with_template(pspec, _map_bounds(template, trim))


def shrink_parametric(
    pspec: ParametricSpec,
    still_fails: Callable[[ParametricSpec], bool],
    max_evaluations: int = 200,
) -> ParametricSpec:
    """Greedy descent: take the first smaller variant that still fails.

    ``still_fails`` is typically "reproduces a disagreement on the same
    check"; ``max_evaluations`` bounds the oracle budget (each
    evaluation is a full size sweep, an order of magnitude costlier than
    a concrete-shrinker probe).
    """
    current = pspec
    seen = {current.fingerprint()}
    evaluations = 0
    improved = True
    while improved and evaluations < max_evaluations:
        improved = False
        for candidate in _shrink_candidates(current):
            key = candidate.fingerprint()
            if key in seen:
                continue
            seen.add(key)
            evaluations += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
            if evaluations >= max_evaluations:
                break
    return current


# ---------------------------------------------------------------------------
# Campaign driver + corpus replay
# ---------------------------------------------------------------------------

ParametricOracle = Callable[[ParametricSpec], ParametricCaseResult]


@dataclass
class ParametricFailure:
    """One family-level disagreement, with its shrunk repro."""

    index: int
    original: ParametricSpec
    shrunk: ParametricSpec
    result: ParametricCaseResult
    json_path: Optional[Path] = None
    pytest_path: Optional[Path] = None

    def reason(self) -> str:
        return "; ".join(str(d) for d in self.result.disagreements)


@dataclass
class ParametricFuzzStats:
    """Summary of one parametric fuzz campaign."""

    seed: int
    cases_run: int = 0
    charts_fitted: int = 0
    probes_served: int = 0
    elapsed_s: float = 0.0
    failures: List[ParametricFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def write_parametric_failure(
    failure: ParametricFailure, artifacts_dir: Path
) -> None:
    """Persist the shrunk JSON family + pytest repro for one failure."""
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    shrunk = failure.shrunk
    stem = (
        f"pfuzz_seed{shrunk.seed}_case{failure.index}_"
        f"{shrunk.fingerprint()}"
    )
    json_path = artifacts_dir / f"{stem}.json"
    pytest_path = artifacts_dir / f"test_{stem}.py"
    json_path.write_text(pspec_to_json(shrunk) + "\n")
    pytest_path.write_text(pspec_to_pytest(shrunk, failure.reason()))
    failure.json_path = json_path
    failure.pytest_path = pytest_path


def fuzz_parametric(
    seed: int,
    time_budget_s: float = 60.0,
    max_cases: Optional[int] = None,
    artifacts_dir: Optional[Path] = None,
    oracle: ParametricOracle = run_parametric_case,
    log: Optional[Callable[[str], None]] = None,
) -> ParametricFuzzStats:
    """Run one seeded size-sweep campaign: generate, check, shrink.

    Mirrors :func:`repro.verify.harness.fuzz`; the case sequence is
    fully determined by ``seed``.
    """
    stats = ParametricFuzzStats(seed=seed)
    say = log or (lambda _msg: None)
    started = time.monotonic()
    index = 0
    while True:
        if max_cases is not None and index >= max_cases:
            break
        if time.monotonic() - started >= time_budget_s:
            break
        pspec = generate_parametric_spec(seed, index)
        result = oracle(pspec)
        stats.cases_run += 1
        if result.chart_fitted:
            stats.charts_fitted += 1
        stats.probes_served += result.probes_served
        if not result.ok:
            say(
                f"family {index}: {len(result.disagreements)} "
                f"disagreement(s); shrinking"
            )
            failing_checks = {d.check for d in result.disagreements}

            def still_fails(candidate: ParametricSpec) -> bool:
                verdict = oracle(candidate)
                return any(
                    d.check in failing_checks
                    for d in verdict.disagreements
                )

            shrunk = shrink_parametric(pspec, still_fails)
            failure = ParametricFailure(
                index, pspec, shrunk, oracle(shrunk)
            )
            if artifacts_dir is not None:
                write_parametric_failure(failure, artifacts_dir)
                say(
                    f"family {index}: repro written to "
                    f"{failure.json_path}"
                )
            stats.failures.append(failure)
        index += 1
    stats.elapsed_s = time.monotonic() - started
    return stats


def replay_parametric_corpus(
    corpus_dir: Path,
    oracle: ParametricOracle = run_parametric_case,
) -> List[Tuple[Path, ParametricCaseResult]]:
    """Re-run every parametric ``*.json`` under ``corpus_dir``.

    Concrete corpus files (no ``kind='parametric'`` marker) are skipped
    so both replayers can share one directory.
    """
    results: List[Tuple[Path, ParametricCaseResult]] = []
    for path in sorted(corpus_dir.glob("*.json")):
        text = path.read_text()
        if not is_parametric_json(text):
            continue
        results.append((path, oracle(pspec_from_json(text))))
    return results
