"""Parametric family artifacts: instantiation equivalence + domains.

The contract under test: a :class:`ParametricCharacterization` built
from a few concrete engine runs of a kernel family answers any size in
its validity domain with *bit-for-bit* the counters a fresh concrete
run would produce -- and answers ``None`` (never a guess) everywhere
else.  Covered here on a rectangular PolyBench family (gemm over
``ni``, sampled with the symbolic engine) and a triangular one (trisolv
over ``n``, sampled with the fast engine, plus one mid-size check that
the symbolic engine's triangular case agrees with it), plus the
fallback ladder: a kernel the symbolic engine rejects must surface the
reason as ``cm_note`` when characterized with ``engine="parametric"``.
"""

import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    clear_memo,
    generate_trace,
    polyufc_cm,
    symbolic_cm,
)
from repro.cache.parametric_model import (
    FamilyFitError,
    ParametricCharacterization,
    counter_fields,
)

HIER = CacheHierarchy(
    (
        CacheLevelConfig("L1", 8 * 64 * 2, 64, 2),
        CacheLevelConfig("L2", 32 * 64 * 4, 64, 4),
    )
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _vector(cm, fields):
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


def _artifact(param_names):
    return ParametricCharacterization(
        param_names=param_names,
        unit_names=("kernel",),
        level_names=tuple(level.name for level in HIER.levels),
        line_bytes=HIER.line_bytes,
    )


def _gemm_cm(ni):
    return symbolic_cm(
        POLYBENCH_BUILDERS["gemm"](ni=ni, nj=8, nk=8), None, HIER
    )


def _trisolv_cm(n):
    return symbolic_cm(POLYBENCH_BUILDERS["trisolv"](n=n), None, HIER)


def _trisolv_fast_cm(n):
    module = POLYBENCH_BUILDERS["trisolv"](n=n)
    return polyufc_cm(generate_trace(module), HIER)


def _fill(artifact, compute, keys, param):
    fields = artifact.fields
    for value in keys:
        cm = compute(value)
        artifact.add_sample(
            {param: value}, [_vector(cm, fields)], artifact.invariants()
        )
    return artifact


def test_counter_fields_layout():
    assert counter_fields(2) == (
        "omega",
        "total_accesses",
        "threads",
        "level0_accesses",
        "level0_cold_misses",
        "level0_capacity_conflict_misses",
        "level1_accesses",
        "level1_cold_misses",
        "level1_capacity_conflict_misses",
    )


def test_gemm_chart_matches_concrete_symbolic_bit_for_bit():
    """Rectangular family: fit on 5 sizes, serve a never-sampled one."""
    artifact = _fill(
        _artifact(("ni",)), _gemm_cm, (64, 96, 128, 160, 224), "ni"
    )
    assert artifact.try_fit()
    for probe in (192,):
        answer = artifact.evaluate({"ni": probe})
        assert answer is not None and answer.source == "chart"
        expected = _vector(_gemm_cm(probe), artifact.fields)
        assert answer.units == (expected,)
        served = artifact.cm_result(answer.units[0])
        concrete = _gemm_cm(probe)
        assert served.counters() == concrete.counters()
        assert served.q_dram_bytes == concrete.q_dram_bytes


def test_trisolv_triangular_family_served_from_chart():
    """Triangular family, sampled with the fast engine (the symbolic
    engine takes seconds per sample here and gives equal counters)."""
    assert _trisolv_cm(24).counters() == _trisolv_fast_cm(24).counters()
    artifact = _fill(
        _artifact(("n",)), _trisolv_fast_cm, (8, 24, 40, 56, 88), "n"
    )
    assert artifact.try_fit()
    answer = artifact.evaluate({"n": 72})
    assert answer is not None and answer.source == "chart"
    assert answer.units == (
        _vector(_trisolv_fast_cm(72), artifact.fields),
    )


def test_validity_domain_boundaries_return_none():
    """Off-lattice, beyond-hull and below-offset queries are refused."""
    artifact = _fill(
        _artifact(("ni",)), _gemm_cm, (64, 96, 128, 160, 224), "ni"
    )
    assert artifact.try_fit()
    assert artifact.evaluate({"ni": 80}) is None  # off the 32-lattice
    assert artifact.evaluate({"ni": 256}) is None  # beyond the hull
    assert artifact.evaluate({"ni": 32}) is None  # below the offset
    # stored samples are always served, straight from the table
    assert artifact.evaluate({"ni": 128}).source == "sample"


def test_mismatched_parameter_names_raise():
    artifact = _fill(_artifact(("ni",)), _gemm_cm, (64, 96), "ni")
    with pytest.raises(ValueError):
        artifact.evaluate({"nj": 8})
    with pytest.raises(ValueError):
        artifact.evaluate({"ni": 8, "nj": 8})


def test_contradiction_poisons_and_stops_serving():
    artifact = _fill(
        _artifact(("ni",)), _gemm_cm, (64, 96, 128, 160, 224), "ni"
    )
    assert artifact.try_fit()
    good = artifact.samples[(64,)]
    wrong = tuple(
        tuple(v + 1 for v in unit) for unit in good
    )
    with pytest.raises(FamilyFitError):
        artifact.add_sample({"ni": 64}, wrong, artifact.invariants())
    assert artifact.note
    assert artifact.evaluate({"ni": 64}) is None
    assert artifact.evaluate({"ni": 192}) is None
    assert not artifact.try_fit()


def test_json_round_trip_preserves_serving():
    artifact = _fill(
        _artifact(("ni",)), _gemm_cm, (64, 96, 128, 160, 224), "ni"
    )
    assert artifact.try_fit()
    clone = ParametricCharacterization.from_json(artifact.to_json())
    for size in (96, 192):
        original = artifact.evaluate({"ni": size})
        restored = clone.evaluate({"ni": size})
        assert original is not None and restored is not None
        assert restored.units == original.units
        assert restored.source == original.source


def test_unsupported_kernel_surfaces_fallback_as_cm_note():
    """engine="parametric" rides the symbolic slot: a kernel outside the
    symbolic class falls down the ladder and says so on the unit."""
    from repro.hw import get_platform
    from repro.mlpolyufc.characterization import characterize_units
    from repro.pipeline import get_constants

    module = POLYBENCH_BUILDERS["lu"](n=8)  # column-wise traversal
    platform = get_platform("rpl")
    units = characterize_units(
        module, platform, get_constants(platform), engine="parametric"
    )
    noted = [u for u in units if u.cm_note]
    assert noted, "expected at least one fallback cm_note"
    for unit in noted:
        assert unit.cm_note.startswith(
            "symbolic engine fell back to fast:"
        )
        assert unit.degraded == "exact"
