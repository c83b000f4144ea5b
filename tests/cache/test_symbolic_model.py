"""Tests for the trace-free symbolic CM engine.

The symbolic engine must be bit-for-bit equivalent to the trace-based
``fast`` engine on the quasi-affine PolyBench class, and must *declare*
(never crash on) units outside that class so the dispatch layer can fall
back to the trace path with a structured note.
"""

import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    CM_ENGINES,
    CacheHierarchy,
    CacheLevelConfig,
    SymbolicUnsupported,
    clear_memo,
    generate_trace,
    memoized_cm_with_note,
    polyufc_cm,
    resolve_engine,
    symbolic_cm,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def sa_hier():
    return CacheHierarchy(
        (
            CacheLevelConfig("L1", 8 * 64 * 2, 64, 2),
            CacheLevelConfig("L2", 32 * 64 * 4, 64, 4),
        )
    )


def fa_hier():
    return sa_hier().fully_associative()


# Odd sizes on purpose: misaligned rows exercise the residue-variant
# machinery (period splits, degenerate quotient dims, cross-line tails).
SUPPORTED_CASES = [
    ("gemm", dict(ni=7, nj=11, nk=5)),
    ("2mm", dict(ni=1, nj=11, nk=3, nl=3)),
    ("2mm", dict(ni=13, nj=11, nk=9, nl=12)),
    ("3mm", dict(ni=5, nj=7, nk=3, nl=4, nm=6)),
    ("atax", dict(m=9, n=13)),
    ("doitgen", dict(nq=5, nr=4, np_=7)),
    ("trisolv", dict(n=15)),  # triangular: the widened engine's class
]

# Outside the supported class: mvt's second nest walks a matrix
# column-wise (sub-line dim outermost); lu at n=8 packs two rows per
# line, making its column walk line-strided under a sub-line outer dim.
# Triangular bounds alone (trisolv) no longer disqualify -- the widened
# engine unrolls iv-anchored loops per-iteration, so trisolv moved to
# the supported side.
UNSUPPORTED_CASES = [
    ("mvt", dict(n=17)),
    ("lu", dict(n=8)),
]


@pytest.mark.parametrize("hier_factory", [sa_hier, fa_hier], ids=["SA", "FA"])
@pytest.mark.parametrize(
    "kernel,kwargs",
    SUPPORTED_CASES,
    ids=[f"{k}-{'x'.join(str(v) for v in kw.values())}" for k, kw in SUPPORTED_CASES],
)
class TestEquivalence:
    def test_matches_fast_engine(self, kernel, kwargs, hier_factory):
        module = POLYBENCH_BUILDERS[kernel](**kwargs)
        hier = hier_factory()
        fast = polyufc_cm(generate_trace(module), hier, engine="fast")
        symbolic = symbolic_cm(module, None, hier)
        assert symbolic == fast


@pytest.mark.parametrize(
    "kernel,kwargs", UNSUPPORTED_CASES, ids=[k for k, _ in UNSUPPORTED_CASES]
)
class TestFallback:
    def test_raises_structured_unsupported(self, kernel, kwargs):
        module = POLYBENCH_BUILDERS[kernel](**kwargs)
        with pytest.raises(SymbolicUnsupported):
            symbolic_cm(module, None, sa_hier())

    def test_memo_layer_falls_back_with_note(self, kernel, kwargs):
        module = POLYBENCH_BUILDERS[kernel](**kwargs)
        hier = sa_hier()
        cm, note = memoized_cm_with_note(module, None, hier, engine="symbolic")
        assert note is not None
        assert note.startswith("symbolic engine fell back to fast:")
        assert cm == polyufc_cm(generate_trace(module), hier, engine="fast")


class TestSupportedThroughMemo:
    def test_no_note_when_supported(self):
        module = POLYBENCH_BUILDERS["gemm"](ni=7, nj=11, nk=5)
        hier = sa_hier()
        cm, note = memoized_cm_with_note(module, None, hier, engine="symbolic")
        assert note is None
        assert cm == polyufc_cm(generate_trace(module), hier, engine="fast")

    def test_note_survives_lru_replay(self):
        module = POLYBENCH_BUILDERS["mvt"](n=17)
        hier = sa_hier()
        first = memoized_cm_with_note(module, None, hier, engine="symbolic")
        replay = memoized_cm_with_note(module, None, hier, engine="symbolic")
        assert replay == first
        assert replay[1].startswith("symbolic engine fell back to fast:")


class TestEngineDispatch:
    def test_unknown_engine_fails_fast(self):
        with pytest.raises(ValueError) as err:
            resolve_engine("warp-drive")
        for name in CM_ENGINES:
            assert name in str(err.value)

    def test_explicit_engine_else_fast(self):
        assert resolve_engine("symbolic") == "symbolic"
        assert resolve_engine("parametric") == "parametric"
        assert resolve_engine() == "fast"

    def test_polyufc_cm_degrades_symbolic_to_fast(self):
        # With a trace already materialized there is nothing symbolic to
        # save; polyufc_cm serves the request with the fast engine.
        module = POLYBENCH_BUILDERS["gemm"](ni=7, nj=11, nk=5)
        trace = generate_trace(module)
        hier = sa_hier()
        assert polyufc_cm(trace, hier, engine="symbolic") == polyufc_cm(
            trace, hier, engine="fast"
        )

    def test_polyufc_cm_rejects_unknown_engine(self):
        module = POLYBENCH_BUILDERS["gemm"](ni=7, nj=11, nk=5)
        with pytest.raises(ValueError):
            polyufc_cm(generate_trace(module), sa_hier(), engine="warp-drive")


class TestCharacterizationNote:
    def test_fallback_note_lands_on_unit(self):
        from repro.hw import get_platform
        from repro.mlpolyufc.characterization import characterize_units
        from repro.pipeline import get_constants

        platform = get_platform("rpl")
        constants = get_constants(platform)
        module = POLYBENCH_BUILDERS["mvt"](n=17)
        units = characterize_units(
            module, platform, constants, engine="symbolic"
        )
        assert units
        noted = [u for u in units if u.cm_note]
        assert noted, "mvt should produce at least one fallback note"
        for unit in noted:
            assert unit.cm_note.startswith("symbolic engine fell back to fast:")
            assert unit.degraded == "exact"

    def test_symbolic_engine_matches_fast_characterization(self):
        from repro.hw import get_platform
        from repro.mlpolyufc.characterization import characterize_units
        from repro.pipeline import get_constants

        platform = get_platform("rpl")
        constants = get_constants(platform)
        module = POLYBENCH_BUILDERS["gemm"](ni=7, nj=11, nk=5)
        symbolic = characterize_units(
            module, platform, constants, engine="symbolic"
        )
        clear_memo()
        fast = characterize_units(module, platform, constants, engine="fast")
        assert [u.cm for u in symbolic] == [u.cm for u in fast]
        assert all(u.cm_note is None for u in symbolic)
