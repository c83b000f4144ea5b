"""SymbolicUnsupported reason strings: one minimal kernel per raise site.

Each constructible raise site in ``symbolic_model.py`` gets the smallest
kernel that triggers it; the test asserts both the raised reason and
that the reason surfaces as ``cm_note`` on ``UnitCharacterization``
through the dispatch fallback (with the numbers unchanged vs the fast
engine).

Sites not covered here, and why no minimal kernel exists for them:

* ``non-integer bound`` / ``non-integer subscript`` / ``non-integer
  coefficient`` -- unreachable through valid IR: ``LinExpr`` rejects
  non-integral constants and coefficients at construction.
* ``non-positive step`` -- unreachable: ``AffineForOp`` validates
  ``step > 0`` at construction.
* ``unbound names`` -- a subscript with a free name fails trace
  generation itself (``IRError``) before any engine runs.
* residue/AP/window *budget* sites and ``two sub-line dims survive`` /
  ``mixed-radix separable`` / ``non-arithmetic dim filter`` /
  ``non-injective access geometry`` / ``fine dim filter crosses lines``
  -- only reachable with pathological geometry at scales unsuitable for
  tier-1 (probed experimentally: small odd-stride and overlapping
  kernels are all handled exactly); the fuzz tier (docs/TESTING.md)
  owns that frontier.

Triangular bounds (an inner bound riding an outer iv) are no longer a
raise site at all: the engine unrolls the anchored loop per-iteration.
The reachable limit is the *unroll box budget*, covered below with a
deep triangular nest; the small triangular kernel gets a positive test
asserting exact agreement instead.
"""

import pytest

from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    SymbolicUnsupported,
    clear_memo,
    generate_trace,
    polyufc_cm,
    reference_cm,
    symbolic_cm,
)
from repro.hw import get_platform
from repro.ir.builder import AffineBuilder
from repro.ir.core import Module
from repro.isllite import LinExpr
from repro.mlpolyufc.characterization import characterize_units
from repro.pipeline import get_constants

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


def _triangular() -> Module:
    """Inner bound depends on the outer iv -> unrolled per-iteration."""
    module = Module("triangular")
    builder = AffineBuilder(module)
    a = module.add_buffer("A", (8, 9))
    with builder.loop("i", 0, 8):
        with builder.loop("j", 0, LinExpr({"i": 1}, 1)):
            builder.load(a, ["i", "j"])
    return module


def _deep_triangular() -> Module:
    """A triangular nest whose unroll exceeds the box budget."""
    module = Module("deep_triangular")
    builder = AffineBuilder(module)
    a = module.add_buffer("A", (4201,))
    with builder.loop("i", 0, 4200):
        with builder.loop("j", LinExpr({"i": 1}, 0), LinExpr({"i": 1}, 1)):
            builder.load(a, ["j"])
    return module


def _reversed_row() -> Module:
    """Row index walks backwards -> negative line stride."""
    module = Module("reversed_row")
    builder = AffineBuilder(module)
    a = module.add_buffer("A", (8, 8))
    with builder.loop("i", 0, 8):
        with builder.loop("j", 0, 8):
            builder.load(a, [LinExpr({"i": -1}, 7), "j"])
    return module


def _reversed_fine() -> Module:
    """A 1-D backwards walk within lines -> negative fine coefficient."""
    module = Module("reversed_fine")
    builder = AffineBuilder(module)
    a = module.add_buffer("A", (16,))
    with builder.loop("i", 0, 8):
        builder.load(a, [LinExpr({"i": -1}, 7)])
    return module


def _column_wise() -> Module:
    """Transposed walk (sub-line dim outermost over a line-strided dim)."""
    module = Module("column_wise")
    builder = AffineBuilder(module)
    a = module.add_buffer("A", (8, 8))
    with builder.loop("i", 0, 8):
        with builder.loop("j", 0, 8):
            builder.load(a, ["j", "i"])
    return module


REASON_CASES = [
    pytest.param(_deep_triangular, "box budget", id="box-budget"),
    pytest.param(_reversed_row, "negative line stride", id="line-stride"),
    pytest.param(
        _reversed_fine, "negative fine coefficient", id="fine-coefficient"
    ),
    pytest.param(_column_wise, "column-wise traversal", id="column-wise"),
]


def test_triangular_is_now_supported_exactly():
    """The widened engine unrolls the anchored loop: no fallback, and
    the counters match the trace-driven engines bit-for-bit."""
    module = _triangular()
    symbolic = symbolic_cm(module, None, HIER)
    trace = generate_trace(module)
    fast = polyufc_cm(trace, HIER)
    assert symbolic.counters() == fast.counters()


@pytest.mark.parametrize("build, reason", REASON_CASES)
def test_minimal_kernel_raises_with_reason(build, reason):
    with pytest.raises(SymbolicUnsupported, match=reason):
        symbolic_cm(build(), None, HIER)


@pytest.mark.parametrize("build, reason", REASON_CASES)
def test_reason_surfaces_as_cm_note_on_unit(build, reason):
    module = build()
    platform = get_platform("rpl")
    constants = get_constants(platform)
    units = characterize_units(
        module, platform, constants, engine="symbolic"
    )
    assert units
    noted = [u for u in units if u.cm_note]
    assert noted, f"no unit carried a cm_note for {module.name}"
    for unit in noted:
        assert unit.cm_note.startswith("symbolic engine fell back to fast:")
        assert reason in unit.cm_note
        assert unit.degraded == "exact"


@pytest.mark.parametrize("build, reason", REASON_CASES)
def test_fallback_numbers_match_fast_engine(build, reason):
    module = build()
    trace = generate_trace(module)
    fast = polyufc_cm(trace, HIER)
    assert fast.counters() == reference_cm(trace, HIER).counters()
