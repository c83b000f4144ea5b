"""Edge-case units characterize cleanly and deterministically."""

import pytest

from repro.cache.memo import clear_memo
from repro.hw import get_platform
from repro.mlpolyufc.characterization import characterize_units
from repro.pipeline import get_constants


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _edge_nest(extent_i: int, extent_j: int):
    """A tiny read-modify-write nest with configurable trip counts."""
    from repro.ir import F64, Module
    from repro.ir.builder import AffineBuilder

    module = Module(f"edge_{extent_i}x{extent_j}")
    array = module.add_buffer("A", (16,), F64)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, extent_i):
        with builder.loop("j", 0, extent_j):
            value = builder.add(
                builder.load(array, ["i"]), builder.const(1.0)
            )
            builder.store(value, array, ["i"])
    return module


def test_empty_iteration_domain_characterizes_compute_bound():
    """Zero-trip nests must yield a clean unit, not a crash or a NaN.

    With no billable traffic the unit characterizes compute-bound with
    infinite OI and an all-zero cache model, on every engine.
    """
    platform = get_platform("rpl")
    constants = get_constants(platform)
    module = _edge_nest(0, 5)
    for engine in ("fast", "symbolic"):
        clear_memo()
        units = characterize_units(
            module, platform, constants, engine=engine
        )
        assert len(units) == 1
        unit = units[0]
        assert unit.omega == 0
        assert unit.oi_fpb == float("inf")
        assert str(unit.boundedness) == "CB"
        assert unit.cm.total_accesses == 0
        assert unit.degraded == "exact"


def test_single_iteration_nest_is_deterministic_across_workers():
    """Units run serially; a recompute on a cold memo matches the
    first run, so service workers that both compute it agree."""
    platform = get_platform("rpl")
    constants = get_constants(platform)
    module = _edge_nest(1, 1)
    first = characterize_units(module, platform, constants)
    clear_memo()
    again = characterize_units(module, platform, constants)
    assert len(first) == len(again) == 1
    assert first[0].cm == again[0].cm
    assert first[0].omega == again[0].omega == 1
    assert first[0].cm.total_accesses == 2  # one load + one store
    assert first[0].degraded == "exact"
