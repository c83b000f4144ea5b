"""Cross-engine agreement over the whole benchmark registry.

The promotion of ``scripts/_dev_check_symbolic.py``: every registered
benchmark (all 30 PolyBench kernels at reduced sizes, all 7 ML kernels
via tiny same-shape variants), against both a set-associative and a
fully-associative hierarchy, must produce identical per-level counters
from the ``fast`` engine and the per-access ``reference_cm`` oracle --
and from the ``symbolic`` engine wherever it declares the kernel
supported.  Unsupported kernels
must raise :class:`SymbolicUnsupported` cleanly, never crash or return
wrong numbers.
"""

import inspect

import pytest

from repro.benchsuite.ml_kernels import ML_BUILDERS, _conv2d, _lm_head, _sdpa
from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    SymbolicUnsupported,
    generate_trace,
    polyufc_cm,
    reference_cm,
    symbolic_cm,
)
from repro.pipeline import _lower_to_affine

#: Reduced problem size fed to every PolyBench builder parameter: large
#: enough for multi-line reuse, small enough for the per-access Python
#: reference oracle.
SMALL = 8

#: Tiny same-shape stand-ins for the ML registry entries (the registered
#: sim-scale builders produce multi-million-access traces; the geometry,
#: not the scale, is what engine agreement depends on).
ML_TINY_BUILDERS = {
    "conv2d_alexnet": lambda: _conv2d("conv2d_alexnet", 1, 3, 8, 4, 3, 2),
    "conv2d_convnext": lambda: _conv2d("conv2d_convnext", 1, 4, 6, 4, 2, 2),
    "conv2d_wideresnet": lambda: _conv2d(
        "conv2d_wideresnet", 2, 4, 5, 6, 1, 1
    ),
    "sdpa_bert": lambda: _sdpa("sdpa_bert", 1, 2, 6, 4),
    "sdpa_gemma2": lambda: _sdpa("sdpa_gemma2", 1, 2, 5, 8),
    "matmul_gpt2": lambda: _lm_head("matmul_gpt2", 2, 12, 16),
    "matmul_llama2": lambda: _lm_head("matmul_llama2", 3, 8, 24),
}


def _build(name):
    if name in POLYBENCH_BUILDERS:
        builder = POLYBENCH_BUILDERS[name]
        kwargs = {
            param: SMALL
            for param in inspect.signature(builder).parameters
        }
        return builder(**kwargs)
    return _lower_to_affine(ML_TINY_BUILDERS[name]())


def _hierarchy(kind):
    sa = CacheHierarchy(
        (
            CacheLevelConfig("L1", 8 * 64 * 2, 64, 2),
            CacheLevelConfig("L2", 32 * 64 * 4, 64, 4),
        )
    )
    return sa if kind == "SA" else sa.fully_associative()


ALL_BENCHMARKS = sorted(POLYBENCH_BUILDERS) + sorted(ML_TINY_BUILDERS)


def test_tiny_ml_variants_cover_the_ml_registry():
    assert set(ML_TINY_BUILDERS) == set(ML_BUILDERS)


#: Triangular-domain kernels the widened symbolic engine (per-iteration
#: unroll of iv-anchored bounds) must now handle without fallback.  A
#: regression to ``SymbolicUnsupported`` would silently pass the generic
#: agreement test above via its early return, so support is asserted
#: explicitly.
TRIANGULAR_SUPPORTED = ("trisolv", "cholesky", "syrk", "syr2k")

#: Triangular kernels that still fall back -- for reasons orthogonal to
#: their triangular bounds (column-wise traversals, backward walks).
#: The test pins the reason so a fallback caused by the *bounds* class
#: reappearing is caught.
TRIANGULAR_STILL_FALLBACK = {
    "lu": "column-wise",
    "ludcmp": "column-wise",
    "gramschmidt": "column-wise",
    "durbin": "negative fine coefficient",
}


@pytest.mark.parametrize("name", TRIANGULAR_SUPPORTED)
def test_triangular_kernels_no_longer_fall_back(name):
    module = _build(name)
    hierarchy = _hierarchy("SA")
    symbolic = symbolic_cm(module, None, hierarchy)
    fast = polyufc_cm(generate_trace(module), hierarchy)
    assert symbolic.counters() == fast.counters()


@pytest.mark.parametrize("name", sorted(TRIANGULAR_STILL_FALLBACK))
def test_remaining_fallbacks_are_not_about_triangular_bounds(name):
    module = _build(name)
    with pytest.raises(SymbolicUnsupported) as excinfo:
        symbolic_cm(module, None, _hierarchy("SA"))
    reason = str(excinfo.value)
    assert TRIANGULAR_STILL_FALLBACK[name] in reason
    for triangular_marker in ("non-rectangular", "box budget"):
        assert triangular_marker not in reason


@pytest.mark.parametrize("kind", ["SA", "FA"])
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_engines_agree(name, kind):
    module = _build(name)
    hierarchy = _hierarchy(kind)
    trace = generate_trace(module)
    assert len(trace) > 0

    fast = polyufc_cm(trace, hierarchy)
    assert fast.counters() == reference_cm(trace, hierarchy).counters()

    try:
        symbolic = symbolic_cm(module, None, hierarchy)
    except SymbolicUnsupported:
        return  # declared out of class: the fallback path covers it
    assert symbolic.counters() == fast.counters()
