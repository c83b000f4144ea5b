"""Unit tests for the point-counting engine (barvinok substitute)."""

import math

import pytest

from repro.isllite import (
    BasicSet,
    CountOptions,
    IslError,
    LinExpr,
    Set,
    Space,
    count_points,
    eq,
    ge,
    le,
)


def v(name):
    return LinExpr.var(name)


def box(bounds):
    space = Space(tuple(bounds))
    return BasicSet.from_box(space, bounds)


def test_box_closed_form():
    result = count_points(box({"i": (0, 99), "j": (0, 9), "k": (1, 7)}))
    assert result.exact
    assert int(result) == 100 * 10 * 7


def test_large_box_does_not_enumerate():
    # 1e12 points: only a closed form can return this instantly.
    result = count_points(box({"i": (0, 10**6 - 1), "j": (0, 10**6 - 1)}))
    assert result.exact
    assert int(result) == 10**12


def test_empty_box():
    assert int(count_points(box({"i": (5, 4)}))) == 0


def test_zero_dim():
    assert int(count_points(BasicSet.universe(Space(())))) == 1
    assert int(count_points(BasicSet.empty(Space(())))) == 0


def test_triangle_count():
    n = 20
    space = Space(("i", "j"))
    tri = BasicSet(space, [ge(v("i"), 0), ge(v("j"), v("i")), le(v("j"), n - 1)])
    assert int(count_points(tri)) == n * (n + 1) // 2


def test_independent_components_multiply():
    # (i,j) coupled triangle x independent k-box: product rule must apply.
    space = Space(("i", "j", "k"))
    s = BasicSet(
        space,
        [
            ge(v("i"), 0),
            ge(v("j"), v("i")),
            le(v("j"), 9),
            ge(v("k"), 0),
            le(v("k"), 4),
        ],
    )
    assert int(count_points(s)) == 55 * 5


def test_component_decomposition_handles_big_independent_dims():
    # Component decomposition keeps the coupled scan small even when an
    # independent dimension is huge.
    space = Space(("i", "j", "k"))
    s = BasicSet(
        space,
        [
            ge(v("i"), 0),
            ge(v("j"), v("i")),
            le(v("j"), 9),
            ge(v("k"), 0),
            le(v("k"), 10**9),
        ],
    )
    result = count_points(s, options=CountOptions(budget=1000))
    assert result.exact
    assert int(result) == 55 * (10**9 + 1)


def test_equality_slices():
    space = Space(("i", "j"))
    s = BasicSet(
        space,
        [eq(v("j"), v("i") * 2), ge(v("i"), 0), le(v("i"), 9)],
    )
    assert int(count_points(s)) == 10


def test_params_must_be_fixed():
    space = Space(("i",), params=("n",))
    s = BasicSet(space, [ge(v("i"), 0), le(v("i"), v("n"))])
    with pytest.raises(IslError):
        count_points(s)
    assert int(count_points(s, {"n": 4})) == 5


def test_parametric_count_matches_formula():
    space = Space(("i", "j"), params=("n",))
    tri = BasicSet(
        space,
        [ge(v("i"), 0), ge(v("j"), v("i")), le(v("j"), v("n") - 1)],
    )
    for n in (1, 2, 5, 30):
        assert int(count_points(tri, {"n": n})) == n * (n + 1) // 2


def test_union_counts_without_double_counting():
    a = box({"i": (0, 9)}).to_set()
    b = box({"i": (5, 14)}).to_set()
    assert int(count_points(a.union(b))) == 15


def test_empty_set_count():
    assert int(count_points(Set.empty(Space(("i",))))) == 0


def test_monte_carlo_fallback_estimates():
    # A 3-d simplex too wide for a tiny budget: estimate within 10 %.
    n = 60
    space = Space(("i", "j", "k"))
    s = BasicSet(
        space,
        [
            ge(v("i"), 0),
            ge(v("j"), v("i")),
            ge(v("k"), v("j")),
            le(v("k"), n - 1),
        ],
    )
    exact = int(count_points(s))
    estimate = count_points(
        s, options=CountOptions(budget=10, mc_samples=40_000, seed=7)
    )
    assert not estimate.exact
    assert math.isclose(estimate.value, exact, rel_tol=0.1)


def test_unbounded_counting_raises():
    s = BasicSet(Space(("i",)), [ge(v("i"), 0)])
    with pytest.raises(IslError):
        count_points(s)


def test_count_result_arithmetic():
    a = count_points(box({"i": (0, 4)}))
    b = count_points(box({"i": (0, 2)}))
    total = a + b
    assert int(total) == 8
    assert total.exact
    assert float(a + 1) == 6.0


def test_count_rejects_unknown_type():
    with pytest.raises(TypeError):
        count_points(42)
