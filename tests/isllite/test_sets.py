"""Unit tests for BasicSet/Set algebra, scanning and projection."""

import numpy as np
import pytest

from repro.isllite import (
    BasicSet,
    IslError,
    LinExpr,
    Set,
    Space,
    eq,
    ge,
    le,
)


def v(name):
    return LinExpr.var(name)


def box(bounds, params=()):
    space = Space(tuple(bounds), params=params)
    return BasicSet.from_box(space, bounds)


def triangle(n):
    """{ [i,j] : 0 <= i <= j < n }"""
    space = Space(("i", "j"))
    return BasicSet(
        space, [ge(v("i"), 0), ge(v("j"), v("i")), le(v("j"), n - 1)]
    )


class TestBasicSet:
    def test_constraint_names_must_live_in_space(self):
        with pytest.raises(IslError):
            BasicSet(Space(("i",)), [ge(v("q"), 0)])

    def test_universe_and_empty(self):
        space = Space(("i",))
        assert BasicSet.empty(space).gist_is_false()
        assert not BasicSet.universe(space).constraints

    def test_contains(self):
        b = box({"i": (0, 3), "j": (1, 2)})
        assert b.contains((0, 1))
        assert b.contains((3, 2))
        assert not b.contains((4, 1))
        assert not b.contains((0, 0))

    def test_contains_arity_check(self):
        with pytest.raises(IslError):
            box({"i": (0, 3)}).contains((1, 2))

    def test_enumerate_box(self):
        pts = list(box({"i": (0, 2), "j": (0, 1)}).enumerate_points())
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_enumerate_is_lexicographic(self):
        pts = list(triangle(4).enumerate_points())
        assert pts == sorted(pts)
        assert (0, 3) in pts and (3, 3) in pts and (2, 1) not in pts

    def test_enumerate_with_params(self):
        space = Space(("i",), params=("n",))
        b = BasicSet(space, [ge(v("i"), 0), le(v("i"), v("n") - 1)])
        assert list(b.enumerate_points({"n": 3})) == [(0,), (1,), (2,)]
        assert list(b.enumerate_points({"n": 0})) == []

    def test_scan_requires_fixed_params(self):
        space = Space(("i",), params=("n",))
        b = BasicSet(space, [ge(v("i"), 0), le(v("i"), v("n"))])
        with pytest.raises(IslError):
            list(b.enumerate_points())

    def test_unbounded_scan_raises(self):
        b = BasicSet(Space(("i",)), [ge(v("i"), 0)])
        with pytest.raises(IslError):
            list(b.enumerate_points())

    def test_zero_dim_set(self):
        space = Space(())
        assert list(BasicSet.universe(space).enumerate_points()) == [()]
        assert list(BasicSet.empty(space).enumerate_points()) == []

    def test_points_array(self):
        arr = triangle(3).points_array()
        assert arr.dtype == np.int64
        assert arr.shape == (6, 2)
        assert ([0, 2] == arr).all(axis=1).any()

    def test_points_array_empty(self):
        arr = BasicSet.empty(Space(("i", "j"))).points_array()
        assert arr.shape == (0, 2)

    def test_intersect(self):
        a = box({"i": (0, 9)})
        b = box({"i": (5, 20)})
        assert list(a.intersect(b).enumerate_points()) == [
            (i,) for i in range(5, 10)
        ]

    def test_fix_params(self):
        space = Space(("i",), params=("n", "m"))
        b = BasicSet(space, [ge(v("i"), v("m")), le(v("i"), v("n"))])
        fixed = b.fix_params({"m": 1})
        assert fixed.space.params == ("n",)
        assert list(fixed.enumerate_points({"n": 2})) == [(1,), (2,)]

    def test_project_out_triangle(self):
        # projecting j out of { 0 <= i <= j <= 5 } gives 0 <= i <= 5
        proj = triangle(6).project_out(["j"])
        assert proj.space.dims == ("i",)
        assert list(proj.enumerate_points()) == [(i,) for i in range(6)]

    def test_project_out_equality(self):
        space = Space(("i", "j"))
        b = BasicSet(space, [eq(v("j"), v("i") * 2), ge(v("i"), 0), le(v("i"), 3)])
        proj = b.project_out(["j"])
        assert list(proj.enumerate_points()) == [(i,) for i in range(4)]

    def test_project_matches_enumeration(self):
        full = triangle(5)
        proj = full.project_out(["i"])
        expected = sorted({(j,) for _, j in full.enumerate_points()})
        assert sorted(proj.enumerate_points()) == expected

    def test_dim_bounds(self):
        lo, hi = triangle(5).dim_bounds("j")
        assert (lo, hi) == (0, 4)
        lo, hi = triangle(5).dim_bounds("i")
        assert (lo, hi) == (0, 4)

    def test_dim_bounds_with_env(self):
        space = Space(("i",), params=("n",))
        b = BasicSet(space, [ge(v("i"), 0), le(v("i"), v("n"))])
        assert b.dim_bounds("i", {"n": 7}) == (0, 7)

    def test_is_empty_integer(self):
        space = Space(("i",))
        # 0 <= 3i <= 2 and i >= 1: empty over integers
        b = BasicSet(space, [ge(v("i"), 1), le(v("i") * 3, 2)])
        assert b.is_empty({})

    def test_is_empty_rational_check_without_env(self):
        space = Space(("i",), params=("n",))
        b = BasicSet(space, [ge(v("i"), v("n") + 1), le(v("i"), v("n"))])
        assert b.is_empty()

    def test_sample(self):
        assert triangle(3).sample() == (0, 0)
        assert BasicSet.empty(Space(("i",))).sample() is None

    def test_rename(self):
        renamed = triangle(3).rename({"i": "a", "j": "b"})
        assert renamed.space.dims == ("a", "b")
        assert renamed.contains((1, 2))

    def test_eq_and_hash(self):
        assert triangle(3) == triangle(3)
        assert hash(triangle(3)) == hash(triangle(3))
        assert triangle(3) != triangle(4)


class TestSet:
    def test_union_and_contains(self):
        s = box({"i": (0, 2)}).to_set().union(box({"i": (10, 11)}).to_set())
        assert s.contains((1,)) and s.contains((10,))
        assert not s.contains((5,))

    def test_empty_pieces_dropped(self):
        s = Set(Space(("i",)), [BasicSet.empty(Space(("i",)))])
        assert not s.pieces
        assert s.is_empty()

    def test_duplicate_pieces_dropped(self):
        b = box({"i": (0, 2)})
        s = Set(b.space, [b, b])
        assert len(s.pieces) == 1

    def test_intersect_distributes(self):
        s = box({"i": (0, 5)}).to_set().union(box({"i": (8, 12)}).to_set())
        cut = s.intersect(box({"i": (4, 9)}).to_set())
        assert sorted(cut.enumerate_points()) == [(4,), (5,), (8,), (9,)]

    def test_subtract_middle(self):
        s = box({"i": (0, 9)}).to_set().subtract(box({"i": (3, 5)}).to_set())
        assert sorted(s.enumerate_points()) == [
            (0,), (1,), (2,), (6,), (7,), (8,), (9,)
        ]

    def test_subtract_everything(self):
        s = box({"i": (0, 4)}).to_set()
        assert s.subtract(box({"i": (-1, 10)}).to_set()).is_empty()

    def test_subtract_produces_disjoint_pieces(self):
        square = box({"i": (0, 4), "j": (0, 4)}).to_set()
        hole = box({"i": (1, 2), "j": (1, 2)}).to_set()
        diff = square.subtract(hole)
        pts = list(diff.enumerate_points())
        assert len(pts) == len(set(pts)) == 25 - 4

    def test_subtract_with_equality_piece(self):
        line = BasicSet(
            Space(("i", "j")),
            [eq(v("i"), v("j")), ge(v("i"), 0), le(v("i"), 4)],
        ).to_set()
        square = box({"i": (0, 4), "j": (0, 4)}).to_set()
        diff = square.subtract(line)
        pts = set(diff.enumerate_points())
        assert (2, 2) not in pts
        assert (2, 3) in pts
        assert len(pts) == 20

    def test_make_disjoint_preserves_points(self):
        a = box({"i": (0, 6)}).to_set()
        b = box({"i": (4, 9)}).to_set()
        union = a.union(b)
        disjoint = union.make_disjoint()
        pts = list(disjoint.enumerate_points())
        assert sorted(pts) == [(i,) for i in range(10)]
        assert len(pts) == len(set(pts))

    def test_points_array_union(self):
        s = box({"i": (0, 2)}).to_set().union(box({"i": (2, 4)}).to_set())
        arr = s.points_array()
        assert sorted(map(tuple, arr)) == [(i,) for i in range(5)]

    def test_project_out(self):
        s = triangle(4).to_set().project_out(["j"])
        assert sorted(s.enumerate_points()) == [(i,) for i in range(4)]

    def test_sample_union(self):
        s = Set.empty(Space(("i",))).union(box({"i": (7, 9)}).to_set())
        assert s.sample() == (7,)

    def test_universe(self):
        s = Set.universe(Space(()))
        assert not s.is_empty()

    def test_coalesce_drops_contained_piece(self):
        big = box({"i": (0, 9)})
        small = big.add_constraints([ge(v("i"), 3)])
        s = Set(big.space, [big, small]).coalesce()
        assert len(s.pieces) == 1
        assert s.contains((0,))
