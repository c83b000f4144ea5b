"""Unit tests for BasicMap/Map relations."""

import pytest

from repro.isllite import (
    BasicMap,
    BasicSet,
    IslError,
    LinExpr,
    Map,
    MapSpace,
    Space,
    count_points,
    ge,
    le,
)


def v(name):
    return LinExpr.var(name)


def affine_map(scale=1, offset=0):
    return BasicMap.from_exprs(("i",), {"o": v("i") * scale + offset})


class TestBasicMap:
    def test_from_exprs_graph(self):
        m = affine_map(2, 1)
        assert m.contains((3,), (7,))
        assert not m.contains((3,), (8,))

    def test_identity(self):
        m = BasicMap.identity(("i", "j"))
        assert m.contains((1, 2), (1, 2))
        assert not m.contains((1, 2), (2, 1))

    def test_reverse(self):
        m = affine_map(1, 5).reverse()
        assert m.contains((8,), (3,))

    def test_domain_range(self):
        square = BasicSet.from_box(Space(("i",)), {"i": (0, 4)})
        m = affine_map(1, 10).intersect_domain(square)
        assert sorted(m.domain().enumerate_points()) == [(i,) for i in range(5)]
        assert sorted(m.range().enumerate_points()) == [
            (i + 10,) for i in range(5)
        ]

    def test_intersect_domain_space_check(self):
        wrong = BasicSet.from_box(Space(("x",)), {"x": (0, 4)})
        with pytest.raises(IslError):
            affine_map().intersect_domain(wrong)

    def test_apply_range_composition(self):
        # o = 2i + 1 then y = x + 10  =>  y = 2i + 11
        composed = affine_map(2, 1).apply_range(
            BasicMap.from_exprs(("x",), {"y": v("x") + 10})
        )
        assert composed.contains((3,), (17,))
        assert not composed.contains((3,), (16,))

    def test_apply_range_name_collision(self):
        # other's output dim collides with self's input dim name
        other = BasicMap.from_exprs(("x",), {"i": v("x") + 1})
        composed = affine_map(1, 1).apply_range(other)
        assert len(composed.space.out_dims) == 1
        assert composed.contains((3,), (5,))

    def test_apply_range_arity_mismatch(self):
        two_out = BasicMap.from_exprs(("i",), {"a": v("i"), "b": v("i")})
        with pytest.raises(IslError):
            two_out.apply_range(two_out)

    def test_deltas_of_translation(self):
        dom = BasicSet.from_box(Space(("i",)), {"i": (0, 9)})
        m = affine_map(1, 3).intersect_domain(dom)
        deltas = m.deltas()
        assert list(deltas.enumerate_points()) == [(3,)]

    def test_deltas_arity_check(self):
        two_out = BasicMap.from_exprs(("i",), {"a": v("i"), "b": v("i")})
        with pytest.raises(IslError):
            two_out.deltas()

    def test_image_of(self):
        img = affine_map(3, 2).image_of((4,))
        assert img.sample() == (14,)

    def test_wrap_and_count(self):
        dom = BasicSet.from_box(Space(("i",)), {"i": (0, 9)})
        m = affine_map().intersect_domain(dom)
        assert int(count_points(m.wrap())) == 10

    def test_fix_params(self):
        m = BasicMap.from_exprs(
            ("i",), {"o": v("i")}, params=("n",),
            extra=[ge(v("i"), 0), le(v("i"), v("n") - 1)],
        )
        fixed = m.fix_params({"n": 4})
        assert fixed.space.params == ()
        assert sorted(fixed.domain().enumerate_points()) == [
            (i,) for i in range(4)
        ]

    def test_is_empty(self):
        m = affine_map().add_constraints([ge(v("i"), 5), le(v("i"), 4)])
        assert m.is_empty({})


class TestMap:
    def test_union_and_image(self):
        m = affine_map(1, 0).to_map().union(affine_map(1, 100).to_map())
        img = m.image_of((5,))
        pts = sorted(img.enumerate_points())
        assert pts == [(5,), (105,)]

    def test_reverse(self):
        m = affine_map(1, 1).to_map().reverse()
        assert m.contains((6,), (5,))

    def test_apply_range_union(self):
        left = affine_map(1, 0).to_map().union(affine_map(1, 10).to_map())
        right = BasicMap.from_exprs(("x",), {"y": v("x") * 2}).to_map()
        composed = left.apply_range(right)
        assert sorted(composed.image_of((1,)).enumerate_points()) == [
            (2,), (22,)
        ]

    def test_domain_range_union(self):
        dom = BasicSet.from_box(Space(("i",)), {"i": (0, 1)})
        m = affine_map(1, 0).intersect_domain(dom).to_map().union(
            affine_map(1, 5).intersect_domain(dom).to_map()
        )
        assert sorted(m.range().enumerate_points()) == [(0,), (1,), (5,), (6,)]

    def test_deltas_union(self):
        dom = BasicSet.from_box(Space(("i",)), {"i": (0, 3)})
        m = affine_map(1, 1).intersect_domain(dom).to_map().union(
            affine_map(1, 2).intersect_domain(dom).to_map()
        )
        assert sorted(m.deltas().enumerate_points()) == [(1,), (2,)]

    def test_empty_map(self):
        space = MapSpace(("i",), ("o",))
        assert Map.empty(space).is_empty()

    def test_intersect(self):
        dom = BasicSet.from_box(Space(("i",)), {"i": (0, 9)})
        a = affine_map(1, 0).intersect_domain(dom).to_map()
        b = affine_map(1, 0).to_map()
        assert not a.intersect(b).is_empty({})

    def test_wrap_counts_union_without_double_count(self):
        dom = BasicSet.from_box(Space(("i",)), {"i": (0, 9)})
        piece = affine_map(1, 0).intersect_domain(dom)
        m = piece.to_map().union(piece.to_map())
        assert int(count_points(m.wrap())) == 10
