"""Unit and property tests for :mod:`repro.geometry.mbr`."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Mbr, Point

coordinate = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def mbrs(draw):
    x1, x2 = sorted((draw(coordinate), draw(coordinate)))
    y1, y2 = sorted((draw(coordinate), draw(coordinate)))
    return Mbr(x1, y1, x2, y2)


class TestConstruction:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Mbr(1.0, 0.0, 0.0, 1.0)

    def test_from_points(self):
        box = Mbr.from_points([Point(1.0, 5.0), Point(-2.0, 3.0), Point(0.0, 7.0)])
        assert box == Mbr(-2.0, 3.0, 1.0, 7.0)

    def test_from_points_requires_one_point(self):
        with pytest.raises(ValueError):
            Mbr.from_points([])

    def test_around_square(self):
        box = Mbr.around(Point(1.0, 2.0), 3.0)
        assert box == Mbr(-2.0, -1.0, 4.0, 5.0)

    def test_around_asymmetric(self):
        box = Mbr.around(Point(0.0, 0.0), 1.0, 2.0)
        assert box == Mbr(-1.0, -2.0, 1.0, 2.0)


class TestMeasures:
    def test_area_and_perimeter(self):
        box = Mbr(0.0, 0.0, 4.0, 3.0)
        assert box.area() == 12.0
        assert box.perimeter() == 14.0

    def test_center(self):
        assert Mbr(0.0, 0.0, 4.0, 2.0).center == Point(2.0, 1.0)

    def test_degenerate_point_box(self):
        box = Mbr(1.0, 1.0, 1.0, 1.0)
        assert box.area() == 0.0
        assert box.contains_point(Point(1.0, 1.0))


class TestPredicates:
    def test_contains_point_boundary(self):
        box = Mbr(0.0, 0.0, 1.0, 1.0)
        assert box.contains_point(Point(0.0, 0.0))
        assert box.contains_point(Point(1.0, 1.0))
        assert not box.contains_point(Point(1.1, 0.5))

    def test_contains_mbr(self):
        outer = Mbr(0.0, 0.0, 10.0, 10.0)
        assert outer.contains_mbr(Mbr(1.0, 1.0, 9.0, 9.0))
        assert outer.contains_mbr(outer)
        assert not outer.contains_mbr(Mbr(5.0, 5.0, 11.0, 9.0))

    def test_intersects_touching_edges(self):
        a = Mbr(0.0, 0.0, 1.0, 1.0)
        b = Mbr(1.0, 0.0, 2.0, 1.0)
        assert a.intersects(b)

    def test_disjoint(self):
        assert not Mbr(0.0, 0.0, 1.0, 1.0).intersects(Mbr(2.0, 2.0, 3.0, 3.0))


class TestCombinators:
    def test_union(self):
        a = Mbr(0.0, 0.0, 1.0, 1.0)
        b = Mbr(2.0, -1.0, 3.0, 0.5)
        assert a.union(b) == Mbr(0.0, -1.0, 3.0, 1.0)

    def test_intersection_overlapping(self):
        a = Mbr(0.0, 0.0, 2.0, 2.0)
        b = Mbr(1.0, 1.0, 3.0, 3.0)
        assert a.intersection(b) == Mbr(1.0, 1.0, 2.0, 2.0)

    def test_intersection_disjoint_is_none(self):
        assert Mbr(0.0, 0.0, 1.0, 1.0).intersection(Mbr(5.0, 5.0, 6.0, 6.0)) is None

    def test_expanded(self):
        assert Mbr(0.0, 0.0, 1.0, 1.0).expanded(2.0) == Mbr(-2.0, -2.0, 3.0, 3.0)

    def test_expanded_rejects_negative(self):
        with pytest.raises(ValueError):
            Mbr(0.0, 0.0, 1.0, 1.0).expanded(-1.0)

    def test_union_all(self):
        boxes = [Mbr(0, 0, 1, 1), Mbr(2, 2, 3, 3), Mbr(-1, 0, 0, 1)]
        assert Mbr.union_all(boxes) == Mbr(-1, 0, 3, 3)

    def test_min_distance_to_point(self):
        box = Mbr(0.0, 0.0, 1.0, 1.0)
        assert box.min_distance_to_point(Point(0.5, 0.5)) == 0.0
        assert box.min_distance_to_point(Point(4.0, 5.0)) == 5.0


class TestProperties:
    @given(mbrs(), mbrs())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_mbr(a)
        assert union.contains_mbr(b)

    @given(mbrs(), mbrs())
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            assert a.contains_mbr(overlap)
            assert b.contains_mbr(overlap)

    @given(mbrs(), mbrs())
    def test_intersects_iff_intersection_exists(self, a, b):
        assert a.intersects(b) == (a.intersection(b) is not None)

    @given(mbrs(), st.floats(min_value=0.0, max_value=100.0))
    def test_expanded_contains_original(self, box, margin):
        assert box.expanded(margin).contains_mbr(box)
