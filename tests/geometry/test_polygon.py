"""Unit and property tests for :mod:`repro.geometry.polygon`."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Mbr, Point, Polygon


def l_shape() -> Polygon:
    """A non-convex L: a 2x2 square missing its top-right 1x1 quadrant."""
    return Polygon(
        [
            Point(0, 0),
            Point(2, 0),
            Point(2, 1),
            Point(1, 1),
            Point(1, 2),
            Point(0, 2),
        ]
    )


class TestConstruction:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 0)])

    def test_rectangle_constructor(self):
        r = Polygon.rectangle(0, 0, 4, 3)
        assert r.area() == 12.0
        assert r.mbr == Mbr(0, 0, 4, 3)

    def test_rectangle_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Polygon.rectangle(0, 0, 0, 3)

    def test_from_mbr(self):
        box = Mbr(1, 2, 3, 5)
        assert Polygon.from_mbr(box).area() == box.area()

    def test_regular_polygon(self):
        hexagon = Polygon.regular(Point(0, 0), 2.0, 6)
        assert len(hexagon.vertices) == 6
        expected = 3.0 * math.sqrt(3) / 2.0 * 4.0  # (3*sqrt(3)/2) r^2
        assert hexagon.area() == pytest.approx(expected)

    def test_regular_rejects_two_sides(self):
        with pytest.raises(ValueError):
            Polygon.regular(Point(0, 0), 1.0, 2)


class TestMeasures:
    def test_shoelace_area_independent_of_orientation(self):
        cw = Polygon([Point(0, 0), Point(0, 2), Point(2, 2), Point(2, 0)])
        ccw = Polygon([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
        assert cw.area() == ccw.area() == 4.0
        assert cw.signed_area() == -ccw.signed_area()

    def test_l_shape_area(self):
        assert l_shape().area() == 3.0

    def test_perimeter(self):
        assert Polygon.rectangle(0, 0, 3, 4).perimeter() == 14.0

    def test_centroid_of_rectangle(self):
        c = Polygon.rectangle(0, 0, 4, 2).centroid()
        assert c.almost_equal(Point(2.0, 1.0))

    def test_centroid_of_l_shape(self):
        # Decompose: [0,1]x[0,2] (area 2, centroid (0.5, 1)) +
        # [1,2]x[0,1] (area 1, centroid (1.5, 0.5)).
        c = l_shape().centroid()
        assert c.almost_equal(Point((2 * 0.5 + 1 * 1.5) / 3, (2 * 1.0 + 1 * 0.5) / 3))

    def test_centroid_of_far_sliver_stays_inside(self):
        # A saved Hypothesis triangle: absolute shoelace terms near 218
        # cancel to an area near 2e-6, which pushed the centroid 3.9e-7
        # outside; summing relative to vertex 0 keeps it exact.
        sliver = Polygon(
            [
                Point(37.0, 0.0),
                Point(36.9999999999999, 1.2041195073199626e-06),
                Point(33.782116141076976, 5.890296893655275),
            ]
        )
        c = sliver.centroid()
        assert (c.x, c.y) == (35.92737204702563, 1.963432699258261)
        assert sliver.contains(c)


class TestConvexity:
    def test_rectangle_is_convex(self):
        assert Polygon.rectangle(0, 0, 1, 1).is_convex()

    def test_l_shape_is_not_convex(self):
        assert not l_shape().is_convex()

    def test_rectangle_detection(self):
        assert Polygon.rectangle(0, 0, 2, 1).is_axis_aligned_rectangle()
        assert not l_shape().is_axis_aligned_rectangle()
        diamond = Polygon([Point(1, 0), Point(2, 1), Point(1, 2), Point(0, 1)])
        assert not diamond.is_axis_aligned_rectangle()


class TestContainment:
    def test_interior_boundary_exterior(self):
        r = Polygon.rectangle(0, 0, 2, 2)
        assert r.contains(Point(1, 1))
        assert r.contains(Point(0, 1))  # boundary counts as inside
        assert r.contains(Point(0, 0))  # vertex counts as inside
        assert not r.contains(Point(2.1, 1))

    def test_l_shape_notch_is_outside(self):
        shape = l_shape()
        assert shape.contains(Point(0.5, 0.5))
        assert shape.contains(Point(1.5, 0.5))
        assert not shape.contains(Point(1.5, 1.5))  # the notch

    def test_contains_many_matches_scalar_off_boundary(self):
        shape = l_shape()
        rng = np.random.default_rng(5)
        xs = rng.uniform(-0.5, 2.5, 300)
        ys = rng.uniform(-0.5, 2.5, 300)
        vector = shape.contains_many(xs, ys)
        for x, y, v in zip(xs, ys, vector):
            point = Point(float(x), float(y))
            # Skip points within a hair of the boundary, where the scalar
            # path's boundary tolerance intentionally differs.
            if any(e.distance_to_point(point) < 1e-6 for e in shape.edges()):
                continue
            assert v == shape.contains(point)


class TestTransforms:
    def test_translated(self):
        r = Polygon.rectangle(0, 0, 1, 1).translated(5, -2)
        assert r.mbr == Mbr(5, -2, 6, -1)

    def test_scaled_about_centroid_preserves_centroid(self):
        r = Polygon.rectangle(0, 0, 4, 2)
        scaled = r.scaled_about_centroid(0.5)
        assert scaled.centroid().almost_equal(r.centroid(), tolerance=1e-9)
        assert scaled.area() == pytest.approx(r.area() * 0.25)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Polygon.rectangle(0, 0, 1, 1).scaled_about_centroid(0.0)


@st.composite
def convex_polygons(draw):
    """Random convex polygons via points on a circle."""
    n = draw(st.integers(min_value=3, max_value=10))
    radius = draw(st.floats(min_value=0.5, max_value=50.0))
    cx = draw(st.floats(min_value=-100.0, max_value=100.0))
    cy = draw(st.floats(min_value=-100.0, max_value=100.0))
    angles = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2 * math.pi - 1e-3),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    return Polygon(
        [
            Point(cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in angles
        ]
    )


class TestProperties:
    @given(convex_polygons())
    def test_inscribed_polygons_are_convex(self, polygon):
        assert polygon.is_convex()

    @given(convex_polygons())
    def test_centroid_inside_convex_polygon(self, polygon):
        if polygon.area() > 1e-6:
            assert polygon.contains(polygon.centroid())

    @given(convex_polygons())
    def test_area_at_most_mbr_area(self, polygon):
        assert polygon.area() <= polygon.mbr.area() + 1e-6

    @given(convex_polygons())
    def test_vertices_inside_own_polygon(self, polygon):
        for vertex in polygon.vertices:
            assert polygon.contains(vertex)
