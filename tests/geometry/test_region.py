"""Unit and property tests for region composition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Circle,
    EmptyRegion,
    ExtendedEllipse,
    Mbr,
    Point,
    Polygon,
    RegionDifference,
    RegionIntersection,
    RegionUnion,
    Ring,
    intersect_all,
    union_all,
)

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
circles = st.builds(
    Circle,
    st.builds(Point, coordinate, coordinate),
    st.floats(min_value=0.1, max_value=20.0),
)
probes = st.builds(Point, coordinate, coordinate)


class TestEmptyRegion:
    def test_contains_nothing(self):
        empty = EmptyRegion()
        assert empty.mbr is None
        assert empty.is_empty()
        assert not empty.contains(Point(0, 0))
        assert not empty.contains_many(np.zeros(3), np.zeros(3)).any()


class TestIntersection:
    def test_two_circles(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(2, 0), 2.0)
        overlap = a & b
        assert overlap.contains(Point(1, 0))
        assert not overlap.contains(Point(-1.5, 0))
        assert not overlap.contains(Point(3.5, 0))

    def test_disjoint_circles_empty_mbr(self):
        overlap = Circle(Point(0, 0), 1.0) & Circle(Point(10, 0), 1.0)
        assert overlap.mbr is None
        assert overlap.is_empty()
        assert not overlap.contains(Point(5, 0))

    def test_mbr_is_intersection_of_part_mbrs(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(2, 0), 2.0)
        overlap = RegionIntersection((a, b))
        assert overlap.mbr == a.mbr.intersection(b.mbr)

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            RegionIntersection(())

    def test_intersect_all_single_part_passthrough(self):
        c = Circle(Point(0, 0), 1.0)
        assert intersect_all([c]) is c

    def test_with_empty_part_is_empty(self):
        region = RegionIntersection((Circle(Point(0, 0), 1.0), EmptyRegion()))
        assert region.mbr is None


class TestUnion:
    def test_two_circles(self):
        union = Circle(Point(0, 0), 1.0) | Circle(Point(5, 0), 1.0)
        assert union.contains(Point(0, 0))
        assert union.contains(Point(5, 0))
        assert not union.contains(Point(2.5, 0))

    def test_mbr_covers_all_parts(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(5, 0), 1.0)
        union = RegionUnion((a, b))
        assert union.mbr is not None
        assert union.mbr.contains_mbr(a.mbr)
        assert union.mbr.contains_mbr(b.mbr)

    def test_union_all_empty_is_empty_region(self):
        assert union_all([]).is_empty()

    def test_union_drops_empty_parts(self):
        union = RegionUnion((EmptyRegion(), Circle(Point(0, 0), 1.0)))
        assert len(union.parts) == 1


class TestDifference:
    def test_annulus_via_difference(self):
        outer = Circle(Point(0, 0), 3.0)
        inner = Circle(Point(0, 0), 1.0)
        band = outer - inner
        assert band.contains(Point(2, 0))
        assert not band.contains(Point(0, 0))
        assert not band.contains(Point(4, 0))

    def test_mbr_is_base_mbr(self):
        outer = Circle(Point(0, 0), 3.0)
        inner = Circle(Point(0, 0), 1.0)
        assert RegionDifference(outer, inner).mbr == outer.mbr


class TestVectorisedConsistency:
    """contains_many must agree with contains for every composition."""

    def _check(self, region, n=400, seed=3):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-60, 60, n)
        ys = rng.uniform(-60, 60, n)
        vector = region.contains_many(xs, ys)
        scalar = np.array(
            [region.contains(Point(float(x), float(y))) for x, y in zip(xs, ys)]
        )
        np.testing.assert_array_equal(vector, scalar)
        # Read-only batches are answered through the anchor memo: the
        # first (cold) and second (memo hit) evaluation must agree too.
        frozen_xs, frozen_ys = xs.copy(), ys.copy()
        frozen_xs.flags.writeable = False
        frozen_ys.flags.writeable = False
        for _ in range(2):
            np.testing.assert_array_equal(
                region.contains_many(frozen_xs, frozen_ys), scalar
            )

    def test_intersection(self):
        self._check(Circle(Point(0, 0), 30.0) & Circle(Point(20, 5), 25.0))

    def test_union(self):
        self._check(Circle(Point(-20, 0), 15.0) | Circle(Point(25, 10), 20.0))

    def test_difference(self):
        self._check(Circle(Point(0, 0), 40.0) - Circle(Point(10, 0), 15.0))

    def test_nested_composition(self):
        region = (Circle(Point(0, 0), 35.0) & Circle(Point(10, 0), 30.0)) | (
            Polygon.rectangle(-50, -50, -20, -20) - Circle(Point(-35, -35), 5.0)
        )
        self._check(region)

    def test_anchored_primitives(self):
        ring = Ring(Circle(Point(5, 5), 10.0), 20.0)
        ellipse = ExtendedEllipse(
            Circle(Point(-20, 0), 5.0), Circle(Point(20, 10), 5.0), 45.0
        )
        self._check((ring & ellipse) | (ellipse.gap_region - Circle(Point(0, 0), 8.0)))

    def test_empty_batch(self):
        region = Circle(Point(0, 0), 1.0) & Circle(Point(1, 0), 1.0)
        assert len(region.contains_many(np.zeros(0), np.zeros(0))) == 0


class TestProperties:
    @given(circles, circles, probes)
    def test_intersection_semantics(self, a, b, p):
        assert (a & b).contains(p) == (a.contains(p) and b.contains(p))

    @given(circles, circles, probes)
    def test_union_semantics(self, a, b, p):
        assert (a | b).contains(p) == (a.contains(p) or b.contains(p))

    @given(circles, circles, probes)
    def test_difference_semantics(self, a, b, p):
        assert (a - b).contains(p) == (a.contains(p) and not b.contains(p))

    @given(circles, circles, probes)
    def test_mbr_soundness(self, a, b, p):
        for region in (a & b, a | b, a - b):
            if region.contains(p):
                assert region.mbr is not None
                assert region.mbr.contains_point(p, tolerance=1e-6)
