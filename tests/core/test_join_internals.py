"""White-box tests for the join machinery (Algorithms 2/3/5 internals)."""

import pytest

from repro.core.algorithms.join import JoinObject, _match_entries, _topk_join
from repro.core.presence import PresenceEstimator
from repro.geometry import Circle, Mbr, Point, Polygon
from repro.index import AggregateRTree
from repro.indoor import Poi, build_poi_index


def join_object(object_id, x, y, half=2.0, segments=None):
    """A JoinObject whose region is a disk centred at (x, y)."""
    return JoinObject(
        object_id=object_id,
        mbr=Mbr.around(Point(x, y), half),
        region_factory=lambda: Circle(Point(x, y), half),
        segment_mbrs=segments,
    )


def poi_at(poi_id, x, y, half=3.0):
    return Poi(
        poi_id=poi_id,
        polygon=Polygon.rectangle(x - half, y - half, x + half, y + half),
        room_id="r",
    )


class TestJoinObject:
    def test_region_is_lazy_and_cached(self):
        calls = []

        def factory():
            calls.append(1)
            return Circle(Point(0, 0), 1.0)

        obj = JoinObject("o", Mbr(0, 0, 1, 1), factory)
        assert not calls  # nothing built yet
        first = obj.region()
        second = obj.region()
        assert first is second
        assert len(calls) == 1  # the paper's H_U: derive once

    def test_matches_coarse(self):
        obj = join_object("o", 0.0, 0.0, half=2.0)
        assert obj.matches(Mbr(1, 1, 5, 5), use_segment_mbrs=False)
        assert not obj.matches(Mbr(10, 10, 12, 12), use_segment_mbrs=False)

    def test_segment_mbrs_refine(self):
        # Overall box covers [-10, 10] but the actual episodes only touch
        # the two ends; the middle POI is pruned only with segments on.
        segments = (Mbr(-10, -1, -6, 1), Mbr(6, -1, 10, 1))
        obj = JoinObject(
            "o",
            Mbr(-10, -1, 10, 1),
            region_factory=lambda: Circle(Point(0, 0), 0.1),
            segment_mbrs=segments,
        )
        middle = Mbr(-1, -1, 1, 1)
        assert obj.matches(middle, use_segment_mbrs=False)
        assert not obj.matches(middle, use_segment_mbrs=True)
        end = Mbr(7, -1, 8, 1)
        assert obj.matches(end, use_segment_mbrs=True)


class TestMatchEntries:
    def test_counts_bound_group_sizes(self):
        objects = [join_object(f"o{i}", float(i * 3), 0.0, half=1.0) for i in range(20)]
        tree = AggregateRTree.build(
            [(o.mbr, o) for o in objects], max_entries=4
        )
        probe = Mbr(0, -1, 30, 1)
        matched, upper_bound = _match_entries(
            probe, tree.root.entries, tree, use_segment_mbrs=False
        )
        # The bound equals the number of objects under the matched entries,
        # which is at least the number that truly intersect.
        truly = sum(1 for o in objects if o.mbr.intersects(probe))
        assert upper_bound >= truly
        assert upper_bound == sum(tree.count(e) for e in matched)


class TestTopKJoin:
    def test_exact_presence_one_object_one_poi(self):
        # A disk of radius 2 centred inside a 6x6 POI: presence = area
        # ratio ~ pi*4/36.
        import math

        objects = [join_object("o", 0.0, 0.0, half=2.0)]
        pois = [poi_at("p", 0.0, 0.0, half=3.0)]
        result = _topk_join(
            build_poi_index(pois),
            pois,
            objects,
            k=1,
            estimator=PresenceEstimator(resolution=64),
        )
        assert result.entries[0].poi.poi_id == "p"
        assert result.entries[0].flow == pytest.approx(
            math.pi * 4.0 / 36.0, rel=0.05
        )

    def test_no_objects_returns_zero_topk(self):
        pois = [poi_at(f"p{i}", i * 10.0, 0.0) for i in range(4)]
        result = _topk_join(
            build_poi_index(pois), pois, [], k=3, estimator=PresenceEstimator()
        )
        assert len(result) == 3
        assert all(entry.flow == 0.0 for entry in result)

    def test_zero_fill_is_deterministic(self):
        pois = [poi_at(f"p{i}", i * 100.0, 0.0) for i in range(5)]
        objects = [join_object("o", 0.0, 0.0)]  # only p0 can have flow
        result = _topk_join(
            build_poi_index(pois), pois, objects, k=4,
            estimator=PresenceEstimator(),
        )
        assert result.entries[0].poi.poi_id == "p0"
        assert [e.poi.poi_id for e in result.entries[1:]] == ["p1", "p2", "p3"]

    def test_rejects_bad_k(self):
        pois = [poi_at("p", 0.0, 0.0)]
        with pytest.raises(ValueError):
            _topk_join(
                build_poi_index(pois), pois, [], k=0,
                estimator=PresenceEstimator(),
            )

    def test_early_termination_skips_presence_of_low_count_pois(self):
        """POIs whose count bound is below the k-th confirmed flow are
        never presence-evaluated — the join's whole point."""
        evaluated = []

        class CountingEstimator(PresenceEstimator):
            def presences(self, poi, regions):
                evaluated.extend(poi.poi_id for _ in regions)
                return super().presences(poi, regions)

        # Ten objects pile on p0; a single distant object touches p1.
        objects = [join_object(f"a{i}", 0.0, 0.0) for i in range(10)]
        objects.append(join_object("loner", 100.0, 0.0))
        pois = [poi_at("p0", 0.0, 0.0), poi_at("p1", 100.0, 0.0)]
        result = _topk_join(
            build_poi_index(pois), pois, objects, k=1,
            estimator=CountingEstimator(resolution=16),
        )
        assert result.entries[0].poi.poi_id == "p0"
        # p1's bound (1) can never beat p0's exact flow (~10): not evaluated.
        assert evaluated.count("p0") == 10
        assert "p1" not in evaluated

    def test_flow_ordering_respected_across_tree_levels(self):
        # Many POIs force a multi-level R_P; the best POI must still win.
        pois = [poi_at(f"p{i:02d}", float(i * 8), 0.0, half=3.0) for i in range(30)]
        objects = [
            join_object(f"o{j}", 8.0 * 7, 0.0, half=1.5) for j in range(5)
        ]  # all five sit on p07
        result = _topk_join(
            build_poi_index(pois, max_entries=4),
            pois,
            objects,
            k=1,
            estimator=PresenceEstimator(resolution=16),
        )
        assert result.entries[0].poi.poi_id == "p07"


class TestTreeHeightMismatch:
    def test_shallow_poi_tree_deep_object_tree(self):
        """One POI vs hundreds of objects: R_P bottoms out while R_I still
        has levels to descend (Algorithm 2, lines 26-35)."""
        pois = [poi_at("p", 0.0, 0.0, half=3.0)]
        objects = [
            join_object(f"o{i}", (i % 20) * 1.0 - 10.0, (i // 20) * 1.0 - 5.0, half=1.0)
            for i in range(200)
        ]
        result = _topk_join(
            build_poi_index(pois),
            pois,
            objects,
            k=1,
            estimator=PresenceEstimator(resolution=8),
            rtree_fanout=4,
        )
        assert result.entries[0].poi.poi_id == "p"
        assert result.entries[0].flow > 0.0

    def test_deep_poi_tree_single_object(self):
        pois = [poi_at(f"p{i:03d}", float(i * 8), 0.0, half=3.0) for i in range(100)]
        objects = [join_object("o", 8.0 * 42, 0.0, half=1.0)]
        result = _topk_join(
            build_poi_index(pois, max_entries=4),
            pois,
            objects,
            k=2,
            estimator=PresenceEstimator(resolution=8),
            rtree_fanout=4,
        )
        assert result.entries[0].poi.poi_id == "p042"
        assert result.entries[1].flow == 0.0  # zero-filled
