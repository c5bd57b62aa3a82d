"""White-box tests for the join machinery (Algorithms 2/3/5 internals)."""

import operator
import random
from functools import reduce

import numpy as np
import pytest

from repro.core.algorithms.join import (
    JoinObject,
    _Admission,
    _topk_join,
)
from repro.core.presence import PresenceEstimator
from repro.core.states import snapshot_context
from repro.geometry import Circle, Mbr, Point, Polygon, mbr_array
from repro.index import RTree
from repro.indoor import Poi, build_poi_index


def join_object(object_id, x, y, half=2.0, segments=None):
    """A JoinObject whose region is a disk centred at (x, y)."""
    return JoinObject(
        object_id=object_id,
        mbr=Mbr.around(Point(x, y), half),
        region_factory=lambda: Circle(Point(x, y), half),
        boxes=None if segments is None else mbr_array(segments),
    )


def admission(poi_tree, objects):
    return _Admission(
        poi_tree, [obj.mbr for obj in objects], [obj.boxes for obj in objects]
    )


def admitted(obj, box):
    """Whether a POI with box ``box`` admits ``obj``."""
    tree = RTree.bulk_load([(box, "p")])
    return admission(tree, [obj]).bound(tree.root.entries[0]) == 1


def reference_admits(obj, box, use_segment_mbrs):
    """The per-pair rule the admission matrix replaces."""
    if not obj.mbr.intersects(box):
        return False
    if use_segment_mbrs and obj.boxes is not None:
        return any(Mbr(*row).intersects(box) for row in obj.boxes.tolist())
    return True


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
        assert admitted(obj, Mbr(1, 1, 5, 5))
        assert not admitted(obj, Mbr(10, 10, 12, 12))

    def test_segment_mbrs_refine(self):
        # Overall box covers [-10, 10] but the actual episodes only touch
        # the two ends; the middle POI is pruned only with segments on.
        segments = (Mbr(-10, -1, -6, 1), Mbr(6, -1, 10, 1))

        def obj(boxes):
            return JoinObject(
                "o",
                Mbr(-10, -1, 10, 1),
                region_factory=lambda: Circle(Point(0, 0), 0.1),
                boxes=boxes,
            )

        middle = Mbr(-1, -1, 1, 1)
        assert admitted(obj(None), middle)
        assert not admitted(obj(mbr_array(segments)), middle)
        end = Mbr(7, -1, 8, 1)
        assert admitted(obj(mbr_array(segments)), end)

    def test_rejects_empty_boxes(self):
        with pytest.raises(ValueError, match="non-empty"):
            JoinObject(
                "o",
                Mbr(0, 0, 1, 1),
                region_factory=lambda: Circle(Point(0, 0), 0.1),
                boxes=np.empty((0, 4)),
            )


def _random_box(rng, span=12, zero_width=0.2):
    """An integer-aligned box (so edges often touch), sometimes degenerate."""
    x, y = rng.randint(0, span), rng.randint(0, span)
    w = 0 if rng.random() < zero_width else rng.randint(1, 4)
    h = 0 if rng.random() < zero_width else rng.randint(1, 4)
    return Mbr(float(x), float(y), float(x + w), float(y + h))


def _random_objects(rng, count, use_segment_mbrs):
    objects = []
    for index in range(count):
        segments = [_random_box(rng) for _ in range(rng.randint(1, 5))]
        objects.append(
            JoinObject(
                f"o{index}",
                Mbr.union_all(segments),
                region_factory=lambda: Circle(Point(0, 0), 0.1),
                boxes=mbr_array(segments) if use_segment_mbrs else None,
            )
        )
    return objects


def _all_entries(tree):
    stack, entries = [tree.root], []
    while stack:
        node = stack.pop()
        for entry in node.entries:
            entries.append(entry)
            if entry.child is not None:
                stack.append(entry.child)
    return entries


class TestAdmissionEquivalence:
    """The admission matrix equals the per-pair rule on every tree entry."""

    def _check(self, poi_tree, objects, use_segment_mbrs):
        matrix = admission(poi_tree, objects)
        for entry in _all_entries(poi_tree):
            expected = [
                column
                for column, obj in enumerate(objects)
                if reference_admits(obj, entry.mbr, use_segment_mbrs)
            ]
            assert matrix.columns(entry) == expected, entry.mbr
            assert matrix.bound(entry) == len(expected), entry.mbr

    @pytest.mark.parametrize("use_segment_mbrs", [True, False], ids=["segments", "coarse"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_boxes(self, seed, use_segment_mbrs):
        rng = random.Random(seed)
        objects = _random_objects(rng, rng.randint(1, 40), use_segment_mbrs)
        poi_boxes = [_random_box(rng) for _ in range(rng.randint(1, 30))]
        poi_tree = RTree.bulk_load(
            [(box, f"p{i}") for i, box in enumerate(poi_boxes)], max_entries=4
        )
        self._check(poi_tree, objects, use_segment_mbrs)

    def test_touching_edges_and_points(self):
        segments = [Mbr(0, 0, 2, 2), Mbr(5, 5, 5, 5)]
        obj = JoinObject(
            "o",
            Mbr.union_all(segments),
            region_factory=lambda: Circle(Point(0, 0), 0.1),
            boxes=mbr_array(segments),
        )
        touching = [
            Mbr(2, 0, 3, 2),  # shares the right edge
            Mbr(-1, 2, 0, 3),  # shares one corner
            Mbr(5, 5, 5, 5),  # the same point
            Mbr(5, 0, 5, 9),  # a zero-width box through the point
        ]
        for box in touching:
            assert admitted(obj, box) and reference_admits(obj, box, True)
        apart = [Mbr(2.5, 2.5, 4.5, 4.5), Mbr(5.0000001, 5, 6, 6)]
        for box in apart:
            assert not admitted(obj, box)
            assert not reference_admits(obj, box, True)

    @pytest.mark.parametrize("use_segment_mbrs", [True, False], ids=["segments", "coarse"])
    def test_poi_subset_trees(self, office_pois, use_segment_mbrs):
        rng = random.Random(5)
        boxes = [poi.polygon.mbr for poi in office_pois]
        lo_x = min(b.min_x for b in boxes)
        lo_y = min(b.min_y for b in boxes)
        hi_x = max(b.max_x for b in boxes)
        hi_y = max(b.max_y for b in boxes)
        objects = []
        for index in range(30):
            segments = []
            for _ in range(rng.randint(1, 6)):
                x = rng.uniform(lo_x, hi_x)
                y = rng.uniform(lo_y, hi_y)
                segments.append(Mbr(x, y, x + rng.uniform(0, 6), y + rng.uniform(0, 6)))
            # Exact POI edges as boxes: touching must count as intersecting.
            segments.append(rng.choice(boxes))
            objects.append(
                JoinObject(
                    f"o{index}",
                    Mbr.union_all(segments),
                    region_factory=lambda: Circle(Point(0, 0), 0.1),
                    boxes=mbr_array(segments) if use_segment_mbrs else None,
                )
            )
        for size in (1, 7, len(office_pois)):
            subset = rng.sample(list(office_pois), size)
            self._check(build_poi_index(subset, max_entries=4), objects, use_segment_mbrs)

    def test_tree_boxes_are_built_once(self):
        tree = RTree.bulk_load([(Mbr(0, 0, 1, 1), "p"), (Mbr(2, 2, 3, 3), "q")])
        assert tree.entry_boxes() is tree.entry_boxes()
        boxes, rows = tree.entry_boxes()
        tree.insert(Mbr(5, 5, 6, 6), "r")
        rebuilt, rebuilt_rows = tree.entry_boxes()
        assert rebuilt is not boxes and len(rebuilt_rows) > len(rows)

    def test_tree_entry_misses_follow_inserts(self):
        tree = RTree.bulk_load([(Mbr(0, 0, 1, 1), "p"), (Mbr(2, 2, 3, 4), "q")])
        queries = [Mbr(1, 1, 2, 2), Mbr(0.5, 3, 0.9, 5), Mbr(5.5, 5.5, 7, 7)]

        def expected():
            _, rows = tree.entry_boxes()
            entries = sorted(_all_entries(tree), key=lambda e: rows[id(e)])
            return [[not e.mbr.intersects(q) for q in queries] for e in entries]

        misses = tree.entry_misses(mbr_array(queries))
        assert misses.tolist() == expected()
        assert tree.entry_misses(mbr_array(queries)).tolist() == misses.tolist()
        tree.insert(Mbr(5, 5, 6, 6), "r")
        rebuilt = tree.entry_misses(mbr_array(queries))
        assert rebuilt.shape == (len(tree.entry_boxes()[1]), len(queries))
        assert rebuilt.tolist() == expected()


class TestEntryBounds:
    """An entry's bound is its admitted-object count (the paper's R_I
    count with R_I fully expanded) and dominates its children's."""

    @pytest.mark.parametrize("use_segment_mbrs", [True, False], ids=["segments", "coarse"])
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_count_reference_admits(self, seed, use_segment_mbrs):
        rng = random.Random(100 + seed)
        objects = _random_objects(rng, rng.randint(1, 60), use_segment_mbrs)
        poi_boxes = [_random_box(rng) for _ in range(rng.randint(1, 60))]
        poi_tree = RTree.bulk_load(
            [(box, f"p{i}") for i, box in enumerate(poi_boxes)],
            max_entries=rng.randint(2, 6),
        )
        matrix = admission(poi_tree, objects)
        for entry in _all_entries(poi_tree):
            assert matrix.bound(entry) == sum(
                reference_admits(obj, entry.mbr, use_segment_mbrs)
                for obj in objects
            )
            if entry.child is not None:
                for child in entry.child.entries:
                    assert matrix.bound(entry) >= matrix.bound(child)


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


class TestSummationOrder:
    """Float addition is not associative: the join must add a POI's
    presences in candidate enumeration order, like the iterative scan."""

    def test_leaf_sums_in_object_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit.
        values = {"a": 0.1, "b": 0.2, "c": 0.3}
        pois = [poi_at("p", 0.0, 0.0)]
        for names in ("abc", "cba"):
            objects = [join_object(name, 0.0, 0.0) for name in names]
            result = _topk_join(
                build_poi_index(pois),
                pois,
                objects,
                k=1,
                presences=lambda poi, batch: [values[o.object_id] for o in batch],
            )
            expected = reduce(operator.add, (values[name] for name in names))
            assert result.entries[0].flow == expected
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1

    def test_join_matches_iterative_where_order_matters(self, synthetic_engine):
        t = 600.0
        ctx = synthetic_engine.ctx
        presences = {}
        # point_query returns the candidates in entry-key order, the
        # order both strategies add presences in.
        for entry in synthetic_engine.artree.point_query(t):
            context = snapshot_context(entry, t)
            region = ctx.snapshot_region(context)
            if region.mbr is None:
                continue
            fingerprint = ctx.snapshot_fingerprint(context)
            for poi in synthetic_engine.poi_tree.search(region.mbr):
                presence = ctx.presence(region, poi, fingerprint)
                if presence > 0.0:
                    presences.setdefault(poi.poi_id, []).append(presence)
        sensitive = [
            poi_id
            for poi_id, values in presences.items()
            if reduce(operator.add, values) != reduce(operator.add, values[::-1])
        ]
        assert sensitive  # the case exercises a last-bit difference
        k = len(synthetic_engine.pois)
        join = synthetic_engine.snapshot_topk(t, k, method="join")
        iterative = synthetic_engine.snapshot_topk(t, k, method="iterative")
        assert join.poi_ids == iterative.poi_ids
        assert join.flows == iterative.flows  # bit-identical
        flows = dict(zip(join.poi_ids, join.flows))
        for poi_id in sensitive:
            assert flows[poi_id] == reduce(operator.add, presences[poi_id])


class TestTreeHeightMismatch:
    def test_shallow_poi_tree_deep_object_tree(self):
        """One POI vs hundreds of objects: the paper's R_I would still
        have levels to descend where R_P bottoms out (Algorithm 2, lines
        26-35); the leaf's admission count covers them all at once."""
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
        )
        assert result.entries[0].poi.poi_id == "p042"
        assert result.entries[1].flow == 0.0  # zero-filled
