"""Tests for object presence (paper, Definition 1)."""

import sys
import threading

import numpy as np
import pytest

from repro.core import PresenceEstimator
from repro.geometry import Circle, EmptyRegion, Point, Polygon
from repro.geometry.anchor import ANCHOR_MEMO, ANCHOR_MEMO_CAPACITY
from repro.indoor import Poi


def poi(poi_id="p", min_x=0.0, min_y=0.0, max_x=4.0, max_y=4.0):
    return Poi(
        poi_id=poi_id,
        polygon=Polygon.rectangle(min_x, min_y, max_x, max_y),
        room_id="r",
    )


class TestPresence:
    def test_full_coverage_is_one(self):
        estimator = PresenceEstimator()
        assert estimator.presence(Circle(Point(2, 2), 50.0), poi()) == 1.0

    def test_no_overlap_is_zero(self):
        estimator = PresenceEstimator()
        assert estimator.presence(Circle(Point(100, 100), 1.0), poi()) == 0.0

    def test_empty_region_is_zero(self):
        estimator = PresenceEstimator()
        assert estimator.presence(EmptyRegion(), poi()) == 0.0

    def test_half_coverage(self):
        estimator = PresenceEstimator(resolution=64)
        left_half = Polygon.rectangle(0, 0, 2, 4)
        assert estimator.presence(left_half, poi()) == pytest.approx(0.5, abs=0.02)

    def test_presence_in_unit_interval(self):
        estimator = PresenceEstimator()
        for radius in (0.5, 1.0, 3.0, 10.0):
            value = estimator.presence(Circle(Point(2, 2), radius), poi())
            assert 0.0 <= value <= 1.0

    def test_monotone_in_region_size(self):
        estimator = PresenceEstimator()
        values = [
            estimator.presence(Circle(Point(2, 2), radius), poi())
            for radius in (0.5, 1.0, 2.0, 3.0, 6.0)
        ]
        assert values == sorted(values)

    def test_ratio_uses_poi_own_area(self):
        # The same region covers the small POI fully but the large one
        # partially.
        estimator = PresenceEstimator(resolution=64)
        region = Circle(Point(1, 1), 1.5)
        small = poi("small", 0.5, 0.5, 1.5, 1.5)
        large = poi("large", 0, 0, 8, 8)
        assert estimator.presence(region, small) == 1.0
        assert estimator.presence(region, large) < 0.5

    def test_deterministic_across_calls(self):
        estimator = PresenceEstimator()
        region = Circle(Point(2, 2), 2.2)
        values = {estimator.presence(region, poi()) for _ in range(5)}
        assert len(values) == 1

    def test_deterministic_across_estimators(self):
        region = Circle(Point(2, 2), 2.2)
        a = PresenceEstimator().presence(region, poi())
        b = PresenceEstimator().presence(region, poi())
        assert a == b

    def test_sample_cache_reused(self):
        estimator = PresenceEstimator()
        target = poi()
        first = estimator.samples_of(target)
        second = estimator.samples_of(target)
        assert first is second

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            PresenceEstimator(resolution=0)

    def test_converges_to_analytic_fraction(self):
        # Circle of radius 2 centred on a 4x4 POI corner: quarter disk
        # inside, area pi -> fraction pi/16.
        import math

        region = Circle(Point(0, 0), 2.0)
        fine = PresenceEstimator(resolution=200).presence(region, poi())
        assert fine == pytest.approx(math.pi / 16.0, rel=0.03)


# ----------------------------------------------------------------------
# Anchor-memo evaluation (repro.geometry.anchor) on real engine regions
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def swept(synthetic_dataset):
    """Every (region, POI, presence) an engine asks about in a seeded
    sweep of snapshot and interval queries, join and iterative, with the
    topology check on — plus the memo size right after the sweep."""
    engine = synthetic_dataset.engine(region_cache_size=0, presence_cache_size=0)
    assert engine.topology is not None
    estimator = engine.ctx.estimator
    asked = []
    original = estimator.presence

    def recording(region, target):
        value = original(region, target)
        asked.append((region, target, value))
        return value

    estimator.presence = recording
    rng = np.random.default_rng(5)
    for t in rng.uniform(200.0, 1000.0, size=2):
        for method in ("join", "iterative"):
            engine.snapshot_topk(float(t), 5, method=method)
            engine.interval_topk(float(t), float(t) + 60.0, 5, method=method)
    estimator.presence = original
    return engine, asked, len(ANCHOR_MEMO)


class TestAnchorMemoPresence:
    def test_whole_batch_counts_match_cold_writable_evaluation(self, swept):
        engine, asked, _ = swept
        assert len(asked) > 100
        ANCHOR_MEMO.clear()
        for region, target, value in asked:
            xs, ys = engine.ctx.estimator.samples_of(target)
            inside = region.contains_many(xs.copy(), ys.copy())
            assert value == float(inside.sum()) / float(len(xs)), target.poi_id
        # Writable copies never enter the memo.
        assert len(ANCHOR_MEMO) == 0

    def test_memo_stays_within_capacity_after_a_sweep(self, swept):
        _, _, size_after_sweep = swept
        assert 0 < size_after_sweep <= ANCHOR_MEMO_CAPACITY
        assert len(ANCHOR_MEMO) <= ANCHOR_MEMO_CAPACITY

    def test_sample_grids_are_read_only(self, swept):
        engine, asked, _ = swept
        xs, ys = engine.ctx.estimator.samples_of(asked[0][1])
        assert not xs.flags.writeable and not ys.flags.writeable

    def test_two_threads_get_identical_counts(self, swept):
        # Two serve venues run their engines on separate threads over the
        # one process-wide memo.
        _, asked, _ = swept
        pairs = [(region, target) for region, target, _ in asked[:400]]
        reference = [value for _, _, value in asked[:400]]
        results = {}

        def evaluate(name):
            estimator = PresenceEstimator()
            results[name] = [estimator.presence(r, p) for r, p in pairs]

        ANCHOR_MEMO.clear()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=evaluate, args=(name,))
                for name in ("venue-a", "venue-b", "venue-c")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {
            "venue-a": reference,
            "venue-b": reference,
            "venue-c": reference,
        }
