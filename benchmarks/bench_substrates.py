"""Micro-benchmarks of the substrate layers.

Not figures from the paper — these track the cost of the building blocks
the queries are made of, so substrate regressions are visible in isolation.
"""

import random

import pytest

from repro.geometry import Circle, Mbr, Point
from repro.index import ARTree, RTree


@pytest.fixture(scope="module")
def random_boxes():
    rng = random.Random(3)
    boxes = []
    for i in range(2000):
        x, y = rng.uniform(0, 500), rng.uniform(0, 500)
        boxes.append((Mbr(x, y, x + rng.uniform(1, 10), y + rng.uniform(1, 10)), i))
    return boxes


def test_rtree_bulk_load(benchmark, random_boxes):
    benchmark(lambda: RTree.bulk_load(random_boxes, max_entries=8))


def test_rtree_search(benchmark, random_boxes):
    tree = RTree.bulk_load(random_boxes, max_entries=8)
    probe = Mbr(100, 100, 160, 160)
    benchmark(lambda: tree.search(probe))


def test_artree_point_query(benchmark, synthetic):
    dataset, engine = synthetic
    t = dataset.mid_time()
    benchmark(lambda: engine.artree.point_query(t))


def test_artree_range_query(benchmark, synthetic):
    dataset, engine = synthetic
    start, end = dataset.window(10)
    benchmark(lambda: engine.artree.range_query(start, end))


def test_presence_quadrature(benchmark, synthetic):
    dataset, engine = synthetic
    poi = dataset.pois[0]
    region = Circle(poi.polygon.centroid(), 3.0)
    benchmark(lambda: engine.estimator.presence(region, poi))


def test_indoor_distance_field(benchmark, synthetic):
    dataset, engine = synthetic
    device = next(iter(dataset.deployment))
    oracle = engine.topology.oracle
    benchmark(lambda: oracle.field_from(device.center))


def test_snapshot_region_derivation(benchmark, synthetic):
    from repro.core import snapshot_contexts, snapshot_region

    dataset, engine = synthetic
    t = dataset.mid_time()
    contexts = snapshot_contexts(engine.artree, t)

    def derive_all():
        return [
            snapshot_region(c, engine.deployment, engine.v_max, engine.topology)
            for c in contexts
        ]

    benchmark(derive_all)


def test_interval_region_derivation(benchmark, synthetic):
    from repro.core import interval_contexts, interval_uncertainty

    dataset, engine = synthetic
    start, end = dataset.window(10)
    contexts = interval_contexts(engine.artree, start, end)

    def derive_all():
        return [
            interval_uncertainty(c, engine.deployment, engine.v_max, engine.topology)
            for c in contexts
        ]

    benchmark(derive_all)
