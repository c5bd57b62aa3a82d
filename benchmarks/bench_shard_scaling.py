"""Sharded engine vs. monolith: identity, equal work and scaling.

The scenario is the scale-out acceptance bar: a
``FlowEngine(num_shards=N)`` hash-partitions the tracked population
across N shards and answers the same top-k queries as the one-shard
:class:`~repro.core.engine.FlowEngine` — bit for bit.
Three claims are exercised here:

* **identity** — for N in {1, 2, 4} the sharded snapshot and interval
  top-k (join method, full POI universe) equal the monolith's exactly;
* **equal work** — on a spatially localized POI subset with small k, a
  fresh N=4 fleet computes exactly the regions and presences a fresh
  monolith does: queries run the monolith's join over the shards' merged
  AR-tree candidates, so sharding adds no query work;
* **scaling** — the timed matrix records how fleet size moves the
  end-to-end query cost.

Scale is configurable for CI smoke runs via ``REPRO_BENCH_SCALE``.
"""

import os

import pytest

from conftest import DEFAULT_SCALE, run_benchmark

from repro.core.engine import FlowEngine
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))

SHARD_COUNTS = (1, 2, 4)
WINDOW_SECONDS = 240.0
K = 10
#: The localized cell: few POIs nearest one corner, smallest k.
LOCALIZED_POIS = 3
LOCALIZED_K = 1
SNAPSHOT_SWEEP = (0.2, 0.4, 0.6, 0.8)


@pytest.fixture(scope="module")
def world():
    """(dataset, monolith engine, mid-time, window, localized POIs, sweep)."""
    dataset = build_synthetic_dataset(SyntheticConfig().scaled(SCALE))
    t = dataset.mid_time()
    window = (t - WINDOW_SECONDS, t)
    t_lo, t_hi = dataset.time_span()
    sweep = [t_lo + f * (t_hi - t_lo) for f in SNAPSHOT_SWEEP]

    bounds = dataset.floorplan.bounds

    def corner_distance(poi):
        centroid = poi.polygon.centroid()
        dx = centroid.x - bounds.min_x
        dy = centroid.y - bounds.min_y
        return dx * dx + dy * dy

    localized = sorted(
        dataset.pois, key=lambda p: (corner_distance(p), p.poi_id)
    )[:LOCALIZED_POIS]
    return dataset, dataset.engine(), t, window, localized, sweep


def sharded(dataset, num_shards):
    return FlowEngine(
        floorplan=dataset.floorplan,
        deployment=dataset.deployment,
        ott=dataset.ott,
        pois=dataset.pois,
        v_max=dataset.v_max,
        detection_slack=2.0 * dataset.sampling_interval,
        num_shards=num_shards,
    )


@pytest.fixture(scope="module")
def fleets(world):
    dataset = world[0]
    return {n: sharded(dataset, n) for n in SHARD_COUNTS}


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sharded_matches_monolith(world, fleets, num_shards):
    _, monolith, t, window, _, _ = world
    fleet = fleets[num_shards]
    for query in (
        lambda e: e.snapshot_topk(t, K, method="join"),
        lambda e: e.interval_topk(*window, K, method="join"),
    ):
        expected = query(monolith)
        actual = query(fleet)
        assert actual.poi_ids == expected.poi_ids
        assert actual.flows == expected.flows


def test_localized_subset_does_the_monoliths_work(world):
    """Fresh engines: the N=4 fleet derives exactly the monolith's
    regions and presences, and answers identically."""
    dataset, _, _, _, localized, sweep = world
    monolith = sharded(dataset, 1)
    fleet = sharded(dataset, SHARD_COUNTS[-1])
    for instant in sweep:
        expected = monolith.snapshot_topk(
            instant, LOCALIZED_K, pois=localized, method="join"
        )
        actual = fleet.snapshot_topk(
            instant, LOCALIZED_K, pois=localized, method="join"
        )
        assert actual.poi_ids == expected.poi_ids
        assert actual.flows == expected.flows
    for key in ("presence_evaluations", "regions_computed"):
        assert fleet.stats()[key] == monolith.stats()[key], key


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_query_matrix_scales(benchmark, world, fleets, num_shards):
    _, _, t, window, _, _ = world
    fleet = fleets[num_shards]

    def matrix():
        fleet.snapshot_topk(t, K, method="join")
        fleet.interval_topk(*window, K, method="join")

    run_benchmark(benchmark, matrix)
