"""Batched presence quadrature against the reference ``contains_many``.

Every count the batched evaluator produces must equal
``region.contains_many`` summed on writable copies of the same POI grid:
the lowering keeps each sample's floating-point expression, and the
whole-grid classification from row ranges is exact.  The sweep covers
snapshot and interval regions with the topology check on and off, a
relaxed ring inner boundary, extended-ellipse gap regions (differences),
empty ellipses, opaque shapes, and POI grids that cross a doorway (the
indoor fallback).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.presence import PresenceEstimator, SampleGrid, count_inside
from repro.core.states import interval_contexts, snapshot_contexts
from repro.geometry import (
    Circle,
    ExtendedEllipse,
    Point,
    Polygon,
    Region,
    RegionUnion,
    Ring,
)
from repro.geometry.program import Literal
from repro.indoor import Poi


def assert_batch_matches(estimator: PresenceEstimator, poi: Poi, regions) -> int:
    """Batched counts of ``regions`` in ``poi`` equal the reference ones."""
    grid = estimator.grid_of(poi)
    counts = count_inside(grid, [region.program() for region in regions])
    inside = 0
    for region, count in zip(regions, counts):
        reference = region.contains_many(grid.xs.copy(), grid.ys.copy())
        assert count == int(reference.sum()), (poi.poi_id, region)
        inside += count
    # The estimator's presences add the MBR pre-check and the division.
    values = estimator.presences(poi, regions)
    for region, value, count in zip(regions, values, counts):
        mbr = region.mbr
        if mbr is None or not mbr.intersects(poi.polygon.mbr):
            assert value == 0.0
        else:
            assert value == float(count) / float(len(grid))
    return inside


def engine_regions(engine, times):
    """Snapshot and interval regions the engine builds at ``times``."""
    regions: list[Region] = []
    for t in times:
        for context in snapshot_contexts(engine.artree, t):
            regions.append(engine.ctx.snapshot_region(context))
        for context in interval_contexts(engine.artree, t, t + 90.0):
            regions.append(engine.ctx.interval_uncertainty(context).region)
    return regions


def doorway_pois(floorplan, count=6):
    """POIs straddling doorways: their grids cross a room boundary."""
    return [
        Poi(
            poi_id=f"door-{door.door_id}",
            polygon=Polygon.rectangle(
                door.position.x - 2.5,
                door.position.y - 2.5,
                door.position.x + 2.5,
                door.position.y + 2.5,
            ),
            room_id="",
        )
        for door in floorplan.doors[:count]
    ]


@pytest.mark.parametrize(
    "settings",
    [
        {},
        {"topology_check": False},
        {"detection_slack": 0.0},
    ],
    ids=["topology-slack", "no-topology", "no-slack"],
)
def test_engine_regions_match_contains_many(synthetic_dataset, settings):
    engine = synthetic_dataset.engine(**settings)
    if "detection_slack" not in settings:
        assert engine.ctx.inner_allowance > 0.0
    rng = np.random.default_rng(17)
    times = [float(t) for t in rng.uniform(150.0, 1050.0, size=3)]
    regions = engine_regions(engine, times)
    assert len(regions) > 50
    estimator = PresenceEstimator(resolution=24)
    inside = 0
    pois = list(synthetic_dataset.pois) + doorway_pois(synthetic_dataset.floorplan)
    for poi in pois:
        inside += assert_batch_matches(estimator, poi, regions)
    assert inside > 0


def test_doorway_grids_take_the_indoor_fallback(synthetic_dataset):
    engine = synthetic_dataset.engine()
    estimator = PresenceEstimator(resolution=24)
    oracle = engine.topology.oracle
    for poi in doorway_pois(synthetic_dataset.floorplan):
        xs, ys = estimator.samples_of(poi)
        grid = estimator.grid_of(poi)
        field = engine.topology.field_of(next(iter(synthetic_dataset.deployment)))
        np.testing.assert_array_equal(
            grid.row(("in", field.token)), field.distances_to_many(xs.copy(), ys.copy())
        )
        assert grid._rooms[oracle].room_id is None


def _random_shapes(deployment, rng, count):
    devices = list(deployment)
    shapes: list[Region] = []
    for _ in range(count):
        a, b = (devices[i] for i in rng.choice(len(devices), size=2, replace=False))
        gap = a.center.distance_to(b.center) - a.radius - b.radius
        budget = float(gap + rng.uniform(-2.0, 12.0))
        ellipse = ExtendedEllipse(a.range, b.range, budget)
        ring = Ring(Circle(a.center, a.radius * rng.uniform(0.0, 1.0)), rng.uniform(0, 9))
        shapes.append(ellipse)
        shapes.append(ellipse.gap_region)
        shapes.append(ring & ellipse)
        shapes.append(ring - b.range)
        shapes.append(RegionUnion((ellipse.gap_region, ring, b.range)))
    return shapes


def test_gap_regions_and_empty_ellipses_match(synthetic_dataset):
    rng = np.random.default_rng(23)
    shapes = _random_shapes(synthetic_dataset.deployment, rng, 40)
    assert any(shape.mbr is None for shape in shapes)  # infeasible budgets
    estimator = PresenceEstimator(resolution=24)
    for poi in synthetic_dataset.pois:
        assert_batch_matches(estimator, poi, shapes)


def test_opaque_parts_are_answered_by_their_own_contains_many(synthetic_dataset):
    poi = synthetic_dataset.pois[0]
    box = poi.polygon.mbr
    half = Polygon.rectangle(box.min_x, box.min_y, (box.min_x + box.max_x) / 2, box.max_y)
    disk = Circle(Point(box.max_x, box.max_y), (box.max_x - box.min_x) / 2)
    shapes = [half, half | disk, disk - half, (half | disk) & disk]
    (conjunction,) = half.program()
    assert [Literal(*literal).region for literal in conjunction] == [half]
    assert_batch_matches(PresenceEstimator(resolution=32), poi, shapes)


def test_programs_are_built_once_per_region():
    region = Circle(Point(0.0, 0.0), 2.0) & Circle(Point(1.0, 0.0), 2.0)
    assert region.program() is region.program()
    literals = [Literal(*lit) for conj in region.program() for lit in conj]
    # Box literals lead, then the two circle tests.
    assert [literal.row_a[0] for literal in literals] == ["x", "y", "sq", "sq"]


def test_programs_hold_only_numbers_and_strings(synthetic_engine):
    """A program is plain tuples over atomic values, so the garbage
    collector untracks all of it; holding a field or a region would keep
    every program a region caches tracked."""

    def leaves(value):
        if type(value) is tuple:
            for item in value:
                yield from leaves(item)
        else:
            yield value

    regions = engine_regions(synthetic_engine, [700.0])
    for region in regions:
        for value in leaves(region.program()):
            assert value is None or type(value) in (str, float, int, bool), value


def test_cheap_literals_run_first(synthetic_engine):
    rank = {"x": 0, "y": 0, "sq": 1, "eu": 1, "in": 2}
    regions = engine_regions(synthetic_engine, [500.0])
    indoor = 0
    for region in regions:
        for conjunction in region.program():
            ranks = [rank[Literal(*lit).row_a[0]] for lit in conjunction]
            assert ranks == sorted(ranks)
            indoor += ranks.count(2)
    assert indoor > 0


def test_one_batch_equals_one_region_at_a_time(synthetic_dataset):
    engine = synthetic_dataset.engine(region_cache_size=0, presence_cache_size=0)
    regions = engine_regions(engine, [400.0, 800.0])
    batched = PresenceEstimator(resolution=20)
    single = PresenceEstimator(resolution=20)
    for poi in synthetic_dataset.pois:
        assert batched.presences(poi, regions) == [
            single.presence(region, poi) for region in regions
        ]


def _line_grid(*xs: float) -> SampleGrid:
    return SampleGrid(np.array(xs, dtype=float), np.zeros(len(xs)))


def _reference_counts(grid: SampleGrid, regions) -> list[int]:
    return [
        int(region.contains_many(grid.xs.copy(), grid.ys.copy()).sum())
        for region in regions
    ]


def test_whole_grid_classification_is_exact_at_the_boundary():
    # The farthest sample lies a micrometre outside: mixed, not all-true.
    grid = _line_grid(0.0, 0.5, 1.0)
    outside_by_a_hair = Circle(Point(0.0, 0.0), 1.0 - 1e-6)
    just_inside = Circle(Point(0.0, 0.0), 1.0)
    regions = [outside_by_a_hair, just_inside, outside_by_a_hair - just_inside]
    assert count_inside(grid, [r.program() for r in regions]) == [2, 3, 0]
    assert _reference_counts(grid, regions) == [2, 3, 0]


def test_box_rejection_is_strict_before_the_toleranced_mask():
    # The circle's box starts half a nanometre past the grid: the
    # intersection rejects the grid outright, although the circle alone
    # (and the box's 1e-9 tolerance) would accept the sample at x = 1.
    grid = _line_grid(0.0, 1.0)
    circle = Circle(Point(2.0 + 5e-10, 0.0), 1.0)
    regions = [circle, circle & Circle(Point(2.0, 0.0), 3.0)]
    assert _reference_counts(grid, regions) == [1, 0]
    assert count_inside(grid, [r.program() for r in regions]) == [1, 0]
