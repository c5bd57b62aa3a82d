"""Tests for the indoor distance oracle and point distance fields."""

import math

import numpy as np
import pytest

from repro.geometry import Point, Polygon
from repro.indoor import (
    Door,
    DoorGraph,
    FloorPlan,
    IndoorDistanceOracle,
    Room,
)
from repro.indoor.builders import (
    airport_pier,
    deploy_airport_devices,
    deploy_office_devices,
    office_building,
)
from repro.indoor.distance import RoomGrid


@pytest.fixture(scope="module")
def corridor_oracle():
    rooms = [
        Room("a", Polygon.rectangle(0, 0, 10, 10)),
        Room("b", Polygon.rectangle(10, 0, 20, 10)),
        Room("c", Polygon.rectangle(20, 0, 30, 10)),
    ]
    doors = [
        Door("ab", Point(10, 5), "a", "b"),
        Door("bc", Point(20, 5), "b", "c"),
    ]
    return IndoorDistanceOracle(FloorPlan(rooms, doors))


class TestScalarDistances:
    def test_same_room_is_euclidean(self, corridor_oracle):
        assert corridor_oracle.distance(Point(1, 1), Point(4, 5)) == 5.0

    def test_adjacent_room_goes_through_door(self, corridor_oracle):
        got = corridor_oracle.distance(Point(5, 5), Point(15, 5))
        assert got == pytest.approx(10.0)

    def test_detour_through_door_longer_than_euclid(self, corridor_oracle):
        start, goal = Point(9, 1), Point(11, 1)
        euclid = start.distance_to(goal)
        indoor = corridor_oracle.distance(start, goal)
        # Must route via the door at (10, 5).
        expected = start.distance_to(Point(10, 5)) + Point(10, 5).distance_to(goal)
        assert indoor == pytest.approx(expected)
        assert indoor > euclid

    def test_two_hop_distance(self, corridor_oracle):
        got = corridor_oracle.distance(Point(5, 5), Point(25, 5))
        assert got == pytest.approx(20.0)

    def test_outside_plan_is_inf(self, corridor_oracle):
        assert corridor_oracle.distance(Point(-5, 5), Point(5, 5)) == math.inf
        assert corridor_oracle.distance(Point(5, 5), Point(-5, 5)) == math.inf

    def test_indoor_dominates_euclidean(self, corridor_oracle):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = Point(rng.uniform(0, 30), rng.uniform(0, 10))
            b = Point(rng.uniform(0, 30), rng.uniform(0, 10))
            indoor = corridor_oracle.distance(a, b)
            assert indoor >= a.distance_to(b) - 1e-9


class TestPointDistanceField:
    def test_door_distance(self, corridor_oracle):
        field = corridor_oracle.field_from(Point(5, 5))
        assert field.door_distance("ab") == pytest.approx(5.0)
        assert field.door_distance("bc") == pytest.approx(15.0)
        assert field.door_distance("nope") == math.inf

    def test_field_matches_oracle(self, corridor_oracle):
        source = Point(3, 7)
        field = corridor_oracle.field_from(source)
        rng = np.random.default_rng(7)
        for _ in range(30):
            target = Point(rng.uniform(0, 30), rng.uniform(0, 10))
            assert field.distance_to(target) == pytest.approx(
                corridor_oracle.distance(source, target)
            )

    def test_distances_in_room_matches_scalar(self, corridor_oracle):
        field = corridor_oracle.field_from(Point(5, 5))
        rng = np.random.default_rng(9)
        xs = rng.uniform(20.5, 29.5, 40)
        ys = rng.uniform(0.5, 9.5, 40)
        vector = field.distances_in_room("c", xs, ys)
        for x, y, d in zip(xs, ys, vector):
            assert d == pytest.approx(field.distance_to(Point(float(x), float(y))))

    def test_distances_to_many_matches_scalar(self, corridor_oracle):
        field = corridor_oracle.field_from(Point(15, 5))
        rng = np.random.default_rng(11)
        xs = rng.uniform(-2, 32, 60)
        ys = rng.uniform(-2, 12, 60)
        vector = field.distances_to_many(xs, ys)
        for x, y, d in zip(xs, ys, vector):
            scalar = field.distance_to(Point(float(x), float(y)))
            if math.isinf(scalar):
                assert math.isinf(d)
            else:
                assert d == pytest.approx(scalar)

    def test_distances_to_many_empty_batch(self, corridor_oracle):
        field = corridor_oracle.field_from(Point(5, 5))
        assert len(field.distances_to_many(np.zeros(0), np.zeros(0))) == 0

    def test_source_on_door_reaches_both_rooms_directly(self, corridor_oracle):
        field = corridor_oracle.field_from(Point(10, 5))
        # Straight into either room, no extra door hops.
        assert field.distance_to(Point(8, 5)) == pytest.approx(2.0)
        assert field.distance_to(Point(12, 5)) == pytest.approx(2.0)


class TestRoomGroups:
    def test_groups_cover_all_points(self, corridor_oracle):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 30, 50)
        ys = rng.uniform(0, 10, 50)
        groups = corridor_oracle.room_groups(xs, ys)
        covered = set()
        for room_id, indices in groups:
            assert room_id is not None  # all interior points here
            covered.update(int(i) for i in indices)
        assert covered == set(range(50))

    def test_writable_batch_mutated_in_place_regroups(self, corridor_oracle):
        # A writable batch can change between calls, so its groups must
        # follow the current values, never an earlier call's.
        xs = np.array([5.0, 15.0])
        ys = np.array([5.0, 5.0])
        before = dict(corridor_oracle.room_groups(xs, ys))
        assert before["a"].tolist() == [0] and before["b"].tolist() == [1]
        xs[:] = [25.0, 5.0]
        after = dict(corridor_oracle.room_groups(xs, ys))
        assert set(after) == {"a", "c"}
        assert after["c"].tolist() == [0] and after["a"].tolist() == [1]
        field = corridor_oracle.field_from(Point(5, 5))
        assert field.distances_to_many(xs, ys).tolist() == pytest.approx(
            [20.0, 0.0]
        )

    def test_single_room_fast_path(self, corridor_oracle):
        xs = np.linspace(1.0, 9.0, 10)
        ys = np.full(10, 5.0)
        groups = corridor_oracle.room_groups(xs, ys)
        assert len(groups) == 1
        assert groups[0][0] == "a"
        assert len(groups[0][1]) == 10

    def test_points_outside_any_room(self, corridor_oracle):
        xs = np.array([-5.0, 5.0])
        ys = np.array([-5.0, 5.0])
        groups = dict(
            (room_id, set(int(i) for i in idx))
            for room_id, idx in corridor_oracle.room_groups(xs, ys)
        )
        assert 0 in groups.get(None, set())
        assert 1 in groups.get("a", set())


class TestRoomGrid:
    """Rows from many sources over one fixed batch equal each source's own
    ``distances_to_many`` bit for bit."""

    SOURCES = [Point(5, 5), Point(15, 5), Point(25, 2), Point(10, 5)]

    def _check(self, oracle, xs, ys):
        grid = RoomGrid(oracle, xs, ys)
        for source in self.SOURCES:
            field = oracle.field_from(source)
            np.testing.assert_array_equal(
                grid.row(field), field.distances_to_many(xs, ys)
            )
        return grid

    def test_single_room_batch_uses_door_rows(self, corridor_oracle):
        rng = np.random.default_rng(4)
        xs = rng.uniform(10.5, 19.5, 50)
        ys = rng.uniform(0.5, 9.5, 50)
        grid = self._check(corridor_oracle, xs, ys)
        assert grid.room_id == "b"
        assert grid.door_rows is not None and grid.door_rows.shape == (2, 50)

    def test_batch_across_rooms_falls_back(self, corridor_oracle):
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.uniform(5, 25, 40), [10.0, 20.0, -1.0]])
        ys = np.concatenate([rng.uniform(0.5, 9.5, 40), [5.0, 5.0, 5.0]])
        grid = self._check(corridor_oracle, xs, ys)
        assert grid.room_id is None


def reference_door_distances(oracle, source):
    """The per-door loop the door-matrix construction replaced."""
    floorplan = oracle.floorplan
    door_distances = {}
    for room in floorplan.rooms_at(source):
        for door in floorplan.doors_of_room(room.room_id):
            direct = source.distance_to(door.position)
            distances, _ = oracle.graph.shortest_from(door.door_id)
            for door_id, through in distances.items():
                candidate = direct + through
                if candidate < door_distances.get(door_id, math.inf):
                    door_distances[door_id] = candidate
    return door_distances


class TestDoorDistances:
    """A field's source→door distances, built from door-graph rows, equal
    the per-door loop exactly: same keys, same floats."""

    @pytest.mark.parametrize("plan_name", ["office", "airport"])
    def test_every_device_matches_the_loop(self, plan_name):
        if plan_name == "office":
            plan = office_building()
            deployment = deploy_office_devices(plan)
        else:
            plan = airport_pier()
            deployment = deploy_airport_devices(plan)
        oracle = IndoorDistanceOracle(plan)
        sources = [device.center for device in deployment]
        # Door positions lie on two rooms' boundaries at once.
        sources += [door.position for door in plan.doors]
        multi_room = 0
        for source in sources:
            field = oracle.field_from(source)
            expected = reference_door_distances(oracle, source)
            assert field._door_distances == expected
            multi_room += len(field.source_rooms) > 1
        assert multi_room > 0

    def test_source_outside_every_room(self, corridor_oracle):
        field = corridor_oracle.field_from(Point(-5.0, -5.0))
        assert field.source_rooms == frozenset()
        assert field._door_distances == {}

    def test_distance_row_follows_door_order(self, corridor_oracle):
        graph = corridor_oracle.graph
        assert graph.door_ids == ["ab", "bc"]
        row = graph.distance_row("ab")
        assert row.tolist() == [0.0, 10.0]
        assert graph.distance_row("ab") is row

    def test_unreachable_doors_stay_out(self):
        rooms = [
            Room("a", Polygon.rectangle(0, 0, 10, 10)),
            Room("b", Polygon.rectangle(10, 0, 20, 10)),
            Room("c", Polygon.rectangle(30, 0, 40, 10)),
            Room("d", Polygon.rectangle(40, 0, 50, 10)),
        ]
        doors = [
            Door("ab", Point(10, 5), "a", "b"),
            Door("cd", Point(40, 5), "c", "d"),
        ]
        oracle = IndoorDistanceOracle(FloorPlan(rooms, doors))
        assert oracle.graph.distance_row("ab").tolist() == [0.0, math.inf]
        field = oracle.field_from(Point(5, 5))
        assert field._door_distances == reference_door_distances(
            oracle, Point(5, 5)
        )
        assert field.door_distance("cd") == math.inf
