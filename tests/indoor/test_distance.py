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

    def test_cache_hit_by_identity(self, corridor_oracle):
        xs = np.array([5.0, 15.0])
        ys = np.array([5.0, 5.0])
        xs.flags.writeable = False
        ys.flags.writeable = False
        first = corridor_oracle.room_groups(xs, ys)
        second = corridor_oracle.room_groups(xs, ys)
        assert first is second

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
