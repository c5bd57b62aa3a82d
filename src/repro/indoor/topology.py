"""Indoor topology: the door connectivity graph.

Movement between rooms only happens through doors, so the walkable
structure of a floor plan is captured by a graph whose nodes are doors and
whose edges connect doors sharing a room (weight: straight-line distance —
exact inside convex rooms).  The graph powers both the indoor distance
oracle used by the topology check (paper, Section 3.3) and the route
planner of the movement simulator.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..geometry import Point
from .floorplan import Door, FloorPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["DoorGraph"]


class DoorGraph:
    """Shortest-path machinery over the doors of a floor plan.

    Per-door Dijkstra results are cached: floor plans are static and the
    door count is small (tens to low hundreds), so lazily computed
    single-source trees amortise to an all-pairs table only for the doors
    actually queried.
    """

    def __init__(self, floorplan: FloorPlan):
        self.floorplan = floorplan
        self._adjacency: dict[str, list[tuple[str, float]]] = {
            door.door_id: [] for door in floorplan.doors
        }
        for room in floorplan.rooms:
            doors = floorplan.doors_of_room(room.room_id)
            for i, door_a in enumerate(doors):
                for door_b in doors[i + 1 :]:
                    weight = door_a.position.distance_to(door_b.position)
                    self._adjacency[door_a.door_id].append(
                        (door_b.door_id, weight)
                    )
                    self._adjacency[door_b.door_id].append(
                        (door_a.door_id, weight)
                    )
        self._sssp_cache: dict[
            str, tuple[dict[str, float], dict[str, str | None]]
        ] = {}
        #: Every door id in floor-plan order: the columns of
        #: :meth:`distance_row`.
        self.door_ids: list[str] = [door.door_id for door in floorplan.doors]
        self._rows: dict[str, NDArray[np.float64]] = {}

    # ------------------------------------------------------------------
    # Shortest paths between doors
    # ------------------------------------------------------------------

    def shortest_from(
        self, door_id: str
    ) -> tuple[dict[str, float], dict[str, str | None]]:
        """Single-source shortest paths: (distances, predecessor map)."""
        cached = self._sssp_cache.get(door_id)
        if cached is not None:
            return cached
        if door_id not in self._adjacency:
            raise KeyError(f"unknown door {door_id!r}")
        distances: dict[str, float] = {door_id: 0.0}
        predecessors: dict[str, str | None] = {door_id: None}
        heap: list[tuple[float, str]] = [(0.0, door_id)]
        while heap:
            distance, current = heapq.heappop(heap)
            if distance > distances.get(current, math.inf):
                continue
            for neighbor, weight in self._adjacency[current]:
                candidate = distance + weight
                if candidate < distances.get(neighbor, math.inf):
                    distances[neighbor] = candidate
                    predecessors[neighbor] = current
                    heapq.heappush(heap, (candidate, neighbor))
        result = (distances, predecessors)
        self._sssp_cache[door_id] = result
        return result

    def distance_row(self, door_id: str) -> NDArray[np.float64]:
        """Shortest distances from ``door_id`` to every door, as an array.

        Column ``j`` is the distance to ``door_ids[j]`` from the cached
        :meth:`shortest_from` tree (``inf`` when unreachable).  Built once
        per door and read-only.
        """
        row = self._rows.get(door_id)
        if row is None:
            distances, _ = self.shortest_from(door_id)
            row = np.array(
                [distances.get(other, math.inf) for other in self.door_ids],
                dtype=np.float64,
            )
            row.flags.writeable = False
            self._rows[door_id] = row
        return row

    def door_distance(self, from_door: str, to_door: str) -> float:
        """Shortest walking distance between two doors (inf if unreachable)."""
        distances, _ = self.shortest_from(from_door)
        return distances.get(to_door, math.inf)

    def door_path(self, from_door: str, to_door: str) -> list[str] | None:
        """The door sequence of a shortest path, or ``None`` if unreachable."""
        distances, predecessors = self.shortest_from(from_door)
        if to_door not in distances:
            return None
        path = [to_door]
        while path[-1] != from_door:
            previous = predecessors[path[-1]]
            assert previous is not None
            path.append(previous)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Point-to-point routing
    # ------------------------------------------------------------------

    def route(self, start: Point, goal: Point) -> list[Point] | None:
        """Waypoints of a shortest indoor path from ``start`` to ``goal``.

        The returned list starts with ``start`` and ends with ``goal``; the
        intermediate waypoints are door positions.  ``None`` when either
        point lies outside the plan or no door path connects their rooms.
        """
        start_rooms = {room.room_id for room in self.floorplan.rooms_at(start)}
        goal_rooms = {room.room_id for room in self.floorplan.rooms_at(goal)}
        if not start_rooms or not goal_rooms:
            return None
        if start_rooms & goal_rooms:
            return [start, goal]
        start_doors = self._doors_of_rooms(start_rooms)
        goal_doors = self._doors_of_rooms(goal_rooms)
        if not start_doors or not goal_doors:
            return None
        best_cost = math.inf
        best_path: list[str] | None = None
        for start_door in start_doors:
            distances, _ = self.shortest_from(start_door.door_id)
            entry_cost = start.distance_to(start_door.position)
            for goal_door in goal_doors:
                through = distances.get(goal_door.door_id)
                if through is None:
                    continue
                cost = (
                    entry_cost + through + goal_door.position.distance_to(goal)
                )
                if cost < best_cost:
                    best_cost = cost
                    best_path = self.door_path(
                        start_door.door_id, goal_door.door_id
                    )
        if best_path is None:
            return None
        waypoints = [start]
        waypoints.extend(
            self.floorplan.door(door_id).position for door_id in best_path
        )
        waypoints.append(goal)
        return waypoints

    def _doors_of_rooms(self, room_ids: set[str]) -> list[Door]:
        seen: dict[str, Door] = {}
        for room_id in room_ids:
            for door in self.floorplan.doors_of_room(room_id):
                seen[door.door_id] = door
        return list(seen.values())

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def room_components(self) -> list[set[str]]:
        """Connected components of rooms under door adjacency."""
        adjacency: dict[str, set[str]] = {
            room.room_id: set() for room in self.floorplan.rooms
        }
        for door in self.floorplan.doors:
            adjacency[door.room_a].add(door.room_b)
            adjacency[door.room_b].add(door.room_a)
        components: list[set[str]] = []
        unvisited = set(adjacency)
        while unvisited:
            seed = unvisited.pop()
            component = {seed}
            frontier = [seed]
            while frontier:
                current = frontier.pop()
                for neighbor in adjacency[current]:
                    if neighbor in unvisited:
                        unvisited.discard(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        return len(self.room_components()) <= 1
