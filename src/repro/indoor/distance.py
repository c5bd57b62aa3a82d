"""Indoor walking distance.

The indoor topology check (paper, Section 3.3) excludes the parts of an
uncertainty region that are too far away *by indoor walking distance* —
through doors — even though they fall within the Euclidean speed bound.
This module provides that metric:

* :class:`IndoorDistanceOracle` — point-to-point shortest walking distance
  (straight inside convex rooms, through the door graph across rooms);
* :class:`PointDistanceField` — a single-source view precomputed from one
  anchor point (a device center in practice), answering distance queries to
  many points quickly, including a vectorised per-room fast path;
* :class:`RoomGrid` — the room layout of one fixed sample batch (a POI's
  quadrature grid), kept with the batch and answering distance rows from
  any source.

Indoor distance always dominates Euclidean distance, so constraining a
region by indoor distance only tightens it — which is exactly what the
topology check is meant to do.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..geometry import Mbr, Point
from .floorplan import FloorPlan
from .topology import DoorGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["IndoorDistanceOracle", "PointDistanceField", "RoomGrid"]


class IndoorDistanceOracle:
    """Shortest indoor walking distances over a floor plan."""

    def __init__(self, floorplan: FloorPlan, graph: DoorGraph | None = None):
        self.floorplan = floorplan
        self.graph = graph if graph is not None else DoorGraph(floorplan)

    def distance(self, start: Point, goal: Point) -> float:
        """Shortest walking distance (inf when unreachable or outside)."""
        return self.field_from(start).distance_to(goal)

    def field_from(self, source: Point) -> "PointDistanceField":
        """Single-source distance field anchored at ``source``."""
        return PointDistanceField(self, source)

    def room_groups(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> list[tuple[str | None, "NDArray[np.intp]"]]:
        """Group point indices by containing room.

        Boundary points may appear in several groups (both rooms give valid
        shortest-path bounds; callers take the minimum).  Points in no room
        are returned under the ``None`` key for scalar fallback handling.
        """
        groups: list[tuple[str | None, "NDArray[np.intp]"]] = []
        if len(xs) == 0:
            return groups
        covered = np.zeros(len(xs), dtype=bool)
        batch_box = Mbr(
            float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
        )
        candidates = self.floorplan.rooms_intersecting(batch_box)
        # Fast path: the whole batch inside one room (the common case —
        # POI sample grids never cross rooms).  For rectangular rooms box
        # containment decides it; for other convex rooms corner containment
        # implies containment of the whole box.
        if len(candidates) == 1:
            room = candidates[0]
            if room.polygon.is_axis_aligned_rectangle():
                fully_inside = room.polygon.mbr.contains_mbr(batch_box)
            else:
                fully_inside = all(
                    room.polygon.contains(corner)
                    for corner in batch_box.corners()
                )
            if fully_inside:
                groups.append((room.room_id, np.arange(len(xs))))
                return groups
        for room in candidates:
            in_room = room.polygon.contains_many(xs, ys)
            if in_room.any():
                groups.append((room.room_id, np.flatnonzero(in_room)))
                covered |= in_room
        if not covered.all():
            groups.append((None, np.flatnonzero(~covered)))
        return groups


_TOKENS = itertools.count()
_LIVE_FIELDS: "weakref.WeakValueDictionary[int, PointDistanceField]" = (
    weakref.WeakValueDictionary()
)


class PointDistanceField:
    """Walking distances from one fixed source point.

    Precomputes the distance from the source to every door reachable from
    the source's room(s); distances to arbitrary targets then cost one
    min-over-doors of the *target's* room.  An unreachable door counts as
    ``inf``, which never wins a minimum.

    ``token`` is a process-unique integer naming the field while it is
    alive (:meth:`from_token`), so a plain tuple of numbers can refer to
    it without holding it: lowered region programs stay free of tracked
    objects and the garbage collector never scans them.
    """

    def __init__(self, oracle: IndoorDistanceOracle, source: Point):
        self.oracle = oracle
        self.source = source
        self.token = next(_TOKENS)
        _LIVE_FIELDS[self.token] = self
        floorplan = oracle.floorplan
        self.source_rooms = frozenset(
            room.room_id for room in floorplan.rooms_at(source)
        )
        # Through each door of a source room, the best walk to every door
        # is the straight line to it plus its door-graph row; the minimum
        # over those doors is exact, and unreachable doors stay inf.
        self._door_distances: dict[str, float] = {}
        source_doors = [
            door
            for room_id in self.source_rooms
            for door in floorplan.doors_of_room(room_id)
        ]
        if source_doors:
            graph = oracle.graph
            direct = np.array(
                [source.distance_to(door.position) for door in source_doors]
            )
            rows = np.stack(
                [graph.distance_row(door.door_id) for door in source_doors]
            )
            best = (direct[:, np.newaxis] + rows).min(axis=0)
            self._door_distances = {
                door_id: distance
                for door_id, distance in zip(graph.door_ids, best.tolist())
                if distance != math.inf
            }
        # Per-room arrays of (door distance, door x, door y) over the
        # room's doors in floor-plan order, for the vectorised path.
        self._room_door_arrays: dict[
            str, tuple["NDArray[np.float64]", "NDArray[np.float64]", "NDArray[np.float64]"]
        ] = {}

    @staticmethod
    def from_token(token: int) -> "PointDistanceField":
        """The live field whose :attr:`token` is ``token``."""
        return _LIVE_FIELDS[token]

    def door_distance(self, door_id: str) -> float:
        """Distance from the source to the door (inf when unreachable)."""
        return self._door_distances.get(door_id, math.inf)

    def distance_to(self, target: Point) -> float:
        """Distance from the source to ``target``."""
        floorplan = self.oracle.floorplan
        target_rooms = floorplan.rooms_at(target)
        if not target_rooms:
            return math.inf
        best = math.inf
        for room in target_rooms:
            if room.room_id in self.source_rooms:
                best = min(best, self.source.distance_to(target))
            for door in floorplan.doors_of_room(room.room_id):
                through = self._door_distances.get(door.door_id)
                if through is None:
                    continue
                best = min(best, through + door.position.distance_to(target))
        return best

    # ------------------------------------------------------------------
    # Vectorised per-room path
    # ------------------------------------------------------------------

    def _arrays_for_room(self, room_id: str):
        cached = self._room_door_arrays.get(room_id)
        if cached is not None:
            return cached
        doors = self.oracle.floorplan.doors_of_room(room_id)
        through = np.array(
            [self.door_distance(door.door_id) for door in doors], dtype=float
        )
        xs = np.array([door.position.x for door in doors], dtype=float)
        ys = np.array([door.position.y for door in doors], dtype=float)
        arrays = (through, xs, ys)
        self._room_door_arrays[room_id] = arrays
        return arrays

    def distances_in_room(
        self,
        room_id: str,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
    ) -> "NDArray[np.float64]":
        """Distances from the source to points known to lie in ``room_id``.

        The caller guarantees room membership (e.g. POI sample grids, where
        the whole POI lies inside one room); this skips per-point room
        lookups and reduces the query to vector arithmetic.
        """
        result = np.full(len(xs), math.inf, dtype=float)
        if room_id in self.source_rooms:
            result = np.hypot(xs - self.source.x, ys - self.source.y)
        through, door_xs, door_ys = self._arrays_for_room(room_id)
        for i in range(len(through)):
            via_door = through[i] + np.hypot(xs - door_xs[i], ys - door_ys[i])
            np.minimum(result, via_door, out=result)
        return result

    def distances_to_many(
        self,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
        groups: list[tuple[str | None, "NDArray[np.intp]"]] | None = None,
    ) -> "NDArray[np.float64]":
        """Distances from the source to arbitrary points (vectorised).

        Points are assigned to rooms in bulk (candidate rooms come from the
        batch's bounding box); points outside every room get ``inf``.
        Boundary points may belong to several rooms — each assignment is a
        valid shortest-path upper bound, and the minimum over the rooms a
        point belongs to is taken implicitly by keeping the smaller value.
        ``groups`` passes the batch's :meth:`IndoorDistanceOracle.room_groups`
        when the caller already has them.
        """
        result = np.full(len(xs), math.inf, dtype=float)
        if len(xs) == 0:
            return result
        if groups is None:
            groups = self.oracle.room_groups(xs, ys)
        for room_id, indices in groups:
            if room_id is None:
                # Points the vectorised ray-cast left unassigned (typically
                # exactly on a room boundary, e.g. in a doorway): fall back
                # to the tolerance-aware scalar path.
                for index in indices:
                    result[index] = self.distance_to(
                        Point(float(xs[index]), float(ys[index]))
                    )
                continue
            distances = self.distances_in_room(room_id, xs[indices], ys[indices])
            result[indices] = np.minimum(result[indices], distances)
        return result


class RoomGrid:
    """The room layout of one fixed sample batch.

    Answers distance rows from :class:`PointDistanceField` sources.
    When the whole batch lies in one room (a POI grid), the door→sample
    distances of that room are computed once here, and a source's row is
    ``min(through_door + door→sample)`` over the room's doors (and the
    straight line when the source shares the room) — the same additions
    and minima :meth:`PointDistanceField.distances_in_room` performs.  Any
    other batch falls back to :meth:`PointDistanceField.distances_to_many`.
    """

    __slots__ = ("xs", "ys", "groups", "room_id", "door_rows")

    def __init__(
        self,
        oracle: IndoorDistanceOracle,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
    ):
        self.xs = xs
        self.ys = ys
        self.groups = oracle.room_groups(xs, ys)
        self.room_id: str | None = None
        self.door_rows: "NDArray[np.float64] | None" = None
        if len(self.groups) == 1:
            room_id, indices = self.groups[0]
            if room_id is not None and len(indices) == len(xs):
                doors = oracle.floorplan.doors_of_room(room_id)
                door_xs = np.array([door.position.x for door in doors], dtype=float)
                door_ys = np.array([door.position.y for door in doors], dtype=float)
                self.room_id = room_id
                self.door_rows = np.hypot(
                    xs - door_xs[:, np.newaxis], ys - door_ys[:, np.newaxis]
                )

    def row(self, field: PointDistanceField) -> "NDArray[np.float64]":
        """Walking distances from ``field``'s source to every sample."""
        xs, ys = self.xs, self.ys
        room_id, door_rows = self.room_id, self.door_rows
        if room_id is None or door_rows is None or not len(door_rows):
            return field.distances_to_many(xs, ys, self.groups)
        through = field._arrays_for_room(room_id)[0]
        row: "NDArray[np.float64]" = (through[:, np.newaxis] + door_rows).min(axis=0)
        if room_id in field.source_rooms:
            source = field.source
            np.minimum(row, np.hypot(xs - source.x, ys - source.y), out=row)
        return row
