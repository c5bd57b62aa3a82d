"""The indoor topology check (paper, Section 3.3).

An uncertainty region derived from Euclidean speed bounds may contain parts
of the indoor space the object could not actually reach: walking happens
through doors, so the *indoor* distance — which always dominates the
Euclidean one — is the binding constraint.  The paper excludes the parts of
a region whose indoor distance from the involved devices exceeds the
corresponding maximum travel distance (Figure 8).

We implement the check as additional constraint regions intersected with
the Euclidean primitives, at per-point granularity:

* :class:`ReachabilityConstraint` — points whose indoor distance to a
  device range is within a budget (tightens rings, Figure 8(a));
* :class:`PathReachabilityConstraint` — points through which a path from
  one device range to another fits the budget (tightens extended ellipses,
  Figure 8(b)).

Per-point constraints subsume the paper's part-wise exclusion: every point
of an excluded disconnected part violates the distance bound, and points of
*kept* parts that are individually unreachable are pruned too.  Because the
indoor metric dominates the Euclidean metric, both constraints only ever
shrink regions — soundness (the true position stays inside) is preserved,
which the test suite verifies against simulated ground truth.

Distance fields from device centers are cached in :class:`TopologyChecker`;
a deployment is small and static, so the cache converges quickly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ...geometry import Mbr, Point, Region
from ...geometry.program import Dnf, pair, threshold
from ...indoor.devices import Device
from ...indoor.distance import IndoorDistanceOracle, PointDistanceField

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = [
    "ReachabilityConstraint",
    "PathReachabilityConstraint",
    "TopologyChecker",
]


class ReachabilityConstraint(Region):
    """Points ``p`` with ``max(0, indoor_dist(center, p) - radius) <= budget``.

    ``radius`` discounts the device's detection radius: the object starts
    from (or must reach) the range *boundary*, while the distance field is
    anchored at the range center.
    """

    __slots__ = ("field", "radius", "budget", "_mbr", "_program")

    def __init__(self, field: PointDistanceField, radius: float, budget: float):
        if radius < 0 or budget < 0:
            raise ValueError("radius and budget must be non-negative")
        self.field = field
        self.radius = radius
        self.budget = budget
        # Indoor distance dominates Euclidean distance, so the Euclidean
        # disk of the same reach bounds the constraint region.
        reach = radius + budget
        self._mbr = Mbr.around(field.source, reach, reach)

    @property
    def mbr(self) -> Mbr:
        return self._mbr

    def contains(self, point: Point) -> bool:
        return self.field.distance_to(point) - self.radius <= self.budget + 1e-9

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        distances = self.field.distances_to_many(xs, ys)
        result: "NDArray[np.bool_]" = (
            distances - self.radius <= self.budget + 1e-9
        )
        return result

    def lower(self) -> Dnf:
        row = ("in", self.field.token)
        return ((threshold(row, -math.inf, self.budget + 1e-9, sub=self.radius),),)


class PathReachabilityConstraint(Region):
    """Points on an indoor path between two ranges within a total budget.

    Contains ``p`` iff ``max(0, d_a(p) - r_a) + max(0, d_b(p) - r_b) <=
    budget`` where ``d_a``/``d_b`` are indoor distances from the two device
    centers — the indoor-metric analogue of the extended ellipse.
    """

    __slots__ = (
        "field_a", "radius_a", "field_b", "radius_b", "budget", "_mbr", "_program"
    )

    def __init__(
        self,
        field_a: PointDistanceField,
        radius_a: float,
        field_b: PointDistanceField,
        radius_b: float,
        budget: float,
    ):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.field_a = field_a
        self.radius_a = radius_a
        self.field_b = field_b
        self.radius_b = radius_b
        self.budget = budget
        reach_a = radius_a + budget
        reach_b = radius_b + budget
        box_a = Mbr.around(field_a.source, reach_a, reach_a)
        box_b = Mbr.around(field_b.source, reach_b, reach_b)
        self._mbr = box_a.intersection(box_b)

    @property
    def mbr(self) -> Mbr | None:
        return self._mbr

    def contains(self, point: Point) -> bool:
        total = max(0.0, self.field_a.distance_to(point) - self.radius_a) + max(
            0.0, self.field_b.distance_to(point) - self.radius_b
        )
        return total <= self.budget + 1e-9

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        if self._mbr is None:
            return np.zeros(len(xs), dtype=bool)
        part_a = np.maximum(
            self.field_a.distances_to_many(xs, ys) - self.radius_a, 0.0
        )
        part_b = np.maximum(
            self.field_b.distances_to_many(xs, ys) - self.radius_b, 0.0
        )
        result: "NDArray[np.bool_]" = part_a + part_b <= self.budget + 1e-9
        return result

    def lower(self) -> Dnf:
        if self._mbr is None:
            return ()
        literal = pair(
            ("in", self.field_a.token),
            self.radius_a,
            ("in", self.field_b.token),
            self.radius_b,
            self.budget + 1e-9,
        )
        return ((literal,),)


class TopologyChecker:
    """Factory for topology constraints with per-device field caching."""

    def __init__(self, oracle: IndoorDistanceOracle):
        self.oracle = oracle
        self._fields: dict[object, PointDistanceField] = {}

    def field_of(self, device: Device) -> PointDistanceField:
        field = self._fields.get(device.device_id)
        if field is None:
            field = self.oracle.field_from(device.center)
            self._fields[device.device_id] = field
        return field

    def ring_constraint(self, device: Device, budget: float) -> Region:
        """Indoor-reachability tightening of ``Ring(device, budget)``."""
        return ReachabilityConstraint(
            self.field_of(device), device.radius, max(0.0, budget)
        )

    def path_constraint(
        self, device_a: Device, device_b: Device, budget: float
    ) -> Region:
        """Indoor-reachability tightening of ``Theta(device_a, device_b, ...)``."""
        return PathReachabilityConstraint(
            self.field_of(device_a),
            device_a.radius,
            self.field_of(device_b),
            device_b.radius,
            max(0.0, budget),
        )
