"""Circles — the detection ranges of proximity detection devices.

A symbolic positioning device (RFID reader, Bluetooth radio) detects an
object exactly when the object is within a circular *detection range*
(paper, Section 1).  Circles therefore appear both as tracking primitives
and as building blocks of uncertainty regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .mbr import Mbr
from .point import EPSILON, Point
from .program import Dnf, squared_row, threshold
from .region import Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["Circle"]


@dataclass(frozen=True)
class Circle(Region):
    """A closed disk with the given ``center`` and ``radius``."""

    center: Point
    radius: float
    _mbr: Mbr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"negative radius: {self.radius}")
        object.__setattr__(
            self, "_mbr", Mbr.around(self.center, self.radius, self.radius)
        )

    @property
    def mbr(self) -> Mbr:
        return self._mbr

    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def contains(self, point: Point) -> bool:
        return self.center.distance_to(point) <= self.radius + EPSILON

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        limit = self.radius + EPSILON
        dx = xs - self.center.x
        dy = ys - self.center.y
        result: "NDArray[np.bool_]" = dx * dx + dy * dy <= limit * limit
        return result

    def lower(self) -> Dnf:
        limit = self.radius + EPSILON
        row = squared_row(self.center.x, self.center.y)
        return ((threshold(row, -math.inf, limit * limit),),)

    def distance_to_point(self, point: Point) -> float:
        """Distance from ``point`` to the disk (0 when inside).

        This is the ``dist(p, C) = max(0, |p - c| - r)`` term used by the
        extended-ellipse membership predicate.
        """
        return max(0.0, self.center.distance_to(point) - self.radius)

    def expanded(self, margin: float) -> "Circle":
        """A concentric circle with radius grown by ``margin``."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return Circle(self.center, self.radius + margin)

    def intersects_circle(self, other: "Circle") -> bool:
        """Whether the two closed disks share at least one point."""
        gap = self.center.distance_to(other.center) - self.radius - other.radius
        return gap <= EPSILON

    def boundary_point_towards(self, target: Point) -> Point:
        """The boundary point in the direction of ``target``.

        Falls back to the rightmost boundary point when ``target`` coincides
        with the center.  Used when picking the foci of an extended ellipse.
        """
        delta = target - self.center
        length = delta.norm()
        if length <= EPSILON:
            return Point(self.center.x + self.radius, self.center.y)
        scale = self.radius / length
        return self.center + delta * scale

    def sample_boundary(self, count: int) -> list[Point]:
        """``count`` evenly spaced boundary points (counter-clockwise)."""
        if count < 1:
            raise ValueError("count must be positive")
        step = 2.0 * math.pi / count
        return [
            Point(
                self.center.x + self.radius * math.cos(i * step),
                self.center.y + self.radius * math.sin(i * step),
            )
            for i in range(count)
        ]
