"""Minimum bounding rectangles (MBRs).

MBRs are the lingua franca between the geometry engine and the R-tree based
indexes: every region exposes an MBR, R-tree entries store MBRs, and the
join-based query algorithms prune on MBR intersection before any exact
region computation happens (Section 4 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .point import EPSILON, Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["Mbr", "mbr_array"]


@dataclass(frozen=True, slots=True)
class Mbr:
    """An immutable axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"degenerate MBR: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Mbr":
        """Smallest MBR containing all ``points`` (at least one required)."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("Mbr.from_points needs at least one point") from None
        min_x = max_x = first.x
        min_y = max_y = first.y
        for point in iterator:
            min_x = min(min_x, point.x)
            max_x = max(max_x, point.x)
            min_y = min(min_y, point.y)
            max_y = max(max_y, point.y)
        return cls(min_x, min_y, max_x, max_y)

    @classmethod
    def around(cls, center: Point, half_width: float, half_height: float | None = None) -> "Mbr":
        """MBR centred on ``center`` with the given half extents."""
        if half_height is None:
            half_height = half_width
        return cls(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def area(self) -> float:
        return self.width * self.height

    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    def corners(self) -> Iterator[Point]:
        yield Point(self.min_x, self.min_y)
        yield Point(self.max_x, self.min_y)
        yield Point(self.max_x, self.max_y)
        yield Point(self.min_x, self.max_y)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, point: Point, tolerance: float = EPSILON) -> bool:
        return (
            self.min_x - tolerance <= point.x <= self.max_x + tolerance
            and self.min_y - tolerance <= point.y <= self.max_y + tolerance
        )

    def contains_mbr(self, other: "Mbr") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Mbr") -> bool:
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def union(self, other: "Mbr") -> "Mbr":
        return Mbr(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersection(self, other: "Mbr") -> "Mbr | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Mbr(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "Mbr":
        """This MBR grown by ``margin`` on every side."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return Mbr(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def min_distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the rectangle (0 if inside)."""
        dx = max(self.min_x - point.x, 0.0, point.x - self.max_x)
        dy = max(self.min_y - point.y, 0.0, point.y - self.max_y)
        return math.hypot(dx, dy)

    @staticmethod
    def union_all(mbrs: Iterable["Mbr"]) -> "Mbr":
        """Union of a non-empty iterable of MBRs."""
        iterator = iter(mbrs)
        try:
            result = next(iterator)
        except StopIteration:
            raise ValueError("union_all needs at least one MBR") from None
        for mbr in iterator:
            result = result.union(mbr)
        return result


def mbr_array(mbrs: Iterable[Mbr]) -> NDArray[np.float64]:
    """The boxes as one ``(n, 4)`` float64 array of
    ``(min_x, min_y, max_x, max_y)`` rows, for whole-array box tests."""
    return np.array(
        [(box.min_x, box.min_y, box.max_x, box.max_y) for box in mbrs],
        dtype=np.float64,
    ).reshape(-1, 4)
