"""Simple polygons — POI extents and room footprints.

Each indoor POI has a fixed extent modelled by a polygon (paper, Section
2.2), and the floor-plan substrate models rooms and hallways as polygons
too.  The implementation supports arbitrary simple (non-self-intersecting)
polygons; containment uses the even-odd ray-cast rule with boundary points
counted as inside, and is vectorised for fast presence quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .mbr import Mbr
from .point import EPSILON, Point
from .region import Region
from .segment import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["Polygon"]


@dataclass(frozen=True)
class Polygon(Region):
    """An immutable simple polygon given by its vertices in order.

    Vertex order may be clockwise or counter-clockwise; areas are always
    reported as positive values.
    """

    vertices: tuple[Point, ...]
    _mbr: Mbr = field(init=False, repr=False, compare=False)
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    _edges: tuple[Segment, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Sequence[Point]):
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "_mbr", Mbr.from_points(self.vertices))
        object.__setattr__(
            self, "_xs", np.array([v.x for v in self.vertices], dtype=float)
        )
        object.__setattr__(
            self, "_ys", np.array([v.y for v in self.vertices], dtype=float)
        )
        count = len(self.vertices)
        object.__setattr__(
            self,
            "_edges",
            tuple(
                Segment(self.vertices[i], self.vertices[(i + 1) % count])
                for i in range(count)
            ),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def rectangle(cls, min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """Axis-aligned rectangle polygon."""
        if min_x >= max_x or min_y >= max_y:
            raise ValueError("rectangle needs positive width and height")
        return cls(
            [
                Point(min_x, min_y),
                Point(max_x, min_y),
                Point(max_x, max_y),
                Point(min_x, max_y),
            ]
        )

    @classmethod
    def from_mbr(cls, mbr: Mbr) -> "Polygon":
        return cls.rectangle(mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)

    @classmethod
    def regular(cls, center: Point, radius: float, sides: int) -> "Polygon":
        """Regular polygon inscribed in the circle of ``radius``."""
        if sides < 3:
            raise ValueError("a regular polygon needs at least three sides")
        step = 2.0 * math.pi / sides
        return cls(
            [
                Point(
                    center.x + radius * math.cos(i * step),
                    center.y + radius * math.sin(i * step),
                )
                for i in range(sides)
            ]
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def mbr(self) -> Mbr:
        return self._mbr

    def edges(self) -> tuple[Segment, ...]:
        return self._edges

    def is_axis_aligned_rectangle(self) -> bool:
        """Whether the polygon is exactly its own MBR.

        Rectangle rooms are the common case in floor plans; callers use
        this to replace point-in-polygon tests by box tests.
        """
        return len(self.vertices) == 4 and abs(
            self.area() - self._mbr.area()
        ) <= EPSILON * max(1.0, self._mbr.area())

    def signed_area(self) -> float:
        """Shoelace area: positive for counter-clockwise vertex order."""
        total = 0.0
        count = len(self.vertices)
        for i in range(count):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % count]
            total += a.cross(b)
        return total / 2.0

    def area(self) -> float:
        return abs(self.signed_area())

    def perimeter(self) -> float:
        return sum(edge.length() for edge in self.edges())

    def centroid(self) -> Point:
        """Area centroid (falls back to vertex mean for degenerate area)."""
        signed = self.signed_area()
        if abs(signed) <= EPSILON:
            return Point(float(self._xs.mean()), float(self._ys.mean()))
        # A fan of triangles from vertex 0, in coordinates relative to it:
        # absolute shoelace terms on a far-from-origin sliver cancel to
        # an area near zero and push the centroid outside the polygon.
        ox, oy = self.vertices[0].x, self.vertices[0].y
        cx = 0.0
        cy = 0.0
        twice_area = 0.0
        bx, by = self.vertices[1].x - ox, self.vertices[1].y - oy
        for vertex in self.vertices[2:]:
            ax, ay = bx, by
            bx, by = vertex.x - ox, vertex.y - oy
            cross = ax * by - ay * bx
            cx += (ax + bx) * cross
            cy += (ay + by) * cross
            twice_area += cross
        factor = 1.0 / (3.0 * twice_area)
        return Point(ox + cx * factor, oy + cy * factor)

    def is_convex(self) -> bool:
        """Whether all turns go the same way (collinear runs allowed)."""
        sign = 0
        count = len(self.vertices)
        for i in range(count):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % count]
            c = self.vertices[(i + 2) % count]
            cross = (b - a).cross(c - b)
            if abs(cross) <= EPSILON:
                continue
            current = 1 if cross > 0 else -1
            if sign == 0:
                sign = current
            elif sign != current:
                return False
        return True

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains(self, point: Point) -> bool:
        if not self._mbr.contains_point(point):
            return False
        if self._on_boundary(point):
            return True
        return self._ray_cast(point.x, point.y)

    def _on_boundary(self, point: Point, tolerance: float = 1e-7) -> bool:
        return any(
            edge.distance_to_point(point) <= tolerance for edge in self.edges()
        )

    def _ray_cast(self, x: float, y: float) -> bool:
        inside = False
        count = len(self.vertices)
        j = count - 1
        for i in range(count):
            xi, yi = self.vertices[i].x, self.vertices[i].y
            xj, yj = self.vertices[j].x, self.vertices[j].y
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        inside = np.zeros(len(xs), dtype=bool)
        count = len(self.vertices)
        j = count - 1
        for i in range(count):
            xi, yi = self._xs[i], self._ys[i]
            xj, yj = self._xs[j], self._ys[j]
            crossing = (yi > ys) != (yj > ys)
            if crossing.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    x_cross = (xj - xi) * (ys - yi) / (yj - yi) + xi
                inside ^= crossing & (xs < x_cross)
            j = i
        return inside

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon([Point(v.x + dx, v.y + dy) for v in self.vertices])

    def scaled_about_centroid(self, factor: float) -> "Polygon":
        """Uniform scaling about the polygon's centroid."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        center = self.centroid()
        return Polygon(
            [center + (v - center) * factor for v in self.vertices]
        )
