"""Rings (annuli) around detection ranges.

``Ring(dev, rho)`` in the paper denotes the ring whose inner circle is the
device's detection circle and whose outer circle extends the inner radius by
``rho`` (Section 3.1.2, footnote 1).  A ring captures where an object can be
after leaving — or before entering — a detection range, given the maximum
speed ``V_max``: outside the range, but within ``rho`` of its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .anchor import squared_distances
from .circle import Circle
from .mbr import Mbr
from .point import EPSILON, Point
from .region import Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["Ring"]


@dataclass(frozen=True)
class Ring(Region):
    """The closed annulus between ``inner`` and ``inner`` grown by ``width``.

    Both boundary circles are included; a zero ``width`` degenerates to the
    inner circle's boundary (zero area but still a sound over-approximation
    of "the object is exactly on the range boundary").
    """

    inner: Circle
    width: float
    _mbr: Mbr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"negative ring width: {self.width}")
        outer_radius = self.inner.radius + self.width
        object.__setattr__(
            self, "_mbr", Mbr.around(self.inner.center, outer_radius, outer_radius)
        )

    @property
    def center(self) -> Point:
        return self.inner.center

    @property
    def inner_radius(self) -> float:
        return self.inner.radius

    @property
    def outer_radius(self) -> float:
        return self.inner.radius + self.width

    @property
    def mbr(self) -> Mbr:
        return self._mbr

    def area(self) -> float:
        return math.pi * (self.outer_radius**2 - self.inner_radius**2)

    def contains(self, point: Point) -> bool:
        distance = self.center.distance_to(point)
        return (
            self.inner_radius - EPSILON
            <= distance
            <= self.outer_radius + EPSILON
        )

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        squared = squared_distances(self.center, xs, ys)
        low = max(self.inner_radius - EPSILON, 0.0)
        high = self.outer_radius + EPSILON
        return (squared >= low * low) & (squared <= high * high)

    def outer_circle(self) -> Circle:
        """The disk bounded by the ring's outer boundary."""
        return Circle(self.center, self.outer_radius)
