"""Extended ellipses between two consecutive detections.

Between two consecutive tracking records the object leaves device ``dev_i``'s
range at ``rd_i.t_e`` and enters ``dev_j``'s range at ``rd_j.t_s``.  With
maximum speed ``V_max`` its location over the gap is constrained by the
*extended ellipse* (paper, Section 3.1.3, after [Pfoser & Jensen]): the set
of points reachable on a path that starts at the boundary of ``dev_i``'s
range and ends at the boundary of ``dev_j``'s range with total length at
most ``V_max * (rd_j.t_s - rd_i.t_e)``.

Formally, with ``dist(p, C) = max(0, |p - c| - r)`` the distance from a
point to a disk, the extended ellipse is::

    { p : dist(p, C_i) + dist(p, C_j) <= V_max * gap }

which is the classic two-focus ellipse definition generalised to circular
foci.  ``Theta(dev_i, dev_j, ...)`` in the paper denotes the *complete*
region covered by the extended ellipse, i.e. including the two detection
disks; :attr:`ExtendedEllipse.gap_region` additionally exposes the variant
with the two disks excluded (where the object can be while *undetected*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .circle import Circle
from .mbr import Mbr
from .point import EPSILON, Point
from .program import Dnf, hypot_row, pair
from .region import Region, RegionDifference, RegionUnion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["ExtendedEllipse"]


@dataclass(frozen=True)
class ExtendedEllipse(Region):
    """The complete region ``Theta`` between two circular foci.

    Parameters
    ----------
    focus_a, focus_b:
        The detection ranges of the two devices involved.
    path_budget:
        The maximum travel distance between the two range boundaries,
        ``V_max * (rd_j.t_s - rd_i.t_e)``.  A negative budget is clamped to
        zero (it can arise from floating point noise on back-to-back
        records).
    """

    focus_a: Circle
    focus_b: Circle
    path_budget: float
    _mbr: Mbr | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        budget = max(0.0, self.path_budget)
        object.__setattr__(self, "path_budget", budget)
        object.__setattr__(self, "_mbr", self._compute_mbr())

    def _compute_mbr(self) -> Mbr | None:
        if self.is_infeasible():
            return None
        # Every point p satisfies dist(p, A) <= budget and dist(p, B) <=
        # budget, so the region lies within both inflated disks; intersecting
        # their MBRs gives a sound (and reasonably tight) bound.
        mbr_a = self.focus_a.expanded(self.path_budget).mbr
        mbr_b = self.focus_b.expanded(self.path_budget).mbr
        return mbr_a.intersection(mbr_b)

    def is_infeasible(self) -> bool:
        """Whether no point can satisfy the budget.

        The tightest possible path between the two boundaries is the
        straight gap between the disks; a budget below that leaves the
        region empty.  (With consistent tracking data this never happens.)
        """
        gap = (
            self.focus_a.center.distance_to(self.focus_b.center)
            - self.focus_a.radius
            - self.focus_b.radius
        )
        return gap - EPSILON > self.path_budget

    @property
    def mbr(self) -> Mbr | None:
        return self._mbr

    def contains(self, point: Point) -> bool:
        if self._mbr is None:
            return False
        total = self.focus_a.distance_to_point(point) + self.focus_b.distance_to_point(
            point
        )
        return total <= self.path_budget + EPSILON

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        if self._mbr is None:
            return np.zeros(len(xs), dtype=bool)
        a, b = self.focus_a.center, self.focus_b.center
        dist_a = np.hypot(xs - a.x, ys - a.y)
        dist_b = np.hypot(xs - b.x, ys - b.y)
        total = np.maximum(dist_a - self.focus_a.radius, 0.0) + np.maximum(
            dist_b - self.focus_b.radius, 0.0
        )
        result: "NDArray[np.bool_]" = total <= self.path_budget + EPSILON
        return result

    def lower(self) -> Dnf:
        if self._mbr is None:
            return ()
        a, b = self.focus_a.center, self.focus_b.center
        literal = pair(
            hypot_row(a.x, a.y),
            self.focus_a.radius,
            hypot_row(b.x, b.y),
            self.focus_b.radius,
            self.path_budget + EPSILON,
        )
        return ((literal,),)

    @property
    def gap_region(self) -> Region:
        """The extended ellipse with the two detection disks excluded.

        While the object is between the two detections it is, by definition
        of symbolic tracking, outside both ranges (it would otherwise still
        be detected); this variant captures exactly that.
        """
        return RegionDifference(self, RegionUnion((self.focus_a, self.focus_b)))
