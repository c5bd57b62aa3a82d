"""Composable planar regions.

Uncertainty regions in the paper are boolean combinations of geometric
primitives: rings intersected with detection ranges (snapshot queries,
Section 3.1.2), unions of extended ellipses with ring intersections at the
window boundaries (interval queries, Section 3.2), all further constrained
by the indoor topology check (Section 3.3).

Rather than materialising such shapes as polygons — which would force a
fragile curved-boolean-geometry implementation — every region is a
*predicate with a bounding box*:

* :meth:`Region.contains` answers "is this point inside?" exactly, and
* :attr:`Region.mbr` bounds the region (``None`` for a provably empty one).

Boolean structure is kept symbolic via :class:`RegionIntersection`,
:class:`RegionUnion` and :class:`RegionDifference`, built with the ``&``,
``|`` and ``-`` operators.  Areas of such regions are then measured by
deterministic grid quadrature (:mod:`repro.geometry.area`), which is all the
flow definitions need — presence is a *ratio* of areas over a POI polygon.

All regions support vectorised membership via :meth:`Region.contains_many`.
The combinators evaluate every part on the *whole* batch and combine the
answers with bounding-box masks and accepted-so-far masks, so each point is
decided by the same boolean formula however the region is nested.
:meth:`Region.lower` writes that formula down as conjunctions of threshold
literals (:mod:`repro.geometry.program`), which presence quadrature
evaluates for many regions at once; ``contains_many`` stays the reference
the batched counts are checked against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .mbr import Mbr
from .point import Point
from .program import Dnf, Program, box, conjoin, negate, negation, opaque, program_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = [
    "Region",
    "EmptyRegion",
    "RegionIntersection",
    "RegionUnion",
    "RegionDifference",
    "intersect_all",
    "union_all",
]


def _inside_mbr_mask(
    mbr: Mbr, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
) -> "NDArray[np.bool_]":
    """Vectorised containment of points in an MBR (with a small tolerance)."""
    tolerance = 1e-9
    return (
        (xs >= mbr.min_x - tolerance)
        & (xs <= mbr.max_x + tolerance)
        & (ys >= mbr.min_y - tolerance)
        & (ys <= mbr.max_y + tolerance)
    )


def _batch_bounds(
    xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
) -> tuple[float, float, float, float]:
    """(min_x, max_x, min_y, max_y) of a non-empty coordinate batch."""
    return (float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max()))


def _mbr_disjoint_from_bounds(
    mbr: Mbr, bounds: tuple[float, float, float, float]
) -> bool:
    min_x, max_x, min_y, max_y = bounds
    return (
        mbr.max_x < min_x
        or mbr.min_x > max_x
        or mbr.max_y < min_y
        or mbr.min_y > max_y
    )


def _mbr_covers_bounds(
    mbr: Mbr, bounds: tuple[float, float, float, float]
) -> bool:
    min_x, max_x, min_y, max_y = bounds
    return (
        mbr.min_x <= min_x
        and mbr.max_x >= max_x
        and mbr.min_y <= min_y
        and mbr.max_y >= max_y
    )


class Region(ABC):
    """A planar point set described by a membership predicate and an MBR."""

    @property
    @abstractmethod
    def mbr(self) -> Mbr | None:
        """A bounding box of the region, or ``None`` if certainly empty.

        The MBR must be *sound*: every contained point lies within it.  It
        need not be tight.
        """

    @abstractmethod
    def contains(self, point: Point) -> bool:
        """Exact membership test for a single point."""

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        """Vectorised membership test for arrays of coordinates.

        The default implementation loops over :meth:`contains`; concrete
        shapes override it with NumPy arithmetic.
        """
        return np.fromiter(
            (self.contains(Point(float(x), float(y))) for x, y in zip(xs, ys)),
            dtype=bool,
            count=len(xs),
        )

    def is_empty(self) -> bool:
        """Whether the region is *known* to be empty (conservative)."""
        return self.mbr is None

    # ------------------------------------------------------------------
    # Lowering for batched quadrature
    # ------------------------------------------------------------------

    #: Set by :meth:`program`; composites keep it in a slot.
    _program: Program

    def program(self) -> Program:
        """:meth:`lower`, ordered for evaluation, built once and kept."""
        try:
            return self._program
        except AttributeError:
            program = program_of(self.lower())
            # object.__setattr__ also reaches frozen dataclass shapes.
            object.__setattr__(self, "_program", program)
            return program

    def lower(self) -> Dnf:
        """The region as conjunctions of literals.

        Decides every point exactly as :meth:`contains_many` does on a
        batch (see :mod:`repro.geometry.program`).  Shapes the lowering
        does not know stay one opaque literal.
        """
        return ((opaque(self),),)

    # ------------------------------------------------------------------
    # Boolean composition
    # ------------------------------------------------------------------

    def __and__(self, other: "Region") -> "Region":
        return RegionIntersection((self, other))

    def __or__(self, other: "Region") -> "Region":
        return RegionUnion((self, other))

    def __sub__(self, other: "Region") -> "Region":
        return RegionDifference(self, other)


class EmptyRegion(Region):
    """The empty point set."""

    @property
    def mbr(self) -> Mbr | None:
        return None

    def contains(self, point: Point) -> bool:
        return False

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        return np.zeros(len(xs), dtype=bool)

    def lower(self) -> Dnf:
        return ()

    def __repr__(self) -> str:
        return "EmptyRegion()"


class RegionIntersection(Region):
    """Intersection of two or more regions."""

    __slots__ = ("parts", "_mbr", "_program")

    def __init__(self, parts: Sequence[Region]):
        if not parts:
            raise ValueError("intersection of zero regions is undefined")
        self.parts: tuple[Region, ...] = tuple(parts)
        self._mbr = self._compute_mbr()

    def _compute_mbr(self) -> Mbr | None:
        result: Mbr | None = None
        for part in self.parts:
            part_mbr = part.mbr
            if part_mbr is None:
                return None
            result = part_mbr if result is None else result.intersection(part_mbr)
            if result is None:
                return None
        return result

    @property
    def mbr(self) -> Mbr | None:
        return self._mbr

    def contains(self, point: Point) -> bool:
        if self._mbr is None:
            return False
        return all(part.contains(point) for part in self.parts)

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        if self._mbr is None or len(xs) == 0:
            return np.zeros(len(xs), dtype=bool)
        # Reject whole batches against the intersection MBR with scalar
        # compares; a part is only evaluated while some point is alive.
        bounds = _batch_bounds(xs, ys)
        if _mbr_disjoint_from_bounds(self._mbr, bounds):
            return np.zeros(len(xs), dtype=bool)
        if _mbr_covers_bounds(self._mbr, bounds):
            alive = np.ones(len(xs), dtype=bool)
        else:
            alive = _inside_mbr_mask(self._mbr, xs, ys)
        for part in self.parts:
            if not alive.any():
                break
            alive &= part.contains_many(xs, ys)
        return alive

    def lower(self) -> Dnf:
        if self._mbr is None:
            return ()
        dnf = conjoin([(box(self._mbr),)] + [part.lower() for part in self.parts])
        return ((opaque(self),),) if dnf is None else dnf

    def __repr__(self) -> str:
        return f"RegionIntersection({list(self.parts)!r})"


class RegionUnion(Region):
    """Union of zero or more regions (zero parts gives the empty region)."""

    __slots__ = ("parts", "_mbr", "_part_boxes", "_program")

    def __init__(self, parts: Sequence[Region]):
        self.parts: tuple[Region, ...] = tuple(
            part for part in parts if part.mbr is not None
        )
        mbrs = [part.mbr for part in self.parts if part.mbr is not None]
        self._mbr = Mbr.union_all(mbrs) if mbrs else None
        # Part bounding boxes as one array for vectorised batch rejection:
        # interval uncertainty regions union dozens of episodes of which
        # only a few are near any given POI.
        self._part_boxes = (
            np.array(
                [[m.min_x, m.max_x, m.min_y, m.max_y] for m in mbrs], dtype=float
            )
            if mbrs
            else np.zeros((0, 4), dtype=float)
        )

    @property
    def mbr(self) -> Mbr | None:
        return self._mbr

    def contains(self, point: Point) -> bool:
        return any(part.contains(point) for part in self.parts)

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        result = np.zeros(len(xs), dtype=bool)
        if len(xs) == 0 or self._mbr is None:
            return result
        min_x, max_x, min_y, max_y = _batch_bounds(xs, ys)
        boxes = self._part_boxes
        overlapping = np.flatnonzero(
            (boxes[:, 0] <= max_x)
            & (boxes[:, 1] >= min_x)
            & (boxes[:, 2] <= max_y)
            & (boxes[:, 3] >= min_y)
        )
        bounds = (min_x, max_x, min_y, max_y)
        for part_index in overlapping:
            part = self.parts[part_index]
            part_mbr = part.mbr
            assert part_mbr is not None
            # The part decides the points not yet accepted that fall
            # inside its bounding box.
            candidates = ~result
            if not _mbr_covers_bounds(part_mbr, bounds):
                candidates &= _inside_mbr_mask(part_mbr, xs, ys)
            if not candidates.any():
                continue
            candidates &= part.contains_many(xs, ys)
            result |= candidates
        return result

    def lower(self) -> Dnf:
        dnf: Dnf = ()
        for part in self.parts:
            part_mbr = part.mbr
            assert part_mbr is not None
            if isinstance(part, RegionIntersection):
                # Its conjunctions already start with its own box, which is
                # this part's guard.
                dnf += part.lower()
                continue
            guarded = conjoin([(box(part_mbr),), part.lower()])
            dnf += ((*box(part_mbr), opaque(part)),) if guarded is None else guarded
        return dnf

    def __repr__(self) -> str:
        return f"RegionUnion({list(self.parts)!r})"


class RegionDifference(Region):
    """Points of ``base`` not in ``subtracted``."""

    __slots__ = ("base", "subtracted", "_program")

    def __init__(self, base: Region, subtracted: Region):
        self.base = base
        self.subtracted = subtracted

    @property
    def mbr(self) -> Mbr | None:
        # Subtraction can only shrink the region, so the base MBR is sound.
        return self.base.mbr

    def contains(self, point: Point) -> bool:
        return self.base.contains(point) and not self.subtracted.contains(point)

    def contains_many(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> "NDArray[np.bool_]":
        inside = self.base.contains_many(xs, ys)
        if inside.any():
            inside &= ~self.subtracted.contains_many(xs, ys)
        return inside

    def lower(self) -> Dnf:
        outside = negate(self.subtracted.lower())
        if outside is None:
            outside = ((negation(opaque(self.subtracted)),),)
        dnf = conjoin([self.base.lower(), outside])
        return ((opaque(self),),) if dnf is None else dnf

    def __repr__(self) -> str:
        return f"RegionDifference({self.base!r}, {self.subtracted!r})"


def intersect_all(parts: Sequence[Region]) -> Region:
    """Intersection of ``parts``; a single part is returned unchanged."""
    if not parts:
        raise ValueError("intersect_all needs at least one region")
    if len(parts) == 1:
        return parts[0]
    return RegionIntersection(parts)


def union_all(parts: Sequence[Region]) -> Region:
    """Union of ``parts``; empty input yields :class:`EmptyRegion`."""
    if not parts:
        return EmptyRegion()
    if len(parts) == 1:
        return parts[0]
    return RegionUnion(parts)
