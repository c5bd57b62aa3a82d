"""Deterministic grid quadrature for region areas.

Object presence (paper, Definition 1) is ``area(UR ∩ p) / area(p)`` — a
ratio of areas over the POI polygon ``p``.  Uncertainty regions are boolean
combinations of curved primitives, so instead of exact curved-boolean
geometry we measure areas by sampling a *fixed* grid of cell centers:

* the grid is a pure function of the sampled polygon/MBR and the requested
  resolution, so every algorithm (iterative, join, with or without pruning)
  computes exactly the same presence for the same object and POI, and
* the estimate converges to the true area as the resolution grows, which
  the test suite checks against analytic circle/ellipse/polygon areas.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..contracts import check_area, check_presence
from .mbr import Mbr
from .polygon import Polygon
from .region import Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = [
    "AREA_EPSILON",
    "DEFAULT_RESOLUTION",
    "floats_equal",
    "grid_points",
    "near_zero",
    "polygon_grid_points",
    "region_area",
    "intersection_fraction",
]

#: Default number of grid cells along the longer MBR side.  32 keeps the
#: presence error well under 2% for the region shapes produced by the
#: uncertainty analysis while staying fast (≤ 1024 point tests per POI).
DEFAULT_RESOLUTION = 32

#: Tolerance for area-like float comparisons.  Areas are in m² and the
#: library works at building scale (every real POI/cell area is ≫ 1e-6 m²),
#: so anything below this is quadrature round-off of a degenerate shape.
AREA_EPSILON = 1e-12


def near_zero(value: float, tolerance: float = AREA_EPSILON) -> bool:
    """Whether an area-like float is zero up to quadrature round-off.

    This is the shared epsilon helper the ``float-equality`` lint rule
    points to: never compare areas, presences or flows with ``==``.
    """
    return abs(value) <= tolerance


def floats_equal(a: float, b: float, tolerance: float = AREA_EPSILON) -> bool:
    """Tolerant equality for area-like floats (relative + absolute)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=tolerance)


def grid_points(
    mbr: Mbr, resolution: int = DEFAULT_RESOLUTION
) -> tuple["NDArray[np.float64]", "NDArray[np.float64]", float]:
    """Cell-center sample grid over ``mbr``.

    Returns ``(xs, ys, cell_area)`` where ``xs``/``ys`` are flat coordinate
    arrays of the cell centers.  The longer MBR side gets ``resolution``
    cells; the shorter side is scaled to keep cells square-ish, with at
    least one cell per axis.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    width = mbr.width
    height = mbr.height
    longest = max(width, height)
    if longest <= 0.0:
        # Degenerate MBR (a point or a line): sample its center only and
        # report zero area.
        center = mbr.center
        return (
            np.array([center.x], dtype=float),
            np.array([center.y], dtype=float),
            0.0,
        )
    nx = max(1, round(resolution * width / longest))
    ny = max(1, round(resolution * height / longest))
    step_x = width / nx
    step_y = height / ny
    xs = mbr.min_x + step_x * (np.arange(nx, dtype=float) + 0.5)
    ys = mbr.min_y + step_y * (np.arange(ny, dtype=float) + 0.5)
    grid_x, grid_y = np.meshgrid(xs, ys)
    return grid_x.ravel(), grid_y.ravel(), step_x * step_y


def polygon_grid_points(
    polygon: Polygon, resolution: int = DEFAULT_RESOLUTION
) -> tuple["NDArray[np.float64]", "NDArray[np.float64]", float]:
    """Grid cell centers inside ``polygon`` plus the cell area.

    When the grid is too coarse to land a single cell center inside the
    polygon (tiny or sliver-shaped POIs), the centroid is used as a single
    representative sample with the polygon's own area as weight.
    """
    xs, ys, cell_area = grid_points(polygon.mbr, resolution)
    inside = polygon.contains_many(xs, ys)
    if not inside.any():
        centroid = polygon.centroid()
        return (
            np.array([centroid.x], dtype=float),
            np.array([centroid.y], dtype=float),
            polygon.area(),
        )
    return xs[inside], ys[inside], cell_area


def region_area(region: Region, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Approximate area of ``region`` by grid quadrature over its MBR."""
    mbr = region.mbr
    if mbr is None:
        return 0.0
    xs, ys, cell_area = grid_points(mbr, resolution)
    if near_zero(cell_area):
        return 0.0
    inside = region.contains_many(xs, ys)
    return check_area(float(inside.sum()) * cell_area)


def intersection_fraction(
    region: Region, polygon: Polygon, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """Fraction of ``polygon``'s area covered by ``region``.

    This is object presence (Definition 1) when ``region`` is an uncertainty
    region and ``polygon`` a POI extent.  Computed as the fraction of the
    polygon's grid samples that fall inside the region, which equals the
    area ratio in the limit of fine grids.  Always in ``[0, 1]``.
    """
    mbr = region.mbr
    if mbr is None or not mbr.intersects(polygon.mbr):
        return 0.0
    xs, ys, _ = polygon_grid_points(polygon, resolution)
    inside = region.contains_many(xs, ys)
    return check_presence(
        float(inside.sum()) / float(len(xs)), where="intersection_fraction"
    )
