"""Geometry engine: points, MBRs, shapes and composable regions.

This package provides every geometric primitive the paper's uncertainty
analysis needs — circles (detection ranges), rings (maximum-speed annuli),
extended ellipses (inter-detection regions), polygons (POI extents) — plus
boolean region composition and deterministic area quadrature.
"""

from .area import (
    AREA_EPSILON,
    DEFAULT_RESOLUTION,
    floats_equal,
    grid_points,
    intersection_fraction,
    near_zero,
    polygon_grid_points,
    region_area,
)
from .circle import Circle
from .ellipse import ExtendedEllipse
from .mbr import Mbr, mbr_array
from .point import EPSILON, Point
from .polygon import Polygon
from .region import (
    EmptyRegion,
    Region,
    RegionDifference,
    RegionIntersection,
    RegionUnion,
    intersect_all,
    union_all,
)
from .ring import Ring
from .segment import Segment

__all__ = [
    "AREA_EPSILON",
    "DEFAULT_RESOLUTION",
    "EPSILON",
    "Circle",
    "EmptyRegion",
    "ExtendedEllipse",
    "Mbr",
    "mbr_array",
    "Point",
    "Polygon",
    "Region",
    "RegionDifference",
    "RegionIntersection",
    "RegionUnion",
    "Ring",
    "Segment",
    "floats_equal",
    "grid_points",
    "intersect_all",
    "intersection_fraction",
    "near_zero",
    "polygon_grid_points",
    "region_area",
    "union_all",
]
