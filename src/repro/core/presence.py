"""Object presence (paper, Definition 1).

The presence of object ``o`` in POI ``p`` is ``area(UR ∩ p) / area(p)`` —
the fraction of the POI covered by the object's uncertainty region, a value
in ``[0, 1]`` interpretable as the probability that ``o`` was in ``p``.

The estimator samples each POI polygon on a fixed grid once (cached, LRU
bounded) and evaluates region membership vectorised; determinism of the
grid guarantees that every query algorithm assigns identical presence to
identical (object, POI) pairs, so the iterative and join algorithms return
the same flows bit for bit.  An evicted-and-resampled POI regenerates the
exact same grid, so the bound never affects results, only memory.

Grids are made read-only when sampled and never made writable again.  That
lets the anchored primitives of an uncertainty region (rings, circles,
extended ellipses, indoor-distance constraints) reuse the distance from
their device centre to the grid across objects, instants and queries
(:mod:`repro.geometry.anchor`): quadrature then reduces to threshold
comparisons on cached vectors, with every sample decided exactly as a
fresh computation would decide it.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import check_presence
from ..geometry import DEFAULT_RESOLUTION, Region, polygon_grid_points
from ..indoor.poi import Poi
from .caching import LruCache

__all__ = ["PresenceEstimator"]

#: Default cap on cached per-POI sample grids.  At the default resolution a
#: grid is a few hundred KB; 1024 grids keep realistic POI universes fully
#: resident while bounding worst-case memory.
DEFAULT_MAX_CACHED_POIS = 1024


class PresenceEstimator:
    """Grid-quadrature presence with bounded per-POI sample caching."""

    def __init__(
        self,
        resolution: int = DEFAULT_RESOLUTION,
        max_cached_pois: int = DEFAULT_MAX_CACHED_POIS,
    ):
        if resolution < 1:
            raise ValueError("resolution must be positive")
        if max_cached_pois < 1:
            raise ValueError("max_cached_pois must be positive")
        self.resolution = resolution
        self._samples: LruCache[tuple[np.ndarray, np.ndarray]] = LruCache(
            max_cached_pois
        )

    @property
    def sample_cache_size(self) -> int:
        """How many POIs currently have cached sample grids."""
        return len(self._samples)

    def samples_of(self, poi: Poi) -> tuple[np.ndarray, np.ndarray]:
        """The POI's cached grid sample coordinates (read-only arrays)."""
        cached = self._samples.get(poi.poi_id)
        if cached is None:
            xs, ys, _ = polygon_grid_points(poi.polygon, self.resolution)
            xs.flags.writeable = False
            ys.flags.writeable = False
            cached = (xs, ys)
            self._samples.put(poi.poi_id, cached)
        return cached

    def presence(self, region: Region, poi: Poi) -> float:
        """``φ(o)`` — the fraction of ``poi`` covered by ``region``."""
        region_mbr = region.mbr
        if region_mbr is None or not region_mbr.intersects(poi.polygon.mbr):
            return 0.0
        xs, ys = self.samples_of(poi)
        inside = region.contains_many(xs, ys)
        return check_presence(
            float(inside.sum()) / float(len(xs)),
            where=f"presence in POI {poi.poi_id!r}",
        )
