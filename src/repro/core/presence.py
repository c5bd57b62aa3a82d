"""Object presence (paper, Definition 1).

The presence of object ``o`` in POI ``p`` is ``area(UR ∩ p) / area(p)`` —
the fraction of the POI covered by the object's uncertainty region, a value
in ``[0, 1]`` interpretable as the probability that ``o`` was in ``p``.

The estimator samples each POI polygon on a fixed grid once (cached, LRU
bounded); determinism of the grid guarantees that every query algorithm
assigns identical presence to identical (object, POI) pairs, so the
iterative and join algorithms return the same flows bit for bit.  An
evicted-and-resampled POI regenerates the exact same grid, so the bound
never affects results, only memory.

Quadrature is batched per POI: :meth:`PresenceEstimator.presences`
evaluates every region asked about one POI (a join leaf's admitted
objects) in one pass over its grid.  Each region is lowered once into a
literal program (:mod:`repro.geometry.program`, kept on the region); per
batch the estimator

1. classifies each literal as true on the whole grid, false on the whole
   grid, or mixed, from the minimum and maximum of the rows it reads —
   exact, because every literal is monotone in its rows and IEEE rounding
   is monotone.  A row (squared or Euclidean distance from a device
   centre, indoor walking distance, a sample coordinate) is computed the
   first time a literal reaches it, and the grid keeps its range;
2. evaluates only the mixed literals of undecided conjunctions
   elementwise, then reduces them per conjunction
   (``logical_and.reduceat``) and per region (``logical_or.reduceat``).

Each sample is decided by the same floating-point expression as the
region's ``contains_many``, so counts (and presences, ``count / len(xs)``)
equal the reference evaluation exactly; under ``REPRO_CONTRACTS=1`` every
batched count is recomputed with ``contains_many`` and compared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from ..contracts import check_presence, check_quadrature, contracts_enabled
from ..geometry import DEFAULT_RESOLUTION, Region, polygon_grid_points
from ..geometry.program import X_ROW, Y_ROW, PackedLiteral, Program
from ..indoor.distance import IndoorDistanceOracle, PointDistanceField, RoomGrid
from ..indoor.poi import Poi
from .caching import LruCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["PresenceEstimator", "SampleGrid"]

#: Default cap on cached per-POI sample grids.  At the default resolution a
#: grid is a few hundred KB; 1024 grids keep realistic POI universes fully
#: resident while bounding worst-case memory.
DEFAULT_MAX_CACHED_POIS = 1024


class SampleGrid:
    """A POI's read-only sample points and what depends on them alone.

    Holds the coordinates, the value range (minimum, maximum) of every
    distance row a batch has asked for — two floats per row key, see
    :mod:`repro.geometry.program` — and, per indoor distance oracle, the
    grid's :class:`~repro.indoor.distance.RoomGrid` (its room and the
    door→sample distances).  Distance rows themselves are computed per
    batch and dropped with it.
    """

    __slots__ = ("xs", "ys", "samples", "ranges", "_rooms")

    def __init__(self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"):
        xs.flags.writeable = False
        ys.flags.writeable = False
        self.xs = xs
        self.ys = ys
        self.samples = (xs, ys)
        self.ranges: dict[Hashable, tuple[float, float]] = {
            X_ROW: (float(xs.min()), float(xs.max())),
            Y_ROW: (float(ys.min()), float(ys.max())),
        }
        self._rooms: dict[IndoorDistanceOracle, RoomGrid] = {}

    def __len__(self) -> int:
        return len(self.xs)

    def row(self, key: Hashable) -> "NDArray[np.float64]":
        """The distance row of ``key`` (see :mod:`repro.geometry.program`)."""
        tag, source = key[0], key[1]  # type: ignore[index]
        xs, ys = self.xs, self.ys
        if tag == "sq":
            dx = xs - source
            dy = ys - key[2]  # type: ignore[index]
            squared: "NDArray[np.float64]" = dx * dx + dy * dy
            return squared
        if tag == "eu":
            euclidean: "NDArray[np.float64]" = np.hypot(
                xs - source, ys - key[2]  # type: ignore[index]
            )
            return euclidean
        field = PointDistanceField.from_token(source)
        rooms = self._rooms.get(field.oracle)
        if rooms is None:
            rooms = self._rooms[field.oracle] = RoomGrid(field.oracle, xs, ys)
        return rooms.row(field)


def count_inside(grid: SampleGrid, programs: Sequence[Program]) -> list[int]:
    """How many of ``grid``'s samples each program's region contains."""
    ranges = grid.ranges
    rows: dict[Hashable, "NDArray[np.float64]"] = {X_ROW: grid.xs, Y_ROW: grid.ys}

    def first_range(key: Hashable) -> tuple[float, float]:
        row = rows[key] = grid.row(key)
        found = ranges[key] = (float(row.min()), float(row.max()))
        return found

    # Classify every literal on the whole grid from its rows' ranges: f is
    # monotone in its rows, so its range over the grid is f at the rows'
    # minima and maxima.  Collect the mixed literals of conjunctions that
    # are still open, per region that is still open.
    n = len(grid)
    counts = [0] * len(programs)
    mixed: list[PackedLiteral] = []
    conj_starts: list[int] = []
    region_starts: list[int] = []
    open_regions: list[int] = []
    for position, conjunctions in enumerate(programs):
        first_conj = len(conj_starts)
        region_true = False
        for conjunction in conjunctions:
            start = len(mixed)
            conj_false = False
            for literal in conjunction:
                (key_a, key_b, sub_a, floor_a, sub_b, floor_b,
                 lo, hi, span_lo, span_hi, negated, region) = literal
                a_range = ranges.get(key_a) or first_range(key_a)
                f_min = a_range[0] - sub_a
                f_max = a_range[1] - sub_a
                if f_min < floor_a:
                    f_min = floor_a
                if f_max < floor_a:
                    f_max = floor_a
                if key_b is not None:
                    b_range = ranges.get(key_b) or first_range(key_b)
                    g_min = b_range[0] - sub_b
                    g_max = b_range[1] - sub_b
                    f_min += g_min if g_min > floor_b else floor_b
                    f_max += g_max if g_max > floor_b else floor_b
                if region is not None:
                    mixed.append(literal)
                elif f_max < span_lo or f_min > span_hi:
                    if not negated:
                        conj_false = True
                        break
                elif f_min >= lo and f_max <= hi:
                    if negated:
                        conj_false = True
                        break
                else:
                    mixed.append(literal)
            if conj_false:
                del mixed[start:]
            elif len(mixed) == start:
                region_true = True
                break
            else:
                conj_starts.append(start)
        if region_true:
            if len(conj_starts) > first_conj:
                del mixed[conj_starts[first_conj]:]
                del conj_starts[first_conj:]
            counts[position] = n
        elif len(conj_starts) > first_conj:
            region_starts.append(first_conj)
            open_regions.append(position)
    if not mixed:
        return counts

    # Evaluate the mixed literals elementwise, then AND them per open
    # conjunction and OR the conjunctions per open region.
    for key_a, key_b, *_ in mixed:
        if key_a not in rows:
            rows[key_a] = grid.row(key_a)
        if key_b is not None and key_b not in rows:
            rows[key_b] = grid.row(key_b)
    params = np.array([literal[2:8] for literal in mixed])
    f = np.maximum(
        np.array([rows[literal[0]] for literal in mixed]) - params[:, 0:1],
        params[:, 1:2],
    )
    pairs = [slot for slot, literal in enumerate(mixed) if literal[1] is not None]
    if pairs:
        second = np.array([rows[mixed[slot][1]] for slot in pairs])
        f[pairs] += np.maximum(second - params[pairs, 2:3], params[pairs, 3:4])
    inside = (f >= params[:, 4:5]) & (f <= params[:, 5:6])
    for slot, (*_, negated, region) in enumerate(mixed):
        if region is not None:
            inside[slot] = region.contains_many(grid.xs, grid.ys)
        if negated:
            inside[slot] = ~inside[slot]
    if len(conj_starts) < len(mixed):
        inside = np.logical_and.reduceat(inside, conj_starts, axis=0)
    if len(region_starts) < len(conj_starts):
        inside = np.logical_or.reduceat(inside, region_starts, axis=0)
    for position, count in zip(open_regions, np.count_nonzero(inside, axis=1).tolist()):
        counts[position] = count
    return counts


class PresenceEstimator:
    """Batched grid-quadrature presence with bounded per-POI grid caching."""

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
        self._grids: LruCache[SampleGrid] = LruCache(max_cached_pois)

    @property
    def sample_cache_size(self) -> int:
        """How many POIs currently have cached sample grids."""
        return len(self._grids)

    def grid_of(self, poi: Poi) -> SampleGrid:
        """The POI's cached sample grid."""
        grid = self._grids.get(poi.poi_id)
        if grid is None:
            xs, ys, _ = polygon_grid_points(poi.polygon, self.resolution)
            grid = SampleGrid(xs, ys)
            self._grids.put(poi.poi_id, grid)
        return grid

    def samples_of(self, poi: Poi) -> tuple[np.ndarray, np.ndarray]:
        """The POI's cached grid sample coordinates (read-only arrays)."""
        return self.grid_of(poi).samples

    def presences(self, poi: Poi, regions: Sequence[Region]) -> list[float]:
        """``φ(o)`` of every region in ``poi``, evaluated in one batch."""
        values = [0.0] * len(regions)
        poi_mbr = poi.polygon.mbr
        slots: list[int] = []
        programs: list[Program] = []
        for slot, region in enumerate(regions):
            region_mbr = region.mbr
            if region_mbr is None or not region_mbr.intersects(poi_mbr):
                continue
            program = region.program()
            if program:
                slots.append(slot)
                programs.append(program)
        if not programs:
            return values
        grid = self.grid_of(poi)
        counts = count_inside(grid, programs)
        n = float(len(grid))
        where = f"presence in POI {poi.poi_id!r}"
        checking = contracts_enabled()
        for slot, count in zip(slots, counts):
            if checking:
                reference = regions[slot].contains_many(grid.xs.copy(), grid.ys.copy())
                check_quadrature(count, int(reference.sum()), where=where)
            values[slot] = check_presence(float(count) / n, where=where)
        return values

    def presence(self, region: Region, poi: Poi) -> float:
        """``φ(o)`` — the fraction of ``poi`` covered by ``region``."""
        return self.presences(poi, [region])[0]

