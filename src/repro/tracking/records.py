"""Symbolic indoor tracking data types.

Raw position readings are reported as ``(objectID, deviceID, t)`` — object
``objectID`` was seen by proximity detection device ``deviceID`` at time
``t``.  Consecutive raw readings by the same device are merged into
*tracking records* ``(ID, objectID, deviceID, t_s, t_e)`` meaning the
object was continuously seen from ``t_s`` to ``t_e`` (paper, Section 2.1).

Times are floats in seconds on an arbitrary epoch; identifiers are opaque
strings or ints as the application prefers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

__all__ = ["ObjectId", "DeviceId", "RawReading", "TrackingRecord"]

ObjectId = Hashable
DeviceId = Hashable


@dataclass(frozen=True, slots=True)
class RawReading:
    """A raw proximity detection: ``deviceID`` saw ``objectID`` at ``t``."""

    object_id: ObjectId
    device_id: DeviceId
    t: float


@dataclass(frozen=True, slots=True)
class TrackingRecord:
    """A merged detection episode: continuous sighting from ``t_s`` to ``t_e``.

    This is one row of the Object Tracking Table (OTT, paper Table 2).
    ``record_id`` is a table-unique identifier.
    """

    record_id: int
    object_id: ObjectId
    device_id: DeviceId
    t_s: float
    t_e: float

    def __post_init__(self) -> None:
        # One chained test on the hot path; NaN fails every comparison.
        if not (-math.inf < self.t_s <= self.t_e < math.inf):
            if not (math.isfinite(self.t_s) and math.isfinite(self.t_e)):
                raise ValueError(
                    f"record {self.record_id}: times must be finite, "
                    f"got t_s={self.t_s!r}, t_e={self.t_e!r}"
                )
            raise ValueError(
                f"record {self.record_id}: t_e ({self.t_e}) precedes t_s ({self.t_s})"
            )

    @property
    def duration(self) -> float:
        """The episode's length in seconds (``t_e - t_s``)."""
        return self.t_e - self.t_s

    def covers(self, t: float) -> bool:
        """Whether the detection episode covers time ``t`` (closed interval)."""
        return self.t_s <= t <= self.t_e

    def overlaps(self, t_start: float, t_end: float) -> bool:
        """Whether the episode intersects the closed interval [t_start, t_end]."""
        return self.t_s <= t_end and t_start <= self.t_e
