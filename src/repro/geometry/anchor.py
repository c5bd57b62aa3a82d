"""Anchor vectors: per-sample values memoized on immutable sample batches.

Every primitive of an uncertainty region is anchored at a device centre.
Circles and rings compare the squared distance from their centre with a
radius; extended ellipses compare the distances from their two foci with a
path budget; the indoor topology constraints compare the walking distance
from a device centre with a budget.  Presence quadrature evaluates these
primitives on each POI's fixed sample grid, so the anchor→grid distance
vector is the same for every object, every instant and every ingest — only
the threshold it is compared against changes.

:class:`AnchorMemo` stores such vectors, and other values derived from a
batch alone (its bounds, its room assignment), keyed by
``(anchor, id(xs), id(ys))``.  One process-wide instance,
:data:`ANCHOR_MEMO`, is shared by every engine and thread:

* only **read-only** batches enter it (:func:`is_frozen`); the presence
  estimator freezes its grids and never makes them writable again, so an
  in-place write can never leave a stale entry behind, and writable
  batches are always computed afresh;
* entries hold the batch arrays themselves, so an ``id`` is never reused
  while its entry lives;
* it is bounded (LRU, :data:`ANCHOR_MEMO_CAPACITY` entries) and
  lock-guarded; values are computed outside the lock, so two threads may
  compute the same entry once each and store identical values;
* stored arrays are made read-only, so no caller can corrupt a shared
  vector.

A hit returns exactly what a fresh computation would: the value is a
deterministic function of the anchor and the batch, which keeps presences
bit-identical.  Under ``REPRO_CONTRACTS=1`` every hit is recomputed and
compared bitwise (:func:`~repro.analysis.contracts.check_anchor_vector`).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, TypeVar, cast

import numpy as np

from ..analysis.contracts import check_anchor_vector, contracts_enabled
from .point import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = [
    "ANCHOR_MEMO",
    "ANCHOR_MEMO_CAPACITY",
    "AnchorMemo",
    "distances",
    "is_frozen",
    "squared_distances",
]

T = TypeVar("T")

#: Entries kept by :data:`ANCHOR_MEMO`.  A median POI grid has 640 samples,
#: so 512 float vectors are about 2.6 MB.
ANCHOR_MEMO_CAPACITY = 512


def is_frozen(array: object) -> bool:
    """Whether no write can reach ``array``'s data.

    True for a read-only ndarray that owns its data, or a read-only view
    whose every base down to the owner is read-only too.
    """
    current = array
    while isinstance(current, np.ndarray) and not current.flags.writeable:
        if current.base is None:
            return True
        current = current.base
    return False


def _freeze(value: object) -> None:
    """Make the arrays inside a stored value read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)


class AnchorMemo:
    """A bounded, thread-safe LRU of values derived from read-only batches."""

    def __init__(self) -> None:
        self.capacity = ANCHOR_MEMO_CAPACITY
        self._entries: OrderedDict[
            tuple[Hashable, int, int],
            tuple["NDArray[np.float64]", "NDArray[np.float64]", object],
        ] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _reset_after_fork(self) -> None:
        """Give a forked child a fresh lock (the parent's may be held)."""
        self._lock = threading.Lock()

    def get(
        self,
        anchor: Hashable,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
        compute: Callable[[], T],
    ) -> T:
        """``compute()``, memoized per ``(anchor, xs, ys)`` for read-only batches.

        ``anchor`` names what ``compute`` derives from the batch (for
        example the centre a distance is measured from); it must determine
        the result together with the batch.
        """
        if not (is_frozen(xs) and is_frozen(ys)):
            return compute()
        key = (anchor, id(xs), id(ys))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            cached = cast(T, entry[2])
            if contracts_enabled():
                check_anchor_vector(cached, compute(), key=anchor)
            return cached
        value = compute()
        _freeze(value)
        with self._lock:
            self._entries[key] = (xs, ys, value)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value


#: The process-wide memo every anchored primitive reads through.
ANCHOR_MEMO = AnchorMemo()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=ANCHOR_MEMO._reset_after_fork)


def squared_distances(
    center: Point, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
) -> "NDArray[np.float64]":
    """``|p - center|²`` for every sample ``p`` (memoized on read-only batches)."""
    cx, cy = center.x, center.y

    def compute() -> "NDArray[np.float64]":
        dx = xs - cx
        dy = ys - cy
        result: "NDArray[np.float64]" = dx * dx + dy * dy
        return result

    return ANCHOR_MEMO.get(("squared", cx, cy), xs, ys, compute)


def distances(
    center: Point, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
) -> "NDArray[np.float64]":
    """``|p - center|`` (``np.hypot``) for every sample (memoized on read-only batches)."""
    cx, cy = center.x, center.y

    def compute() -> "NDArray[np.float64]":
        result: "NDArray[np.float64]" = np.hypot(xs - cx, ys - cy)
        return result

    return ANCHOR_MEMO.get(("hypot", cx, cy), xs, ys, compute)
