"""Bounded LRU caching primitives shared by the evaluation layer.

The query stack memoizes two expensive artifacts — uncertainty-region
construction and presence quadrature — plus the per-POI sample grids of the
presence estimator.  All three use the same policy: a bounded
least-recently-used mapping whose capacity caps memory while keeping the
hot working set (the regions and POIs a monitor touches every tick)
resident.  A capacity of ``0`` disables a cache entirely, which the
correctness tests use to compare cached against uncached evaluation.

Presence values are cached in a :class:`RowCache`: one row (a small
``{column: value}`` dict) per key, bounded by the total number of values
and evicted row by row, so a reader can resolve a row once and then read
many columns of it without hashing the key again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["LruCache", "RowCache"]

V = TypeVar("V")


class LruCache(Generic[V]):
    """A bounded mapping evicting the least-recently-used entry.

    ``capacity <= 0`` disables storage: every ``get`` misses and ``put`` is
    a no-op, so callers can keep one code path for cached and uncached
    operation.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable, default: V | None = None) -> V | None:
        """The cached value (refreshed as most recently used), or default."""
        entries = self._entries
        if key not in entries:
            return default
        entries.move_to_end(key)
        return entries[key]

    def put(self, key: Hashable, value: V) -> None:
        """Insert/refresh an entry, evicting the LRU one when over capacity."""
        if self.capacity <= 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def get_or_build(self, key: Hashable, builder: Callable[[], V]) -> tuple[V, bool]:
        """``(value, was_hit)`` — building and storing the value on a miss."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return entries[key], True
        value = builder()
        self.put(key, value)
        return value, False

    def clear(self) -> None:
        self._entries.clear()


class RowCache(Generic[V]):
    """An LRU of rows, bounded by the total number of values they hold.

    Each key maps to a row ``{column: value}``.  :meth:`row` hands out the
    resident row itself, so a caller that reads many columns of one key
    hashes the key once; :meth:`put` adds one value.  When the values
    exceed ``capacity``, whole rows are evicted, least recently used
    first.  A row handed out earlier stays a valid (if no longer cached)
    mapping after its eviction: values are never changed in place, only
    added.  ``capacity <= 0`` disables storage.
    """

    __slots__ = ("capacity", "_rows", "_values")

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._rows: OrderedDict[Hashable, dict[Hashable, V]] = OrderedDict()
        self._values = 0

    def __len__(self) -> int:
        """The number of cached values (not rows)."""
        return self._values

    def row(self, key: Hashable) -> dict[Hashable, V] | None:
        """The resident row of ``key`` (refreshed as most recently used)."""
        rows = self._rows
        found = rows.get(key)
        if found is not None:
            rows.move_to_end(key)
        return found

    def put(self, key: Hashable, column: Hashable, value: V) -> None:
        """Store one value, evicting least-recently-used rows when over capacity."""
        if self.capacity <= 0:
            return
        rows = self._rows
        found = rows.get(key)
        if found is None:
            found = {}
            rows[key] = found
        else:
            rows.move_to_end(key)
        if column not in found:
            self._values += 1
        found[column] = value
        while self._values > self.capacity:
            _, evicted = rows.popitem(last=False)
            self._values -= len(evicted)

    def clear(self) -> None:
        self._rows.clear()
        self._values = 0
