"""A classic Guttman R-tree over 2D MBRs.

The paper indexes the indoor POIs with an R-tree ``R_P`` (Section 4.1).
This module provides the dynamic R-tree with quadratic node splitting plus
an STR bulk loader.

The join algorithms walk the tree structure explicitly (node by node), so
the node/entry types are part of the public API rather than hidden behind a
search method.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator, Self, Sequence

import numpy as np

from ..geometry import Mbr, mbr_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["RTree", "RTreeNode", "RTreeEntry"]

#: Turns a query box ``(min_x, min_y, max_x, max_y)`` into the values
#: ``(-min_x, -min_y, max_x, max_y)`` tested against an entry's limits
#: (see :meth:`RTree.entry_misses`).
_MISS_SIGNS = np.array([[-1.0], [-1.0], [1.0], [1.0]])


class RTreeEntry:
    """A slot in an R-tree node.

    Leaf entries carry an ``item`` (the indexed object); internal entries
    carry a ``child`` node.  Exactly one of the two is set.
    """

    __slots__ = ("mbr", "item", "child")

    def __init__(self, mbr: Mbr, item: Any = None, child: "RTreeNode | None" = None):
        if (item is None) == (child is None):
            raise ValueError("an entry holds either an item or a child node")
        self.mbr = mbr
        self.item = item
        self.child = child

    @property
    def is_leaf_entry(self) -> bool:
        return self.child is None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf_entry else "node"
        return f"RTreeEntry({kind}, {self.mbr!r})"


class RTreeNode:
    """An R-tree node: a list of entries, at one level of the tree."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, entries: list[RTreeEntry], is_leaf: bool):
        self.entries = entries
        self.is_leaf = is_leaf

    def mbr(self) -> Mbr:
        return Mbr.union_all(entry.mbr for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class RTree:
    """Dynamic R-tree with Guttman quadratic splits.

    Parameters
    ----------
    max_entries:
        Node fanout; nodes overflowing it are split.
    min_entries:
        Minimum fill after a split (defaults to ``max_entries // 2``).
    """

    def __init__(self, max_entries: int = 8, min_entries: int | None = None):
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(1, max_entries // 2)
        )
        if self.min_entries > self.max_entries // 2:
            raise ValueError("min_entries may not exceed max_entries // 2")
        self.root = RTreeNode([], is_leaf=True)
        self._size = 0
        self._height = 1
        self._boxes: tuple[NDArray[np.float64], dict[int, int]] | None = None
        self._limits: NDArray[np.float64] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, mbr: Mbr, item: Any) -> None:
        """Insert ``item`` with bounding box ``mbr``."""
        self._boxes = None
        self._limits = None
        entry = RTreeEntry(mbr, item=item)
        split = self._insert_entry(self.root, entry, level=self._height - 1)
        if split is not None:
            left, right = split
            self.root = RTreeNode(
                [
                    RTreeEntry(left.mbr(), child=left),
                    RTreeEntry(right.mbr(), child=right),
                ],
                is_leaf=False,
            )
            self._height += 1
        self._size += 1

    @classmethod
    def bulk_load(
        cls,
        items: Sequence[tuple[Mbr, Any]],
        max_entries: int = 8,
        min_entries: int | None = None,
    ) -> Self:
        """Build a packed tree with Sort-Tile-Recursive (STR) loading.

        Produces well-filled nodes and much better MBR quality than repeated
        inserts, which matters for the join algorithms' pruning power.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        if not items:
            return tree
        level = [RTreeEntry(mbr, item=item) for mbr, item in items]
        is_leaf = True
        height = 1
        while len(level) > tree.max_entries:
            level = tree._str_pack(level, is_leaf=is_leaf)
            is_leaf = False
            height += 1
        tree.root = RTreeNode(level, is_leaf=is_leaf)
        tree._size = len(items)
        tree._height = height
        return tree

    def _str_pack(
        self, entries: list[RTreeEntry], is_leaf: bool
    ) -> list[RTreeEntry]:
        """Pack ``entries`` into nodes, returning entries for the next level."""
        capacity = self.max_entries
        count = len(entries)
        node_count = math.ceil(count / capacity)
        slices = math.ceil(math.sqrt(node_count))
        entries = sorted(entries, key=lambda e: e.mbr.center.x)
        per_slice = math.ceil(count / slices)
        parents: list[RTreeEntry] = []
        for i in range(0, count, per_slice):
            vertical = sorted(
                entries[i : i + per_slice], key=lambda e: e.mbr.center.y
            )
            for j in range(0, len(vertical), capacity):
                node = RTreeNode(vertical[j : j + capacity], is_leaf=is_leaf)
                parents.append(RTreeEntry(node.mbr(), child=node))
        return parents

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(self, mbr: Mbr) -> list[Any]:
        """All items whose MBR intersects ``mbr``."""
        return [entry.item for entry in self.search_entries(mbr)]

    def search_entries(self, mbr: Mbr) -> list[RTreeEntry]:
        """All leaf entries whose MBR intersects ``mbr``."""
        results: list[RTreeEntry] = []
        if self._size == 0:
            return results
        stack = [self.root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if not entry.mbr.intersects(mbr):
                    continue
                if node.is_leaf:
                    results.append(entry)
                else:
                    assert entry.child is not None
                    stack.append(entry.child)
        return results

    def items(self) -> Iterator[Any]:
        """All indexed items, in no particular order."""
        for entry in self.leaf_entries():
            yield entry.item

    def leaf_entries(self) -> Iterator[RTreeEntry]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if node.is_leaf:
                    yield entry
                else:
                    assert entry.child is not None
                    stack.append(entry.child)

    def entry_boxes(self) -> tuple[NDArray[np.float64], dict[int, int]]:
        """Every entry's box as one array, and each entry's row in it.

        Returns ``(boxes, rows)``: an ``(E, 4)`` float64 array of
        ``(min_x, min_y, max_x, max_y)`` rows over all entries, internal
        and leaf, and ``{id(entry): row}``.  Built on first use and kept
        until the next :meth:`insert`, so a tree joined against many
        times (the POI tree ``R_P``) pays for it once.
        """
        if self._boxes is None:
            entries: list[RTreeEntry] = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                for entry in node.entries:
                    entries.append(entry)
                    if entry.child is not None:
                        stack.append(entry.child)
            self._boxes = (
                mbr_array(entry.mbr for entry in entries),
                {id(entry): row for row, entry in enumerate(entries)},
            )
        return self._boxes

    def entry_misses(self, boxes: NDArray[np.float64]) -> NDArray[np.bool_]:
        """Which entry boxes miss which query boxes, as one ``(E, M)`` array.

        ``boxes`` is an ``(M, 4)`` array of ``(min_x, min_y, max_x,
        max_y)`` rows; ``[i, j]`` is ``not entry.mbr.intersects(box j)``
        for the entry at row ``i`` of :meth:`entry_boxes`, on the same
        floats.  A query box becomes the values ``(-min_x, -min_y, max_x,
        max_y)`` and each entry is kept as the limits ``(-max_x, -max_y,
        min_x, min_y)``.  Negation is exact and reverses ``<`` exactly,
        so :meth:`Mbr.intersects`'s four miss tests become "value <
        limit": ``-box.min_x < -entry.max_x``, ``-box.min_y <
        -entry.max_y``, ``box.max_x < entry.min_x`` and ``box.max_y <
        entry.min_y``.  The limits are built once and dropped with
        :meth:`entry_boxes`.
        """
        if self._limits is None:
            entry_boxes, _ = self.entry_boxes()
            # Contiguous: the broadcast comparison against it runs several
            # times faster than against the transposed view.
            self._limits = np.ascontiguousarray(
                (entry_boxes.T[[2, 3, 0, 1]] * _MISS_SIGNS)[:, :, np.newaxis]
            )  # (4, E, 1)
        # Row-major (4, M) values, for the same reason as the limits.
        values = np.multiply(boxes.T, _MISS_SIGNS, order="C")
        return np.logical_or.reduce(
            np.less(values[:, np.newaxis, :], self._limits), axis=0
        )

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------

    def _insert_entry(
        self, node: RTreeNode, entry: RTreeEntry, level: int
    ) -> tuple[RTreeNode, RTreeNode] | None:
        """Recursive insert; returns the two halves if ``node`` split."""
        if node.is_leaf:
            node.entries.append(entry)
        else:
            chosen = self._choose_subtree(node, entry.mbr)
            assert chosen.child is not None
            split = self._insert_entry(chosen.child, entry, level - 1)
            chosen.mbr = chosen.mbr.union(entry.mbr)
            if split is not None:
                left, right = split
                node.entries.remove(chosen)
                node.entries.append(RTreeEntry(left.mbr(), child=left))
                node.entries.append(RTreeEntry(right.mbr(), child=right))
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    @staticmethod
    def _choose_subtree(node: RTreeNode, mbr: Mbr) -> RTreeEntry:
        """Guttman's least-enlargement heuristic (area as tie breaker)."""
        return min(
            node.entries,
            key=lambda entry: (entry.mbr.enlargement(mbr), entry.mbr.area()),
        )

    def _split(self, node: RTreeNode) -> tuple[RTreeNode, RTreeNode]:
        """Quadratic split of an overflowing node."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a].mbr
        mbr_b = entries[seed_b].mbr
        remaining = [
            entry for i, entry in enumerate(entries) if i not in (seed_a, seed_b)
        ]
        while remaining:
            # Force-assign when one group must absorb everything left to
            # reach the minimum fill.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            index, prefers_a = self._pick_next(remaining, mbr_a, mbr_b)
            entry = remaining.pop(index)
            if prefers_a:
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.mbr)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.mbr)
        return (
            RTreeNode(group_a, is_leaf=node.is_leaf),
            RTreeNode(group_b, is_leaf=node.is_leaf),
        )

    @staticmethod
    def _pick_seeds(entries: list[RTreeEntry]) -> tuple[int, int]:
        """The pair wasting the most area when grouped together."""
        worst_pair = (0, 1)
        worst_waste = -math.inf
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = entries[i].mbr.union(entries[j].mbr)
                waste = (
                    combined.area()
                    - entries[i].mbr.area()
                    - entries[j].mbr.area()
                )
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        return worst_pair

    @staticmethod
    def _pick_next(
        remaining: list[RTreeEntry], mbr_a: Mbr, mbr_b: Mbr
    ) -> tuple[int, bool]:
        """The entry with the strongest group preference, and the group."""
        best_index = 0
        best_difference = -math.inf
        prefers_a = True
        for i, entry in enumerate(remaining):
            growth_a = mbr_a.enlargement(entry.mbr)
            growth_b = mbr_b.enlargement(entry.mbr)
            difference = abs(growth_a - growth_b)
            if difference > best_difference:
                best_difference = difference
                best_index = i
                prefers_a = growth_a < growth_b
        return best_index, prefers_a
