"""Unit and property tests for the R-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Mbr, Point
from repro.index import RTree


def random_box(rng: random.Random, span: float = 100.0) -> Mbr:
    x = rng.uniform(0, span)
    y = rng.uniform(0, span)
    return Mbr(x, y, x + rng.uniform(0.1, 10.0), y + rng.uniform(0.1, 10.0))


def brute_force(items, probe):
    return {name for box, name in items if box.intersects(probe)}


class TestConstruction:
    def test_rejects_tiny_fanout(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)
        with pytest.raises(ValueError):
            RTree.bulk_load([(Mbr(0, 0, 1, 1), "a")], max_entries=1)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.search(Mbr(0, 0, 100, 100)) == []
        assert len(RTree.bulk_load([])) == 0

    def test_height_grows_with_inserts(self):
        # Height grows with the number of bulk-loaded items.
        heights = [
            RTree.bulk_load(
                [(Mbr(i, i, i + 1, i + 1), i) for i in range(count)], max_entries=4
            ).height
            for count in (4, 5, 17, 100)
        ]
        assert heights == [1, 2, 3, 4]


class TestSearchCorrectness:
    @pytest.mark.parametrize("builder", ["bulk"])
    @pytest.mark.parametrize("count", [0, 1, 5, 63, 200])
    def test_matches_brute_force(self, builder, count):
        rng = random.Random(count)
        items = [(random_box(rng), f"item{i}") for i in range(count)]
        tree = RTree.bulk_load(items, max_entries=6)
        assert len(tree) == count
        for _ in range(25):
            probe = random_box(rng, span=110.0)
            assert set(tree.search(probe)) == brute_force(items, probe)

    def test_point_probe(self):
        tree = RTree.bulk_load(
            [(Mbr(0, 0, 10, 10), "a"), (Mbr(20, 20, 30, 30), "b")], max_entries=4
        )
        probe = Mbr.around(Point(5, 5), 0.0, 0.0)
        assert tree.search(probe) == ["a"]

    def test_items_returns_everything(self):
        items = [(Mbr(i, 0, i + 1, 1), i) for i in range(50)]
        tree = RTree.bulk_load(items, max_entries=4)
        assert sorted(tree.items()) == list(range(50))


class TestStructuralInvariants:
    def _check_node(self, tree, node, is_root=True):
        if not is_root:
            assert len(node.entries) <= tree.max_entries
        for entry in node.entries:
            if node.is_leaf:
                assert entry.is_leaf_entry
            else:
                assert not entry.is_leaf_entry
                child_box = entry.child.mbr()
                # Parent entry MBR covers the child's actual extent.
                assert entry.mbr.contains_mbr(child_box)
                self._check_node(tree, entry.child, is_root=False)

    @pytest.mark.parametrize("builder", ["bulk"])
    def test_mbr_containment_invariant(self, builder):
        rng = random.Random(9)
        items = [(random_box(rng), i) for i in range(150)]
        tree = RTree.bulk_load(items, max_entries=5)
        self._check_node(tree, tree.root)

    def test_bulk_load_leaves_at_same_depth(self):
        items = [(Mbr(i, 0, i + 1, 1), i) for i in range(100)]
        tree = RTree.bulk_load(items, max_entries=4)

        depths = set()

        def walk(node, depth):
            if node.is_leaf:
                depths.add(depth)
            else:
                for entry in node.entries:
                    walk(entry.child, depth + 1)

        walk(tree.root, 0)
        assert len(depths) == 1

    def test_str_packing_is_pinned(self):
        # The join's heap order follows node membership and entry order,
        # so a change to the STR packing must show up here first.
        rng = random.Random(2016)
        items = [(random_box(rng), i) for i in range(40)]
        tree = RTree.bulk_load(items, max_entries=4)

        sizes, nodes = [], [tree.root]
        while nodes:
            sizes.append([len(node) for node in nodes])
            nodes = [e.child for node in nodes for e in node.entries if e.child]

        def leaf_order(node):
            order = []
            for entry in node.entries:
                order += [entry.item] if entry.child is None else leaf_order(entry.child)
            return order

        assert tree.height == 3
        assert sizes == [[4], [4, 2, 4, 2], [4, 4, 4, 4, 2, 2, 4, 4, 4, 4, 2, 2]]
        assert leaf_order(tree.root) == [
            2, 3, 21, 37, 20, 28, 4, 25, 8, 29, 15, 19, 14, 24, 7, 1, 11, 36, 12, 22,
            30, 6, 23, 9, 38, 5, 35, 31, 34, 18, 0, 27, 10, 39, 32, 17, 13, 16, 26, 33,
        ]

    def test_entry_validation(self):
        from repro.index import RTreeEntry

        with pytest.raises(ValueError):
            RTreeEntry(Mbr(0, 0, 1, 1))  # neither item nor child


@st.composite
def item_sets(draw):
    count = draw(st.integers(min_value=0, max_value=60))
    items = []
    for i in range(count):
        x = draw(st.floats(min_value=0, max_value=100))
        y = draw(st.floats(min_value=0, max_value=100))
        w = draw(st.floats(min_value=0.0, max_value=10.0))
        h = draw(st.floats(min_value=0.0, max_value=10.0))
        items.append((Mbr(x, y, x + w, y + h), i))
    return items


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(item_sets(), st.integers(min_value=0, max_value=1000))
    def test_search_equals_brute_force(self, items, seed):
        rng = random.Random(seed)
        tree = RTree.bulk_load(items, max_entries=4)
        probe = random_box(rng)
        assert set(tree.search(probe)) == brute_force(items, probe)

    @settings(max_examples=30, deadline=None)
    @given(item_sets())
    def test_full_probe_finds_everything(self, items):
        tree = RTree.bulk_load(items, max_entries=4)
        probe = Mbr(-1, -1, 200, 200)
        assert sorted(tree.search(probe)) == sorted(i for _, i in items)
