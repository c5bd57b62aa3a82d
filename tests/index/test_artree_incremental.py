# repro: allow-file(seam): this file tests the AR-tree and live-table mutators themselves
"""Incremental AR-tree maintenance: delta buffer, compaction, open tails.

The LSM-style invariant under test: an AR-tree grown record by record
through ``append_record``/``patch_tail`` — across any number of automatic
or explicit compactions — answers ``point_query``/``range_query``/
``entries_for`` identically to a tree bulk-loaded from the final table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import ARTree
from repro.tracking import LiveTrackingTable, ObjectTrackingTable, TrackingRecord


def rec(record_id, object_id, device_id, t_s, t_e):
    return TrackingRecord(record_id, object_id, device_id, t_s, t_e)


def entry_ids(entries):
    return [(e.t1, e.t2, e.record.record_id) for e in entries]


def assert_equivalent(incremental, bulk, times, windows, object_ids):
    for t in times:
        assert entry_ids(incremental.point_query(t)) == entry_ids(
            bulk.point_query(t)
        ), f"point_query({t})"
    for t_start, t_end in windows:
        assert entry_ids(incremental.range_query(t_start, t_end)) == entry_ids(
            bulk.range_query(t_start, t_end)
        ), f"range_query({t_start}, {t_end})"
    for object_id in object_ids:
        assert entry_ids(incremental.entries_for(object_id)) == entry_ids(
            bulk.entries_for(object_id)
        ), f"entries_for({object_id})"


def grow(records, *, fanout=4, delta_threshold=3):
    """Append every record into a fresh tree, returning (tree, table)."""
    table = LiveTrackingTable()
    tree = ARTree(fanout=fanout, delta_threshold=delta_threshold)
    for record in records:
        predecessor = table.last_record(record.object_id)
        table.append(record)
        tree.append_record(record, predecessor)
    return tree, table


STREAM = [
    rec(0, "o1", "d1", 10.0, 20.0),
    rec(1, "o2", "d1", 5.0, 8.0),
    rec(2, "o1", "d2", 30.0, 40.0),
    rec(3, "o2", "d4", 50.0, 70.0),
    rec(4, "o1", "d3", 55.0, 60.0),
    rec(5, "o3", "d2", 12.0, 18.0),
    rec(6, "o3", "d1", 22.0, 31.0),
]

PROBE_TIMES = [0.0, 5.0, 7.5, 10.0, 20.0, 25.0, 31.0, 50.5, 60.0, 70.0, 99.0]
PROBE_WINDOWS = [(0.0, 100.0), (6.0, 6.5), (19.0, 31.0), (55.0, 56.0), (90.0, 95.0)]


class TestIncrementalAppend:
    def test_matches_bulk_load(self):
        tree, table = grow(STREAM)
        bulk = ARTree.build(table.freeze(), fanout=4)
        assert len(tree) == len(bulk) == len(STREAM)
        assert_equivalent(tree, bulk, PROBE_TIMES, PROBE_WINDOWS, ["o1", "o2", "o3"])

    def test_auto_compaction_triggered(self):
        tree, _ = grow(STREAM, delta_threshold=2)
        assert tree.compactions >= 1
        assert tree.delta_size <= 2

    def test_no_compaction_below_threshold(self):
        tree, _ = grow(STREAM, delta_threshold=100)
        assert tree.compactions == 0
        assert tree.delta_size == len(STREAM)

    def test_explicit_compact_preserves_queries(self):
        tree, table = grow(STREAM, delta_threshold=100)
        tree.compact()
        assert tree.delta_size == 0
        bulk = ARTree.build(table.freeze(), fanout=4)
        assert_equivalent(tree, bulk, PROBE_TIMES, PROBE_WINDOWS, ["o1", "o2", "o3"])

    def test_append_closes_previous_augmented_tail(self):
        tree, _ = grow(STREAM[:1])
        (only,) = tree.entries_for("o1")
        assert (only.t1, only.t2) == (10.0, 20.0)
        tree.append_record(STREAM[2], STREAM[0])
        first, second = tree.entries_for("o1")
        assert (second.t1, second.t2) == (20.0, 40.0)

    def test_rejects_wrong_predecessor(self):
        tree, table = grow(STREAM)
        with pytest.raises(ValueError, match="predecessor"):
            tree.append_record(rec(9, "o1", "d1", 80.0, 90.0), STREAM[0])

    def test_rejects_overlap_with_predecessor(self):
        tree, table = grow(STREAM)
        with pytest.raises(ValueError, match="overlaps"):
            tree.append_record(rec(9, "o1", "d1", 58.0, 90.0), STREAM[4])


class TestOpenTails:
    def test_patch_advances_and_closes(self):
        tree, table = grow(STREAM, delta_threshold=2)
        opened = rec(9, "o1", "d4", 80.0, 82.0)
        table.append(opened, open=True)
        tree.append_record(opened, STREAM[4], open=True)

        extended = table.extend_episode("o1", 88.0)
        tree.patch_tail(extended, open=True)
        tail = tree.entries_for("o1")[-1]
        assert (tail.t1, tail.t2) == (60.0, 88.0)

        closed = table.close_episode("o1", 90.0)
        tree.patch_tail(closed, open=False)
        bulk = ARTree.build(table.freeze(), fanout=4)
        assert_equivalent(
            tree, bulk, PROBE_TIMES + [85.0, 90.0], PROBE_WINDOWS, ["o1", "o2", "o3"]
        )

    def test_open_tail_survives_compaction(self):
        tree, table = grow(STREAM, delta_threshold=100)
        opened = rec(9, "o2", "d2", 80.0, 81.0)
        table.append(opened, open=True)
        tree.append_record(opened, STREAM[3], open=True)
        tree.compact()
        # The open entry is pinned in the delta, still patchable.
        assert tree.delta_size == 1
        extended = table.extend_episode("o2", 95.0)
        tree.patch_tail(extended, open=True)
        assert tree.entries_for("o2")[-1].t2 == 95.0

    def test_append_while_open_rejected(self):
        tree, table = grow(STREAM)
        opened = rec(9, "o1", "d4", 80.0, 82.0)
        table.append(opened, open=True)
        tree.append_record(opened, STREAM[4], open=True)
        with pytest.raises(ValueError, match="open episode"):
            tree.append_record(rec(10, "o1", "d1", 90.0, 91.0), opened)

    def test_patch_without_open_episode_rejected(self):
        tree, _ = grow(STREAM)
        with pytest.raises(ValueError, match="no open episode"):
            tree.patch_tail(rec(4, "o1", "d3", 55.0, 61.0), open=False)

    def test_patch_backwards_rejected(self):
        tree, table = grow(STREAM)
        opened = rec(9, "o1", "d4", 80.0, 85.0)
        table.append(opened, open=True)
        tree.append_record(opened, STREAM[4], open=True)
        with pytest.raises(ValueError, match="backwards"):
            tree.patch_tail(rec(9, "o1", "d4", 80.0, 83.0), open=False)


# ----------------------------------------------------------------------
# Property: incremental ≡ bulk for arbitrary valid streams
# ----------------------------------------------------------------------

OBJECTS = ("a", "b", "c")
DEVICES = ("d1", "d2", "d3")


@st.composite
def record_streams(draw):
    """A valid interleaved stream: per-object episodes in time order."""
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OBJECTS),
                st.sampled_from(DEVICES),
                st.floats(0.125, 8.0),  # gap to previous episode
                st.floats(0.0, 16.0),  # episode duration
                st.booleans(),  # leave open (if last for the object)?
            ),
            min_size=1,
            max_size=24,
        )
    )
    clock = {name: 0.0 for name in OBJECTS}
    records, open_flags = [], []
    for record_id, (obj, dev, gap, duration, leave_open) in enumerate(steps):
        t_s = clock[obj] + gap
        t_e = t_s + duration
        clock[obj] = t_e
        records.append(rec(record_id, obj, dev, t_s, t_e))
        open_flags.append(leave_open)
    return records, open_flags


@given(
    stream=record_streams(),
    fanout=st.integers(2, 8),
    delta_threshold=st.integers(1, 12),
    extend_by=st.floats(0.0, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_incremental_equals_bulk_load(stream, fanout, delta_threshold, extend_by):
    records, open_flags = stream
    table = LiveTrackingTable()
    tree = ARTree(fanout=fanout, delta_threshold=delta_threshold)
    last_index = {}
    for i, record in enumerate(records):
        last_index[record.object_id] = i
    for i, record in enumerate(records):
        predecessor = table.last_record(record.object_id)
        # Only an object's final record may stay open (no successor follows).
        leave_open = open_flags[i] and last_index[record.object_id] == i
        table.append(record, open=leave_open)
        tree.append_record(record, predecessor, open=leave_open)
    for object_id in sorted(table.open_object_ids):
        current = table.open_record(object_id)
        extended = table.extend_episode(object_id, current.t_e + extend_by)
        tree.patch_tail(extended, open=True)
        closed = table.close_episode(object_id)
        tree.patch_tail(closed, open=False)

    bulk = ARTree.build(table.freeze(), fanout=fanout)
    t_lo, t_hi = table.time_span()
    probes = [t_lo - 1.0, t_lo, (t_lo + t_hi) / 2, t_hi, t_hi + 1.0] + [
        r.t_s for r in records[:8]
    ] + [r.t_e for r in records[:8]]
    windows = [(t_lo, t_hi), (t_lo - 1.0, t_lo + 1.0), ((t_lo + t_hi) / 2, t_hi)]
    assert len(tree) == len(bulk) == len(records)
    assert_equivalent(tree, bulk, probes, windows, OBJECTS)
