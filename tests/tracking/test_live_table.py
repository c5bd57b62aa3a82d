# repro: allow-file(seam): this file tests the live-table mutators themselves
"""LiveTrackingTable: append-time validation, open episodes, generations.

The live table is the streaming counterpart of the frozen
ObjectTrackingTable: the same read API, but every mutation is validated
immediately and stamped with a monotonic generation counter.
"""

import pytest

from repro.tracking import LiveTrackingTable, ObjectTrackingTable, TrackingRecord


def rec(record_id, object_id, device_id, t_s, t_e):
    return TrackingRecord(record_id, object_id, device_id, t_s, t_e)


@pytest.fixture()
def live():
    table = LiveTrackingTable()
    table.append(rec(0, "o1", "d1", 10.0, 20.0))
    table.append(rec(1, "o2", "d1", 12.0, 15.0))
    table.append(rec(2, "o1", "d2", 30.0, 40.0))
    return table


class TestAppendValidation:
    def test_in_order_appends_accepted(self, live):
        assert len(live) == 3
        assert live.records_for("o1") == [
            rec(0, "o1", "d1", 10.0, 20.0),
            rec(2, "o1", "d2", 30.0, 40.0),
        ]

    def test_rejects_overlapping_successor(self, live):
        with pytest.raises(ValueError, match="o1"):
            live.append(rec(3, "o1", "d3", 35.0, 50.0))

    def test_rejects_out_of_order_successor(self, live):
        with pytest.raises(ValueError):
            live.append(rec(3, "o1", "d3", 5.0, 8.0))

    def test_failed_append_leaves_table_unchanged(self, live):
        generation = live.generation
        with pytest.raises(ValueError):
            live.append(rec(3, "o1", "d3", 35.0, 50.0))
        assert len(live) == 3
        assert live.generation == generation

    def test_touching_intervals_accepted(self, live):
        live.append(rec(3, "o1", "d3", 40.0, 45.0))
        assert live.last_record("o1").record_id == 3

    def test_constructor_validates_stream(self):
        with pytest.raises(ValueError):
            LiveTrackingTable(
                [rec(0, "o1", "d1", 10.0, 20.0), rec(1, "o1", "d2", 15.0, 25.0)]
            )

    def test_always_queryable(self):
        table = LiveTrackingTable()
        assert len(table) == 0
        assert table.object_ids == []
        table.append(rec(0, "o1", "d1", 0.0, 1.0))
        assert table.record_covering("o1", 0.5).record_id == 0


class TestOpenEpisodes:
    def test_open_then_extend_then_close(self, live):
        live.append(rec(3, "o1", "d3", 50.0, 52.0), open=True)
        assert live.open_object_ids == frozenset({"o1"})
        assert live.open_record("o1").t_e == 52.0

        updated = live.extend_episode("o1", 58.0)
        assert updated.record_id == 3
        assert updated.t_e == 58.0
        assert live.last_record("o1") == updated

        closed = live.close_episode("o1", 60.0)
        assert closed.t_e == 60.0
        assert live.open_object_ids == frozenset()
        assert live.records_for("o1")[-1] == closed

    def test_close_at_current_extent(self, live):
        live.append(rec(3, "o2", "d2", 20.0, 23.0), open=True)
        closed = live.close_episode("o2")
        assert closed.t_e == 23.0

    def test_append_while_open_rejected(self, live):
        live.append(rec(3, "o1", "d3", 50.0, 52.0), open=True)
        with pytest.raises(ValueError, match="open episode"):
            live.append(rec(4, "o1", "d1", 60.0, 62.0))

    def test_extend_without_open_episode_rejected(self, live):
        with pytest.raises(ValueError, match="no open episode"):
            live.extend_episode("o1", 99.0)

    def test_extend_backwards_rejected(self, live):
        live.append(rec(3, "o1", "d3", 50.0, 55.0), open=True)
        with pytest.raises(ValueError, match="backwards"):
            live.extend_episode("o1", 53.0)

    def test_open_episode_visible_to_reads(self, live):
        live.append(rec(3, "o1", "d3", 50.0, 52.0), open=True)
        live.extend_episode("o1", 70.0)
        assert live.record_covering("o1", 65.0).record_id == 3
        assert live.time_span()[1] == 70.0


class TestGeneration:
    def test_every_mutation_bumps(self):
        table = LiveTrackingTable()
        assert table.generation == 0
        table.append(rec(0, "o1", "d1", 0.0, 1.0))
        table.append(rec(1, "o1", "d2", 2.0, 3.0), open=True)
        assert table.generation == 2
        table.extend_episode("o1", 5.0)
        assert table.generation == 3
        table.close_episode("o1")
        assert table.generation == 4

    def test_reads_do_not_bump(self, live):
        generation = live.generation
        live.records_for("o1")
        live.time_span()
        list(live)
        assert live.generation == generation


class TestFreeze:
    def test_freeze_returns_immutable_snapshot(self, live):
        frozen = live.freeze()
        assert isinstance(frozen, ObjectTrackingTable)
        assert list(frozen) == list(live)
        with pytest.raises(RuntimeError):
            frozen.append(rec(9, "o3", "d1", 0.0, 1.0))

    def test_snapshot_does_not_track_later_appends(self, live):
        frozen = live.freeze()
        live.append(rec(3, "o3", "d1", 0.0, 1.0))
        assert len(frozen) == 3
        assert len(live) == 4

    def test_open_episode_frozen_at_current_extent(self, live):
        live.append(rec(3, "o1", "d3", 50.0, 52.0), open=True)
        live.extend_episode("o1", 66.0)
        frozen = live.freeze()
        assert frozen.records_for("o1")[-1].t_e == 66.0

    def test_batch_parity(self, live):
        """Live reads match a frozen batch table over the same records."""
        frozen = live.freeze()
        for object_id in frozen.object_ids:
            assert live.records_for(object_id) == frozen.records_for(object_id)
            assert live.predecessor(object_id, 31.0) == frozen.predecessor(
                object_id, 31.0
            )
            assert live.successor(object_id, 11.0) == frozen.successor(
                object_id, 11.0
            )
        assert live.time_span() == frozen.time_span()
        assert live.records_overlapping("o1", 12.0, 31.0) == frozen.records_overlapping("o1", 12.0, 31.0)
