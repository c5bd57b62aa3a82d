"""Tests for continuous top-k monitoring."""

import math

import pytest

from repro.core.monitor import (
    SlidingIntervalTopKMonitor,
    SnapshotTopKMonitor,
    TopKUpdate,
)


class TestValidation:
    def test_rejects_bad_k(self, synthetic_engine):
        with pytest.raises(ValueError):
            SnapshotTopKMonitor(synthetic_engine, k=0)

    def test_rejects_bad_window(self, synthetic_engine):
        with pytest.raises(ValueError):
            SlidingIntervalTopKMonitor(synthetic_engine, k=3, window_seconds=0.0)

    @pytest.mark.parametrize("window", [math.inf, math.nan])
    def test_rejects_non_finite_window(self, synthetic_engine, window):
        with pytest.raises(ValueError, match="finite"):
            SlidingIntervalTopKMonitor(synthetic_engine, k=3, window_seconds=window)

    def test_time_must_not_run_backwards(self, synthetic_dataset, synthetic_engine):
        monitor = SnapshotTopKMonitor(synthetic_engine, k=3)
        t = synthetic_dataset.mid_time()
        monitor.advance(t)
        with pytest.raises(ValueError):
            monitor.advance(t - 10.0)


class TestSnapshotMonitor:
    def test_first_tick_reports_all_entered(
        self, synthetic_dataset, synthetic_engine
    ):
        monitor = SnapshotTopKMonitor(synthetic_engine, k=5)
        update = monitor.advance(synthetic_dataset.mid_time())
        assert isinstance(update, TopKUpdate)
        assert len(update.entered) == 5
        assert update.exited == ()
        assert update.changed

    def test_matches_direct_query(self, synthetic_dataset, synthetic_engine):
        t = synthetic_dataset.mid_time()
        monitor = SnapshotTopKMonitor(synthetic_engine, k=5)
        update = monitor.advance(t)
        direct = synthetic_engine.snapshot_topk(t, 5)
        assert update.result.poi_ids == direct.poi_ids
        assert update.result.flows == direct.flows

    def test_same_instant_reports_no_changes(
        self, synthetic_dataset, synthetic_engine
    ):
        t = synthetic_dataset.mid_time()
        monitor = SnapshotTopKMonitor(synthetic_engine, k=5)
        monitor.advance(t)
        update = monitor.advance(t)
        assert not update.changed

    def test_diff_consistency(self, synthetic_dataset, synthetic_engine):
        """entered/exited/rank_changes must exactly explain the transition."""
        start, end = synthetic_dataset.time_span()
        monitor = SnapshotTopKMonitor(synthetic_engine, k=5)
        previous_ids: set[str] = set()
        for fraction in (0.2, 0.4, 0.6, 0.8):
            update = monitor.advance(start + fraction * (end - start))
            current = set(update.result.poi_ids)
            assert set(update.entered) == current - previous_ids
            assert set(update.exited) == previous_ids - current
            for poi_id, old_rank, new_rank in update.rank_changes:
                assert poi_id in current and poi_id in previous_ids
                assert old_rank != new_rank
            previous_ids = current

    def test_run_collects_updates(self, synthetic_dataset, synthetic_engine):
        start, end = synthetic_dataset.time_span()
        monitor = SnapshotTopKMonitor(synthetic_engine, k=3)
        updates = monitor.run([start + 60.0, start + 120.0, start + 180.0])
        assert len(updates) == 3
        assert [u.t for u in updates] == [start + 60.0, start + 120.0, start + 180.0]


class TestSlidingIntervalMonitor:
    def test_matches_direct_window_query(
        self, synthetic_dataset, synthetic_engine
    ):
        t = synthetic_dataset.mid_time()
        monitor = SlidingIntervalTopKMonitor(
            synthetic_engine, k=4, window_seconds=120.0
        )
        update = monitor.advance(t)
        direct = synthetic_engine.interval_topk(t - 120.0, t, 4)
        assert update.result.flows == direct.flows

    def test_poi_subset_respected(self, synthetic_dataset, synthetic_engine):
        subset = synthetic_dataset.poi_subset(20, seed=1)
        allowed = {poi.poi_id for poi in subset}
        monitor = SlidingIntervalTopKMonitor(
            synthetic_engine, k=3, window_seconds=120.0, pois=subset
        )
        update = monitor.advance(synthetic_dataset.mid_time())
        assert set(update.result.poi_ids) <= allowed

    def test_methods_agree(self, synthetic_dataset, synthetic_engine):
        t = synthetic_dataset.mid_time()
        flows = []
        for method in ("join", "iterative"):
            monitor = SlidingIntervalTopKMonitor(
                synthetic_engine, k=5, window_seconds=60.0, method=method
            )
            flows.append(sorted(monitor.advance(t).result.flows, reverse=True))
        assert flows[0] == pytest.approx(flows[1], abs=1e-6)
