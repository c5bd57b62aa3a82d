"""Tests for the anchor-vector memo (repro.geometry.anchor)."""

import os
import signal
import sys
import threading

import numpy as np
import pytest

from repro.analysis import set_contracts
from repro.geometry import Circle, Point
from repro.geometry.anchor import (
    ANCHOR_MEMO,
    ANCHOR_MEMO_CAPACITY,
    AnchorMemo,
    is_frozen,
)


def frozen(values):
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


class CountingCompute:
    def __init__(self, xs):
        self.xs = xs
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.xs * 2.0


class TestIsFrozen:
    def test_read_only_owner(self):
        assert is_frozen(frozen([1.0, 2.0]))

    def test_writable_array(self):
        assert not is_frozen(np.array([1.0, 2.0]))

    def test_read_only_view_of_writable_base(self):
        base = np.array([1.0, 2.0, 3.0])
        view = base[1:]
        view.flags.writeable = False
        assert not is_frozen(view)

    def test_read_only_view_of_read_only_base(self):
        assert is_frozen(frozen([1.0, 2.0, 3.0])[1:])

    def test_not_an_array(self):
        assert not is_frozen([1.0, 2.0])


class TestAnchorMemo:
    @pytest.fixture(autouse=True)
    def contracts_off(self):
        # Contract mode recomputes every hit; these tests count computes.
        set_contracts(False)
        try:
            yield
        finally:
            set_contracts(None)

    def test_hit_returns_stored_value_without_recomputing(self):
        memo = AnchorMemo()
        xs, ys = frozen([1.0, 2.0]), frozen([0.0, 0.0])
        compute = CountingCompute(xs)
        first = memo.get("a", xs, ys, compute)
        second = memo.get("a", xs, ys, compute)
        assert first is second
        assert compute.calls == 1
        assert len(memo) == 1

    def test_writable_batches_never_enter(self):
        memo = AnchorMemo()
        xs, ys = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        compute = CountingCompute(xs)
        memo.get("a", xs, ys, compute)
        xs[0] = 5.0
        assert memo.get("a", xs, ys, compute).tolist() == [10.0, 4.0]
        assert compute.calls == 2
        assert len(memo) == 0

    def test_one_writable_coordinate_array_is_enough_to_bypass(self):
        memo = AnchorMemo()
        xs = frozen([1.0, 2.0])
        memo.get("a", xs, np.array([0.0, 0.0]), CountingCompute(xs))
        assert len(memo) == 0

    def test_stored_arrays_are_read_only(self):
        memo = AnchorMemo()
        xs, ys = frozen([1.0, 2.0]), frozen([0.0, 0.0])
        value = memo.get("a", xs, ys, CountingCompute(xs))
        with pytest.raises(ValueError):
            value[0] = 0.0

    def test_distinct_anchors_and_batches_are_distinct_entries(self):
        memo = AnchorMemo()
        xs, ys = frozen([1.0, 2.0]), frozen([0.0, 0.0])
        other_xs = frozen([1.0, 2.0])
        memo.get("a", xs, ys, CountingCompute(xs))
        memo.get("b", xs, ys, CountingCompute(xs))
        memo.get("a", other_xs, ys, CountingCompute(other_xs))
        assert len(memo) == 3

    def test_capacity_bound_evicts_least_recently_used(self):
        memo = AnchorMemo()
        assert memo.capacity == ANCHOR_MEMO_CAPACITY
        xs, ys = frozen([1.0, 2.0]), frozen([0.0, 0.0])
        for anchor in range(ANCHOR_MEMO_CAPACITY):
            memo.get(anchor, xs, ys, CountingCompute(xs))
        memo.get(0, xs, ys, CountingCompute(xs))  # refresh the oldest
        memo.get("new", xs, ys, CountingCompute(xs))  # evicts anchor 1
        assert len(memo) == ANCHOR_MEMO_CAPACITY
        kept = CountingCompute(xs)
        memo.get(0, xs, ys, kept)
        assert kept.calls == 0
        evicted = CountingCompute(xs)
        memo.get(1, xs, ys, evicted)
        assert evicted.calls == 1

    def test_clear(self):
        memo = AnchorMemo()
        xs, ys = frozen([1.0]), frozen([0.0])
        memo.get("a", xs, ys, CountingCompute(xs))
        memo.clear()
        assert len(memo) == 0

    def test_threads_share_one_memo_without_losing_bounds_or_values(self):
        # More threads than cores, switching every few bytecodes, all
        # reading and filling one memo from more keys (16 batches x 40
        # anchors) than it holds: every answer must be the value its own
        # key computes, and the bound must hold.
        memo = AnchorMemo()
        batches = [(frozen([float(i), 1.0]), frozen([0.0, 0.0])) for i in range(16)]
        errors: list[str] = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(2000):
                index = int(rng.integers(len(batches)))
                scale = float(rng.integers(40))
                xs, ys = batches[index]
                got = memo.get(("scale", scale), xs, ys, lambda: xs * scale)
                if got.tolist() != [index * scale, scale]:
                    errors.append(f"batch {index} scale {scale}: {got}")
                if len(memo) > memo.capacity:
                    errors.append(f"memo grew to {len(memo)}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= memo.capacity


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_inherit_a_held_lock(self):
        xs, ys = frozen([1.0, 2.0]), frozen([0.0, 0.0])
        ANCHOR_MEMO._lock.acquire()  # another thread mid-lookup at fork time
        try:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child process
                signal.alarm(10)  # a deadlock kills the child instead
                ANCHOR_MEMO.get("child", xs, ys, lambda: xs * 2.0)
                os._exit(0)
        finally:
            ANCHOR_MEMO._lock.release()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestAnchoredPrimitives:
    def test_circle_answers_change_with_radius_on_a_shared_vector(self):
        xs, ys = frozen([0.0, 1.0, 2.0, 3.0]), frozen([0.0, 0.0, 0.0, 0.0])
        ANCHOR_MEMO.clear()
        small = Circle(Point(0, 0), 1.0).contains_many(xs, ys)
        large = Circle(Point(0, 0), 2.5).contains_many(xs, ys)
        assert small.tolist() == [True, True, False, False]
        assert large.tolist() == [True, True, True, False]
        # Both radii read the one squared-distance vector of the centre.
        assert len(ANCHOR_MEMO) == 1
