"""Runtime contract mode: every check fires on a violation and stays
silent on valid engine behavior.

Two layers: unit tests drive each check function with invalid values (the
negative tests proving the contract can fire at all), and property tests
run real queries under forced contract mode — no reachable query may trip
an invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ContractViolation,
    check_anchor_vector,
    check_area,
    check_cached_value,
    check_flow,
    check_presence,
    check_region_fingerprint,
    check_upper_bound,
    contracts_enabled,
    set_contracts,
)
from repro.core.presence import PresenceEstimator
from repro.core.states import snapshot_contexts
from repro.geometry.anchor import AnchorMemo


@pytest.fixture()
def contracts_on():
    set_contracts(True)
    try:
        yield
    finally:
        set_contracts(None)


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------


class TestEnablement:
    def test_env_flag(self, monkeypatch):
        set_contracts(None)
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert not contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        assert not contracts_enabled()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        set_contracts(False)
        try:
            assert not contracts_enabled()
        finally:
            set_contracts(None)

    def test_disabled_checks_pass_anything_through(self):
        set_contracts(False)
        try:
            assert check_presence(7.5) == 7.5
            assert check_flow(-3.0, 0) == -3.0
            assert check_area(-1.0) == -1.0
            assert check_upper_bound(1.0, 5.0) == 5.0
            assert check_cached_value(1.0, 2.0) == 1.0
            check_region_fingerprint((0.0, 0.0, 1.0, 1.0), None)
            check_anchor_vector(np.zeros(2), np.ones(2))
        finally:
            set_contracts(None)


# ----------------------------------------------------------------------
# Negative tests: each contract fires
# ----------------------------------------------------------------------


class TestViolations:
    def test_presence_above_one(self, contracts_on):
        with pytest.raises(ContractViolation, match="Definition 1"):
            check_presence(1.25)

    def test_presence_negative(self, contracts_on):
        with pytest.raises(ContractViolation, match="Definition 1"):
            check_presence(-0.5, where="presence in POI 'p1'")

    def test_flow_exceeds_candidates(self, contracts_on):
        with pytest.raises(ContractViolation, match="candidate"):
            check_flow(3.5, 3, poi_id="p1")

    def test_flow_negative(self, contracts_on):
        with pytest.raises(ContractViolation, match="negative"):
            check_flow(-0.1, 5)

    def test_area_negative(self, contracts_on):
        with pytest.raises(ContractViolation, match="negative"):
            check_area(-4.0, what="UR area")

    def test_refined_flow_exceeds_upper_bound(self, contracts_on):
        with pytest.raises(ContractViolation, match="upper bound"):
            check_upper_bound(2.0, 2.5, poi_id="p1")

    def test_cached_value_disagrees(self, contracts_on):
        with pytest.raises(ContractViolation, match="fresh recomputation"):
            check_cached_value(0.5, 0.75, what="presence", key="k")

    def test_fingerprint_mismatch(self, contracts_on):
        with pytest.raises(ContractViolation, match="MBR"):
            check_region_fingerprint(
                (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 2.0, 1.0)
            )

    def test_fingerprint_emptiness_mismatch(self, contracts_on):
        with pytest.raises(ContractViolation, match="empty"):
            check_region_fingerprint(None, (0.0, 0.0, 1.0, 1.0))

    def test_anchor_vector_differs(self, contracts_on):
        with pytest.raises(ContractViolation, match="anchor vector"):
            check_anchor_vector(np.array([1.0, 2.0]), np.array([1.0, 2.5]), key="k")

    def test_anchor_vector_dtype_differs(self, contracts_on):
        with pytest.raises(ContractViolation, match="anchor vector"):
            check_anchor_vector(np.array([1, 2]), np.array([1.0, 2.0]))

    def test_anchor_room_groups_differ(self, contracts_on):
        cached = [("a", np.array([0, 1])), (None, np.array([2]))]
        fresh = [("a", np.array([0])), (None, np.array([1, 2]))]
        with pytest.raises(ContractViolation, match="anchor vector"):
            check_anchor_vector(cached, fresh)

    def test_anchor_values_that_match_pass(self, contracts_on):
        check_anchor_vector(np.array([1.0, np.inf]), np.array([1.0, np.inf]))
        check_anchor_vector((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0))
        check_anchor_vector(
            [("a", np.array([0, 1]))], [("a", np.array([0, 1]))]
        )

    def test_corrupted_anchor_memo_entry_is_caught(self, contracts_on):
        memo = AnchorMemo()
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 0.0, 0.0])
        xs.flags.writeable = False
        ys.flags.writeable = False

        def compute():
            return xs * 2.0

        stored = memo.get("double", xs, ys, compute)
        np.testing.assert_array_equal(memo.get("double", xs, ys, compute), stored)
        # Corrupt the stored vector behind the memo's back.
        stored.flags.writeable = True
        stored[1] = 7.0
        with pytest.raises(ContractViolation, match="anchor vector"):
            memo.get("double", xs, ys, compute)

    def test_violation_is_an_assertion_error(self, contracts_on):
        with pytest.raises(AssertionError):
            check_presence(2.0)


class TestTolerance:
    def test_quadrature_round_off_is_accepted(self, contracts_on):
        assert check_presence(1.0 + 1e-9) == pytest.approx(1.0)
        assert check_presence(-1e-9) == pytest.approx(0.0, abs=1e-8)
        assert check_flow(3.0 + 1e-9, 3) == pytest.approx(3.0)
        assert check_area(-1e-9) == pytest.approx(0.0, abs=1e-8)
        # Sub-quantum drift between a cached region and its rebuild (times
        # are quantized to a microsecond in cache keys) is accepted.
        matching = (0.0, 0.0, 1.0, 1.0 + 1e-7)
        check_region_fingerprint((0.0, 0.0, 1.0, 1.0), matching)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_broken_estimator_is_caught(self, synthetic_engine, contracts_on):
        """The seam check fires on a presence outside [0, 1]."""

        class _Broken(PresenceEstimator):
            def presence(self, region, poi):
                return 1.5

        ctx = synthetic_engine.ctx.replace(estimator=_Broken(resolution=8))
        context = next(iter(snapshot_contexts(synthetic_engine.artree, 300.0)))
        region = ctx.snapshot_region(context)
        poi = synthetic_engine.pois[0]
        with pytest.raises(ContractViolation, match="Definition 1"):
            ctx.presence(region, poi, ctx.snapshot_fingerprint(context))

    def test_snapshot_queries_never_trip_contracts(
        self, synthetic_engine, contracts_on
    ):
        for method in ("join", "iterative"):
            result = synthetic_engine.snapshot_topk(300.0, k=5, method=method)
            assert len(result) == 5

    def test_interval_queries_never_trip_contracts(
        self, synthetic_engine, contracts_on
    ):
        for method in ("join", "iterative"):
            result = synthetic_engine.interval_topk(
                200.0, 500.0, k=5, method=method
            )
            assert len(result) == 5

    def test_warm_cache_verification_passes(self, synthetic_engine, contracts_on):
        """Repeated queries hit the caches; every hit is verified."""
        for _ in range(2):
            synthetic_engine.snapshot_flows(450.0)
            synthetic_engine.interval_flows(100.0, 400.0)


# ----------------------------------------------------------------------
# Property tests: random queries under forced contract mode
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=1200.0),
    k=st.integers(min_value=1, max_value=8),
)
def test_random_snapshot_queries_satisfy_contracts(synthetic_engine, t, k):
    set_contracts(True)
    try:
        join = synthetic_engine.snapshot_topk(t, k=k, method="join")
        iterative = synthetic_engine.snapshot_topk(t, k=k, method="iterative")
        # Ties may order differently between strategies; the flow values
        # must agree (see tests/core/test_algorithms.py).
        assert sorted(join.flows) == pytest.approx(sorted(iterative.flows))
        for entry in join:
            assert entry.flow >= 0.0
    finally:
        set_contracts(None)


@settings(max_examples=15, deadline=None)
@given(
    bounds=st.tuples(
        st.floats(min_value=0.0, max_value=1200.0),
        st.floats(min_value=0.0, max_value=1200.0),
    ),
    k=st.integers(min_value=1, max_value=8),
)
def test_random_interval_queries_satisfy_contracts(synthetic_engine, bounds, k):
    t_start, t_end = min(bounds), max(bounds)
    set_contracts(True)
    try:
        result = synthetic_engine.interval_topk(t_start, t_end, k=k)
        flows = synthetic_engine.interval_flows(t_start, t_end)
        candidates = len(synthetic_engine.artree)
        for flow in flows.values():
            assert -1e-6 <= flow <= candidates + 1e-6
        assert len(result) == k
    finally:
        set_contracts(None)
