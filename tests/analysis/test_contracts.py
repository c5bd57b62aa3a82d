"""Runtime contract mode: every check fires on a violation and stays
silent on valid engine behavior.

Two layers: unit tests drive each check function with invalid values (the
negative tests proving the contract can fire at all), and property tests
run real queries under forced contract mode — no reachable query may trip
an invariant.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import (
    ContractViolation,
    check_area,
    check_cached_value,
    check_flow,
    check_presence,
    check_quadrature,
    check_region_fingerprint,
    check_upper_bound,
    check_window,
    contracts_enabled,
    set_contracts,
)
from repro.core.presence import PresenceEstimator
from repro.core.states import interval_contexts, snapshot_contexts
from repro.geometry import Circle, Point, Polygon
from repro.geometry.program import Literal
from repro.indoor import Poi


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
        # The flag is read at import and re-read by set_contracts(None).
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        set_contracts(None)
        assert not contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        set_contracts(None)
        assert contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        set_contracts(None)
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
            assert check_presence(9, 8) == 9
            assert check_flow(-3, 0, 8) == -3
            assert check_area(-1.0) == -1.0
            assert check_upper_bound(1, 50, 8) == 50
            assert check_cached_value(1, 2) == 1
            check_region_fingerprint((0.0, 0.0, 1.0, 1.0), None)
            check_quadrature(1, 2)
            check_window([("a", None)], [("b", None)])
        finally:
            set_contracts(None)


# ----------------------------------------------------------------------
# Negative tests: each contract fires
# ----------------------------------------------------------------------


class TestViolations:
    def test_presence_above_one(self, contracts_on):
        # One sample more than the POI's grid holds.
        with pytest.raises(ContractViolation, match="Definition 1"):
            check_presence(65, 64)
        assert check_presence(64, 64) == 64

    def test_presence_negative(self, contracts_on):
        with pytest.raises(ContractViolation, match="Definition 1"):
            check_presence(-1, 64, where="presence in POI 'p1'")

    def test_flow_exceeds_candidates(self, contracts_on):
        # A sample total of candidates * n_p + 1.
        with pytest.raises(ContractViolation, match="candidate"):
            check_flow(3 * 64 + 1, 3, 64, poi_id="p1")
        assert check_flow(3 * 64, 3, 64) == 3 * 64

    def test_flow_negative(self, contracts_on):
        with pytest.raises(ContractViolation, match="negative"):
            check_flow(-1, 5, 64)

    def test_area_negative(self, contracts_on):
        with pytest.raises(ContractViolation, match="negative"):
            check_area(-4.0, what="UR area")

    def test_refined_flow_exceeds_upper_bound(self, contracts_on):
        # A refined total one sample above bound * n_p.
        with pytest.raises(ContractViolation, match="upper bound"):
            check_upper_bound(2, 2 * 64 + 1, 64, poi_id="p1")
        assert check_upper_bound(2, 2 * 64, 64) == 2 * 64

    def test_cached_value_disagrees(self, contracts_on):
        # A cached count off by one.
        with pytest.raises(ContractViolation, match="fresh recomputation"):
            check_cached_value(32, 31, what="sample count", key="k")
        assert check_cached_value(32, 32) == 32

    def test_one_sample_off_on_a_fine_grid(self, contracts_on):
        """One sample too many is caught however fine the grid: as float
        ratios these errors were below the old 1e-6 slack."""
        samples = 2_000_000
        assert (samples + 1) / samples - 1.0 < 1e-6
        with pytest.raises(ContractViolation, match="Definition 1"):
            check_presence(samples + 1, samples)
        with pytest.raises(ContractViolation, match="candidate"):
            check_flow(3 * samples + 1, 3, samples)
        with pytest.raises(ContractViolation, match="upper bound"):
            check_upper_bound(2, 2 * samples + 1, samples)
        with pytest.raises(ContractViolation, match="fresh recomputation"):
            check_cached_value(samples, samples - 1)

    def test_fingerprint_mismatch(self, contracts_on):
        with pytest.raises(ContractViolation, match="MBR"):
            check_region_fingerprint(
                (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 2.0, 1.0)
            )

    def test_fingerprint_emptiness_mismatch(self, contracts_on):
        with pytest.raises(ContractViolation, match="empty"):
            check_region_fingerprint(None, (0.0, 0.0, 1.0, 1.0))

    def test_quadrature_count_differs(self, contracts_on):
        with pytest.raises(ContractViolation, match="contains_many"):
            check_quadrature(5, 6, where="presence in POI 'p1'")
        check_quadrature(6, 6)

    def test_corrupted_literal_threshold_is_caught(self, contracts_on):
        region = Circle(Point(2.0, 2.0), 1.0)
        poi = Poi(poi_id="p", polygon=Polygon.rectangle(0, 0, 4, 4), room_id="r")
        estimator = PresenceEstimator(resolution=16)
        assert 0.0 < estimator.presence(region, poi) < 1.0
        # Widen the lowered circle's threshold behind the region's back.
        literal = Literal(*region.program()[0][0])
        corrupted = literal._replace(hi=literal.hi * 4.0, span_hi=literal.span_hi * 4.0)
        object.__setattr__(region, "_program", ((tuple(corrupted),),))
        with pytest.raises(ContractViolation, match="batched quadrature"):
            estimator.presence(region, poi)

    def test_window_episode_keys_differ(self, contracts_on):
        box = (0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ContractViolation, match="episode keys"):
            check_window([("gap", box)], [("gap", box), ("trail", box)], key="w")
        check_window([("gap", box)], [("gap", box)], key="w")

    def test_window_episode_mbr_differs(self, contracts_on):
        with pytest.raises(ContractViolation, match="MBR"):
            check_window(
                [("gap", (0.0, 0.0, 1.0, 1.0))],
                [("gap", (0.0, 0.0, 3.0, 1.0))],
            )

    def test_corrupted_window_memo_entry_is_caught(self, synthetic_dataset, contracts_on):
        """A memoized window serving another window's region trips the check."""
        engine = synthetic_dataset.engine()
        ctx = engine.ctx
        contexts = interval_contexts(engine.artree, 100.0, 400.0)
        first, second = contexts[0], contexts[1]
        ctx.interval_uncertainty(first)
        key = next(iter(ctx._window_cache._entries))
        ctx._window_cache.put(key, ctx.interval_uncertainty(second))
        with pytest.raises(ContractViolation, match="memoized window"):
            ctx.interval_uncertainty(first)

    def test_violation_is_an_assertion_error(self, contracts_on):
        with pytest.raises(AssertionError):
            check_presence(2, 1)


class TestTolerance:
    def test_quadrature_round_off_is_accepted(self, contracts_on):
        # Areas are sums of cell areas; sample counts are exact and get
        # no slack (see TestViolations).
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
        """The seam check fires on a count above the POI's sample count."""

        class _Broken(PresenceEstimator):
            def counts(self, poi, regions):
                return [self.sample_count(poi) + 1 for _ in regions]

        ctx = synthetic_engine.ctx.replace(estimator=_Broken(resolution=8))
        context = next(iter(snapshot_contexts(synthetic_engine.artree, 300.0)))
        region = ctx.snapshot_region(context)
        poi = synthetic_engine.pois[0]
        with pytest.raises(ContractViolation, match="Definition 1"):
            ctx.count(region, poi, ctx.snapshot_fingerprint(context))

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
            assert 0.0 < flow <= candidates
        assert len(result) == k
    finally:
        set_contracts(None)
