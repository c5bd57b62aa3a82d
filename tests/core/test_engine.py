"""Tests for the FlowEngine facade."""

import math

import pytest

from repro.core import EvaluationContext, FlowEngine, IntervalUncertainty
from repro.geometry import Region


class TestConstruction:
    def test_rejects_non_positive_vmax(self, synthetic_dataset):
        with pytest.raises(ValueError):
            FlowEngine(
                synthetic_dataset.floorplan,
                synthetic_dataset.deployment,
                synthetic_dataset.ott,
                synthetic_dataset.pois,
                v_max=0.0,
            )

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("v_max", math.nan),
            ("v_max", math.inf),
            ("detection_slack", math.nan),
            ("detection_slack", math.inf),
        ],
    )
    def test_rejects_non_finite_parameters(self, synthetic_dataset, argument, value):
        # nan passes every ``<= 0`` check and inf a positive one; either
        # would answer with garbage flows instead of failing.
        with pytest.raises(ValueError, match=argument):
            FlowEngine(
                synthetic_dataset.floorplan,
                synthetic_dataset.deployment,
                synthetic_dataset.ott,
                synthetic_dataset.pois,
                **{"v_max": 1.0, argument: value},
            )
        # The context takes the slack as an allowance in meters.
        name = "inner_allowance" if argument == "detection_slack" else argument
        with pytest.raises(ValueError, match=name):
            EvaluationContext(
                synthetic_dataset.deployment, **{"v_max": 1.0, name: value}
            )

    def test_rejects_empty_pois(self, synthetic_dataset):
        with pytest.raises(ValueError):
            FlowEngine(
                synthetic_dataset.floorplan,
                synthetic_dataset.deployment,
                synthetic_dataset.ott,
                [],
                v_max=1.0,
            )

    def test_freezes_ott(self, synthetic_dataset, synthetic_engine):
        with pytest.raises(RuntimeError):
            synthetic_engine.ott.append(None)

    def test_topology_disabled(self, synthetic_dataset):
        engine = synthetic_dataset.engine(topology_check=False)
        assert engine.topology is None


class TestIntrospection:
    def test_snapshot_region_of_tracked_object(
        self, synthetic_dataset, synthetic_engine
    ):
        t = synthetic_dataset.mid_time()
        object_id = synthetic_engine.ott.object_ids[0]
        region = synthetic_engine.snapshot_region_of(object_id, t)
        assert region is None or isinstance(region, Region)

    def test_snapshot_region_of_unknown_object(
        self, synthetic_dataset, synthetic_engine
    ):
        assert synthetic_engine.snapshot_region_of("ghost", 0.0) is None

    def test_interval_region_of(self, synthetic_dataset, synthetic_engine):
        start, end = synthetic_dataset.window(3)
        object_id = synthetic_engine.ott.object_ids[0]
        uncertainty = synthetic_engine.interval_region_of(object_id, start, end)
        if uncertainty is not None:
            assert isinstance(uncertainty, IntervalUncertainty)
            assert uncertainty.episodes

    def test_interval_region_of_unknown_object(self, synthetic_engine):
        assert synthetic_engine.interval_region_of("ghost", 0.0, 1.0) is None


class TestFlowMaps:
    def test_snapshot_flow_map_only_positive_entries(
        self, synthetic_dataset, synthetic_engine
    ):
        flows = synthetic_engine.snapshot_flows(synthetic_dataset.mid_time())
        assert flows
        assert all(value > 0.0 for value in flows.values())

    def test_interval_flow_map_covers_snapshot_pois(
        self, synthetic_dataset, synthetic_engine
    ):
        t = synthetic_dataset.mid_time()
        snapshot = synthetic_engine.snapshot_flows(t)
        interval = synthetic_engine.interval_flows(t - 30.0, t + 30.0)
        # Every POI with snapshot flow also has interval flow: the interval
        # region contains the snapshot region's time slice.
        for poi_id in snapshot:
            assert poi_id in interval

    def test_flow_map_restricted_to_subset(
        self, synthetic_dataset, synthetic_engine
    ):
        subset = synthetic_dataset.poi_subset(20, seed=3)
        allowed = {poi.poi_id for poi in subset}
        flows = synthetic_engine.snapshot_flows(
            synthetic_dataset.mid_time(), pois=subset
        )
        assert set(flows) <= allowed


class TestResolutionKnob:
    def test_coarser_resolution_still_agrees_between_methods(
        self, synthetic_dataset
    ):
        engine = synthetic_dataset.engine(resolution=12)
        t = synthetic_dataset.mid_time()
        iterative = engine.snapshot_topk(t, 5, method="iterative")
        join = engine.snapshot_topk(t, 5, method="join")
        assert sorted(iterative.flows, reverse=True) == pytest.approx(
            sorted(join.flows, reverse=True), abs=1e-6
        )


@pytest.fixture(scope="module", params=[1, 2], ids=["N1", "N2"])
def any_engine(request, synthetic_dataset):
    return synthetic_dataset.engine(num_shards=request.param)


_TOPK_CALLS = {
    "snapshot_topk": lambda engine, k: engine.snapshot_topk(300.0, k),
    "interval_topk": lambda engine, k: engine.interval_topk(200.0, 400.0, k),
    "snapshot_density_topk": lambda engine, k: engine.snapshot_density_topk(
        300.0, k
    ),
    "interval_density_topk": lambda engine, k: engine.interval_density_topk(
        200.0, 400.0, k
    ),
}


class TestTopKArgument:
    """``k`` is checked at the library boundary, at any shard count."""

    @pytest.mark.parametrize("call", sorted(_TOPK_CALLS))
    @pytest.mark.parametrize("k", [60.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_int_k_is_a_type_error(self, any_engine, call, k):
        with pytest.raises(TypeError, match="k"):
            _TOPK_CALLS[call](any_engine, k)

    @pytest.mark.parametrize("call", sorted(_TOPK_CALLS))
    def test_zero_k_is_a_value_error(self, any_engine, call):
        with pytest.raises(ValueError, match="k must be positive"):
            _TOPK_CALLS[call](any_engine, 0)

    @pytest.mark.parametrize("call", sorted(_TOPK_CALLS))
    def test_int_k_is_answered(self, any_engine, call):
        assert len(_TOPK_CALLS[call](any_engine, 3)) == 3


_TIME_CALLS = {
    "snapshot_topk.t": lambda engine, t: engine.snapshot_topk(t, 3),
    "interval_topk.t_start": lambda engine, t: engine.interval_topk(t, 400.0, 3),
    "interval_topk.t_end": lambda engine, t: engine.interval_topk(200.0, t, 3),
    "snapshot_density_topk.t": lambda engine, t: engine.snapshot_density_topk(
        t, 3
    ),
    "interval_density_topk.t_start": (
        lambda engine, t: engine.interval_density_topk(t, 400.0, 3)
    ),
    "interval_density_topk.t_end": (
        lambda engine, t: engine.interval_density_topk(200.0, t, 3)
    ),
    "snapshot_flows.t": lambda engine, t: engine.snapshot_flows(t),
    "interval_flows.t_start": lambda engine, t: engine.interval_flows(t, 400.0),
    "interval_flows.t_end": lambda engine, t: engine.interval_flows(200.0, t),
}


def _argument(call):
    return call.rsplit(".", 1)[1]


class TestTimeArguments:
    """Query times are checked at the library boundary, at any shard count.

    NaN used to rank every POI at zero flow (it compares false with every
    record time), ``True`` was taken as 1 and a string failed deep inside
    the index.
    """

    @pytest.mark.parametrize("call", sorted(_TIME_CALLS))
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_time_is_a_value_error(self, any_engine, call, value):
        with pytest.raises(ValueError, match=f"{_argument(call)} must be finite"):
            _TIME_CALLS[call](any_engine, value)

    @pytest.mark.parametrize("call", sorted(_TIME_CALLS))
    @pytest.mark.parametrize(
        "value", [True, "300", None, 300j], ids=["bool", "str", "none", "complex"]
    )
    def test_non_real_time_is_a_type_error(self, any_engine, call, value):
        with pytest.raises(TypeError, match=f"{_argument(call)} must be a real"):
            _TIME_CALLS[call](any_engine, value)

    @pytest.mark.parametrize("call", sorted(_TIME_CALLS))
    def test_int_and_numpy_times_answer_like_floats(self, any_engine, call):
        import numpy as np

        reference = _TIME_CALLS[call](any_engine, 300.0)
        assert _TIME_CALLS[call](any_engine, 300) == reference
        assert _TIME_CALLS[call](any_engine, np.float64(300.0)) == reference
        assert _TIME_CALLS[call](any_engine, np.int64(300)) == reference
