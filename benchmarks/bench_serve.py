"""What the HTTP seam costs: served queries vs. the in-process engine.

``repro.serve`` adds a socket round trip, JSON wire codecs and an actor
hop on top of the engine call.  The pair of benchmarks times the same
snapshot top-k through both paths against the same engine state, so the
difference *is* the serving overhead; the acceptance test pins the other
half of the contract — the detour must not change a single bit of the
answer.

Scale is configurable for CI smoke runs via ``REPRO_BENCH_SCALE``.
"""

import os

import pytest

from conftest import DEFAULT_SCALE

from repro.core.queries import SnapshotTopKQuery
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset
from repro.serve.app import ServeConfig, ServerHandle
from repro.serve.client import ServeClient
from repro.serve.wire import QuerySpec

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
K = 10


@pytest.fixture(scope="module")
def setup():
    """(dataset, in-process engine, live server handle, client)."""
    dataset = build_synthetic_dataset(SyntheticConfig().scaled(SCALE))
    engine = dataset.engine()
    records = sorted(
        dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id)
    )
    from repro.core.engine import LiveFlowEngine

    live = LiveFlowEngine(
        dataset.floorplan,
        dataset.deployment,
        dataset.pois,
        v_max=dataset.v_max,
        detection_slack=2.0 * dataset.sampling_interval,
    )
    live.ingest(records)
    handle = ServerHandle(live, ServeConfig())
    handle.start()
    client = ServeClient(handle.base_url)
    yield dataset, engine, handle, client
    handle.stop()


def test_query_in_process(benchmark, setup):
    dataset, engine, _, _ = setup
    t = dataset.mid_time()
    engine.snapshot_topk(t, K)  # warm the context caches

    benchmark(lambda: engine.snapshot_topk(t, K))


def test_query_served(benchmark, setup):
    dataset, _, _, client = setup
    t = dataset.mid_time()
    spec = QuerySpec(query=SnapshotTopKQuery(t=t, k=K))
    client.query(spec)  # warm caches + connection machinery

    benchmark(lambda: client.query(spec))


def test_served_answers_are_bit_identical(setup):
    """The seam's correctness half: HTTP changes latency, not answers."""
    dataset, engine, _, client = setup
    for fraction in (0.25, 0.5, 0.75):
        t_lo, t_hi = dataset.time_span()
        t = t_lo + fraction * (t_hi - t_lo)
        served = client.query(QuerySpec(query=SnapshotTopKQuery(t=t, k=K)))
        expected = engine.snapshot_topk(t, K)
        assert served.poi_ids == expected.poi_ids
        assert served.flows == expected.flows
