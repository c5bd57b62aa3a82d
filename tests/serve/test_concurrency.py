"""The concurrency battery: serving must not change a single bit.

Several client threads hammer ``POST /ingest`` (disjoint per-object
record streams, each in time order — the only order the live table
requires) while query threads issue ``POST /queries`` against the moving
engine.  When the dust settles, the served top-k must be bit-identical
to a serial in-process reference: the actor serializes every mutation,
and the canonical contribution order makes the result independent of
how the per-object streams interleaved.

Runs with contracts armed (``REPRO_CONTRACTS=1``) across both query
methods and both storage backends.
"""

from __future__ import annotations

import threading

import pytest

from repro.contracts import set_contracts
from repro.core.queries import IntervalTopKQuery, SnapshotTopKQuery
from repro.datagen.config import SyntheticConfig
from repro.serve.app import ServeConfig, ServerHandle
from repro.serve.client import ServeClient
from repro.serve.scenario import build_engine, build_venue, record_stream
from repro.serve.wire import QuerySpec

CONFIG = SyntheticConfig(
    num_objects=12,
    duration=600.0,
    rooms_per_side=4,
    poi_count=10,
    seed=11,
)

INGEST_THREADS = 4
QUERY_THREADS = 2
CHUNK = 5

QUERY_TIMES = (150.0, 300.0, 450.0, 600.0)
INTERVAL = (100.0, 500.0)


def _per_thread_streams(records):
    """Partition the workload into per-object streams, then into threads.

    Each object's records stay together and in time order (the live
    table's contract); whole objects are dealt round-robin to threads so
    the streams are disjoint and may interleave arbitrarily.
    """
    by_object: dict = {}
    for record in records:
        by_object.setdefault(record.object_id, []).append(record)
    streams = [[] for _ in range(INGEST_THREADS)]
    for index, object_records in enumerate(by_object.values()):
        streams[index % INGEST_THREADS].extend(object_records)
    return streams


@pytest.fixture(scope="module")
def workload():
    return list(record_stream(CONFIG))


@pytest.fixture(scope="module")
def reference_engine(workload):
    engine = build_engine(build_venue(CONFIG))
    engine.ingest(workload)
    return engine


@pytest.mark.parametrize("method", ["join", "iterative"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_concurrent_ingest_and_query_is_bit_identical_to_serial(
    workload, reference_engine, method, backend, tmp_path
):
    # The contract flag is read at import; the suite's autouse fixture
    # re-reads the environment after the test.
    set_contracts(True)

    storage = tmp_path / "venue.sqlite" if backend == "sqlite" else None
    engine = build_engine(build_venue(CONFIG), storage=storage)
    errors: list[BaseException] = []
    start = threading.Barrier(INGEST_THREADS + QUERY_THREADS)
    ingest_done = threading.Event()

    with ServerHandle(engine, ServeConfig()) as handle:
        client_factory = lambda: ServeClient(handle.base_url)  # noqa: E731

        def ingest_worker(stream):
            client = client_factory()
            try:
                start.wait(timeout=30.0)
                for offset in range(0, len(stream), CHUNK):
                    client.ingest(records=stream[offset : offset + CHUNK])
            except BaseException as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        def query_worker():
            client = client_factory()
            try:
                start.wait(timeout=30.0)
                while not ingest_done.is_set():
                    # Mid-ingest answers are some consistent prefix of the
                    # stream; they only need to be well-formed here.
                    result = client.query(
                        QuerySpec(
                            query=SnapshotTopKQuery(t=QUERY_TIMES[0], k=3),
                            method=method,
                        )
                    )
                    assert len(result.poi_ids) <= 3
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=ingest_worker, args=(stream,), daemon=True)
            for stream in _per_thread_streams(workload)
        ] + [
            threading.Thread(target=query_worker, daemon=True)
            for _ in range(QUERY_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads[:INGEST_THREADS]:
            thread.join(timeout=120.0)
        ingest_done.set()
        for thread in threads[INGEST_THREADS:]:
            thread.join(timeout=120.0)

        assert not errors, errors
        assert all(not thread.is_alive() for thread in threads)

        client = client_factory()
        assert client.health()["generation"] == len(workload)

        for t in QUERY_TIMES:
            served = client.query(
                QuerySpec(query=SnapshotTopKQuery(t=t, k=5), method=method)
            )
            expected = reference_engine.snapshot_topk(t, 5, method=method)
            assert served.poi_ids == expected.poi_ids
            assert served.flows == expected.flows

        served = client.query(
            QuerySpec(
                query=IntervalTopKQuery(
                    t_start=INTERVAL[0], t_end=INTERVAL[1], k=5
                ),
                method=method,
            )
        )
        expected = reference_engine.interval_topk(
            INTERVAL[0], INTERVAL[1], 5, method=method
        )
        assert served.poi_ids == expected.poi_ids
        assert served.flows == expected.flows
