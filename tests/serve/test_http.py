"""The HTTP surface end to end: a real listener, a real client.

One server per module (booted via :class:`ServerHandle` on its own
thread) with a small synthetic workload ingested up front; the tests
walk the endpoint catalogue, the error mapping and the SSE stream, and
compare served results against an in-process reference engine —
bit-identically, since that is the service's contract.
"""

from __future__ import annotations

import math
import threading
import urllib.request

import pytest

from repro.core.queries import IntervalTopKQuery, SnapshotTopKQuery
from repro.datagen.config import SyntheticConfig
from repro.serve.app import ServeConfig, ServerHandle
from repro.serve.client import ServeClient, ServeHttpError
from repro.serve.scenario import build_engine, build_venue, record_stream
from repro.serve.wire import QuerySpec

CONFIG = SyntheticConfig(
    num_objects=16,
    duration=600.0,
    rooms_per_side=4,
    poi_count=12,
    seed=11,
)

T_MID = CONFIG.duration / 2.0


@pytest.fixture(scope="module")
def workload():
    return list(record_stream(CONFIG))


@pytest.fixture(scope="module")
def reference_engine(workload):
    engine = build_engine(build_venue(CONFIG))
    engine.ingest(workload)
    return engine


@pytest.fixture(scope="module")
def server(workload):
    handle = ServerHandle(build_engine(build_venue(CONFIG)), ServeConfig())
    with handle:
        client = ServeClient(handle.base_url)
        client.ingest(records=workload)
        yield handle


@pytest.fixture()
def client(server):
    return ServeClient(server.base_url)


class TestQueries:
    @pytest.mark.parametrize("method", ["join", "iterative"])
    def test_snapshot_matches_in_process_engine_bitwise(
        self, client, reference_engine, method
    ):
        served = client.query(
            QuerySpec(query=SnapshotTopKQuery(t=T_MID, k=5), method=method)
        )
        expected = reference_engine.snapshot_topk(T_MID, 5, method=method)
        assert served.poi_ids == expected.poi_ids
        assert served.flows == expected.flows

    @pytest.mark.parametrize("method", ["join", "iterative"])
    def test_interval_matches_in_process_engine_bitwise(
        self, client, reference_engine, method
    ):
        served = client.query(
            QuerySpec(
                query=IntervalTopKQuery(t_start=100.0, t_end=T_MID, k=4),
                method=method,
            )
        )
        expected = reference_engine.interval_topk(100.0, T_MID, 4, method=method)
        assert served.poi_ids == expected.poi_ids
        assert served.flows == expected.flows

    def test_deferred_job_lifecycle(self, client, reference_engine):
        job_id = client.submit_query(
            QuerySpec(query=SnapshotTopKQuery(t=T_MID, k=3))
        )
        result = client.wait_job(job_id)
        expected = reference_engine.snapshot_topk(T_MID, 3)
        assert result.poi_ids == expected.poi_ids
        assert result.flows == expected.flows
        payload = client.job(job_id)
        assert payload["status"] == "done"
        assert payload["kind"] == "query"

    def test_failing_deferred_job_records_the_error(self, client):
        # k exceeding nothing — use an inverted window smuggled past the
        # client-side dataclass by posting raw JSON.
        import json

        raw = json.dumps(
            {
                "wire_version": 1,
                "kind": "query",
                "mode": "interval",
                "t_start": 10.0,
                "t_end": 0.0,
                "k": 1,
                "method": "join",
            }
        ).encode()
        request = urllib.request.Request(
            f"{client.base_url}/queries?sync=false",
            data=raw,
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400  # decode fails before job creation


class TestErrorMapping:
    def test_encoded_path_params_decode_exactly_once(self, client):
        # A double-encoded slash (%252F) must reach the handler as the
        # single-decoded "mon%2F1" — decoding twice would turn it into
        # "mon/1" and could alter which route matches.
        import json

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{client.base_url}/monitors/mon%252F1", timeout=30
            )
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert "mon%2F1" in body["message"]

    def test_encoded_slash_in_path_param_does_not_split_the_route(self, client):
        # "%2F" inside an id must stay inside the parameter: the request
        # should resolve the monitors route (unknown id → 404 with the
        # decoded id), not fall through as a two-segment path.
        import json

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{client.base_url}/monitors/a%2Fb", timeout=30
            )
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert "unknown monitor" in body["message"]
        assert "a/b" in body["message"]

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client._request("GET", "/queries")
        assert excinfo.value.status == 405

    def test_malformed_body_is_400(self, client):
        request = urllib.request.Request(
            f"{client.base_url}/queries", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_bad_query_flag_is_400(self, client):
        import json

        payload = json.dumps(
            {
                "wire_version": 1,
                "kind": "query",
                "mode": "snapshot",
                "t": 1.0,
                "k": 1,
                "method": "join",
            }
        ).encode()
        request = urllib.request.Request(
            f"{client.base_url}/queries?sync=maybe", data=payload, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_ingest_field_is_400(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client._request("POST", "/ingest", {"record": []})
        assert excinfo.value.status == 400
        assert "unknown ingest fields" in excinfo.value.message

    def test_record_validation_error_is_400(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client._request(
                "POST",
                "/ingest",
                {
                    "records": [
                        {
                            "wire_version": 1,
                            "kind": "record",
                            "record_id": 1,
                            "object_id": "o",
                            "device_id": "d",
                            "t_s": 5.0,
                            "t_e": 1.0,
                        }
                    ]
                },
            )
        assert excinfo.value.status == 400
        assert "precedes" in excinfo.value.message


    def test_non_finite_ingest_numbers_are_400(self, client, workload):
        last_t = max(record.t_e for record in workload)
        record = {
            "wire_version": 1,
            "kind": "record",
            "record_id": max(r.record_id for r in workload) + 1000,
            "object_id": "nan-visitor",
            "device_id": workload[0].device_id,
            "t_s": last_t + 1.0,
            "t_e": last_t + 2.0,
        }
        before = client.health()["generation"]
        for op, body in (
            ("t_e", {"records": [dict(record, t_e=math.nan)]}),
            ("extend", {"extend": {"object_id": "nan-visitor", "t_e": math.nan}}),
            ("close", {"close": {"object_id": "nan-visitor", "t_e": math.inf}}),
            # Refused before the batch's record is applied.
            ("tick_t", {"records": [record], "tick_t": math.nan}),
        ):
            with pytest.raises(ServeHttpError) as excinfo:
                client._request("POST", "/ingest", body)
            assert excinfo.value.status == 400
            assert "finite" in excinfo.value.message and op in excinfo.value.message
        assert client.health()["generation"] == before

    def test_infinite_monitor_window_is_400(self, client):
        for window in (math.inf, math.nan):
            with pytest.raises(ServeHttpError) as excinfo:
                client._request(
                    "POST",
                    "/monitors",
                    {"kind": "interval", "k": 3, "window_seconds": window},
                )
            assert excinfo.value.status == 400
        monitor_id = client.create_monitor(kind="snapshot", k=2)
        try:
            with pytest.raises(ServeHttpError) as excinfo:
                client._request("POST", f"/monitors/{monitor_id}/tick", {"t": math.nan})
            assert excinfo.value.status == 400
        finally:
            client.drop_monitor(monitor_id)
        # No monitor was left behind to fail a later ticked ingest.
        assert "generation" in client._request("POST", "/ingest", {"tick_t": T_MID})

    def test_oversized_record_id_is_400(self, client, workload):
        last_t = max(record.t_e for record in workload)
        with pytest.raises(ServeHttpError) as excinfo:
            client._request(
                "POST",
                "/ingest",
                {
                    "records": [
                        {
                            "wire_version": 1,
                            "kind": "record",
                            "record_id": 2**70,
                            "object_id": "big-id",
                            "device_id": workload[0].device_id,
                            "t_s": last_t + 1.0,
                            "t_e": last_t + 2.0,
                        }
                    ]
                },
            )
        assert excinfo.value.status == 400
        assert "record_id" in excinfo.value.message


class TestHealthAndMetrics:
    def test_health_reports_engine_identity(self, client):
        payload = client.health()
        assert payload["live"] is True
        assert payload["generation"] > 0  # the module workload is ingested
        assert set(payload["jobs"]) == {"pending", "done", "error"}

    def test_metrics_exports_obs_and_engine_stats(self, client):
        import repro.obs as obs

        # Instrumentation is off by default; the latency histograms only
        # record while the flag is up (the server thread shares it).
        obs.enable()
        try:
            client.query(QuerySpec(query=SnapshotTopKQuery(t=T_MID, k=2)))
            payload = client.metrics()
        finally:
            obs.disable()
        assert "engine" in payload and "obs" in payload
        assert isinstance(payload["engine"], dict)
        metric_names = set(payload["obs"].get("metrics", {}))
        assert any(name.startswith("serve.latency.") for name in metric_names)


class TestMonitors:
    def test_monitor_crud_and_stream(self, client, reference_engine):
        monitor_id = client.create_monitor(kind="snapshot", k=3)
        try:
            assert client.monitor(monitor_id)["kind"] == "snapshot"
            assert any(
                m["monitor_id"] == monitor_id for m in client.monitors()
            )

            streamed = []
            consumer = threading.Thread(
                target=lambda: streamed.extend(
                    client.stream(monitor_id, max_events=2)
                ),
                daemon=True,
            )
            consumer.start()
            first = client.tick_monitor(monitor_id, T_MID)
            second = client.tick_monitor(monitor_id, T_MID + 60.0)
            consumer.join(timeout=30.0)
            assert not consumer.is_alive()
            assert streamed == [first, second]
            # The first tick reports the whole top-k as entered, and the
            # result matches the reference engine bitwise.
            expected = reference_engine.snapshot_topk(T_MID, 3)
            assert first.result.poi_ids == expected.poi_ids
            assert first.result.flows == expected.flows
            assert set(first.entered) == set(expected.poi_ids)
        finally:
            client.drop_monitor(monitor_id)

    def test_interval_monitor_needs_window_over_http(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client.create_monitor(kind="interval", k=2)
        assert excinfo.value.status == 400

    def test_unknown_monitor_is_404_everywhere(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client.monitor("mon-424242")
        assert excinfo.value.status == 404
        with pytest.raises(ServeHttpError) as excinfo:
            client.tick_monitor("mon-424242", 1.0)
        assert excinfo.value.status == 404
        with pytest.raises(ServeHttpError) as excinfo:
            client.drop_monitor("mon-424242")
        assert excinfo.value.status == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{client.base_url}/monitors/mon-424242/stream", timeout=30
            )
        assert excinfo.value.code == 404

    def test_backwards_tick_is_400(self, client):
        monitor_id = client.create_monitor(kind="snapshot", k=2)
        try:
            client.tick_monitor(monitor_id, T_MID)
            with pytest.raises(ServeHttpError) as excinfo:
                client.tick_monitor(monitor_id, T_MID - 50.0)
            assert excinfo.value.status == 400
            assert "backwards" in excinfo.value.message
        finally:
            client.drop_monitor(monitor_id)


class TestStreamLifecycle:
    """Shutdown and idle-connection behavior of the SSE streams.

    Each test boots its own (small) server: these scenarios tear the
    server down or tune the heartbeat, which the module-scoped fixture
    server must not be subjected to.
    """

    SMALL = SyntheticConfig(
        num_objects=4,
        duration=120.0,
        rooms_per_side=2,
        poi_count=4,
        seed=7,
    )

    def _handle(self, **config_kwargs) -> ServerHandle:
        return ServerHandle(
            build_engine(build_venue(self.SMALL)), ServeConfig(**config_kwargs)
        )

    def test_stop_with_connected_stream_subscriber_does_not_deadlock(self):
        # Regression: stop() must cancel stream tasks *before* waiting
        # for connection handlers (wait_closed() on 3.12+ waits for
        # them, and a stream handler blocks on its subscriber queue
        # until the actor stops — which happens after the server stops).
        import time

        handle = self._handle()
        handle.start()
        response = None
        try:
            client = ServeClient(handle.base_url)
            monitor_id = client.create_monitor(kind="snapshot", k=2)
            response = urllib.request.urlopen(
                f"{handle.base_url}/monitors/{monitor_id}/stream", timeout=30
            )
            thread = handle._thread
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 20.0
            assert thread is not None and not thread.is_alive()
        finally:
            if response is not None:
                response.close()
            handle.stop()

    def test_idle_stream_emits_heartbeat_comment_frames(self):
        with self._handle(sse_heartbeat_seconds=0.1) as handle:
            client = ServeClient(handle.base_url)
            monitor_id = client.create_monitor(kind="snapshot", k=2)
            with urllib.request.urlopen(
                f"{handle.base_url}/monitors/{monitor_id}/stream", timeout=30
            ) as response:
                for raw_line in response:
                    line = raw_line.decode("utf-8").strip()
                    if line:
                        assert line == ": heartbeat"
                        break

    def test_dead_stream_connection_is_reaped_without_ticks(self):
        import time

        with self._handle(sse_heartbeat_seconds=0.1) as handle:
            client = ServeClient(handle.base_url)
            monitor_id = client.create_monitor(kind="snapshot", k=2)
            response = urllib.request.urlopen(
                f"{handle.base_url}/monitors/{monitor_id}/stream", timeout=30
            )
            assert client.monitor(monitor_id)["subscribers"] == 1
            response.close()
            # No ticks ever flow; only the heartbeat can detect the dead
            # socket and unsubscribe the connection.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.monitor(monitor_id)["subscribers"] == 0:
                    break
                time.sleep(0.05)
            assert client.monitor(monitor_id)["subscribers"] == 0


class TestIngestOverHttp:
    def test_open_extend_close_episode_lifecycle(self, client, workload):
        last_t = max(record.t_e for record in workload)
        next_id = max(record.record_id for record in workload) + 1
        from repro.tracking.records import TrackingRecord

        open_record = TrackingRecord(
            record_id=next_id,
            object_id="http-visitor",
            device_id=workload[0].device_id,
            t_s=last_t + 1.0,
            t_e=last_t + 1.0,
        )
        before = client.health()["generation"]
        client.ingest(open_episode=open_record)
        client.ingest(extend=("http-visitor", last_t + 4.0))
        outcome = client.ingest(close=("http-visitor", last_t + 5.0))
        assert outcome["generation"] > before

    def test_double_close_maps_to_400(self, client):
        with pytest.raises(ServeHttpError) as excinfo:
            client.ingest(close=("http-visitor", None))
        assert excinfo.value.status == 400
