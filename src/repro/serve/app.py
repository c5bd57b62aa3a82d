"""The service application: routes, handlers and lifecycle.

:class:`ServeApp` wires one :class:`~repro.serve.actor.EngineActor`
(owning the venue's engine), one :class:`~repro.serve.jobs.JobStore` and
the :class:`~repro.serve.http.HttpServer` into the endpoint catalogue of
``docs/serving.md``:

========  ==========================  =====================================
Method    Path                        Purpose
========  ==========================  =====================================
GET       /health                     liveness + engine identity counters
GET       /metrics                    :mod:`repro.obs` snapshot + stats
POST      /queries                    top-k query (``?sync=false`` → job)
GET       /jobs/{id}                  deferred query status/result
POST      /ingest                     record batch + episode ops (+ tick)
POST      /checkpoint                 fold the storage WAL
POST      /monitors                   create a standing monitor
GET       /monitors                   list standing monitors
GET       /monitors/{id}              one monitor's description
DELETE    /monitors/{id}              drop a monitor, ending its streams
POST      /monitors/{id}/tick         advance a monitor, broadcast update
GET       /monitors/{id}/stream       SSE feed of the monitor's updates
========  ==========================  =====================================

Handlers never call the engine: they decode the wire payload, submit to
the actor, encode the outcome (the ``seam`` checker keeps it that
way).  Exceptions map to the uniform JSON error body in
:func:`repro.serve.http._error_response`.

:class:`ServerHandle` runs the whole app on a dedicated thread with its
own event loop — the harness tests, the benchmark and the CI smoke
client are synchronous, and the handle gives them a real listening
server with a blocking ``start()``/``stop()`` seam.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Mapping, Optional, Union

from ..obs import snapshot_dict
from ..tracking.records import ObjectId, TrackingRecord
from .actor import (
    DEFAULT_MAX_PENDING,
    DEFAULT_SUBSCRIBER_QUEUE,
    EngineActor,
    IngestBatch,
    ServableEngine,
)
from .http import (
    SSE_HEARTBEAT,
    EventStream,
    HttpServer,
    Request,
    Response,
    Router,
)
from .jobs import JobStore
from .wire import (
    QuerySpec,
    WireError,
    decode_query,
    decode_record,
    dumps,
    encode_result,
    encode_update,
    loads,
)

__all__ = ["ServeApp", "ServeConfig", "ServerHandle"]


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Tunables of one server process."""

    host: str = "127.0.0.1"
    port: int = 0
    """Listening port; ``0`` binds an ephemeral one (read it back from
    :attr:`ServeApp.port` after start)."""
    sse_queue_size: int = DEFAULT_SUBSCRIBER_QUEUE
    """Per-subscriber update queue bound; beyond it updates are dropped
    for that subscriber (and counted)."""
    max_pending: int = DEFAULT_MAX_PENDING
    """Engine-actor queue bound (backpressure beyond it)."""
    sse_heartbeat_seconds: float = 15.0
    """How long a stream may sit idle before a comment heartbeat frame
    is written.  The heartbeat is invisible to SSE clients but fails
    against a dead socket, so subscribers whose monitor never ticks are
    still reaped instead of leaking connection tasks."""


class ServeApp:
    """One venue's service: engine actor + job store + HTTP front."""

    def __init__(
        self, engine: ServableEngine, config: Optional[ServeConfig] = None
    ) -> None:
        self.config = config or ServeConfig()
        self.actor = EngineActor(engine, max_pending=self.config.max_pending)
        self.jobs = JobStore()
        self.router = Router()
        self._register_routes()
        self.server = HttpServer(
            router=self.router, host=self.config.host, port=self.config.port
        )
        self._job_tasks: "set[asyncio.Task[None]]" = set()

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self.server.port

    async def start(self) -> None:
        """Start the actor and bind the listener."""
        await self.actor.start()
        await self.server.start()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, settle jobs, drain, flush.

        Order matters: the listener closes first (cancelling SSE
        streams), in-flight deferred jobs settle next, and the actor
        stops last — draining every queued operation and then running
        the engine's ``close()`` (checkpoint + store release), so an
        acknowledged write is on disk when ``stop()`` returns.
        """
        await self.server.stop()
        if self._job_tasks:
            await asyncio.gather(*list(self._job_tasks), return_exceptions=True)
        await self.actor.stop()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        add = self.router.add
        add("GET", r"/health", "health", self._health)
        add("GET", r"/metrics", "metrics", self._metrics)
        add("POST", r"/queries", "queries", self._queries)
        add("GET", r"/jobs/(?P<job_id>[^/]+)", "jobs", self._job)
        add("POST", r"/ingest", "ingest", self._ingest)
        add("POST", r"/checkpoint", "checkpoint", self._checkpoint)
        add("POST", r"/monitors", "monitors_create", self._monitor_create)
        add("GET", r"/monitors", "monitors_list", self._monitor_list)
        add(
            "GET",
            r"/monitors/(?P<monitor_id>[^/]+)",
            "monitors_get",
            self._monitor_get,
        )
        add(
            "DELETE",
            r"/monitors/(?P<monitor_id>[^/]+)",
            "monitors_delete",
            self._monitor_delete,
        )
        add(
            "POST",
            r"/monitors/(?P<monitor_id>[^/]+)/tick",
            "monitors_tick",
            self._monitor_tick,
        )
        add(
            "GET",
            r"/monitors/(?P<monitor_id>[^/]+)/stream",
            "monitors_stream",
            self._monitor_stream,
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _health(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        payload = await self.actor.health()
        payload["jobs"] = self.jobs.counts()
        return Response.json(payload)

    async def _metrics(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        stats = await self.actor.stats()
        return Response.json(
            {
                "obs": snapshot_dict(),
                "engine": stats,
                "monitors": self.actor.list_monitors(),
            }
        )

    async def _queries(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        spec = decode_query(_body(request))
        if request.flag("sync", default=True):
            result = await self.actor.query(spec)
            return Response.json(encode_result(result))
        job = self.jobs.create(kind="query")
        task = asyncio.get_running_loop().create_task(
            self._run_job(job.job_id, spec), name=job.job_id
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return Response.json({"job_id": job.job_id, "status": "pending"}, status=202)

    async def _run_job(self, job_id: str, spec: QuerySpec) -> None:
        try:
            result = await self.actor.query(spec)
        except Exception as error:  # noqa: BLE001 - recorded on the job
            self.jobs.fail(job_id, f"{type(error).__name__}: {error}")
        else:
            self.jobs.finish(job_id, encode_result(result))

    async def _job(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        job = self.jobs.get(params["job_id"])
        if job is None:
            return Response.error(404, f"unknown job {params['job_id']!r}")
        return Response.json(job.as_dict())

    async def _ingest(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        batch = _decode_ingest(_body(request))
        outcome = await self.actor.ingest(batch)
        return Response.json(
            {
                "ingested": outcome.ingested,
                "generation": outcome.generation,
                "ticked": len(outcome.updates),
            }
        )

    async def _checkpoint(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        folded = await self.actor.checkpoint()
        return Response.json({"folded": folded})

    async def _monitor_create(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        payload = _body(request)
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise WireError("field 'kind' must be 'snapshot' or 'interval'")
        k = payload.get("k")
        if isinstance(k, bool) or not isinstance(k, int):
            raise WireError("field 'k' must be an integer")
        window = payload.get("window_seconds")
        if window is not None and (
            isinstance(window, bool) or not isinstance(window, (int, float))
        ):
            raise WireError("field 'window_seconds' must be a number")
        method = payload.get("method", "join")
        if not isinstance(method, str):
            raise WireError("field 'method' must be a string")
        monitor_id = self.actor.create_monitor(
            kind=kind,
            k=k,
            window_seconds=None if window is None else float(window),
            method=method,
        )
        return Response.json({"monitor_id": monitor_id}, status=202)

    async def _monitor_list(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        return Response.json({"monitors": self.actor.list_monitors()})

    async def _monitor_get(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        info = self.actor.monitor_info(params["monitor_id"])
        if info is None:
            return Response.error(
                404, f"unknown monitor {params['monitor_id']!r}"
            )
        return Response.json(info)

    async def _monitor_delete(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        if not self.actor.drop_monitor(params["monitor_id"]):
            return Response.error(
                404, f"unknown monitor {params['monitor_id']!r}"
            )
        return Response.json({"dropped": params["monitor_id"]})

    async def _monitor_tick(
        self, request: Request, params: Mapping[str, str]
    ) -> Response:
        payload = _body(request)
        t = payload.get("t")
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise WireError("field 't' must be a number")
        update = await self.actor.tick_monitor(params["monitor_id"], float(t))
        return Response.json(encode_update(update))

    async def _monitor_stream(
        self, request: Request, params: Mapping[str, str]
    ) -> Union[Response, EventStream]:
        monitor_id = params["monitor_id"]
        if self.actor.monitor_info(monitor_id) is None:
            return Response.error(404, f"unknown monitor {monitor_id!r}")
        queue_text = request.params.get("queue")
        queue_size = self.config.sse_queue_size
        if queue_text is not None:
            try:
                queue_size = int(queue_text)
            except ValueError as error:
                raise WireError("query parameter 'queue' must be an integer") from error
        subscriber = self.actor.subscribe(monitor_id, queue_size=queue_size)
        heartbeat = self.config.sse_heartbeat_seconds

        async def frames() -> AsyncIterator[str]:
            try:
                while True:
                    try:
                        update = await asyncio.wait_for(
                            subscriber.queue.get(), timeout=heartbeat
                        )
                    except asyncio.TimeoutError:
                        # Idle stream: yield a comment frame.  Writing
                        # it to a disconnected client raises, tearing
                        # this generator down (and unsubscribing below)
                        # even when the monitor never ticks.
                        yield SSE_HEARTBEAT
                        continue
                    if update is None:
                        return
                    yield dumps(encode_update(update))
            finally:
                self.actor.unsubscribe(monitor_id, subscriber)

        return EventStream(frames=frames())


# ----------------------------------------------------------------------
# Request body decoding
# ----------------------------------------------------------------------


def _body(request: Request) -> dict[str, Any]:
    """The request's JSON object body (WireError on anything else)."""
    if not request.body:
        raise WireError("request body must be a JSON object")
    return loads(request.body)


def _decode_ingest(payload: Mapping[str, Any]) -> IngestBatch:
    """Decode a ``POST /ingest`` body into an :class:`IngestBatch`.

    Body shape (all fields optional, applied in this order)::

        {"records": [<record>...],      # closed records, wire-encoded
         "open": <record>,              # open one episode
         "extend": {"object_id": ..., "t_e": ...},
         "close": {"object_id": ..., "t_e": ...?},
         "tick_t": <float>}             # advance all standing monitors

    Raises:
        WireError: On unknown fields or bad shapes — unknown keys are
            rejected so a typo ("record") fails loudly instead of
            silently ingesting nothing.
    """
    known = {"records", "open", "extend", "close", "tick_t"}
    unknown = set(payload) - known
    if unknown:
        raise WireError(
            f"unknown ingest fields {sorted(unknown)!r}; expected {sorted(known)!r}"
        )
    records: list[TrackingRecord] = []
    raw_records = payload.get("records", [])
    if not isinstance(raw_records, list):
        raise WireError("field 'records' must be a list of encoded records")
    for raw in raw_records:
        if not isinstance(raw, Mapping):
            raise WireError(f"bad record payload {raw!r}")
        records.append(decode_record(raw))
    open_episode: Optional[TrackingRecord] = None
    raw_open = payload.get("open")
    if raw_open is not None:
        if not isinstance(raw_open, Mapping):
            raise WireError("field 'open' must be an encoded record")
        open_episode = decode_record(raw_open)
    extend = _decode_episode_op(payload.get("extend"), "extend", t_e_required=True)
    close = _decode_episode_op(payload.get("close"), "close", t_e_required=False)
    tick_t: Optional[float] = None
    raw_tick = payload.get("tick_t")
    if raw_tick is not None:
        if isinstance(raw_tick, bool) or not isinstance(raw_tick, (int, float)):
            raise WireError("field 'tick_t' must be a number")
        tick_t = float(raw_tick)
    return IngestBatch(
        records=tuple(records),
        open_episode=open_episode,
        extend=None if extend is None else (extend[0], _require_t_e(extend)),
        close=close,
        tick_t=tick_t,
    )


def _decode_episode_op(
    raw: Any, name: str, t_e_required: bool
) -> Optional[tuple[ObjectId, Optional[float]]]:
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise WireError(f"field {name!r} must be an object")
    object_id = raw.get("object_id")
    if isinstance(object_id, bool) or not isinstance(object_id, (str, int)):
        raise WireError(f"{name}.object_id must be a string or integer")
    t_e = raw.get("t_e")
    if t_e is None:
        if t_e_required:
            raise WireError(f"{name}.t_e is required")
        return (object_id, None)
    if isinstance(t_e, bool) or not isinstance(t_e, (int, float)):
        raise WireError(f"{name}.t_e must be a number")
    return (object_id, float(t_e))


def _require_t_e(op: tuple[ObjectId, Optional[float]]) -> float:
    t_e = op[1]
    assert t_e is not None  # _decode_episode_op enforced it
    return t_e


# ----------------------------------------------------------------------
# Threaded harness
# ----------------------------------------------------------------------


@dataclass
class ServerHandle:
    """A running server on its own thread — the synchronous harness.

    Tests, the benchmark and the CI smoke client are synchronous code;
    the handle boots a :class:`ServeApp` on a dedicated thread with its
    own event loop, blocks until the listener is bound, and tears the
    whole stack down (graceful: drain + checkpoint) on :meth:`stop` /
    context-manager exit::

        with ServerHandle(engine) as handle:
            client = ServeClient(handle.base_url)
            client.health()
    """

    engine: ServableEngine
    config: ServeConfig = field(default_factory=ServeConfig)
    _thread: Optional[threading.Thread] = None
    _started: threading.Event = field(default_factory=threading.Event)
    _loop: Optional[asyncio.AbstractEventLoop] = None
    _shutdown: Optional["asyncio.Event"] = None
    _app: Optional[ServeApp] = None
    _error: Optional[BaseException] = None

    def start(self) -> "ServerHandle":
        """Boot the server thread; returns once the port is bound.

        Raises:
            RuntimeError: If the server failed to boot (the underlying
                error is chained).
        """
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if not self._started.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def stop(self) -> None:
        """Graceful shutdown; blocks until the thread exits (idempotent)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        app = self._app
        if app is None:
            raise RuntimeError("server is not started")
        return app.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.config.host}:{self.port}"

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # pragma: no cover - boot failures
            self._error = error
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._app = ServeApp(self.engine, self.config)
        try:
            await self._app.start()
        except BaseException as error:
            self._error = error
            self._started.set()
            return
        self._started.set()
        await self._shutdown.wait()
        await self._app.stop()
