"""The engine actor: one single-writer task owning the venue's engine.

The flow engines are deliberately single-threaded — their region and
presence caches, AR-tree delta buffers and stats counters are mutated
without locks on every call (queries included: a "read" warms caches).
Rather than wrapping each of those layers in locking, the service runs
**one actor per venue**: every engine operation — query, ingest, monitor
tick, checkpoint — is enqueued as a closure on an :class:`asyncio.Queue`
and executed by a single consumer task on a dedicated one-thread
executor.  The engine therefore sees exactly one operation at a time, in
queue order, and the whole ingest/query interleaving is serialized and
deterministic: the final engine state equals the same operations applied
serially, which the concurrency battery in ``tests/serve/`` pins down to
bit-identical top-k results.

HTTP handlers never touch the engine object itself (the ``seam``
checker enforces it); they call the typed ``async`` methods below, each
of which routes through :meth:`EngineActor.submit`.

Standing monitors live actor-side too: a tick runs on the engine thread
like any other operation, and the resulting
:class:`~repro.core.monitor.TopKUpdate` is fanned out on the event-loop
thread to every subscriber's **bounded** queue.  A slow SSE consumer does
not stall the engine or other subscribers — the update is dropped for
that subscriber alone and counted (``Subscriber.dropped``, plus the
``serve.sse.dropped_updates`` counter in :mod:`repro.obs`).
"""

from __future__ import annotations

import asyncio
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from ..core.monitor import (
    SlidingIntervalTopKMonitor,
    SnapshotTopKMonitor,
    TopKUpdate,
)
from ..core.queries import IntervalTopKQuery, SnapshotTopKQuery, TopKResult
from ..indoor.poi import Poi
from ..obs import counter, obs_enabled
from ..tracking.records import ObjectId, TrackingRecord
from .wire import QuerySpec

__all__ = [
    "EngineActor",
    "IngestBatch",
    "IngestOutcome",
    "ServableEngine",
    "Subscriber",
]

#: Default bound on queued-but-unprocessed engine operations; submits
#: beyond it apply backpressure (await) rather than growing memory.
DEFAULT_MAX_PENDING = 1024

#: Default per-subscriber SSE queue bound (see :class:`Subscriber`).
DEFAULT_SUBSCRIBER_QUEUE = 16


class ServableEngine(Protocol):
    """What the service needs from an engine.

    Satisfied by :class:`~repro.core.engine.FlowEngine` (and its
    :class:`~repro.core.engine.LiveFlowEngine` subclass) at any
    ``num_shards`` — the actor is agnostic to whether one shard or a
    fleet answers.
    """

    @property
    def is_live(self) -> bool: ...

    @property
    def generation(self) -> int: ...

    def snapshot_topk(
        self,
        t: float,
        k: int,
        pois: Optional[Sequence[Poi]] = None,
        method: str = "join",
    ) -> TopKResult: ...

    def interval_topk(
        self,
        t_start: float,
        t_end: float,
        k: int,
        pois: Optional[Sequence[Poi]] = None,
        method: str = "join",
        use_segment_mbrs: bool = True,
    ) -> TopKResult: ...

    def ingest(self, records: Iterable[TrackingRecord]) -> int: ...

    def ingest_open(self, record: TrackingRecord) -> None: ...

    def extend_episode(
        self, object_id: ObjectId, t_e: float
    ) -> TrackingRecord: ...

    def close_episode(
        self, object_id: ObjectId, t_e: Optional[float] = None
    ) -> TrackingRecord: ...

    def stats(self) -> dict[str, int]: ...

    def checkpoint(self) -> int: ...

    def close(self) -> None: ...


@dataclass(frozen=True, slots=True)
class IngestBatch:
    """One ``POST /ingest`` request, decoded: the ops to apply in order.

    All ops of a batch run inside a **single** actor submission, so a
    batch is atomic with respect to other requests — no other query or
    ingest interleaves between its records, its episode ops and its
    optional monitor tick.
    """

    records: tuple[TrackingRecord, ...] = ()
    open_episode: Optional[TrackingRecord] = None
    extend: Optional[tuple[ObjectId, float]] = None
    close: Optional[tuple[ObjectId, Optional[float]]] = None
    tick_t: Optional[float] = None


@dataclass(frozen=True, slots=True)
class IngestOutcome:
    """What one :class:`IngestBatch` did."""

    ingested: int
    generation: int
    updates: tuple[tuple[str, TopKUpdate], ...] = ()
    """``(monitor_id, update)`` for every standing monitor ticked by the
    batch's ``tick_t`` (empty when no tick was requested)."""


@dataclass(slots=True)
class Subscriber:
    """One SSE consumer's bounded update queue plus drop accounting.

    ``None`` on the queue is the end-of-stream sentinel (monitor deleted
    or server shutting down).  When the queue is full the *newest* update
    is dropped for this subscriber — monitors re-deliver full results
    every tick, so a consumer that catches up is current again after one
    update — and ``dropped`` counts what it missed.
    """

    queue: "asyncio.Queue[Optional[TopKUpdate]]"
    dropped: int = 0


@dataclass(slots=True)
class _StandingMonitor:
    monitor_id: str
    kind: str
    monitor: Union[SnapshotTopKMonitor, SlidingIntervalTopKMonitor]
    subscribers: list[Subscriber] = field(default_factory=list)
    updates_published: int = 0

    def describe(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "monitor_id": self.monitor_id,
            "kind": self.kind,
            "k": self.monitor.k,
            "method": self.monitor.method,
            "subscribers": len(self.subscribers),
            "updates_published": self.updates_published,
            "dropped_updates": sum(s.dropped for s in self.subscribers),
        }
        if isinstance(self.monitor, SlidingIntervalTopKMonitor):
            payload["window_seconds"] = self.monitor.window_seconds
        return payload


@dataclass(slots=True)
class _Work:
    fn: Callable[[], Any]
    future: "asyncio.Future[Any]"


class EngineActor:
    """Single-writer ownership of one engine behind an async facade.

    Args:
        engine: The venue's engine; the actor takes ownership of its
            lifecycle (:meth:`stop` closes it unless told otherwise).
        max_pending: Bound on queued operations (backpressure beyond it).
    """

    def __init__(
        self, engine: ServableEngine, max_pending: int = DEFAULT_MAX_PENDING
    ) -> None:
        self._engine = engine
        self._queue: "asyncio.Queue[Optional[_Work]]" = asyncio.Queue(
            maxsize=max_pending
        )
        # One dedicated thread: the engine only ever runs here, so the
        # single-threaded engine needs no locks and the event loop stays
        # free to accept connections while a query computes.
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="engine-actor"
        )
        self._task: Optional["asyncio.Task[None]"] = None
        self._monitors: dict[str, _StandingMonitor] = {}
        self._monitor_ids = itertools.count(1)
        self._stopping = False
        self._processed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def engine(self) -> ServableEngine:
        """The owned engine — for introspection only.

        Calling engine methods from outside the actor breaks the
        single-writer guarantee (and the ``seam`` checker); route work
        through the async methods instead.
        """
        return self._engine

    @property
    def processed(self) -> int:
        """Operations executed so far (drained sentinel excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Operations queued but not yet executed."""
        return self._queue.qsize()

    async def start(self) -> None:
        """Spawn the consumer task (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="engine-actor"
            )

    async def stop(self, close_engine: bool = True) -> None:
        """Drain the queue, end subscriber streams, flush and close.

        Every operation already queued completes first (their futures
        resolve normally); new submissions are rejected.  With
        ``close_engine`` (the default) the engine's idempotent
        ``close()`` then runs on the engine thread — checkpointing every
        shard's storage WAL into its snapshot and releasing the store
        handles — so a graceful shutdown never loses acknowledged
        writes.
        """
        if self._stopping:
            return
        self._stopping = True
        if self._task is not None:
            await self._queue.put(None)
            await self._task
            self._task = None
        for standing in self._monitors.values():
            for subscriber in standing.subscribers:
                self._push(standing, subscriber, None)
        if close_engine:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._thread, self._engine.close)
        self._thread.shutdown(wait=True)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            work = await self._queue.get()
            try:
                if work is None:
                    return
                try:
                    result = await loop.run_in_executor(
                        self._thread, work.fn
                    )
                except Exception as error:
                    if not work.future.cancelled():
                        work.future.set_exception(error)
                else:
                    self._processed += 1
                    if not work.future.cancelled():
                        work.future.set_result(result)
            finally:
                self._queue.task_done()

    async def submit(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the engine thread, in queue order; await result.

        The one door to the engine: every public method below builds a
        closure and passes it here.

        Raises:
            RuntimeError: If the actor is stopping or was never started.
        """
        if self._stopping:
            raise RuntimeError("engine actor is stopped")
        if self._task is None:
            raise RuntimeError("engine actor is not started")
        future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        await self._queue.put(_Work(fn=fn, future=future))
        return await future

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    async def query(self, spec: QuerySpec) -> TopKResult:
        """Evaluate one top-k query (Problem 1 or 2) in queue order."""
        engine = self._engine

        def run() -> TopKResult:
            query = spec.query
            if isinstance(query, SnapshotTopKQuery):
                return engine.snapshot_topk(
                    query.t, query.k, method=spec.method
                )
            assert isinstance(query, IntervalTopKQuery)
            return engine.interval_topk(
                query.t_start, query.t_end, query.k, method=spec.method
            )

        result: TopKResult = await self.submit(run)
        return result

    async def stats(self) -> dict[str, int]:
        """The engine's evaluation counters (cache hits, regions, …)."""
        outcome: dict[str, int] = await self.submit(self._engine.stats)
        return outcome

    async def health(self) -> dict[str, Any]:
        """Liveness plus the engine's identity counters, via the queue.

        Going through the queue makes ``GET /health`` an end-to-end
        probe: it only answers while the actor is draining work.
        """
        engine = self._engine

        def probe() -> dict[str, Any]:
            return {
                "engine": type(engine).__name__,
                "live": engine.is_live,
                "generation": engine.generation,
            }

        payload: dict[str, Any] = await self.submit(probe)
        payload["monitors"] = len(self._monitors)
        payload["pending"] = self.pending
        payload["processed"] = self.processed
        return payload

    async def checkpoint(self) -> int:
        """Fold the storage WAL into its snapshot (live engines)."""
        folded: int = await self.submit(self._engine.checkpoint)
        return folded

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    async def ingest(self, batch: IngestBatch) -> IngestOutcome:
        """Apply one ingest batch atomically; optionally tick monitors.

        Raises (through the returned future):
            RuntimeError: If the engine is frozen-batch.
            ValueError: If a record fails at-append validation — records
                before it in the batch stay ingested, exactly as the
                engine's own partial-batch semantics document.
        """
        engine = self._engine
        monitors = list(self._monitors.values()) if batch.tick_t is not None else []

        def run() -> IngestOutcome:
            ingested = 0
            if batch.records:
                ingested += engine.ingest(batch.records)
            if batch.open_episode is not None:
                engine.ingest_open(batch.open_episode)
                ingested += 1
            if batch.extend is not None:
                engine.extend_episode(batch.extend[0], batch.extend[1])
            if batch.close is not None:
                engine.close_episode(batch.close[0], batch.close[1])
            updates: list[tuple[str, TopKUpdate]] = []
            if batch.tick_t is not None:
                for standing in monitors:
                    updates.append(
                        (
                            standing.monitor_id,
                            standing.monitor.advance(batch.tick_t),
                        )
                    )
            return IngestOutcome(
                ingested=ingested,
                generation=engine.generation,
                updates=tuple(updates),
            )

        outcome: IngestOutcome = await self.submit(run)
        for monitor_id, update in outcome.updates:
            standing = self._monitors.get(monitor_id)
            if standing is not None:
                self._broadcast(standing, update)
        return outcome

    # ------------------------------------------------------------------
    # Standing monitors and their subscribers
    # ------------------------------------------------------------------

    def create_monitor(
        self,
        kind: str,
        k: int,
        window_seconds: Optional[float] = None,
        method: str = "join",
    ) -> str:
        """Register a standing monitor; returns its id.

        Args:
            kind: ``"snapshot"`` (Problem 1 at each tick's instant) or
                ``"interval"`` (Problem 2 over a trailing window).
            k: Top-k size.
            window_seconds: Trailing window length; required for (and
                only meaningful with) ``kind="interval"``.
            method: Query strategy, ``"join"`` or ``"iterative"``.

        Raises:
            ValueError: On an unknown kind, a missing/extra window, or
                invalid ``k``/``window_seconds`` (from the monitors'
                own validation).
        """
        monitor: Union[SnapshotTopKMonitor, SlidingIntervalTopKMonitor]
        if kind == "snapshot":
            if window_seconds is not None:
                raise ValueError(
                    "window_seconds only applies to interval monitors"
                )
            monitor = SnapshotTopKMonitor(self._engine, k=k, method=method)
        elif kind == "interval":
            if window_seconds is None:
                raise ValueError("interval monitors need window_seconds")
            monitor = SlidingIntervalTopKMonitor(
                self._engine, k=k, window_seconds=window_seconds, method=method
            )
        else:
            raise ValueError(
                f"unknown monitor kind {kind!r}; expected 'snapshot' or "
                "'interval'"
            )
        monitor_id = f"mon-{next(self._monitor_ids)}"
        self._monitors[monitor_id] = _StandingMonitor(
            monitor_id=monitor_id, kind=kind, monitor=monitor
        )
        return monitor_id

    def monitor_info(self, monitor_id: str) -> Optional[dict[str, Any]]:
        """The monitor's description, or ``None`` if unknown."""
        standing = self._monitors.get(monitor_id)
        return None if standing is None else standing.describe()

    def list_monitors(self) -> list[dict[str, Any]]:
        """Descriptions of every standing monitor, in creation order."""
        return [s.describe() for s in self._monitors.values()]

    def drop_monitor(self, monitor_id: str) -> bool:
        """Delete a monitor, ending all its subscriber streams."""
        standing = self._monitors.pop(monitor_id, None)
        if standing is None:
            return False
        for subscriber in standing.subscribers:
            self._push(standing, subscriber, None)
        standing.subscribers.clear()
        return True

    async def tick_monitor(self, monitor_id: str, t: float) -> TopKUpdate:
        """Advance one monitor to ``t`` and broadcast the update.

        Raises:
            KeyError: If the monitor id is unknown.
            ValueError: If ``t`` precedes the monitor's previous tick.
        """
        standing = self._monitors.get(monitor_id)
        if standing is None:
            raise KeyError(f"unknown monitor {monitor_id!r}")
        monitor = standing.monitor
        update: TopKUpdate = await self.submit(lambda: monitor.advance(t))
        self._broadcast(standing, update)
        return update

    def subscribe(
        self, monitor_id: str, queue_size: int = DEFAULT_SUBSCRIBER_QUEUE
    ) -> Subscriber:
        """Attach a bounded-queue subscriber to a monitor's updates.

        Raises:
            KeyError: If the monitor id is unknown.
            ValueError: If ``queue_size`` is not positive.
        """
        standing = self._monitors.get(monitor_id)
        if standing is None:
            raise KeyError(f"unknown monitor {monitor_id!r}")
        if queue_size < 1:
            raise ValueError("queue_size must be positive")
        subscriber = Subscriber(queue=asyncio.Queue(maxsize=queue_size))
        standing.subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, monitor_id: str, subscriber: Subscriber) -> None:
        """Detach a subscriber (idempotent; unknown monitors ignored)."""
        standing = self._monitors.get(monitor_id)
        if standing is None:
            return
        try:
            standing.subscribers.remove(subscriber)
        except ValueError:
            pass

    def _broadcast(
        self, standing: _StandingMonitor, update: TopKUpdate
    ) -> None:
        standing.updates_published += 1
        for subscriber in standing.subscribers:
            self._push(standing, subscriber, update)

    def _push(
        self,
        standing: _StandingMonitor,
        subscriber: Subscriber,
        update: Optional[TopKUpdate],
    ) -> None:
        """Offer one update (or the end sentinel) to a bounded queue.

        The sentinel must always land, so one queued update is evicted
        for it if needed; regular updates are dropped (and counted) when
        the subscriber is full.
        """
        try:
            subscriber.queue.put_nowait(update)
        except asyncio.QueueFull:
            if update is None:
                try:
                    subscriber.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - raced drain
                    pass
                subscriber.queue.put_nowait(None)
                return
            subscriber.dropped += 1
            if obs_enabled():
                counter("serve.sse.dropped_updates", unit="updates").inc()
