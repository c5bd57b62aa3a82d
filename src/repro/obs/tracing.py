"""Query-phase tracing: nested spans aggregated by path.

A :class:`Span` is a context manager timing one phase of query processing
(``query.snapshot.join`` → ``candidates.snapshot`` → ``ur.snapshot`` →
``presence.quadrature`` …).  Spans nest: the process-wide :data:`TRACER`
keeps the stack of active span names, and on exit the elapsed time is
accumulated into per-*path* statistics — ``("query.interval.join",
"ur.build.gap")`` is a different row than ``("query.interval.iterative",
"ur.build.gap")``, which is exactly what per-phase cost attribution needs.

Timing uses :func:`time.perf_counter` (monotonic), so span durations are
never negative and an enclosing span's total always dominates the sum of
its children's totals.

**Cost when off.**  Instrumentation defaults to *disabled*: the
module-level flag (:func:`obs_enabled`, toggled by :func:`enable` /
:func:`disable` or the ``REPRO_OBS=1`` environment variable at import
time) makes :func:`span` return a shared no-op context manager, so an
instrumented hot path pays one function call, one attribute read and an
empty ``with`` block — no clock read, no allocation, no dict access.
``tests/obs/test_overhead.py`` bounds what that costs a live-ingest run.

Spans observe; they never influence.  No query result, cache key or
stats counter may depend on tracer state — `tests/obs/` asserts top-k
bit-identity and `FlowEngine.stats()` equality with tracing on and off.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Any

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanStats",
    "TRACER",
    "Tracer",
    "disable",
    "enable",
    "obs_enabled",
    "span",
]

#: Environment variable that switches instrumentation on at import time.
OBS_ENV_VAR = "REPRO_OBS"


class _Flag:
    """The module-level on/off switch (a slot, so reads are one lookup)."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


_FLAG = _Flag(os.environ.get(OBS_ENV_VAR, "").strip().lower() in {"1", "true", "yes", "on"})


def obs_enabled() -> bool:
    """Whether instrumentation is currently collecting.

    Returns:
        ``True`` when spans time and metrics record; ``False`` in the
        no-op default mode.
    """
    return _FLAG.enabled


def enable() -> None:
    """Switch instrumentation on (spans time, metrics record)."""
    _FLAG.enabled = True


def disable() -> None:
    """Switch instrumentation off (the ~zero-overhead default)."""
    _FLAG.enabled = False


@dataclass
class SpanStats:
    """Aggregated timings of one span *path* (a tuple of nested names).

    One row of a trace: how often the path was entered, and the total /
    min / max wall-clock seconds spent inside it (children included).
    """

    path: tuple[str, ...]
    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one completed span occurrence into the aggregate.

        Args:
            seconds: Elapsed time of the occurrence; clamped at zero so a
                pathological clock can never produce negative totals.
        """
        seconds = max(seconds, 0.0)
        self.count += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def name(self) -> str:
        """The leaf span name (last path element)."""
        return self.path[-1]

    @property
    def depth(self) -> int:
        """Nesting depth (1 for a top-level span)."""
        return len(self.path)

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready mapping (used by the exporters and baselines)."""
        return {
            "path": list(self.path),
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
        }


class Span:
    """A live span: times the enclosed block and reports to its tracer.

    Created via :meth:`Tracer.span` / the module-level :func:`span`; not
    meant to be constructed directly.  Re-entering a span instance is not
    supported — create a new one per ``with`` block.
    """

    __slots__ = ("_tracer", "_name", "_started")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._tracer._push(self._name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._started
        self._tracer._pop(self._name, elapsed)


class _NoopSpan:
    """The shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: The singleton no-op span (one object for the whole process).
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects span timings, aggregated by nesting path.

    A tracer owns a stack of active span names and a mapping from path
    tuples to :class:`SpanStats`.  The process-wide default is
    :data:`TRACER`; independent tracers can be created for tests.
    """

    def __init__(self) -> None:
        self._stack: list[str] = []
        self._stats: dict[tuple[str, ...], SpanStats] = {}

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def span(self, name: str) -> "Span | _NoopSpan":
        """A context manager timing ``name`` under the current nesting.

        Args:
            name: The span name; dotted lower-case by convention
                (``"ur.build.gap"``).

        Returns:
            A live :class:`Span` when instrumentation is enabled, the
            shared no-op span otherwise.
        """
        if not _FLAG.enabled:
            return NOOP_SPAN
        return Span(self, name)

    # ------------------------------------------------------------------
    # Internal bookkeeping (called by Span)
    # ------------------------------------------------------------------

    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, name: str, elapsed: float) -> None:
        # Exits must match enters even if the flag was toggled mid-span:
        # a live Span always pops what it pushed.
        path = tuple(self._stack)
        if not self._stack or self._stack[-1] != name:  # pragma: no cover
            raise RuntimeError(
                f"span nesting violated: exiting {name!r} but the active "
                f"stack is {self._stack!r}"
            )
        self._stack.pop()
        stats = self._stats.get(path)
        if stats is None:
            stats = SpanStats(path=path)
            self._stats[path] = stats
        stats.observe(elapsed)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    @property
    def active_depth(self) -> int:
        """How many spans are currently open (0 when idle)."""
        return len(self._stack)

    def snapshot(self) -> list[SpanStats]:
        """The collected rows, sorted by path (deterministic order).

        Returns:
            A list of copies — mutating them does not affect the tracer.
        """
        return [
            SpanStats(
                path=stats.path,
                count=stats.count,
                total_seconds=stats.total_seconds,
                min_seconds=stats.min_seconds,
                max_seconds=stats.max_seconds,
            )
            for _, stats in sorted(self._stats.items())
        ]

    def reset(self) -> None:
        """Drop all collected statistics (open spans stay on the stack)."""
        self._stats.clear()


#: The process-wide tracer all instrumentation sites report to.
TRACER = Tracer()


def span(name: str) -> "Span | _NoopSpan":
    """A span on the process-wide :data:`TRACER` (no-op when disabled).

    This is *the* instrumentation entry point the engine, algorithms,
    context and index call — ``docs/observability.md`` catalogues the
    names they use.

    Args:
        name: The span name (dotted lower-case).

    Returns:
        A context manager; enter/exit it around the phase to time.
    """
    if not _FLAG.enabled:
        return NOOP_SPAN
    return Span(TRACER, name)
