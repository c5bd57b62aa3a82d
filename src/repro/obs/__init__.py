"""repro.obs — zero-dependency observability for the query engine.

Three small layers, all stdlib-only:

* :mod:`repro.obs.tracing` — nested :class:`Span` context managers with
  monotonic timers, aggregated per nesting path by the process-wide
  :data:`TRACER`;
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms (:data:`REGISTRY`);
* :mod:`repro.obs.export` — schema-versioned dict / JSON / pretty-table
  exporters, plus the snapshot merge ``perfbench`` uses.

Instrumentation is **off by default** and costs ~nothing while off: every
site goes through :func:`span` (returns a shared no-op) or guards with
:func:`obs_enabled` (one attribute read).  Switch it on per process with
:func:`enable` or the ``REPRO_OBS=1`` environment variable:

.. code-block:: python

    from repro import obs

    obs.enable()
    engine.interval_topk(t0, t1, k=10)
    print(obs.format_table())      # per-phase timings + counters
    obs.reset()                    # next measurement starts clean

Span names and their paper anchors are catalogued in
``docs/observability.md``; the invariant that tracing never perturbs
query results or ``FlowEngine.stats()`` is enforced by ``tests/obs/``.
"""

from .export import (
    OBS_SCHEMA_VERSION,
    format_table,
    merge_snapshot_dicts,
    parse_snapshot,
    snapshot_dict,
    snapshot_json,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
)
from .tracing import (
    NOOP_SPAN,
    Span,
    SpanStats,
    TRACER,
    Tracer,
    disable,
    enable,
    obs_enabled,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "OBS_SCHEMA_VERSION",
    "REGISTRY",
    "Span",
    "SpanStats",
    "TRACER",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "format_table",
    "gauge",
    "histogram",
    "merge_snapshot_dicts",
    "obs_enabled",
    "parse_snapshot",
    "reset",
    "snapshot_dict",
    "snapshot_json",
    "span",
]


def reset() -> None:
    """Drop all collected spans and zero all metrics (process-wide).

    Registrations (metric names, units, histogram boundaries) survive;
    only the collected values are cleared, so a workload can be measured
    repeatedly from a clean slate.
    """
    TRACER.reset()
    REGISTRY.reset()
