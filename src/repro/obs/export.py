"""Exporters: observability snapshots to dict, JSON and pretty tables.

One **snapshot** bundles a tracer's span rows and a registry's metrics
under a schema version, so downstream tooling (``perfbench``, the
service's ``/metrics``, a notebook) can consume a single stable shape:

.. code-block:: python

    {
        "schema_version": 1,
        "spans": [
            {"path": ["query.interval.join", "ur.build.gap"],
             "count": 42, "total_seconds": 0.31, ...},
            ...
        ],
        "metrics": {
            "artree.delta_probes": {"kind": "counter", "unit": "probes",
                                    "value": 12.0},
            ...
        },
    }

:func:`parse_snapshot` round-trips what the serializers produce and
rejects unknown schema versions, so a reader can never silently
misinterpret an old snapshot (see ``docs/observability.md`` for the
field catalogue).
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .metrics import REGISTRY, MetricsRegistry
from .tracing import TRACER, Tracer

__all__ = [
    "OBS_SCHEMA_VERSION",
    "format_table",
    "merge_snapshot_dicts",
    "parse_snapshot",
    "snapshot_dict",
    "snapshot_json",
]

#: Version stamped into every exported snapshot.  Bump on any
#: backwards-incompatible field change.
OBS_SCHEMA_VERSION = 1


def snapshot_dict(
    tracer: Tracer | None = None, registry: MetricsRegistry | None = None
) -> dict[str, Any]:
    """The current spans + metrics as one JSON-ready mapping.

    Args:
        tracer: Tracer to read (the process-wide :data:`TRACER` when
            omitted).
        registry: Registry to read (the process-wide :data:`REGISTRY`
            when omitted).

    Returns:
        A ``{"schema_version", "spans", "metrics"}`` mapping; span rows
        are path-sorted and metrics name-sorted, so identical runs
        produce identical structures.
    """
    tracer = tracer if tracer is not None else TRACER
    registry = registry if registry is not None else REGISTRY
    return {
        "schema_version": OBS_SCHEMA_VERSION,
        "spans": [stats.as_dict() for stats in tracer.snapshot()],
        "metrics": registry.export(),
    }


def snapshot_json(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    indent: int | None = 2,
) -> str:
    """:func:`snapshot_dict`, serialized to JSON text.

    Args:
        tracer: Tracer to read (process-wide default when omitted).
        registry: Registry to read (process-wide default when omitted).
        indent: JSON indentation (``None`` for compact output).

    Returns:
        JSON text with sorted keys (byte-stable for identical runs).
    """
    return json.dumps(
        snapshot_dict(tracer, registry), indent=indent, sort_keys=True
    )


def merge_snapshot_dicts(
    snapshots: "Sequence[Mapping[str, Any]]",
) -> dict[str, Any]:
    """Fold per-process (or per-phase) snapshots into one snapshot.

    Each process has its own tracer and registry, so a run spread over
    processes — or over phases separated by :func:`reset` — yields one
    :func:`snapshot_dict` each; this merges them into the same shape, so
    reports read identically for one and many.

    Merge rules, per span path and per metric name:

    * **spans** — ``count`` and ``total_seconds`` sum; ``min_seconds`` is
      the minimum over rows that observed anything, ``max_seconds`` the
      maximum.
    * **counters** — values sum.
    * **histograms** — per-bucket counts, ``sum`` and ``count`` add
      elementwise; bucket ``boundaries`` must agree exactly (they are
      part of the metric's identity).
    * **gauges** — the maximum value wins: gauges report occupancy-style
      levels, and the fleet-wide high-water mark is the conservative
      summary.

    Args:
        snapshots: Snapshot mappings from :func:`snapshot_dict` (at least
            one).

    Returns:
        The merged ``{"schema_version", "spans", "metrics"}`` mapping,
        span rows path-sorted and metrics name-sorted.

    Raises:
        ValueError: If no snapshots are given, schema versions disagree
            with this module's, a metric name maps to different kinds or
            units, or histogram boundaries differ.
    """
    if not snapshots:
        raise ValueError("merge_snapshot_dicts needs at least one snapshot")
    spans: dict[tuple[str, ...], dict[str, Any]] = {}
    metrics: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        version = snapshot.get("schema_version")
        if version != OBS_SCHEMA_VERSION:
            raise ValueError(
                f"cannot merge snapshot schema_version {version!r} "
                f"(this merger supports {OBS_SCHEMA_VERSION})"
            )
        for row in snapshot["spans"]:
            path = tuple(row["path"])
            merged = spans.get(path)
            if merged is None:
                spans[path] = dict(row)
                continue
            merged["total_seconds"] += row["total_seconds"]
            if row["count"]:
                if merged["count"]:
                    merged["min_seconds"] = min(
                        merged["min_seconds"], row["min_seconds"]
                    )
                else:
                    merged["min_seconds"] = row["min_seconds"]
                merged["max_seconds"] = max(
                    merged["max_seconds"], row["max_seconds"]
                )
            merged["count"] += row["count"]
        for name, payload in snapshot["metrics"].items():
            merged = metrics.get(name)
            if merged is None:
                metrics[name] = dict(payload)
                continue
            if merged["kind"] != payload["kind"]:
                raise ValueError(
                    f"metric {name!r} is a {merged['kind']} in one snapshot "
                    f"and a {payload['kind']} in another"
                )
            if merged["unit"] != payload["unit"]:
                raise ValueError(
                    f"metric {name!r} mixes units "
                    f"{merged['unit']!r} and {payload['unit']!r}"
                )
            if payload["kind"] == "counter":
                merged["value"] += payload["value"]
            elif payload["kind"] == "gauge":
                merged["value"] = max(merged["value"], payload["value"])
            else:
                if merged["boundaries"] != payload["boundaries"]:
                    raise ValueError(
                        f"histogram {name!r} bucket boundaries differ "
                        "between snapshots"
                    )
                merged["counts"] = [
                    a + b
                    for a, b in zip(merged["counts"], payload["counts"])
                ]
                merged["sum"] += payload["sum"]
                merged["count"] += payload["count"]
    return {
        "schema_version": OBS_SCHEMA_VERSION,
        "spans": [spans[path] for path in sorted(spans)],
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }


def parse_snapshot(text: str) -> dict[str, Any]:
    """Parse JSON produced by :func:`snapshot_json` back into a mapping.

    Args:
        text: The JSON document.

    Returns:
        The snapshot mapping (same shape as :func:`snapshot_dict`).

    Raises:
        ValueError: If the document is not an object, lacks the expected
            keys, or carries an unsupported ``schema_version``.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("snapshot must be a JSON object")
    version = payload.get("schema_version")
    if version != OBS_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported snapshot schema_version {version!r} "
            f"(this reader supports {OBS_SCHEMA_VERSION})"
        )
    if "spans" not in payload or "metrics" not in payload:
        raise ValueError("snapshot lacks 'spans'/'metrics'")
    return payload


def format_table(
    tracer: Tracer | None = None, registry: MetricsRegistry | None = None
) -> str:
    """A human-readable trace + metrics report (fixed-width tables).

    Span rows are indented by nesting depth, so the output reads as the
    span hierarchy documented in ``docs/observability.md``; each row
    shows call count, total and mean milliseconds.

    Args:
        tracer: Tracer to read (process-wide default when omitted).
        registry: Registry to read (process-wide default when omitted).

    Returns:
        The report text ('' plus a note when nothing was collected).
    """
    tracer = tracer if tracer is not None else TRACER
    registry = registry if registry is not None else REGISTRY
    lines: list[str] = []
    rows = tracer.snapshot()
    lines.append(f"{'span':<48} | {'count':>7} | {'total ms':>10} | {'mean ms':>9}")
    lines.append("-" * 84)
    if not rows:
        lines.append("(no spans collected)")
    for stats in rows:
        label = "  " * (stats.depth - 1) + stats.name
        total_ms = stats.total_seconds * 1000.0
        mean_ms = total_ms / stats.count if stats.count else 0.0
        lines.append(
            f"{label:<48} | {stats.count:>7} | {total_ms:>10.2f} | {mean_ms:>9.3f}"
        )
    lines.append("")
    lines.append(f"{'metric':<48} | {'kind':>9} | value")
    lines.append("-" * 84)
    metrics = registry.export()
    if not metrics:
        lines.append("(no metrics recorded)")
    for name, payload in metrics.items():
        if payload["kind"] == "histogram":
            value = f"n={payload['count']} sum={payload['sum']:.6g}"
        else:
            value = f"{payload['value']:g}"
        unit = f" {payload['unit']}" if payload["unit"] else ""
        lines.append(f"{name:<48} | {payload['kind']:>9} | {value}{unit}")
    return "\n".join(lines)
