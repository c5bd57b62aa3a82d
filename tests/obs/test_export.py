"""Exporter round-trips and the snapshot schema."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    OBS_SCHEMA_VERSION,
    format_table,
    parse_snapshot,
    snapshot_dict,
    snapshot_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _populated() -> tuple[Tracer, MetricsRegistry]:
    tracer = Tracer()
    registry = MetricsRegistry()
    obs.enable()  # Tracer.span honours the global flag
    try:
        with tracer.span("query"):
            with tracer.span("phase"):
                pass
    finally:
        obs.disable()
    registry.counter("hits", unit="hits").inc(5)
    registry.histogram("lat", boundaries=(0.01, 0.1)).observe(0.05)
    return tracer, registry


def test_snapshot_dict_shape():
    tracer, registry = _populated()
    snap = snapshot_dict(tracer, registry)
    assert snap["schema_version"] == OBS_SCHEMA_VERSION
    assert [row["path"] for row in snap["spans"]] == [
        ["query"],
        ["query", "phase"],
    ]
    assert snap["metrics"]["hits"]["value"] == 5.0
    assert snap["metrics"]["lat"]["counts"] == [0, 1, 0]


def test_json_roundtrip():
    tracer, registry = _populated()
    text = snapshot_json(tracer, registry)
    assert parse_snapshot(text) == snapshot_dict(tracer, registry)


def test_json_is_byte_stable():
    """Identical runs serialize to identical bytes (sorted keys, sorted
    rows) — the property CI artifact diffing relies on."""
    first = snapshot_json(*_populated())
    second = snapshot_json(*_populated())
    # Wall-clock totals differ run to run; zero them out structurally.
    def normalized(text):
        payload = json.loads(text)
        for row in payload["spans"]:
            for key in ("total_seconds", "min_seconds", "max_seconds"):
                row[key] = 0.0
        return json.dumps(payload, sort_keys=True)

    assert normalized(first) == normalized(second)


def test_parse_rejects_bad_documents():
    with pytest.raises(ValueError, match="JSON object"):
        parse_snapshot("[1, 2]")
    with pytest.raises(ValueError, match="schema_version"):
        parse_snapshot(json.dumps({"schema_version": 999}))
    with pytest.raises(ValueError, match="spans"):
        parse_snapshot(json.dumps({"schema_version": OBS_SCHEMA_VERSION}))


def test_format_table_renders_hierarchy_and_metrics():
    tracer, registry = _populated()
    table = format_table(tracer, registry)
    lines = table.splitlines()
    query_line = next(line for line in lines if line.startswith("query"))
    phase_line = next(line for line in lines if line.lstrip().startswith("phase"))
    assert phase_line.startswith("  ")  # nested spans are indented
    assert "hits" in table and "histogram" in table
    assert query_line  # top-level span is flush left


def test_format_table_empty_state():
    table = format_table(Tracer(), MetricsRegistry())
    assert "(no spans collected)" in table
    assert "(no metrics recorded)" in table


def test_module_level_snapshot_uses_process_defaults():
    obs.enable()
    with obs.span("proc"):
        pass
    obs.counter("proc.count").inc()
    obs.disable()
    snap = snapshot_dict()
    assert [row["path"] for row in snap["spans"]] == [["proc"]]
    assert "proc.count" in snap["metrics"]
