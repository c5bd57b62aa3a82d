"""The JSON wire layer: versioned codecs for the service's payloads.

Every message the service reads or writes goes through one of the codecs
here, so the HTTP handlers never touch raw dicts and the wire shape is
versioned in exactly one place.  Each encoded payload carries::

    {"wire_version": 1, "kind": "<payload kind>", ...fields...}

and every decoder validates the envelope before touching the fields, so
a client speaking a future incompatible revision fails loudly with a
:class:`WireError` instead of being half-understood.

Float fidelity
--------------

Timestamps and flows must survive the wire **bit-identically** — the
service's contract is that a query answered over HTTP equals the same
query answered in-process, and flows are compared exactly in tests.  The
codecs rely on the stdlib :mod:`json` round trip: ``json.dumps`` emits
floats via ``repr`` (the shortest digit string that parses back to the
same IEEE-754 double since Python 3.1) and ``json.loads`` parses with
``float``, so ``float(repr(x)) == x`` bit for bit, ``-0.0`` included.
Non-finite values are rejected in both directions — ``Infinity``/``NaN``
are not valid JSON, and no tracking timestamp or flow is legitimately
non-finite.  The property tests in ``tests/serve/test_wire.py`` pin the
round trip down to the byte pattern of the doubles.

Identifiers (object, device) are restricted to ``str`` and ``int`` on the
wire; other hashables the in-memory types tolerate have no canonical JSON
form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Union

from ..core.monitor import TopKUpdate
from ..core.queries import (
    IntervalTopKQuery,
    RankedPoi,
    SnapshotTopKQuery,
    TopKResult,
)
from ..geometry import Point, Polygon
from ..indoor.poi import Poi
from ..storage.sqlite import STORABLE_RECORD_IDS
from ..tracking.records import TrackingRecord

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "QuerySpec",
    "WireError",
    "decode_poi",
    "decode_query",
    "decode_record",
    "decode_result",
    "decode_update",
    "dumps",
    "encode_poi",
    "encode_query",
    "encode_record",
    "encode_result",
    "encode_update",
    "loads",
]

#: Version stamped into every wire payload.  Bump on any incompatible
#: field change; decoders reject other versions.
WIRE_SCHEMA_VERSION = 1

_QUERY_METHODS = ("join", "iterative")


class WireError(ValueError):
    """A payload failed wire validation (envelope, types, or ranges)."""


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One decoded ``POST /queries`` request: the query plus its strategy.

    Attributes:
        query: The paper query — Problem 1
            (:class:`~repro.core.queries.SnapshotTopKQuery`) or Problem 2
            (:class:`~repro.core.queries.IntervalTopKQuery`).
        method: ``"join"`` or ``"iterative"`` (validated at decode time).
    """

    query: Union[SnapshotTopKQuery, IntervalTopKQuery]
    method: str = "join"

    def __post_init__(self) -> None:
        if self.method not in _QUERY_METHODS:
            raise WireError(
                f"unknown query method {self.method!r}; "
                f"expected one of {_QUERY_METHODS}"
            )


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------


def dumps(payload: Mapping[str, Any]) -> str:
    """Serialize an encoded payload to canonical JSON text.

    Keys are sorted and separators compact, so identical payloads always
    produce identical bytes (SSE frames and test assertions rely on it).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(text: Union[str, bytes]) -> dict[str, Any]:
    """Parse JSON text into a payload mapping.

    Raises:
        WireError: If the text is not valid JSON or not a JSON object.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise WireError(f"invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise WireError("payload must be a JSON object")
    return payload


def _envelope(kind: str) -> dict[str, Any]:
    return {"wire_version": WIRE_SCHEMA_VERSION, "kind": kind}


def _check_envelope(payload: Mapping[str, Any], kind: str) -> None:
    if not isinstance(payload, Mapping):
        raise WireError(f"{kind} payload must be a JSON object")
    version = payload.get("wire_version")
    if version != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"unsupported wire_version {version!r} "
            f"(this service speaks {WIRE_SCHEMA_VERSION})"
        )
    actual = payload.get("kind")
    if actual != kind:
        raise WireError(f"expected kind {kind!r}, got {actual!r}")


def _wire_float(payload: Mapping[str, Any], field: str) -> float:
    value = payload.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"field {field!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise WireError(f"field {field!r} must be finite, got {value!r}")
    return value


def _wire_int(payload: Mapping[str, Any], field: str) -> int:
    value = payload.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _wire_str(payload: Mapping[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str):
        raise WireError(f"field {field!r} must be a string, got {value!r}")
    return value


def _wire_id(value: Any, field: str) -> Union[str, int]:
    """Validate an object/device identifier for the wire (str or int)."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise WireError(
            f"field {field!r} must be a string or integer identifier, "
            f"got {value!r}"
        )
    return value


def _require_finite(value: float, field: str) -> float:
    if not math.isfinite(value):
        raise WireError(f"field {field!r} must be finite, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Tracking records
# ----------------------------------------------------------------------


def encode_record(record: TrackingRecord) -> dict[str, Any]:
    """One OTT row as a wire payload (``kind="record"``)."""
    payload = _envelope("record")
    payload.update(
        record_id=record.record_id,
        object_id=_wire_id(record.object_id, "object_id"),
        device_id=_wire_id(record.device_id, "device_id"),
        t_s=_require_finite(record.t_s, "t_s"),
        t_e=_require_finite(record.t_e, "t_e"),
    )
    return payload


def decode_record(payload: Mapping[str, Any]) -> TrackingRecord:
    """Rebuild a :class:`TrackingRecord` from :func:`encode_record` output.

    Raises:
        WireError: On a bad envelope, field types, a ``record_id`` a
            SQLite store cannot keep, or an inverted episode (``t_e <
            t_s`` — re-raised from the record's own validation).
    """
    _check_envelope(payload, "record")
    record_id = _wire_int(payload, "record_id")
    if record_id not in STORABLE_RECORD_IDS:
        raise WireError(
            f"field 'record_id' must fit a signed 64-bit integer, got {record_id!r}"
        )
    try:
        return TrackingRecord(
            record_id=record_id,
            object_id=_wire_id(payload.get("object_id"), "object_id"),
            device_id=_wire_id(payload.get("device_id"), "device_id"),
            t_s=_wire_float(payload, "t_s"),
            t_e=_wire_float(payload, "t_e"),
        )
    except WireError:
        raise
    except ValueError as error:
        raise WireError(str(error)) from error


# ----------------------------------------------------------------------
# Query specs
# ----------------------------------------------------------------------


def encode_query(spec: QuerySpec) -> dict[str, Any]:
    """A query spec as a wire payload (``kind="query"``)."""
    payload = _envelope("query")
    query = spec.query
    if isinstance(query, SnapshotTopKQuery):
        payload.update(mode="snapshot", t=query.t, k=query.k)
    else:
        payload.update(
            mode="interval",
            t_start=query.t_start,
            t_end=query.t_end,
            k=query.k,
        )
    payload["method"] = spec.method
    return payload


def decode_query(payload: Mapping[str, Any]) -> QuerySpec:
    """Rebuild a :class:`QuerySpec` from :func:`encode_query` output.

    Raises:
        WireError: On a bad envelope, an unknown ``mode``/``method``, a
            non-positive ``k`` or an inverted window (re-raised from the
            query dataclasses' own validation).
    """
    _check_envelope(payload, "query")
    mode = payload.get("mode")
    method = payload.get("method", "join")
    if not isinstance(method, str):
        raise WireError(f"field 'method' must be a string, got {method!r}")
    try:
        if mode == "snapshot":
            query: Union[SnapshotTopKQuery, IntervalTopKQuery] = (
                SnapshotTopKQuery(
                    t=_wire_float(payload, "t"), k=_wire_int(payload, "k")
                )
            )
        elif mode == "interval":
            query = IntervalTopKQuery(
                t_start=_wire_float(payload, "t_start"),
                t_end=_wire_float(payload, "t_end"),
                k=_wire_int(payload, "k"),
            )
        else:
            raise WireError(
                f"unknown query mode {mode!r}; expected 'snapshot' or "
                "'interval'"
            )
        return QuerySpec(query=query, method=method)
    except WireError:
        raise
    except ValueError as error:
        raise WireError(str(error)) from error


# ----------------------------------------------------------------------
# POIs, results and updates
# ----------------------------------------------------------------------


def encode_poi(poi: Poi) -> dict[str, Any]:
    """A POI — id, room, labels and polygon vertices (``kind="poi"``)."""
    payload = _envelope("poi")
    payload.update(
        poi_id=poi.poi_id,
        room_id=poi.room_id,
        name=poi.name,
        category=poi.category,
        polygon=[[vertex.x, vertex.y] for vertex in poi.polygon.vertices],
    )
    return payload


def decode_poi(payload: Mapping[str, Any]) -> Poi:
    """Rebuild a :class:`Poi` from :func:`encode_poi` output."""
    _check_envelope(payload, "poi")
    vertices = payload.get("polygon")
    if not isinstance(vertices, list) or len(vertices) < 3:
        raise WireError("field 'polygon' must be a list of >= 3 [x, y] pairs")
    points = []
    for pair in vertices:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(
                isinstance(value, bool) or not isinstance(value, (int, float))
                for value in pair
            )
        ):
            raise WireError(f"bad polygon vertex {pair!r}; expected [x, y]")
        points.append(
            Point(
                _require_finite(float(pair[0]), "polygon.x"),
                _require_finite(float(pair[1]), "polygon.y"),
            )
        )
    return Poi(
        poi_id=_wire_str(payload, "poi_id"),
        polygon=Polygon(points),
        room_id=_wire_str(payload, "room_id"),
        name=_wire_str(payload, "name"),
        category=_wire_str(payload, "category"),
    )


def encode_result(result: TopKResult) -> dict[str, Any]:
    """A ranked top-k result (``kind="topk_result"``), POIs inlined."""
    payload = _envelope("topk_result")
    payload["entries"] = [
        {"poi": encode_poi(entry.poi), "flow": _require_finite(entry.flow, "flow")}
        for entry in result.entries
    ]
    return payload


def decode_result(payload: Mapping[str, Any]) -> TopKResult:
    """Rebuild a :class:`TopKResult` from :func:`encode_result` output."""
    _check_envelope(payload, "topk_result")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise WireError("field 'entries' must be a list")
    ranked = []
    for entry in entries:
        if not isinstance(entry, Mapping) or "poi" not in entry:
            raise WireError(f"bad result entry {entry!r}")
        ranked.append(
            RankedPoi(
                poi=decode_poi(entry["poi"]),
                flow=_wire_float(entry, "flow"),
            )
        )
    return TopKResult(entries=tuple(ranked))


def encode_update(update: TopKUpdate) -> dict[str, Any]:
    """A monitor tick — result plus the change sets (``kind="topk_update"``)."""
    payload = _envelope("topk_update")
    payload.update(
        t=_require_finite(update.t, "t"),
        result=encode_result(update.result),
        entered=list(update.entered),
        exited=list(update.exited),
        rank_changes=[list(change) for change in update.rank_changes],
        changed=update.changed,
    )
    return payload


def decode_update(payload: Mapping[str, Any]) -> TopKUpdate:
    """Rebuild a :class:`TopKUpdate` from :func:`encode_update` output."""
    _check_envelope(payload, "topk_update")
    entered = payload.get("entered")
    exited = payload.get("exited")
    changes = payload.get("rank_changes")
    if not isinstance(entered, list) or not all(
        isinstance(poi_id, str) for poi_id in entered
    ):
        raise WireError("field 'entered' must be a list of POI ids")
    if not isinstance(exited, list) or not all(
        isinstance(poi_id, str) for poi_id in exited
    ):
        raise WireError("field 'exited' must be a list of POI ids")
    if not isinstance(changes, list):
        raise WireError("field 'rank_changes' must be a list")
    rank_changes = []
    for change in changes:
        if (
            not isinstance(change, list)
            or len(change) != 3
            or not isinstance(change[0], str)
            or any(
                isinstance(rank, bool) or not isinstance(rank, int)
                for rank in change[1:]
            )
        ):
            raise WireError(
                f"bad rank change {change!r}; expected [poi_id, prev, new]"
            )
        rank_changes.append((change[0], change[1], change[2]))
    result = payload.get("result")
    if not isinstance(result, Mapping):
        raise WireError("field 'result' must be an encoded topk_result")
    return TopKUpdate(
        t=_wire_float(payload, "t"),
        result=decode_result(result),
        entered=tuple(entered),
        exited=tuple(exited),
        rank_changes=tuple(rank_changes),
    )
