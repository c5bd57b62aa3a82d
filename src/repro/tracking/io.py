"""Reading and writing tracking data.

Real deployments deliver raw readings or pre-merged tracking records as
flat files; these helpers load them into the library's types and write
them back out.  CSV is the interchange format: one row per reading or
record, with a header.

Schemas::

    readings:  object_id,device_id,t
    records:   record_id,object_id,device_id,t_s,t_e

Record import runs through the storage seam: every parsed row is
appended to a :class:`~repro.storage.base.StorageBackend` (idempotently —
re-importing a file a crashed import half-finished just skips the stored
prefix), and a frozen table is a :meth:`ObjectTrackingTable.from_backend
<repro.tracking.table.ObjectTrackingTable.from_backend>` snapshot of the
store.  :func:`load_ott_csv` is the one-call composition of the two over
a throwaway in-memory store; pass a :class:`~repro.storage.sqlite.SQLiteBackend`
to :func:`import_records_csv` instead to make the file durable.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..storage.base import StorageBackend, StoredRow, chunked_rows
from ..storage.memory import MemoryBackend
from .records import RawReading, TrackingRecord
from .table import ObjectTrackingTable

__all__ = [
    "save_readings_csv",
    "load_readings_csv",
    "save_ott_csv",
    "load_ott_csv",
    "import_records_csv",
    "export_records_csv",
]

_READING_FIELDS = ("object_id", "device_id", "t")
_RECORD_FIELDS = ("record_id", "object_id", "device_id", "t_s", "t_e")


def save_readings_csv(readings: Iterable[RawReading], path: str | Path) -> int:
    """Write raw readings; returns the number of rows written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_READING_FIELDS)
        for reading in readings:
            writer.writerow(
                (str(reading.object_id), str(reading.device_id), repr(reading.t))
            )
            count += 1
    return count


def load_readings_csv(path: str | Path) -> list[RawReading]:
    """Load raw readings written by :func:`save_readings_csv`."""
    readings = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        _require_fields(reader.fieldnames, _READING_FIELDS, path)
        for line_number, row in enumerate(reader, start=2):
            try:
                readings.append(
                    RawReading(
                        object_id=row["object_id"],
                        device_id=row["device_id"],
                        t=float(row["t"]),
                    )
                )
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: bad reading row {row!r}"
                ) from error
    return readings


def save_ott_csv(ott: Iterable[TrackingRecord], path: str | Path) -> int:
    """Write tracking records (a table or any iterable); returns the count."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        for record in ott:
            writer.writerow(
                (
                    record.record_id,
                    str(record.object_id),
                    str(record.device_id),
                    repr(record.t_s),
                    repr(record.t_e),
                )
            )
            count += 1
    return count


def _record_from_row(
    row: Mapping[str, str], path: str | Path, line_number: int
) -> TrackingRecord:
    """The one place a record row is parsed (shared by every import path)."""
    try:
        return TrackingRecord(
            record_id=int(row["record_id"]),
            object_id=row["object_id"],
            device_id=row["device_id"],
            t_s=float(row["t_s"]),
            t_e=float(row["t_e"]),
        )
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"{path}:{line_number}: bad record row {row!r}"
        ) from error


def import_records_csv(path: str | Path, backend: StorageBackend) -> int:
    """Append a record CSV's rows to a storage backend, idempotently.

    Rows whose ``record_id`` the store already holds are skipped (their
    identity is still checked), so re-running an interrupted import picks
    up where it stopped instead of failing or duplicating.  Rows are
    written in chunks of :data:`~repro.storage.base.BULK_CHUNK_ROWS`, one
    backend call (one SQLite transaction) each; a malformed row stops the
    import before its chunk is written.

    Args:
        path: A CSV written by :func:`save_ott_csv`.
        backend: The store to append into.

    Returns:
        The number of rows actually appended (redeliveries excluded).

    Raises:
        ValueError: On a malformed header/row, or if a stored ``record_id``
            reappears with a different identity.
    """
    count = 0
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        _require_fields(reader.fieldnames, _RECORD_FIELDS, path)
        rows = (
            StoredRow(_record_from_row(row, path, line_number))
            for line_number, row in enumerate(reader, start=2)
        )
        for chunk in chunked_rows(rows):
            # Rows land in the store first; tables are built from it
            # afterwards, so there is no table to go through yet.
            # repro: allow(seam): the import seam is the writer
            count += backend.append_rows(chunk)
    return count


def export_records_csv(backend: StorageBackend, path: str | Path) -> int:
    """Write a store's current rows (snapshot ⊕ tail) as a record CSV.

    The inverse of :func:`import_records_csv`; open episodes are written
    at their current extent.  Returns the number of rows written.
    """
    return save_ott_csv(
        (row.record for row in backend.iter_rows()), path
    )


def load_ott_csv(path: str | Path) -> ObjectTrackingTable:
    """Load (and freeze) an OTT written by :func:`save_ott_csv`.

    The file → backend → ``freeze()`` round trip over a throwaway
    in-memory store.  Raises ``ValueError`` on malformed rows and on
    temporally inconsistent data (overlapping records of one object), so
    bad files fail loudly at load time rather than corrupting query
    results.
    """
    backend = MemoryBackend()
    import_records_csv(path, backend)
    return ObjectTrackingTable.from_backend(backend)


def _require_fields(
    fieldnames: Sequence[str] | None,
    expected: Sequence[str],
    path: str | Path,
) -> None:
    if fieldnames is None or tuple(fieldnames) != tuple(expected):
        raise ValueError(
            f"{path}: expected header {','.join(expected)}, "
            f"got {fieldnames!r}"
        )
