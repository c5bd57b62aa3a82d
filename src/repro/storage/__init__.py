"""Durable, pluggable storage for the OTT and live episodes.

The paper's pipeline — symbolic readings → Object Tracking Table →
AR-tree → flow queries — was reproduced entirely in RAM, so a restart
lost every open episode.  This package puts a storage seam underneath the
:class:`~repro.tracking.table.LiveTrackingTable`:

* :class:`StorageBackend` — the protocol: append / extend / close an
  episode, bulk snapshot, replay-from-generation, iterate by object or
  time (:mod:`repro.storage.base`);
* :class:`MemoryBackend` — the in-RAM reference implementation and the
  default, keeping the pre-storage behaviour bit for bit
  (:mod:`repro.storage.memory`);
* :class:`SQLiteBackend` — the durable implementation: SQLite in WAL
  mode, one transaction per appended batch, open episodes as tail rows,
  idempotent ``record_id`` upserts (:mod:`repro.storage.sqlite`);
* :func:`default_live_backend` — the ``REPRO_STORAGE_BACKEND``
  environment switch CI uses to run the whole suite against either
  backend (:mod:`repro.storage.env`).

Recovery is snapshot + replay: :meth:`ARTree.build
<repro.index.artree.ARTree.build>` bulk-loads the persisted snapshot and
only the WAL tail is replayed through the live ingest seam, so a process
killed mid-ingest reopens to bit-identical top-k results.  See
``docs/storage.md`` for the backend-author guide.
"""

from .base import MUTATION_OPS, Mutation, StorageBackend, StoredRow, row_identity
from .env import ENV_VAR, default_live_backend
from .memory import MemoryBackend
from .sqlite import SQLiteBackend, sqlite_shard_stores

__all__ = [
    "MUTATION_OPS",
    "Mutation",
    "StorageBackend",
    "StoredRow",
    "row_identity",
    "ENV_VAR",
    "default_live_backend",
    "MemoryBackend",
    "SQLiteBackend",
    "sqlite_shard_stores",
]
