"""Seeded storage-seam violations (fixture — never imported by tests).

Models the PR 8 backend shapes with local stand-ins so the checkers'
name-based guards fire without importing repro.storage.
"""

from __future__ import annotations


class SQLiteBackend:
    def __init__(self) -> None:
        self.generation = 0

    def append_rows(self, rows: list) -> int:
        self.generation += len(rows)
        return len(rows)

    def rewrite_tail_row(self, record: object, *, open: bool) -> None:
        self.generation += 1


class LiveTrackingTable:
    def __init__(self, backend: SQLiteBackend) -> None:
        self.backend = backend

    def append(self, record: object) -> bool:
        # The write-through path: guarded-class methods are the seam.
        return self.backend.append_rows([record]) == 1


def sneak_append(backend: SQLiteBackend, record: object) -> None:
    # VIOLATION(shard-safety): direct backend write outside the seam.
    backend.append_rows([record])


def sneak_rewrite(backend: SQLiteBackend, record: object) -> None:
    # VIOLATION(shard-safety): direct tail rewrite outside the seam.
    backend.rewrite_tail_row(record, open=False)


def reset_counter(backend: SQLiteBackend) -> None:
    # VIOLATION(shard-safety): external attribute write to the backend.
    backend.generation = 0
