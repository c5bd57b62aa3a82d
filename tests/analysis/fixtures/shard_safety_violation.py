"""Seeded shard-safety violations (fixture — never imported by tests).

Models the engine's shard shapes with local stand-ins so the checker's
name-based guards fire without importing repro.core.
"""

from __future__ import annotations


class ShardState:
    def __init__(self) -> None:
        self.generation = 0
        self.artree = object()

    def ingest_batch(self, records: list) -> None:
        self.generation += 1


# Only the engine's ingest seam may mutate a ShardState; each function
# below bypasses it.  The seeded lines are pinned by test_checkers.py,
# so this block keeps them where they were.


def rebuild_index(shard: ShardState) -> None:
    # VIOLATION(shard-safety): external attribute write to ShardState.
    shard.artree = object()


def sneak_ingest(shard: ShardState, records: list) -> None:
    # VIOLATION(shard-safety): guarded mutator call outside the seam.
    shard.ingest_batch(records)
