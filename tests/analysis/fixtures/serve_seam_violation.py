"""Seeded serve-seam violations (fixture — never imported by tests).

Lint-time stand-ins for the serving layer.  The ``serve-seam`` rule is
path-scoped to ``repro/serve/``, so the tests copy this file under such
a directory before linting; the directory itself is excluded from tree
walks, keeping the repo-wide clean gates away from the seeded lines.
"""

from __future__ import annotations


class EngineActor:
    def __init__(self, engine: object) -> None:
        self.engine = engine

    async def query(self, spec: object) -> object:
        return spec

    async def ingest(self, batch: object) -> int:
        return 0


class App:
    def __init__(self, engine: object, actor: EngineActor) -> None:
        self.engine = engine
        self.actor = actor

    async def good_query(self, spec: object) -> object:
        # The sanctioned seam: everything routes through the actor.
        return await self.actor.query(spec)

    async def good_ingest(self, batch: object) -> int:
        # Mutator *names* are fine when the receiver is the actor.
        return await self.actor.ingest(batch)

    async def bad_query(self, t: float, k: int) -> object:
        # VIOLATION(serve-seam): direct engine query from a handler.
        return self.engine.snapshot_topk(t, k)

    async def bad_ingest(self, records: list) -> int:
        # VIOLATION(serve-seam): direct engine mutation from a handler.
        return self.engine.ingest(records)

    async def bad_checkpoint(self) -> int:
        # VIOLATION(serve-seam): engine mutator off the actor thread.
        return self.engine.checkpoint()

    async def bad_internals(self, shard: object, records: list) -> None:
        # VIOLATION(serve-seam): reaching past the facade into the shard.
        shard.ingest_batch(records)

    async def bad_storage(self, backend: object, row: object) -> None:
        # VIOLATION(serve-seam): raw storage write from handler code.
        backend.append_rows([row])
