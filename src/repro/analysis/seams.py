"""The seam table: every guarded mutator of the engine, in one list.

Fleet answers are bit-identical to the monolith only while every
mutation goes through the ingest seam, which keeps the object partition
(Definition 2's ``Φ(p) = Σ_o φ(o)``), the generation counters and the
memoised ``UR(o, t)`` / ``UR(o, [ts, te])`` epochs (Sections 3.1-3.2) in
lockstep.  Each :class:`Seam` row names one guarded method and says when
a call of it is a finding: the receiver is one of ``receivers`` (or is
un-inferred and ``untyped`` is set), the caller sits inside ``scope``
and it is neither in one of the allowed ``modules`` nor a method of one
of the allowed ``classes``.  The pseudo-method :data:`ATTRIBUTE_WRITE`
guards ``obj.attr = ...`` on the receiver classes the same way.

The ``seam`` checker reports the first violated row of a call site;
``cache-coherence`` reads the ``tracked`` rows (mutators whose caller
must bump the cache generation).  Modules match by dotted prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ATTRIBUTE_WRITE", "SEAMS", "Seam"]

#: The method name under which external attribute writes are guarded.
ATTRIBUTE_WRITE = "__setattr__"


@dataclass(frozen=True, slots=True)
class Seam:
    """One row; ``scope`` is a module prefix (``""``: everywhere)."""

    method: str
    receivers: frozenset[str]
    untyped: bool
    scope: str
    modules: frozenset[str]
    classes: frozenset[str]
    hint: str
    tracked: bool = False


def _rows(methods: str, receivers: str, *, untyped: bool, modules: str,
          classes: str = "", scope: str = "", hint: str,
          tracked: bool = False) -> tuple[Seam, ...]:
    return tuple(
        Seam(method, frozenset(receivers.split()), untyped, scope,
             frozenset(modules.split()), frozenset(classes.split()), hint,
             tracked)
        for method in methods.split()
    )


_OWNED = ("ShardState ARTree LiveTrackingTable EvaluationContext LruCache "
          "SQLiteBackend MemoryBackend")
#: The ingest seam: the engine facade and the modules implementing the
#: owned state.  The CSV importer and the datagen ``--store`` CLI write a
#: store before any table exists.
_SEAM_MODULES = (
    "repro.core.shard repro.core.engine repro.core.context "
    "repro.core.caching repro.index.artree repro.tracking.table "
    "repro.storage repro.tracking.io repro.datagen.__main__"
)
_SEAM_CLASSES = f"{_OWNED} FlowEngine LiveFlowEngine"
_ACTOR = ("; submit it through the EngineActor so the single-writer "
          "ordering holds")

SEAMS: tuple[Seam, ...] = (
    *_rows("ingest ingest_open extend_episode close_episode checkpoint",
           "FlowEngine LiveFlowEngine", untyped=True, scope="repro.serve",
           modules="repro.serve.actor repro.serve.client repro.serve.smoke",
           hint="mutates the engine off the actor's worker thread" + _ACTOR),
    *_rows("snapshot_topk interval_topk snapshot_flows interval_flows "
           "snapshot_density_topk interval_density_topk",
           "FlowEngine LiveFlowEngine", untyped=True, scope="repro.serve",
           modules="repro.serve.actor repro.serve.client repro.serve.smoke",
           hint="queries the engine off the actor's worker thread (queries "
           "mutate the caches too)" + _ACTOR),
    *_rows("ingest_batch ingest_open_episode extend_open_episode "
           "close_open_episode", "ShardState", untyped=True,
           modules="repro.core.shard repro.core.engine",
           hint="reaches into ShardState internals behind the engine's "
           "back; route records through FlowEngine.ingest() so "
           "partitioning and generation stay coherent"),
    *_rows("append_record patch_tail", "ARTree", untyped=True,
           modules="repro.index.artree repro.core.shard", tracked=True,
           hint="mutates AR-tree internals without bumping the context "
           "generation; ingest records through FlowEngine.ingest()"),
    *_rows("append append_batch extend_episode close_episode",
           "LiveTrackingTable", untyped=False, modules=_SEAM_MODULES,
           classes=_SEAM_CLASSES, tracked=True,
           hint="mutates the live table outside the engine's ingest "
           "seam; use FlowEngine.ingest() or its open-episode methods"),
    *_rows("append_rows rewrite_tail_row",
           "StorageBackend SQLiteBackend MemoryBackend",
           untyped=True, modules="repro.storage repro.tracking.table",
           classes="LiveTrackingTable",
           hint="writes storage backend internals behind the tracking "
           "table's back; ingest through FlowEngine.ingest() so the "
           "durable generation, the index and the cache epochs agree"),
    *_rows(ATTRIBUTE_WRITE, _OWNED, untyped=False, modules=_SEAM_MODULES,
           classes=_SEAM_CLASSES,
           hint="mutates engine-owned state outside the ingest seam; "
           "route it through the engine facade"),
)
