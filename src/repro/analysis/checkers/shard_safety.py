"""Checker: shard state is only mutated through the engine's ingest seam.

The engine keeps its state in :class:`~repro.core.shard.ShardState`
partitions and routes every mutation to the owning shard, keeping three
things in lockstep: the routing partition (``crc32(object_id) % N``), the
live tables' generation counters and the context's per-object cache
epochs.  A ``ShardState`` (or the AR-tree / live table / cache internals
it owns) mutated behind the engine's back silently diverges from all
three — queries keep answering, with wrong bits.

Two whole-program checks, both interprocedural over the call graph:

1. **External attribute writes** — ``shard.artree = ...``,
   ``tree._delta = ...`` and friends are flagged anywhere outside the
   guarded class itself and the implementation modules.
2. **Mutator reachability** — calls of the guarded mutator methods
   (``ingest_batch``, ``append_record``, ``patch_tail``,
   ``LiveTrackingTable.append`` …) are flagged unless the calling
   function is part of the ingest seam (the guarded classes themselves
   or the engine facade).  Unlike the per-file ``context-bypass`` rule
   this is receiver-type aware (``entries.append(...)`` on a list is not
   a finding) and sees through helper indirection.
"""

from __future__ import annotations

from ..callgraph import CallGraph, CallSite
from ..linter import Diagnostic
from ..program import ProjectModel
from .base import Checker

__all__ = ["ShardSafetyChecker"]

#: Classes whose state is engine-owned (matched by bare name so the
#: checker also works on fixture trees that model the shapes).
GUARDED_CLASSES = frozenset(
    {
        "ShardState",
        "ARTree",
        "LiveTrackingTable",
        "EvaluationContext",
        "LruCache",
        "SQLiteBackend",
        "MemoryBackend",
    }
)

#: Facade classes allowed to drive shard mutations (the ingest seam).
SEAM_CLASSES = GUARDED_CLASSES | frozenset({"FlowEngine", "LiveFlowEngine"})

#: Modules that implement the seam and may touch internals directly.
SEAM_MODULES = frozenset(
    {
        "repro.core.shard",
        "repro.core.engine",
        "repro.core.coordinator",
        "repro.core.context",
        "repro.core.caching",
        "repro.index.artree",
        "repro.tracking.table",
        # The storage package implements the backends; the CSV importer
        # and the datagen --store CLI are producer seams that write to a
        # store *before* any table exists (PR 8).
        "repro.storage.base",
        "repro.storage.memory",
        "repro.storage.sqlite",
        "repro.storage.env",
        "repro.tracking.io",
        "repro.datagen.__main__",
    }
)

#: Guarded mutator methods: name -> receiver class names that make the
#: call guarded.  ``None`` in the set means "also guard when the receiver
#: type cannot be inferred" (distinctive names only).
GUARDED_MUTATORS: dict[str, frozenset[str | None]] = {
    "ingest_batch": frozenset({"ShardState", None}),
    "ingest_open_episode": frozenset({"ShardState", None}),
    "extend_open_episode": frozenset({"ShardState", None}),
    "close_open_episode": frozenset({"ShardState", None}),
    "append_record": frozenset({"ARTree", None}),
    "patch_tail": frozenset({"ARTree", None}),
    # Common names: only guarded when the receiver provably is the table.
    "append": frozenset({"LiveTrackingTable"}),
    "append_batch": frozenset({"LiveTrackingTable"}),
    "extend_episode": frozenset({"LiveTrackingTable"}),
    "close_episode": frozenset({"LiveTrackingTable"}),
    # Storage-backend mutators (PR 8): a direct write desynchronises the
    # durable generation counter from the table/index/cache lockstep.
    "append_rows": frozenset({"SQLiteBackend", "MemoryBackend", None}),
    "rewrite_tail_row": frozenset({"SQLiteBackend", "MemoryBackend", None}),
}


class ShardSafetyChecker(Checker):
    name = "shard-safety"
    description = (
        "ShardState / AR-tree / cache internals are mutated only from the "
        "engine's ingest seam"
    )
    paper_ref = (
        "Definition 2's per-object flow decomposition: the sharded "
        "Φ(p) = Σ_o φ(o) merge is bit-identical to the monolith only "
        "while partition routing, generation counters and cache epochs "
        "move in lockstep (PR 6 scale-out contract)"
    )

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        diagnostics.extend(self._check_writes(model, graph, report_all))
        diagnostics.extend(self._check_mutator_calls(model, graph, report_all))
        return diagnostics

    # ------------------------------------------------------------------
    # Seam membership
    # ------------------------------------------------------------------

    def _in_seam(self, model: ProjectModel, qualname: str) -> bool:
        function = model.functions.get(qualname)
        if function is None:
            # Module-level scope: seam modules only.
            module = qualname.rsplit(".", 1)[0]
            return module in SEAM_MODULES
        if function.module in SEAM_MODULES:
            return True
        cls = function.cls
        if cls is not None and cls.rsplit(".", 1)[-1] in SEAM_CLASSES:
            return True
        # Nested functions inherit their parent's seam membership.
        parent = qualname.rsplit(".", 1)[0]
        if parent in model.functions:
            return self._in_seam(model, parent)
        return False

    # ------------------------------------------------------------------
    # 1. External attribute writes
    # ------------------------------------------------------------------

    def _check_writes(
        self, model: ProjectModel, graph: CallGraph, report_all: bool
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for write in model.attribute_writes:
            module = model.modules.get(write.module)
            if module is None or not self.reportable(
                module.path, report_all=report_all
            ):
                continue
            function = model.functions.get(write.function)
            if function is None:
                continue
            # `self.x = ...` inside the guarded class is the implementation.
            receiver_cls: str | None = None
            if write.obj == "self":
                if function.cls is not None:
                    receiver_cls = function.cls.rsplit(".", 1)[-1]
                if receiver_cls in GUARDED_CLASSES:
                    continue
            else:
                inferred = graph.infer_type(function, write.value_node)
                if inferred is not None:
                    receiver_cls = inferred.rsplit(".", 1)[-1]
            if receiver_cls not in GUARDED_CLASSES:
                continue
            if self._in_seam(model, write.function):
                continue
            diagnostics.append(
                self.diagnostic(
                    module.path,
                    None,
                    f"attribute write {write.obj}.{write.attr} mutates "
                    f"{receiver_cls} state outside the engine's ingest "
                    "seam; route mutations through the engine facade "
                    "so partitioning, generation and cache epochs stay "
                    "coherent",
                    line=write.line,
                    col=write.col,
                )
            )
        return diagnostics

    # ------------------------------------------------------------------
    # 2. Guarded mutator calls outside the seam
    # ------------------------------------------------------------------

    def _guarded_site(self, site: CallSite) -> str | None:
        """The guarded receiver class for ``site``, or ``None``."""
        allowed = GUARDED_MUTATORS.get(site.name)
        if allowed is None:
            return None
        receiver_cls: str | None = None
        if site.receiver_type is not None:
            receiver_cls = site.receiver_type.rsplit(".", 1)[-1]
        if receiver_cls is not None:
            return receiver_cls if receiver_cls in allowed else None
        return site.name if None in allowed else None

    def _check_mutator_calls(
        self, model: ProjectModel, graph: CallGraph, report_all: bool
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for site in graph.sites:
            guarded = self._guarded_site(site)
            if guarded is None:
                continue
            module = model.modules.get(site.module)
            if module is None or not self.reportable(
                module.path, report_all=report_all
            ):
                continue
            if self._in_seam(model, site.caller):
                continue
            receiver = site.receiver or "<expr>"
            diagnostics.append(
                self.diagnostic(
                    module.path,
                    site.node,
                    f"{receiver}.{site.name}() mutates shard-owned state "
                    "outside the engine's ingest seam; use "
                    "FlowEngine.ingest() (or the open-episode facade "
                    "methods) instead",
                )
            )
        return diagnostics
