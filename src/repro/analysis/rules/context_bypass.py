"""Rule: uncertainty regions are built through the EvaluationContext.

The context's region/presence caches (PR 1) are only coherent if every
region derivation goes through :meth:`EvaluationContext.snapshot_region` /
:meth:`EvaluationContext.interval_uncertainty` — a direct call to the
low-level builders skips the memo layer, the stats counters and the
params-epoch stamping, so cached and fresh answers can silently diverge.
This rule flags imports and bare calls of the low-level builders outside
the modules that implement the caching layer itself.

The live-ingestion path (PR 3) adds a second coherence seam: appending a
record must bump the context's per-object tail epoch
(:meth:`EvaluationContext.note_append`) *and* patch the AR-tree delta, or
cached trail episodes keep serving stale extrapolations.
:meth:`FlowEngine.ingest` is the only call site that does all three
atomically, so direct ``.append_record(...)`` / ``.patch_tail(...)`` calls
on an AR-tree outside the index/engine layers are flagged too.

The storage seam (PR 8) closes the loop underneath: a
:class:`~repro.storage.base.StorageBackend` mutated directly — a bare
``.append_rows(...)`` / ``.rewrite_tail_row(...)`` outside the live
table's write-through path — desynchronises the durable generation
counter from the table, the AR-tree delta and the cache epochs, so a
later recovery replays history the in-memory layers never saw (or
vice versa).  Producer seams that write *before* any table exists (the
CSV importer, the datagen ``--store`` CLI) carry explicit suppressions.

``__init__.py`` re-exports are exempt (the names stay public for low-level
use, e.g. ablation studies — which then carry an explicit suppression).
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..linter import Diagnostic
from .base import Rule

__all__ = ["ContextBypassRule"]

#: The low-level builder functions owned by the caching layer.
_GUARDED = frozenset({"snapshot_region", "interval_uncertainty"})

#: AR-tree mutators owned by the ingest seam (ShardState keeps the tree,
#: the live table and the context generation in lockstep).
_GUARDED_MUTATORS = frozenset({"append_record", "patch_tail"})

#: ShardState mutators owned by the engine's ingest seam: a shard mutated
#: behind the engine's back diverges from the routing partition and the
#: engine's generation counter.
_GUARDED_SHARD_MUTATORS = frozenset(
    {
        "ingest_batch",
        "ingest_open_episode",
        "extend_open_episode",
        "close_open_episode",
    }
)

#: Path fragments of the modules allowed to touch the builders directly:
#: the context itself and the uncertainty package implementing them.
_BUILDER_ALLOWED = (
    ("core", "uncertainty"),
    ("core", "context.py"),
    ("repro", "analysis"),
)

#: Path fragments allowed to mutate AR-trees directly: the index module
#: implementing the mutators and the shard's atomic ingest path.
_MUTATOR_ALLOWED = (
    ("index", "artree.py"),
    ("core", "shard.py"),
    ("repro", "analysis"),
)

#: Path fragments allowed to call shard mutators directly: the shard
#: itself, the engine facade (which routes by the partition hash) and the
#: coordinator module (which builds the shards).
_SHARD_MUTATOR_ALLOWED = (
    ("core", "shard.py"),
    ("core", "engine.py"),
    ("core", "coordinator.py"),
    ("repro", "analysis"),
)

#: Storage-backend mutators owned by the live table's write-through path.
_GUARDED_STORAGE_MUTATORS = frozenset({"append_rows", "rewrite_tail_row"})

#: Path fragments allowed to mutate storage backends directly: the
#: storage package itself and the table that owns the write-through.
_STORAGE_MUTATOR_ALLOWED = (
    ("repro", "storage"),
    ("tracking", "table.py"),
    ("repro", "analysis"),
)


def _matches(path: Path, fragments: tuple[tuple[str, ...], ...]) -> bool:
    parts = path.parts
    for fragment in fragments:
        for i in range(len(parts) - len(fragment) + 1):
            if parts[i : i + len(fragment)] == fragment:
                return True
    return False


class ContextBypassRule(Rule):
    name = "context-bypass"
    description = (
        "no direct snapshot_region()/interval_uncertainty() outside the "
        "EvaluationContext caching layer, no direct AR-tree "
        "append_record()/patch_tail() outside the shard ingest path, "
        "no ShardState mutation outside the engine's ingest seam, and "
        "no StorageBackend append_rows()/rewrite_tail_row() outside the "
        "live table's write-through path"
    )
    paper_ref = (
        "PR 1 cache coherence: memoized UR(o, t) / UR(o, [ts, te]) must be "
        "the only derivation path (Sections 3.1-3.2); PR 3 extends the "
        "invariant to live appends (Section 4.1 index maintenance); the "
        "sharded coordinator extends it to the object partition "
        "(Definition 2's per-object flow decomposition); the storage seam "
        "extends it to the durable generation counter recovery replays"
    )

    def applies_to(self, path: Path) -> bool:
        # Both seams exempt the analysis package itself; everything else is
        # filtered per-category inside check().
        return not _matches(path, (("repro", "analysis"),))

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        source = Path(path)
        check_builders = not _matches(source, _BUILDER_ALLOWED)
        check_mutators = not _matches(source, _MUTATOR_ALLOWED)
        check_shard_mutators = not _matches(source, _SHARD_MUTATOR_ALLOWED)
        check_storage_mutators = not _matches(source, _STORAGE_MUTATOR_ALLOWED)
        is_reexport_module = source.name == "__init__.py"
        for node in ast.walk(tree):
            if (
                check_builders
                and isinstance(node, ast.ImportFrom)
                and not is_reexport_module
            ):
                for alias in node.names:
                    if alias.name in _GUARDED:
                        diagnostics.append(
                            self.diagnostic(
                                path,
                                node,
                                f"import of low-level {alias.name}(); derive "
                                f"regions through EvaluationContext.{alias.name} "
                                "so the memo layer stays coherent",
                            )
                        )
            elif check_builders and isinstance(node, ast.Import):
                for alias in node.names:
                    if "core.uncertainty" in alias.name:
                        diagnostics.append(
                            self.diagnostic(
                                path,
                                node,
                                f"import of {alias.name}; derive regions "
                                "through EvaluationContext instead of the "
                                "uncertainty modules",
                            )
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    check_builders
                    and isinstance(func, ast.Name)
                    and func.id in _GUARDED
                ):
                    diagnostics.append(
                        self.diagnostic(
                            path,
                            node,
                            f"direct {func.id}() call bypasses the "
                            "EvaluationContext region cache",
                        )
                    )
                elif (
                    check_mutators
                    and isinstance(func, ast.Attribute)
                    and func.attr in _GUARDED_MUTATORS
                ):
                    diagnostics.append(
                        self.diagnostic(
                            path,
                            node,
                            f"direct .{func.attr}() mutates the AR-tree "
                            "without bumping the context generation; ingest "
                            "records through FlowEngine.ingest() instead",
                        )
                    )
                elif (
                    check_shard_mutators
                    and isinstance(func, ast.Attribute)
                    and func.attr in _GUARDED_SHARD_MUTATORS
                ):
                    diagnostics.append(
                        self.diagnostic(
                            path,
                            node,
                            f"direct .{func.attr}() mutates a ShardState "
                            "behind the engine's back; route records "
                            "through FlowEngine.ingest() (or the "
                            "engine facade) so partitioning and generation "
                            "stay coherent",
                        )
                    )
                elif (
                    check_storage_mutators
                    and isinstance(func, ast.Attribute)
                    and func.attr in _GUARDED_STORAGE_MUTATORS
                ):
                    diagnostics.append(
                        self.diagnostic(
                            path,
                            node,
                            f"direct .{func.attr}() writes to a storage "
                            "backend behind the tracking table's back; "
                            "ingest through LiveTrackingTable.append() / "
                            "FlowEngine.ingest() so the durable generation "
                            "counter, the index and the cache epochs stay "
                            "in lockstep",
                        )
                    )
        return diagnostics
