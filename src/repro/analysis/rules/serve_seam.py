"""Rule: the service talks to the engine only through the engine actor.

The serving layer's whole concurrency story (PR 10) is the single-writer
actor: HTTP handlers run interleaved on the event loop, the engine is
single-threaded and lock-free, and the two coexist only because every
engine operation is a closure submitted to the actor's queue and run by
its one worker thread.  A handler that calls an engine method directly —
``engine.ingest(...)`` from a coroutine, a peek at ``snapshot_topk``, or
worse a reach into ``ShardState``/storage internals — executes on the
event-loop thread concurrently with the actor's worker and silently
breaks both thread-safety and the deterministic ingest/query ordering
the concurrency battery pins down.

This rule flags, inside :mod:`repro.serve` (minus the actor module that
*implements* the seam and the client/smoke modules that run in other
processes), any attribute call named like an engine mutator, an engine
query, a shard mutator, an AR-tree mutator or a storage writer — unless
the receiver chain ends in ``actor`` / ``_actor`` (i.e. the call goes
through the sanctioned :class:`~repro.serve.actor.EngineActor` facade).
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..linter import Diagnostic
from .base import Rule

__all__ = ["ServeSeamRule"]

#: Engine mutators: must run on the actor's worker, in queue order.
_ENGINE_MUTATORS = frozenset(
    {"ingest", "ingest_open", "extend_episode", "close_episode", "checkpoint"}
)

#: Engine queries: reads warm the region/presence caches, so they are
#: writes to the engine's internals and need the same serialization.
_ENGINE_QUERIES = frozenset(
    {
        "snapshot_topk",
        "interval_topk",
        "snapshot_flows",
        "interval_flows",
        "snapshot_density_topk",
        "interval_density_topk",
    }
)

#: Deeper internals a handler must never reach past the engine facade.
_INTERNALS = frozenset(
    {
        "ingest_batch",
        "ingest_open_episode",
        "extend_open_episode",
        "close_open_episode",
        "append_record",
        "patch_tail",
        "append_rows",
        "rewrite_tail_row",
    }
)

_GUARDED = _ENGINE_MUTATORS | _ENGINE_QUERIES | _INTERNALS

#: Modules inside repro/serve exempt from the rule: the actor implements
#: the seam (its closures run on the worker thread by construction), and
#: the client/smoke modules are client-side code whose method names
#: mirror the endpoints but have no engine in reach.
_EXEMPT_NAMES = frozenset({"actor.py", "client.py", "smoke.py"})

#: The sanctioned receivers: a terminal ``actor``/``_actor`` name means
#: the call is one of EngineActor's async conveniences.
_ACTOR_NAMES = frozenset({"actor", "_actor"})


def _in_serve(path: Path) -> bool:
    parts = path.parts
    for i in range(len(parts) - 1):
        if parts[i : i + 2] == ("repro", "serve"):
            return True
    return False


def _terminal_name(node: ast.expr) -> str | None:
    """The last name in a receiver chain: ``self.app.actor`` -> 'actor'."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ServeSeamRule(Rule):
    name = "serve-seam"
    description = (
        "repro.serve handlers route every engine operation through the "
        "EngineActor queue; no direct engine/ShardState/storage calls "
        "from coroutine code"
    )
    paper_ref = (
        "PR 10 serving model: the engine stays single-threaded and "
        "lock-free (its caches and index deltas mutate on every call, "
        "queries included), so the actor queue is the only sound seam "
        "between concurrent HTTP traffic and the paper's flow machinery; "
        "queue order is also what makes served ingest/query histories "
        "deterministic and bit-identical to serial replay"
    )

    def applies_to(self, path: Path) -> bool:
        return _in_serve(path) and path.name not in _EXEMPT_NAMES

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _GUARDED:
                continue
            receiver = _terminal_name(func.value)
            if receiver in _ACTOR_NAMES:
                continue
            if func.attr in _INTERNALS:
                hint = (
                    "reaches past the engine facade into shard/index/"
                    "storage internals"
                )
            elif func.attr in _ENGINE_MUTATORS:
                hint = "mutates the engine off the actor's worker thread"
            else:
                hint = (
                    "queries the engine off the actor's worker thread "
                    "(queries mutate the caches too)"
                )
            diagnostics.append(
                self.diagnostic(
                    path,
                    node,
                    f"direct .{func.attr}() {hint}; submit it through the "
                    "EngineActor (actor.query/ingest/…) so the single-"
                    "writer ordering holds",
                )
            )
        return diagnostics
