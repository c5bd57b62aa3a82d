"""Checker: tracked-state mutators invalidate caches on the same path.

The caching layer (PR 4/6) memoises presence integrals and uncertainty
regions, keyed by the :class:`EvaluationContext`'s
``data_generation`` counter and per-object tail epochs.  The contract:
any function that calls a ``tracked`` mutator of the seam table
(:data:`~repro.analysis.seams.SEAMS`: the AR-tree and live-table
appends and patches) must — before returning — bump the generation
counter, either directly
or by calling ``EvaluationContext.note_append``.  A mutator that can
return without invalidation leaves memoised results stale: queries keep
answering from cache while the underlying AR-tree has moved on.

The check is interprocedural: a function "invalidates" if it calls
``note_append`` / writes a generation counter itself **or** (confidently)
calls a function that does, computed as a fixpoint over the call graph.
Every tracked-mutator call site whose enclosing function does not
invalidate — and is not a method of the class that owns the state (a
tracked row's receiver) — is flagged.  This is a per-function approximation of the real "on every
path" property: it catches the dangerous shape (mutate, never
invalidate) without path-sensitive analysis.
"""

from __future__ import annotations

from ..callgraph import CallGraph
from ..linter import Diagnostic
from ..program import ProjectModel
from ..seams import SEAMS
from .base import Checker
from .seam import guards

__all__ = ["CacheCoherenceChecker"]

#: The seam rows whose callers must invalidate, and the classes owning
#: that state (their internals keep their own bookkeeping).
_TRACKED = tuple(seam for seam in SEAMS if seam.tracked)
_OWNERS = frozenset(cls for seam in _TRACKED for cls in seam.receivers)

#: Calls that count as invalidation.
INVALIDATOR_CALLS = frozenset({"note_append"})

#: Attribute writes that count as invalidation (generation counters and
#: epoch maps, by naming convention).
_INVALIDATOR_ATTR_MARKERS = ("generation", "epoch")


def _is_invalidating_attr(attr: str) -> bool:
    lowered = attr.lower()
    return any(marker in lowered for marker in _INVALIDATOR_ATTR_MARKERS)


class CacheCoherenceChecker(Checker):
    name = "cache-coherence"
    description = (
        "functions that append/patch tracked state must bump the "
        "generation counter or call note_append before returning"
    )
    paper_ref = (
        "incremental Φ(p) maintenance (PAPER.md §5): memoised presence "
        "and flow results are only reusable while the generation stamp "
        "matches the AR-tree contents"
    )

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        invalidating = self._invalidating_functions(model, graph)
        diagnostics: list[Diagnostic] = []
        for site in graph.sites:
            if not any(
                seam.method == site.name and guards(seam, site.receiver_type)
                for seam in _TRACKED
            ):
                continue
            module = model.modules.get(site.module)
            if module is None or not self.reportable(
                module.path, report_all=report_all
            ):
                continue
            if self._storage_internal(model, site.caller):
                continue
            if site.caller in invalidating:
                continue
            receiver = site.receiver or "<expr>"
            diagnostics.append(
                self.diagnostic(
                    module.path,
                    site.node,
                    f"{receiver}.{site.name}() mutates tracked state but the "
                    "enclosing function never bumps the generation counter "
                    "nor calls note_append (directly or via a callee); "
                    "memoised presence/flow results go stale",
                )
            )
        return diagnostics

    # ------------------------------------------------------------------

    def _storage_internal(self, model: ProjectModel, qualname: str) -> bool:
        function = model.functions.get(qualname)
        cls = function.cls if function is not None else None
        return cls is not None and cls.rsplit(".", 1)[-1] in _OWNERS

    def _invalidating_functions(
        self, model: ProjectModel, graph: CallGraph
    ) -> set[str]:
        """Functions that (transitively) invalidate — a reverse fixpoint."""
        invalidating: set[str] = set()
        for qualname, sites in graph.sites_by_caller.items():
            if any(site.name in INVALIDATOR_CALLS for site in sites):
                invalidating.add(qualname)
        for write in model.attribute_writes:
            if _is_invalidating_attr(write.attr):
                invalidating.add(write.function)
        # Propagate along reverse edges: a caller of an invalidating
        # function invalidates too.  Worklist until fixpoint.
        queue = list(invalidating)
        while queue:
            current = queue.pop()
            for caller in graph.reverse.get(current, set()):
                if caller not in invalidating:
                    invalidating.add(caller)
                    queue.append(caller)
        return invalidating
