"""Checker: guarded mutators are called only from their seam.

Reads :data:`~repro.analysis.seams.SEAMS` and flags every call site and
external attribute write that breaks a row: a guarded (or un-inferred,
where the row says so) receiver, a caller in the row's scope, and
neither the caller's module nor its class allowed; nested functions
inherit their parent's allowance.  Receiver inference keeps it type
aware (``entries.append(...)`` on a list is no finding).  Findings are
reported in tests too: a test that drives a seam on purpose says so
with a justified ``allow-file(seam)`` pragma.
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import CallGraph
from ..linter import Check, Diagnostic
from ..program import ProjectModel
from ..seams import ATTRIBUTE_WRITE, SEAMS, Seam

__all__ = ["SeamChecker"]

_BY_METHOD: dict[str, list[Seam]] = {}
for _seam in SEAMS:
    _BY_METHOD.setdefault(_seam.method, []).append(_seam)


def _within(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _allowed(model: ProjectModel, seam: Seam, qualname: str) -> bool:
    function = model.functions.get(qualname)
    if function is None:  # module-level scope
        return _within(qualname.rsplit(".", 1)[0], seam.modules)
    if _within(function.module, seam.modules):
        return True
    if function.cls and function.cls.rsplit(".", 1)[-1] in seam.classes:
        return True
    parent = qualname.rsplit(".", 1)[0]
    return parent in model.functions and _allowed(model, seam, parent)


def guards(seam: Seam, receiver_type: str | None) -> bool:
    """Whether a call on ``receiver_type`` (a qualname) is guarded."""
    if receiver_type is None:
        return seam.untyped
    return receiver_type.rsplit(".", 1)[-1] in seam.receivers


def _violated(
    model: ProjectModel, method: str, receiver_type: str | None,
    caller: str, module: str,
) -> Seam | None:
    """The first row that a ``method`` call from ``caller`` breaks."""
    for seam in _BY_METHOD.get(method, ()):
        if (
            (not seam.scope or _within(module, (seam.scope,)))
            and guards(seam, receiver_type)
            and not _allowed(model, seam, caller)
        ):
            return seam
    return None


class SeamChecker(Check):
    name = "seam"
    description = (
        "guarded mutators (shard, AR-tree, live table, storage, engine "
        "from repro.serve) are called and engine-owned state is written "
        "only from the seam the seam table allows"
    )
    paper_ref = (
        "Definition 2's per-object flow decomposition and the memoised "
        "UR(o, t) / UR(o, [ts, te]) of Sections 3.1-3.2: fleet answers "
        "are bit-identical to the monolith only while partition routing, "
        "generation counters and cache epochs move in lockstep, and the "
        "service reaches the engine only through its actor queue"
    )

    def reportable(self, path: str, *, report_all: bool) -> bool:
        return True

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for site in graph.sites:
            seam = _violated(
                model, site.name, site.receiver_type, site.caller, site.module
            )
            if seam is not None:
                diagnostics.append(self.diagnostic(
                    model.modules[site.module].path, site.node,
                    f"{site.receiver or '<expr>'}.{site.name}() {seam.hint}",
                ))
        for write in model.attribute_writes:
            function = model.functions.get(write.function)
            if function is None:
                continue
            receiver = graph.infer_type(function, write.value_node)
            seam = _violated(
                model, ATTRIBUTE_WRITE, receiver, write.function, write.module
            )
            if seam is not None and receiver is not None:
                diagnostics.append(self.diagnostic(
                    model.modules[write.module].path, None,
                    f"attribute write {write.obj}.{write.attr} on "
                    f"{receiver.rsplit('.', 1)[-1]} {seam.hint}",
                    line=write.line, col=write.col,
                ))
        return diagnostics
