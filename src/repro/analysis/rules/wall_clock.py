"""Rule: no wall-clock reads inside the query-engine hot paths.

The benchmark harness measures ``core``/``geometry``/``index`` code from
the outside (``repro.bench.harness``); a ``time.time()`` or
``datetime.now()`` *inside* those packages either smuggles timing into
results (bench-integrity) or — worse — makes a query answer depend on when
it ran.  Query semantics depend only on the queried timestamps, never on
the current time.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..linter import Diagnostic
from .base import Rule

__all__ = ["WallClockRule"]

#: The hot-path packages the rule guards (path fragments).
_HOT_FRAGMENTS = (
    ("repro", "core"),
    ("repro", "geometry"),
    ("repro", "index"),
)

_TIME_FUNCS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "thread_time"}
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    name = "wall-clock"
    description = "no time.time()/datetime.now() in core/geometry/index hot paths"
    paper_ref = (
        "Section 5 benchmark integrity: engine code is timed from the "
        "outside, and answers depend only on queried timestamps"
    )

    def applies_to(self, path: Path) -> bool:
        parts = path.parts
        for fragment in _HOT_FRAGMENTS:
            for i in range(len(parts) - len(fragment) + 1):
                if parts[i : i + len(fragment)] == fragment:
                    return True
        return False

    def check_tree(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            attribute = node.func
            value = attribute.value
            base = None
            if isinstance(value, ast.Name):
                base = value.id
            elif isinstance(value, ast.Attribute):
                base = value.attr
            if base == "time" and attribute.attr in _TIME_FUNCS:
                diagnostics.append(
                    self.diagnostic(
                        path,
                        node,
                        f"time.{attribute.attr}() in an engine hot path; "
                        "time from the bench harness instead",
                    )
                )
            elif base == "datetime" and attribute.attr in _DATETIME_FUNCS:
                diagnostics.append(
                    self.diagnostic(
                        path,
                        node,
                        f"datetime.{attribute.attr}() in an engine hot path; "
                        "query answers must not depend on the current time",
                    )
                )
        return diagnostics
