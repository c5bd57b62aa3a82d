"""Checker: unordered iteration must not feed float accumulation.

Float addition is not associative, so the order in which per-object
contributions are accumulated changes the low bits of Φ(p).  The
sharded engine stays bit-identical to the monolith because it
enumerates candidates in the canonical total key order
``(t1, t2, record_id)`` — the shards' AR-tree results are merged on that
key — before accumulating.  Any code path that instead iterates a ``set`` / ``frozenset``
(or a dict built from one) and folds floats in that order is
nondeterministic across hash seeds and across runs.

What is flagged: a ``for`` loop over an unordered iterable whose body
accumulates floats (``acc += x``, ``acc = acc + x``,
``d[k] = d.get(k, …) + x``), and ``sum(...)`` over an unordered iterable
or a generator driven by one.

What is *not* flagged: plain dict iteration (CPython dicts are
insertion-ordered, and the ingest order is part of the replayable input);
iterables passed through ``sorted(...)``; ``math.fsum`` (error-free up
to rounding of the final result, order-insensitive for the use cases
here); pure-int counters (``count += 1``).
"""

from __future__ import annotations

import ast

from ..callgraph import CallGraph
from ..linter import Diagnostic
from ..program import FunctionInfo, ProjectModel, annotation_name
from .base import Checker

__all__ = ["DeterminismChecker"]

#: Annotation names that denote unordered collections.
SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Set methods returning another (unordered) set.
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Calls that launder order away entirely — iterating their result is
#: deterministic (or not iteration at all).
_ORDER_CLEANSING_CALLS = frozenset({"sorted", "min", "max", "len", "fsum"})

#: Wrappers that *preserve* the unordered iteration order.
_ORDER_PRESERVING_CALLS = frozenset({"list", "tuple", "iter", "enumerate"})


class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "set/dict-view iteration feeding float accumulation must be "
        "sorted on a total key first"
    )
    paper_ref = (
        "Φ(p) = Σ_o φ(o) (PAPER.md §4): the reported flows are only "
        "reproducible bit-for-bit if contributions are accumulated in a "
        "canonical order — candidates come in (t1, t2, record_id) order"
    )

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for function in model.functions.values():
            module = model.modules.get(function.module)
            if module is None or not self.reportable(
                module.path, report_all=report_all
            ):
                continue
            analysis = _FunctionAnalysis(self, model, graph, function)
            diagnostics.extend(
                self.diagnostic(module.path, node, message)
                for node, message in analysis.findings()
            )
        return diagnostics

    # Shared with _FunctionAnalysis: does an attribute access / method
    # call on a known class return a set, per its annotations?
    def _attr_yields_set(
        self,
        model: ProjectModel,
        graph: CallGraph,
        function: FunctionInfo,
        base: ast.expr,
        attr: str,
        *,
        call: bool,
    ) -> bool:
        base_type = graph.infer_type(function, base)
        if base_type is None:
            return False
        class_info = model.classes.get(base_type)
        while class_info is not None:
            member = class_info.methods.get(attr)
            if member is not None and (call or member.is_property):
                name = (
                    annotation_name(member.node.returns)
                    if member.node.returns is not None
                    else None
                )
                return name in SET_TYPE_NAMES
            nxt = None
            for base_name in class_info.base_names:
                resolved = model.resolve_class(base_name.rsplit(".", 1)[-1])
                if resolved is not None and resolved is not class_info:
                    nxt = resolved
                    break
            class_info = nxt
        return False


class _FunctionAnalysis:
    """Unordered-taint plus accumulation scan for one function body."""

    def __init__(
        self,
        checker: DeterminismChecker,
        model: ProjectModel,
        graph: CallGraph,
        function: FunctionInfo,
    ) -> None:
        self.checker = checker
        self.model = model
        self.graph = graph
        self.function = function
        self.tainted: set[str] = set()
        self.tainted_dicts: set[str] = set()
        self._collect_taint()

    # ------------------------------------------------------------------
    # Taint collection
    # ------------------------------------------------------------------

    def _collect_taint(self) -> None:
        node = self.function.node
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                if annotation_name(arg.annotation) in SET_TYPE_NAMES:
                    self.tainted.add(arg.arg)
        # Two passes so `b = a` after `a = set(...)` is seen regardless
        # of traversal order quirks.
        for _ in range(2):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    if not isinstance(target, ast.Name):
                        continue
                    if self.is_unordered(sub.value):
                        self.tainted.add(target.id)
                    elif self._is_unordered_dict(sub.value):
                        self.tainted_dicts.add(target.id)
                    else:
                        self.tainted.discard(target.id)
                        self.tainted_dicts.discard(target.id)
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    if annotation_name(sub.annotation) in SET_TYPE_NAMES:
                        self.tainted.add(sub.target.id)

    def _is_unordered_dict(self, expr: ast.expr) -> bool:
        """A dict whose key order comes from an unordered source."""
        if isinstance(expr, ast.DictComp):
            return any(
                self.is_unordered(gen.iter) for gen in expr.generators
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "fromkeys"
                and expr.args
            ):
                return self.is_unordered(expr.args[0])
            if isinstance(func, ast.Name) and func.id == "dict" and expr.args:
                return self.is_unordered(expr.args[0])
        return False

    # ------------------------------------------------------------------
    # Unordered classification
    # ------------------------------------------------------------------

    def is_unordered(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_unordered(expr.left) or self.is_unordered(
                expr.right
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                if func.id in _ORDER_CLEANSING_CALLS:
                    return False
                if func.id in _ORDER_PRESERVING_CALLS and expr.args:
                    return self.is_unordered(expr.args[0])
                return False
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_RETURNING_METHODS:
                    if self.is_unordered(func.value):
                        return True
                if func.attr in ("keys", "values", "items"):
                    return self._dict_view_unordered(func.value)
                return self.checker._attr_yields_set(
                    self.model,
                    self.graph,
                    self.function,
                    func.value,
                    func.attr,
                    call=True,
                )
            return False
        if isinstance(expr, ast.Attribute):
            # Annotated set-valued property on a known class.
            return self.checker._attr_yields_set(
                self.model,
                self.graph,
                self.function,
                expr.value,
                expr.attr,
                call=False,
            )
        return False

    def _dict_view_unordered(self, base: ast.expr) -> bool:
        if isinstance(base, ast.Name):
            return base.id in self.tainted_dicts or base.id in self.tainted
        return self.is_unordered(base)

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------

    def findings(self) -> list[tuple[ast.AST, str]]:
        found: list[tuple[ast.AST, str]] = []
        for sub in ast.walk(self.function.node):
            if isinstance(sub, ast.For) and self.is_unordered(sub.iter):
                accumulation = _first_float_accumulation(sub.body)
                if accumulation is not None:
                    found.append(
                        (
                            sub.iter,
                            "iteration over an unordered collection "
                            f"({ast.unparse(sub.iter)}) feeds float "
                            f"accumulation ({ast.unparse(accumulation)}); "
                            "float addition is not associative — sort on a "
                            "total key first (cf. the shards' "
                            "(t1, t2, record_id) candidate merge)",
                        )
                    )
            elif isinstance(sub, ast.Call):
                found.extend(self._check_sum(sub))
        return found

    def _check_sum(self, call: ast.Call) -> list[tuple[ast.AST, str]]:
        func = call.func
        if not (isinstance(func, ast.Name) and func.id == "sum"):
            return []
        if not call.args:
            return []
        arg = call.args[0]
        unordered_source: ast.expr | None = None
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in arg.generators:
                if self.is_unordered(gen.iter):
                    unordered_source = gen.iter
                    break
        elif self.is_unordered(arg):
            unordered_source = arg
        if unordered_source is None:
            return []
        return [
            (
                call,
                "sum() over an unordered collection "
                f"({ast.unparse(unordered_source)}) is "
                "order-nondeterministic for floats; sort on a total key "
                "or use math.fsum",
            )
        ]


def _first_float_accumulation(body: list[ast.stmt]) -> ast.AST | None:
    """The first float-accumulation statement inside ``body``, if any."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add):
                if _is_int_literal(sub.value):
                    continue
                return sub
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                value = sub.value
                if not (
                    isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Add)
                ):
                    continue
                try:
                    target_src = ast.unparse(target)
                except Exception:  # pragma: no cover - defensive
                    continue
                left, right = value.left, value.right
                # acc = acc + x  /  acc = x + acc
                for side in (left, right):
                    try:
                        if ast.unparse(side) == target_src:
                            return sub
                    except Exception:  # pragma: no cover - defensive
                        continue
                # d[k] = d.get(k, default) + x
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    for side in (left, right):
                        if (
                            isinstance(side, ast.Call)
                            and isinstance(side.func, ast.Attribute)
                            and side.func.attr == "get"
                            and isinstance(side.func.value, ast.Name)
                            and side.func.value.id == target.value.id
                        ):
                            return sub
    return None


def _is_int_literal(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, int) and not isinstance(
            expr.value, bool
        )
    if isinstance(expr, ast.UnaryOp) and isinstance(
        expr.op, (ast.UAdd, ast.USub)
    ):
        return _is_int_literal(expr.operand)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id == "len"
    return False
