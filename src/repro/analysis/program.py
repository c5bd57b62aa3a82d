"""The whole-program project model.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time, which is enough for syntactic invariants (float equality, unseeded
RNGs) but blind to the repo's *architectural* ones: who may mutate a
:class:`~repro.core.shard.ShardState`, whether an AR-tree append always
bumps the cache generation on the same path, which iteration orders feed
the bit-reproducible flow accumulation.  Those are properties of the
program, not of a file.

This module parses a source tree **once** into a :class:`ProjectModel`:

* a module / class / function symbol table keyed by dotted qualname
  (``repro.core.shard.ShardState.ingest_batch``),
* per-module import maps (aliases resolved to dotted targets, relative
  imports resolved against the package),
* an attribute-write index (every ``obj.attr = ...`` / ``obj.attr += ...``
  / ``del obj.attr``, attributed to its enclosing function),
* per-class attribute types harvested from ``self.x = Cls(...)`` and
  ``self.x = param`` (annotated parameter) assignments, annotations and
  property return types.

:mod:`repro.analysis.callgraph` builds the approximate call graph on top
of this model, and the checkers in :mod:`repro.analysis.checkers` consume
both.  The model is deliberately approximate — no imports are executed,
resolution is name- and annotation-driven — which keeps it fast enough to
run on every commit and sound enough for the repo's own, fully-annotated
code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "AttributeWrite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "MODULE_SCOPE",
    "annotation_name",
    "iter_python_files",
    "module_name_for",
]

#: The pseudo-function qualname suffix for module-level statements.
MODULE_SCOPE = "<module>"


@dataclass(slots=True)
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    """Dotted name, e.g. ``repro.core.shard.ShardState.ingest_batch``."""

    module: str
    """The enclosing module's dotted name."""

    name: str
    """The bare function name."""

    cls: str | None
    """The owning class's qualname for methods, else ``None``."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    """The parsed definition."""

    path: str
    """Source file path (as passed to the model builder)."""

    is_property: bool = False
    """Whether the function is decorated with ``@property``."""

    @property
    def line(self) -> int:
        """The definition's first line."""
        return self.node.lineno


@dataclass(slots=True)
class ClassInfo:
    """One class in the project."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    base_names: tuple[str, ...] = ()
    """Raw (unresolved) base-class expressions, e.g. ``FlowEngine``."""

    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    """``self.<attr>`` -> class *name* harvested from assignments and
    annotations (bare names; resolve against the model's class table)."""


@dataclass(slots=True)
class AttributeWrite:
    """One ``obj.attr = ...`` / ``obj.attr += ...`` / ``del obj.attr``."""

    module: str
    function: str
    """Qualname of the enclosing function (``...<module>`` at top level)."""

    obj: str
    """The receiver expression's source text (``self``, ``shard.ctx`` …)."""

    attr: str
    line: int
    col: int
    value_node: ast.expr
    """The receiver expression node (for type inference)."""

    augmented: bool = False
    """Whether the write was a ``+=``-style augmented assignment."""


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module of the project."""

    name: str
    path: str
    source: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    """Local alias -> dotted target (``ShardState`` ->
    ``repro.core.shard.ShardState``)."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def module_name_for(path: Path) -> str:
    """The dotted module name of ``path``, derived from ``__init__.py``.

    Walks up while the parent directory is a package; files outside any
    package (test fixtures, scripts) get their bare stem as the name;
    :meth:`ProjectModel.add_module` numbers a namesake (``mod#2``).
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


#: Directory names skipped while walking a tree (never when a file is
#: passed explicitly).  ``fixtures`` holds seeded-violation inputs for the
#: analysis' own tests, which must not fail a clean-tree run.
SKIPPED_DIR_NAMES = frozenset({"__pycache__", "fixtures"})


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield the python files under ``paths`` (sorted, fixtures skipped)."""
    for path in paths:
        if path.is_dir():
            yield from sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not SKIPPED_DIR_NAMES.intersection(candidate.parts)
            )
        else:
            yield path


def _resolve_relative(package: str, module: str | None, level: int) -> str:
    """Resolve a ``from ...x import y`` target against ``package``."""
    if level == 0:
        return module or ""
    parts = package.split(".")
    # level=1 strips the module's own name; deeper levels strip packages.
    base = parts[: len(parts) - level]
    if module:
        base.append(module)
    return ".".join(base)


class _ModuleExtractor(ast.NodeVisitor):
    """Single pass over one module: symbols, imports, attribute writes."""

    def __init__(self, info: ModuleInfo, writes: list[AttributeWrite]):
        self.info = info
        self.writes = writes
        self._scope: list[str] = [f"{info.name}.{MODULE_SCOPE}"]
        self._class: list[ClassInfo] = []
        self._defs: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self.info_all_functions: list[FunctionInfo] = []
        self.info_all_classes: list[ClassInfo] = []

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.info.imports[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_relative(self.info.name, node.module, node.level)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.imports[local] = (
                f"{base}.{alias.name}" if base else alias.name
            )
        self.generic_visit(node)

    # -- definitions ---------------------------------------------------

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        owner = self._class[-1] if self._class else None
        parent = self._scope[-1]
        if parent.endswith(f".{MODULE_SCOPE}"):
            parent = parent[: -len(MODULE_SCOPE) - 1]
        qualname = f"{parent}.{node.name}"
        is_property = any(
            (isinstance(dec, ast.Name) and dec.id == "property")
            or (isinstance(dec, ast.Attribute) and dec.attr in ("getter", "setter"))
            for dec in node.decorator_list
        )
        info = FunctionInfo(
            qualname=qualname,
            module=self.info.name,
            name=node.name,
            cls=owner.qualname if owner is not None else None,
            node=node,
            path=self.info.path,
            is_property=is_property,
        )
        if owner is not None and self._scope[-1] == owner.qualname:
            owner.methods[node.name] = info
        elif len(self._scope) == 1:
            self.info.functions[node.name] = info
        self.info_all_functions.append(info)
        self._scope.append(qualname)
        self._defs.append(node)
        self.generic_visit(node)
        self._defs.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        parent = self._scope[-1]
        if parent.endswith(f".{MODULE_SCOPE}"):
            parent = parent[: -len(MODULE_SCOPE) - 1]
        qualname = f"{parent}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=self.info.name,
            name=node.name,
            node=node,
            path=self.info.path,
            base_names=tuple(
                source
                for base in node.bases
                if (source := _expr_source(base)) is not None
            ),
        )
        if len(self._scope) == 1:
            self.info.classes[node.name] = info
        self.info_all_classes.append(info)
        self._scope.append(qualname)
        self._class.append(info)
        self.generic_visit(node)
        self._class.pop()
        self._scope.pop()

    # -- attribute writes ----------------------------------------------

    def _record_write(self, target: ast.Attribute, augmented: bool) -> None:
        obj = _expr_source(target.value) or "<expr>"
        self.writes.append(
            AttributeWrite(
                module=self.info.name,
                function=self._scope[-1],
                obj=obj,
                attr=target.attr,
                line=target.lineno,
                col=target.col_offset,
                value_node=target.value,
                augmented=augmented,
            )
        )
        # Harvest `self.x = Cls(...)` / `self.x = x` / `self.x: Cls` types.
        if (
            not augmented
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class
        ):
            self._class[-1].attr_types.setdefault(target.attr, "")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(
                    sub.ctx, ast.Store
                ):
                    self._record_write(sub, augmented=False)
                    self._harvest_attr_type(sub, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._record_write(node.target, augmented=False)
            annotation = annotation_name(node.annotation)
            if (
                annotation
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
                and self._class
            ):
                self._class[-1].attr_types[node.target.attr] = annotation
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._record_write(node.target, augmented=True)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                self._record_write(target, augmented=False)
        self.generic_visit(node)

    def _harvest_attr_type(self, target: ast.Attribute, value: ast.expr) -> None:
        if not (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class
        ):
            return
        cls = self._class[-1]
        if isinstance(value, ast.Name) and self._defs:
            # `self.x = x` with an annotated parameter `x: Cls`.
            args = self._defs[-1].args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg == value.id and arg.annotation is not None:
                    annotation = annotation_name(arg.annotation)
                    if annotation:
                        cls.attr_types[target.attr] = annotation
        elif isinstance(value, ast.Call):
            callee = _expr_source(value.func)
            if not callee:
                return
            # The class-like segment of the callee chain: `ARTree(...)`,
            # `index.ARTree(...)` and the classmethod-constructor shape
            # `ARTree.build(...)` all record "ARTree".
            for segment in reversed(callee.split(".")):
                if segment[:1].isupper():
                    cls.attr_types[target.attr] = segment
                    break


def _expr_source(node: ast.expr) -> str | None:
    """``ast.unparse`` for simple name/attribute chains, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_source(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def annotation_name(node: ast.expr) -> str | None:
    """The class name an annotation refers to (``X | None`` -> ``X``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the first identifier.
        text = node.value.strip().strip('"')
        head = text.split("|")[0].strip()
        return head.split("[")[0].strip() or None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return annotation_name(node.left) or annotation_name(node.right)
    if isinstance(node, ast.Subscript):
        head = annotation_name(node.value)
        if head in ("Optional", "Final", "ClassVar", "Annotated"):
            if isinstance(node.slice, ast.Tuple) and node.slice.elts:
                return annotation_name(node.slice.elts[0])
            if isinstance(node.slice, ast.expr):
                return annotation_name(node.slice)
        return head
    return None


@dataclass(slots=True)
class ProjectModel:
    """The parsed project: symbol tables plus the attribute-write index."""

    files: list[ModuleInfo] = field(default_factory=list)
    """Every parsed file, in parse order."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    classes_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    methods_by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    attribute_writes: list[AttributeWrite] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    """Files that failed to parse (reported, and fail the run)."""

    @classmethod
    def build(
        cls,
        paths: Sequence[Path | str],
        *,
        parsed: Sequence[tuple[str, str, ast.Module]] | None = None,
    ) -> "ProjectModel":
        """Parse ``paths`` (files or trees) into a model.

        Args:
            paths: Files or directories; directories are walked
                recursively (``fixtures`` and ``__pycache__`` skipped).
            parsed: Pre-parsed ``(path, source, tree)`` triples; when
                given, ``paths`` is ignored (the driver parses once and
                also reads each file's pragmas from the same source).

        Returns:
            The populated model.
        """
        model = cls()
        if parsed is None:
            files = list(iter_python_files(Path(p) for p in paths))
            parsed = parse_files(files, errors=model.errors)
        for path_str, source, tree in parsed:
            model.add_module(path_str, source, tree)
        model.finalize()
        return model

    def add_module(self, path: str, source: str, tree: ast.Module) -> None:
        """Add one parsed module to the model (call :meth:`finalize` after)."""
        name = module_name_for(Path(path))
        if name in self.modules and self.modules[name].path != path:
            name = f"{name}#{len(self.files) + 1}"  # a loose file's namesake
        info = ModuleInfo(name=name, path=path, source=source, tree=tree)
        extractor = _ModuleExtractor(info, self.attribute_writes)
        extractor.visit(tree)
        self.files.append(info)
        self.modules[name] = info
        for function in extractor.info_all_functions:
            self.functions[function.qualname] = function
            self.methods_by_name.setdefault(function.name, []).append(function)
        for class_info in extractor.info_all_classes:
            self.classes[class_info.qualname] = class_info
            self.classes_by_name.setdefault(class_info.name, []).append(
                class_info
            )

    def finalize(self) -> None:
        """Post-parse pass: drop empty attr-type placeholders."""
        for class_info in self.classes.values():
            class_info.attr_types = {
                attr: type_name
                for attr, type_name in class_info.attr_types.items()
                if type_name
            }

    # -- symbol resolution ---------------------------------------------

    def resolve_class(self, name: str) -> ClassInfo | None:
        """A class by qualname or (unambiguous enough) bare name."""
        if name in self.classes:
            return self.classes[name]
        candidates = self.classes_by_name.get(name.rsplit(".", 1)[-1], [])
        return candidates[0] if candidates else None

    def resolve_name(self, module: ModuleInfo, name: str) -> str | None:
        """Resolve a bare name used in ``module`` to a known qualname."""
        head = name.split(".", 1)[0]
        if head in module.imports:
            target = module.imports[head]
            rest = name[len(head) + 1 :]
            dotted = f"{target}.{rest}" if rest else target
        else:
            dotted = f"{module.name}.{name}"
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Re-exported names: `from repro.index import ARTree` points at the
        # package, the definition lives in a submodule.
        tail = dotted.rsplit(".", 1)[-1]
        for candidate in self.classes_by_name.get(tail, []):
            return candidate.qualname
        candidates = self.methods_by_name.get(tail, [])
        for candidate in candidates:
            if candidate.cls is None:
                return candidate.qualname
        return None

    def class_of_method(self, function: FunctionInfo) -> ClassInfo | None:
        """The owning :class:`ClassInfo` of a method, if any."""
        if function.cls is None:
            return None
        return self.classes.get(function.cls)

    def mro_methods(self, class_info: ClassInfo, name: str) -> FunctionInfo | None:
        """Resolve ``name`` on ``class_info`` or its known base classes."""
        seen: set[str] = set()
        queue = [class_info]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base_name in current.base_names:
                base = self.resolve_class(base_name.rsplit(".", 1)[-1])
                if base is not None:
                    queue.append(base)
        return None


def parse_files(
    files: Sequence[Path],
    *,
    errors: list[str] | None = None,
) -> list[tuple[str, str, ast.Module]]:
    """Parse ``files``.

    Args:
        files: The python files to parse.
        errors: Receives ``"path: error"`` strings for unparsable files.

    Returns:
        ``(path, source, tree)`` per successfully parsed file.
    """
    sink = errors if errors is not None else []
    results: list[tuple[str, str, ast.Module]] = []
    for path in files:
        outcome = _parse_one(str(path))
        if isinstance(outcome, str):
            sink.append(outcome)
        else:
            results.append(outcome)
    return results


def _parse_one(path: str) -> tuple[str, str, ast.Module] | str:
    """Parse one file; returns an error string on failure."""
    try:
        source = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError) as exc:
        return f"{path}: {exc}"
    return path, source, tree
