"""The project graph: every module under the configured source roots.

Per-file AST rules (DET001–DET009) cannot see a duration-clock read
flowing into a digest three imports away. This module supplies the
missing whole-program view: it parses every Python file under
``LintConfig.project_paths``, assigns each one a dotted module name,
and records the facts the interprocedural passes need —

* top-level functions and class methods (the call-graph nodes),
* import bindings, resolved to project modules where possible, so a
  call through ``from repro.obs import runtime as obs`` still lands on
  ``repro.obs.runtime``.

The graph is purely syntactic — no imports are executed — and building
it is deterministic: files are visited in sorted order and every
collection it exposes iterates in insertion (= sorted) order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterator

from repro.lint.config import LintConfig

#: Separator between a module name and a symbol qualname in function ids.
SYMBOL_SEP = ":"


def function_id(module: str, qualname: str) -> str:
    """The canonical id of one function: ``module:Qual.name``."""
    return f"{module}{SYMBOL_SEP}{qualname}"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method defined in a project module."""

    module: str
    qualname: str  # "func" or "Class.method" (nested defs dotted likewise)
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(compare=False)
    lineno: int
    class_name: str | None = None

    @property
    def ident(self) -> str:
        return function_id(self.module, self.qualname)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """Everything the flow passes need to know about one module."""

    name: str  # dotted module name, e.g. "repro.detection.pipeline"
    path: str  # root-relative posix path, e.g. "src/repro/.../pipeline.py"
    tree: ast.Module = field(repr=False)
    #: qualname -> FunctionInfo for every function/method in the module.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> method names defined directly on the class.
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: local name -> dotted module it refers to (``import x.y as z``,
    #: ``from pkg import submodule``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, symbol) for ``from mod import symbol``.
    symbol_aliases: dict[str, tuple[str, str]] = field(default_factory=dict)

    def symbol_names(self) -> set[str]:
        """Every qualname a baseline entry could anchor to in this module."""
        names: set[str] = {"<module>"}
        names.update(self.functions)
        names.update(self.classes)
        return names


def _module_name_for(rel_to_root: PurePosixPath) -> str | None:
    """Dotted module name for one source file, or None for non-modules."""
    parts = list(rel_to_root.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return None
    return ".".join(parts)


class _SymbolCollector(ast.NodeVisitor):
    """Collect the functions and classes of one module."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._stack: list[str] = []
        self._class_stack: list[str] = []

    def _qualname(self, name: str) -> str:
        return ".".join([*self._stack, name])

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        qualname = self._qualname(node.name)
        class_name = self._class_stack[-1] if self._class_stack else None
        self.info.functions[qualname] = FunctionInfo(
            module=self.info.name,
            qualname=qualname,
            node=node,
            lineno=node.lineno,
            class_name=class_name,
        )
        if class_name is not None and len(self._stack) == 1:
            self.info.classes.setdefault(class_name, set()).add(node.name)
        self._stack.append(node.name)
        self._class_stack.append("")  # nested defs are not methods
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.info.classes.setdefault(node.name, set())
        self._stack.append(node.name)
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()
        self._stack.pop()


def _collect_imports(info: ModuleInfo) -> None:
    """Record module/symbol import bindings (top-level and nested)."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname is not None:
                    info.module_aliases[name.asname] = name.name
                else:
                    # ``import a.b.c`` binds ``a``; attribute chains are
                    # resolved against the full dotted path at call sites.
                    info.module_aliases.setdefault(
                        name.name.split(".")[0], name.name.split(".")[0]
                    )
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            base = node.module
            if node.level:  # relative import: resolve against this package
                package_parts = info.name.split(".")
                anchor = package_parts[: len(package_parts) - node.level]
                base = ".".join([*anchor, node.module]) if anchor else node.module
            for name in node.names:
                local = name.asname or name.name
                info.symbol_aliases[local] = (base, name.name)


@dataclass
class ProjectGraph:
    """All modules under the project roots, keyed by dotted name."""

    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    #: files that failed to parse (path -> error text).
    parse_failures: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, config: LintConfig) -> "ProjectGraph":
        """Parse every module under ``config.project_paths``."""
        graph = cls(root=config.root)
        for project_path in config.project_paths:
            base = config.root / project_path
            if not base.is_dir():
                continue
            for file_path in sorted(base.rglob("*.py")):
                rel = file_path.relative_to(config.root).as_posix()
                if config.is_excluded(rel):
                    continue
                rel_to_base = PurePosixPath(
                    file_path.relative_to(base).as_posix()
                )
                module_name = _module_name_for(rel_to_base)
                if module_name is None:
                    continue
                try:
                    source = file_path.read_text(encoding="utf-8")
                    tree = ast.parse(source, filename=rel)
                except (OSError, UnicodeDecodeError, SyntaxError) as error:
                    graph.parse_failures[rel] = str(error)
                    continue
                info = ModuleInfo(name=module_name, path=rel, tree=tree)
                _SymbolCollector(info).visit(tree)
                _collect_imports(info)
                graph.modules[module_name] = info
        return graph

    # -- lookups -------------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for name in sorted(self.modules):
            module = self.modules[name]
            for qualname in sorted(module.functions):
                yield module.functions[qualname]

    def resolve_symbol(
        self, module: ModuleInfo, name: str
    ) -> tuple[str, str] | None:
        """Resolve a bare name in ``module`` to ``(module_name, symbol)``.

        Follows one level of ``from mod import symbol`` re-export: if the
        alias target is itself a project module that re-imports the
        symbol, the chain is walked until it lands on a definition (or
        leaves the project).
        """
        seen: set[tuple[str, str]] = set()
        current: tuple[str, str] | None = None
        if name in module.functions or name in module.classes:
            current = (module.name, name)
        elif name in module.symbol_aliases:
            current = module.symbol_aliases[name]
        while current is not None and current not in seen:
            seen.add(current)
            target_module, symbol = current
            target = self.modules.get(target_module)
            if target is None:
                return current  # outside the project; caller decides
            if symbol in target.functions or symbol in target.classes:
                return current
            if symbol in target.module_aliases:
                return None  # actually a module alias, not a symbol
            if symbol in target.symbol_aliases:
                current = target.symbol_aliases[symbol]
                continue
            return current
        return current

    def resolve_dotted(self, module: ModuleInfo, dotted: str) -> str | None:
        """Resolve a dotted expression prefix to a project module name.

        ``dotted`` is the textual form of an attribute chain base, e.g.
        ``obs`` (alias) or ``repro.obs.runtime`` (plain import).
        """
        parts = dotted.split(".")
        head = parts[0]
        if head in module.module_aliases:
            resolved = ".".join([module.module_aliases[head], *parts[1:]])
        elif head in module.symbol_aliases:
            target_module, symbol = module.symbol_aliases[head]
            # ``from pkg import submodule`` binds a module, not a symbol.
            resolved = ".".join([f"{target_module}.{symbol}", *parts[1:]])
        else:
            resolved = dotted
        return resolved if resolved in self.modules else None
