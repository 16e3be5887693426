"""A conservative call graph over the project graph.

Edges are resolved without type inference, in decreasing order of
precision:

* bare-name calls (``f()``) through the module's own definitions and
  its ``from mod import f`` bindings, following one-level re-exports;
* dotted calls (``mod.f()``, ``pkg.sub.f()``) through module aliases;
* constructor calls (``C()``) link to ``C.__init__`` and record the
  local variable's class, so later ``obj.method()`` calls on that
  variable resolve precisely;
* ``self.method()`` / ``cls.method()`` inside a class link to that
  class's method;
* any remaining ``obj.method()`` whose receiver cannot be typed falls
  back to *every* project class defining ``method`` — an
  over-approximation, never an omission.

``riskybiz lint --graph json`` dumps the edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    function_id,
)


def _dotted_base(node: ast.expr) -> str | None:
    """The textual dotted form of an attribute-chain base, if simple."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class _CallCollector(ast.NodeVisitor):
    """Resolve every call expression inside one function body."""

    def __init__(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        func: FunctionInfo,
        method_index: dict[str, list[str]],
    ) -> None:
        self.graph = graph
        self.module = module
        self.func = func
        self.method_index = method_index
        self.callees: set[str] = set()
        #: local variable -> (module, class) from constructor assignments.
        self.local_classes: dict[str, tuple[str, str]] = {}
        self._prime_local_classes()

    # -- constructor tracking ------------------------------------------------

    def _class_of_call(self, call: ast.Call) -> tuple[str, str] | None:
        """(module, class) when ``call`` constructs a project class."""
        target: tuple[str, str] | None = None
        if isinstance(call.func, ast.Name):
            target = self.graph.resolve_symbol(self.module, call.func.id)
        elif isinstance(call.func, ast.Attribute):
            dotted = _dotted_base(call.func.value)
            if dotted is not None:
                module_name = self.graph.resolve_dotted(self.module, dotted)
                if module_name is not None:
                    target = (module_name, call.func.attr)
        if target is None:
            return None
        module_name, symbol = target
        owner = self.graph.modules.get(module_name)
        if owner is not None and symbol in owner.classes:
            return (module_name, symbol)
        return None

    def _prime_local_classes(self) -> None:
        """One pass recording ``var = ClassName(...)`` bindings."""
        for node in ast.walk(self.func.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            # ``x = Cls(...)`` and the common ``x = x or Cls(...)`` guard.
            calls: list[ast.Call] = []
            if isinstance(value, ast.Call):
                calls.append(value)
            elif isinstance(value, ast.BoolOp):
                calls.extend(v for v in value.values if isinstance(v, ast.Call))
            for call in calls:
                cls = self._class_of_call(call)
                if cls is not None:
                    self.local_classes[target.id] = cls

    # -- edge resolution -----------------------------------------------------

    def _link(self, module_name: str, qualname: str) -> bool:
        owner = self.graph.modules.get(module_name)
        if owner is not None and qualname in owner.functions:
            self.callees.add(function_id(module_name, qualname))
            return True
        return False

    def _link_class(self, module_name: str, class_name: str) -> None:
        """A constructor call reaches ``__init__`` (when defined)."""
        self._link(module_name, f"{class_name}.__init__")

    def _resolve_name_call(self, name: str) -> None:
        # A nested def shadows outer bindings inside its parent.
        nested = f"{self.func.qualname}.{name}"
        if nested in self.module.functions:
            self.callees.add(function_id(self.module.name, nested))
            return
        target = self.graph.resolve_symbol(self.module, name)
        if target is None:
            return
        module_name, symbol = target
        owner = self.graph.modules.get(module_name)
        if owner is None:
            return
        if symbol in owner.classes:
            self._link_class(module_name, symbol)
        else:
            self._link(module_name, symbol)

    def _resolve_attribute_call(self, func: ast.Attribute) -> None:
        attr = func.attr
        base = func.value
        # self.method() / cls.method() inside a class body.
        if (
            isinstance(base, ast.Name)
            and base.id in ("self", "cls")
            and self.func.class_name
        ):
            if self._link(
                self.func.module, f"{self.func.class_name}.{attr}"
            ):
                return
        # Receiver tracked to a class by a constructor assignment.
        if isinstance(base, ast.Name) and base.id in self.local_classes:
            module_name, class_name = self.local_classes[base.id]
            if self._link(module_name, f"{class_name}.{attr}"):
                return
        # Dotted module call: mod.f(), pkg.sub.f(), alias.f().
        dotted = _dotted_base(base)
        if dotted is not None:
            module_name = self.graph.resolve_dotted(self.module, dotted)
            if module_name is not None:
                owner = self.graph.modules[module_name]
                if attr in owner.classes:
                    self._link_class(module_name, attr)
                    return
                if self._link(module_name, attr):
                    return
            elif isinstance(base, ast.Name) and (
                base.id in self.module.module_aliases
            ):
                return  # a module we don't model; not a project method
        # Fallback: every project class defining this method name.
        for ident in self.method_index.get(attr, ()):
            self.callees.add(ident)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            self._resolve_name_call(node.func.id)
        elif isinstance(node.func, ast.Attribute):
            self._resolve_attribute_call(node.func)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        """Address-taken functions (callbacks) count.

        ``run(on_complete=journal)`` executes the referenced function
        somewhere we cannot see; treating every function-valued
        reference as an edge keeps the graph an over-approximation
        instead of a hole.
        """
        if isinstance(node.ctx, ast.Load):
            self._resolve_name_call(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs get their own call-graph node

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass


@dataclass
class CallGraph:
    """Function-level edges over a :class:`ProjectGraph`."""

    graph: ProjectGraph
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: method name -> every ``module:Class.method`` id with that name.
    method_index: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, graph: ProjectGraph) -> "CallGraph":
        method_index: dict[str, list[str]] = {}
        for func in graph.iter_functions():
            if func.class_name is not None:
                method_index.setdefault(func.name, []).append(func.ident)
        call_graph = cls(graph=graph, method_index=method_index)
        for func in graph.iter_functions():
            module = graph.modules[func.module]
            collector = _CallCollector(graph, module, func, method_index)
            for statement in func.node.body:
                collector.visit(statement)
            call_graph.edges[func.ident] = collector.callees
        return call_graph

    def to_dict(self) -> dict[str, object]:
        """JSON form for ``riskybiz lint --graph json``."""
        return {
            "modules": {
                name: {
                    "path": info.path,
                    "functions": sorted(info.functions),
                }
                for name, info in sorted(self.graph.modules.items())
            },
            "edges": [
                [caller, callee]
                for caller in sorted(self.edges)
                for callee in sorted(self.edges[caller])
            ],
            "parse_failures": dict(sorted(self.graph.parse_failures.items())),
        }
