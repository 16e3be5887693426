"""The typestate protocol rules: DET014 and DET016.

Each class below is one declarative automaton over the machinery in
:mod:`repro.lint.typestate` — states, ``(state, event)`` transitions
(with the violating ones carrying messages), and exit obligations. The
events themselves are purely syntactic AST matches, parameterised by
``[tool.riskybiz.lint]`` so the sanctioned close/fsync/rename
functions live in config, not code:

* **DET014** — telemetry lifecycles: a span context entered by hand
  must reach ``__exit__`` on every path (exception paths included),
  and a closed :class:`~repro.obs.tracer.Tracer` must not record
  anything further.
* **DET016** — the temp→fsync→``os.replace`` atomic-write protocol:
  renaming a dirty temp publishes a possibly-torn file; writing the
  temp (or the rename target) after the rename corrupts the published
  artifact; a temp left dirty or unrenamed on a normal exit never
  becomes durable.
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.lint.cfg import CFG, CFGNode
from repro.lint.registry import rule, typestate_checker
from repro.lint.typestate import (
    CREATE,
    Event,
    ProtocolAutomaton,
    TrackedObject,
    TypestateContext,
    alias_closure,
    assign_target,
    call_matches,
    names_in,
    own_statements,
    receiver_name,
    scope_calls,
)

rule(
    "DET014", "span-lifecycle", "typestate",
    "telemetry span/tracer lifecycle violated on some path",
)
rule(
    "DET016", "atomic-protocol", "typestate",
    "temp-fsync-rename atomic-write protocol broken on some path",
)

#: File modes that make an ``open()`` a write.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Receiver methods that write to an already-open handle.
_HANDLE_WRITE_METHODS = frozenset({"write", "writelines"})

#: Path methods that write a file in one call.
_PATH_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _factory_call(
    expr: ast.expr, factories: tuple[str, ...]
) -> ast.Call | None:
    """A ``span(...)`` / ``x.span(...)`` call for configured factories."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Name) and func.id in factories:
        return expr
    if isinstance(func, ast.Attribute) and func.attr in factories:
        return expr
    return None


def _class_construction(
    expr: ast.expr, class_names: tuple[str, ...]
) -> ast.Call | None:
    """``Cls(...)`` or a ``Cls.classmethod(...)`` alternate constructor."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Name) and func.id in class_names:
        return expr
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in class_names
    ):
        return expr
    return None


def _creation_objects(
    cfg: CFG,
    ctx: TypestateContext,
    tag: str,
    matcher: Callable[[ast.expr], bool],
) -> list[TrackedObject]:
    """Assign-bound tracked objects for one creation pattern."""
    objects: list[TrackedObject] = []
    for stmt in own_statements(cfg.func):
        target = assign_target(stmt)
        if target is None:
            continue
        assert isinstance(stmt, ast.Assign)
        if not matcher(stmt.value):
            continue
        objects.append(
            TrackedObject(
                key=f"{tag}@{stmt.lineno}:{stmt.col_offset}",
                names=alias_closure(cfg.func, {target}),
                line=stmt.lineno,
                col=stmt.col_offset,
                creation=stmt,
            )
        )
    return objects


def _is_creation_node(node: CFGNode, obj: TrackedObject) -> bool:
    return obj.creation is not None and any(
        tree is obj.creation for tree in node.scope
    )


class _TracerLifecycle(ProtocolAutomaton):
    """DET014, tracer half: nothing is recorded after ``close()``."""

    rule_id = "DET014"
    initial = "open"
    cleanup_events = frozenset({"close"})
    transitions = {
        ("open", "close"): ("closed", None),
        ("closed", "close"): ("closed", None),
        ("closed", "use"): (
            "closed",
            "tracer method called after close(); spans and events "
            "recorded here are silently lost",
        ),
    }

    def applies_to(self, ctx: TypestateContext) -> bool:
        return ctx.config.path_in(ctx.path, ctx.config.telemetry_paths)

    def collect(self, cfg: CFG, ctx: TypestateContext) -> list[TrackedObject]:
        classes = ctx.config.tracer_classes
        return _creation_objects(
            cfg,
            ctx,
            self.rule_id,
            lambda expr: _class_construction(expr, classes) is not None,
        )

    def events(
        self, node: CFGNode, obj: TrackedObject, ctx: TypestateContext
    ) -> list[Event]:
        events: list[Event] = []
        if _is_creation_node(node, obj):
            events.append((CREATE, obj.line, obj.col))
        close_methods = ctx.config.protocol_close_methods
        for call in scope_calls(node):
            receiver = receiver_name(call)
            if receiver is None or receiver not in obj.names:
                continue
            assert isinstance(call.func, ast.Attribute)
            name = "close" if call.func.attr in close_methods else "use"
            events.append((name, call.lineno, call.col_offset))
        return events


class _SpanLifecycle(ProtocolAutomaton):
    """DET014, span half: manual ``__enter__`` needs a guaranteed exit.

    ``with tracer.span(...)`` is inherently balanced (the CFG routes
    every unwinding path through ``with-exit``), so only span contexts
    bound to a local and entered by hand are tracked.
    """

    rule_id = "DET014"
    initial = "created"
    cleanup_events = frozenset({"exit"})
    transitions = {
        ("created", "enter"): ("entered", None),
        ("entered", "exit"): ("closed", None),
        ("closed", "enter"): ("entered", None),
    }
    exit_obligations = {
        "entered": (
            "span entered at line {obj_line} may never be exited on a "
            "normal path; use `with` or try/finally"
        ),
    }
    exception_exit_obligations = {
        "entered": (
            "span entered at line {obj_line} is leaked when an exception "
            "escapes; use `with` or try/finally"
        ),
    }

    def applies_to(self, ctx: TypestateContext) -> bool:
        return ctx.config.path_in(ctx.path, ctx.config.telemetry_paths)

    def collect(self, cfg: CFG, ctx: TypestateContext) -> list[TrackedObject]:
        factories = ctx.config.span_factories
        return _creation_objects(
            cfg,
            ctx,
            "span",
            lambda expr: _factory_call(expr, factories) is not None,
        )

    def events(
        self, node: CFGNode, obj: TrackedObject, ctx: TypestateContext
    ) -> list[Event]:
        events: list[Event] = []
        if _is_creation_node(node, obj):
            events.append((CREATE, obj.line, obj.col))
        if node.kind in ("with-enter", "with-exit") and node.scope:
            context_expr = node.scope[0]
            if (
                isinstance(context_expr, ast.Name)
                and context_expr.id in obj.names
            ):
                name = "enter" if node.kind == "with-enter" else "exit"
                events.append((name, node.line, node.col))
            return events
        for call in scope_calls(node):
            receiver = receiver_name(call)
            if receiver is None or receiver not in obj.names:
                continue
            assert isinstance(call.func, ast.Attribute)
            if call.func.attr == "__enter__":
                events.append(("enter", call.lineno, call.col_offset))
            elif call.func.attr == "__exit__":
                events.append(("exit", call.lineno, call.col_offset))
        return events


class _AtomicWriteProtocol(ProtocolAutomaton):
    """DET016: every temp file follows write → fsync → ``os.replace``."""

    rule_id = "DET016"
    initial = "fresh"
    transitions = {
        ("fresh", "write"): ("dirty", None),
        ("dirty", "write"): ("dirty", None),
        ("synced", "write"): ("dirty", None),
        ("done", "write"): (
            "done",
            "temp file written again after os.replace already published "
            "it; the data never reaches the target",
        ),
        ("dirty", "fsync"): ("synced", None),
        ("synced", "rename"): ("done", None),
        ("fresh", "rename"): ("done", None),
        ("dirty", "rename"): (
            "done",
            "temp renamed into place without fsync; a crash here can "
            "publish a torn or empty file",
        ),
        ("done", "target_write"): (
            "done",
            "rename target written directly after the atomic replace "
            "published it",
        ),
    }
    exit_obligations = {
        "dirty": (
            "temp write from line {obj_line} is not followed by fsync + "
            "os.replace on every path; the data never becomes durable"
        ),
        "synced": (
            "fsynced temp from line {obj_line} is never renamed into "
            "place on some path"
        ),
    }

    def applies_to(self, ctx: TypestateContext) -> bool:
        return ctx.config.path_in(ctx.path, ctx.config.atomic_protocol_paths)

    def _mentions_temp(self, expr: ast.expr, ctx: TypestateContext) -> bool:
        marker_names = {
            marker
            for marker in ctx.config.atomic_temp_markers
            if not marker.startswith(".")
        }
        marker_suffixes = tuple(
            marker
            for marker in ctx.config.atomic_temp_markers
            if marker.startswith(".")
        )
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in marker_names:
                return True
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and marker_suffixes
                and node.value.endswith(marker_suffixes)
            ):
                return True
        return False

    def collect(self, cfg: CFG, ctx: TypestateContext) -> list[TrackedObject]:
        objects = _creation_objects(
            cfg,
            ctx,
            "temp",
            lambda expr: self._mentions_temp(expr, ctx),
        )
        for obj in objects:
            handles: set[str] = set()
            targets: set[str] = set()
            for stmt in own_statements(cfg.func):
                for withitem_or_assign, bound in self._open_bindings(stmt):
                    if self._opens_for_write(withitem_or_assign, obj):
                        handles.add(bound)
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    if (
                        call_matches(
                            node, ctx.config.protocol_rename_functions
                        )
                        and len(node.args) >= 2
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in obj.names
                        and isinstance(node.args[1], ast.Name)
                    ):
                        targets.add(node.args[1].id)
            obj.data["handles"] = frozenset(handles)
            obj.data["targets"] = frozenset(targets)
        return objects

    @staticmethod
    def _open_bindings(
        stmt: ast.stmt,
    ) -> list[tuple[ast.Call, str]]:
        """``open(...)`` calls bound to a name by this statement."""
        bindings: list[tuple[ast.Call, str]] = []
        target = assign_target(stmt)
        if target is not None:
            assert isinstance(stmt, ast.Assign)
            if isinstance(stmt.value, ast.Call):
                bindings.append((stmt.value, target))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.context_expr, ast.Call) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    bindings.append((item.context_expr, item.optional_vars.id))
        return bindings

    @staticmethod
    def _opens_for_write(call: ast.Call, obj: TrackedObject) -> bool:
        """``open(<temp>, "w...")``-style call on the tracked temp."""
        if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
            return False
        if not (
            call.args
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in obj.names
        ):
            return False
        mode = call.args[1] if len(call.args) > 1 else None
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and bool(_WRITE_MODE_CHARS & set(mode.value))
        )

    def events(
        self, node: CFGNode, obj: TrackedObject, ctx: TypestateContext
    ) -> list[Event]:
        events: list[Event] = []
        if _is_creation_node(node, obj):
            events.append((CREATE, obj.line, obj.col))
        handles: frozenset[str] = obj.data.get("handles", frozenset())
        targets: frozenset[str] = obj.data.get("targets", frozenset())
        for call in scope_calls(node):
            position = (call.lineno, call.col_offset)
            receiver = receiver_name(call)
            if self._opens_for_write(call, obj):
                events.append(("write", *position))
            elif receiver in handles and isinstance(call.func, ast.Attribute) \
                    and call.func.attr in _HANDLE_WRITE_METHODS:
                events.append(("write", *position))
            elif receiver in obj.names and isinstance(call.func, ast.Attribute) \
                    and call.func.attr in _PATH_WRITE_METHODS:
                events.append(("write", *position))
            elif call_matches(call, ctx.config.protocol_fsync_functions):
                mentioned: set[str] = set()
                for arg in call.args:
                    mentioned |= names_in(arg)
                if mentioned & (handles | obj.names):
                    events.append(("fsync", *position))
            elif (
                call_matches(call, ctx.config.protocol_rename_functions)
                and call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id in obj.names
            ):
                events.append(("rename", *position))
            elif receiver in targets and isinstance(call.func, ast.Attribute) \
                    and call.func.attr in _PATH_WRITE_METHODS:
                events.append(("target_write", *position))
            elif (
                isinstance(call.func, ast.Name)
                and call.func.id == "open"
                and call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id in targets
                and self._opens_for_write(
                    call,
                    TrackedObject(key="", names=targets),
                )
            ):
                events.append(("target_write", *position))
        return events


#: Registration order fixes diagnostic order for same-position findings.
typestate_checker(_SpanLifecycle())
typestate_checker(_TracerLifecycle())
typestate_checker(_AtomicWriteProtocol())
