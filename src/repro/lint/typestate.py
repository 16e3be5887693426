"""Typestate dataflow: a worklist fixpoint over protocol automata.

The third lint engine. A *protocol automaton* declares, for one class
of tracked objects (a span context, a temp file, a tracer handle),
which states exist, which AST events move between them, which
transitions are protocol violations, and which states may not survive
to a function exit. This module supplies the machinery shared by every
protocol (:mod:`repro.lint.protocols` declares the actual rules):

* a may-analysis over the per-function CFG
  (:mod:`repro.lint.cfg`) — the abstract state maps each tracked
  object to the *set* of automaton states it may occupy, joined by
  union at merge points;
* exception-edge precision: a statement's events are treated as *not
  yet applied* on its exception out-edges (the statement may raise
  before its effect lands), while synthetic ``with-exit`` nodes apply
  their events on every out-edge (``__exit__`` has run by the time the
  exception resumes);
* local alias tracking: objects are identified by the closure of
  local names syntactically bound to the creation expression.

Everything is function-local and syntactic by design: the protocols
encode invariants whose *bypass* is the finding, regardless of whether
the path is provably reachable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.lint.cfg import CFG, EXCEPTION, CFGNode, function_cfgs
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import TYPESTATE_CHECKERS, make

#: An event occurrence inside one CFG node: name + source position.
Event = tuple[str, int, int]

#: The creation pseudo-event: rebinds the object to its initial state.
CREATE = "create"

#: Node kinds whose events apply on every out-edge, exception edges
#: included (the unwinding work has happened when the exception
#: resumes). Everything else propagates its *pre*-event state on
#: exception edges.
_POST_ON_EXCEPTION = frozenset({"with-exit"})

#: The pre-creation state: every object occupies it from function entry
#: until its CREATE event fires. It has no transitions and no exit
#: obligations, so events reaching a not-yet-created object are inert —
#: its only job is keeping the entry state map non-empty so the
#: worklist propagates reachability through the whole graph.
_VIRGIN = "__virgin__"


@dataclass
class TrackedObject:
    """One protocol instance being tracked through a function."""

    key: str
    #: Local alias closure for the object (may be empty for
    #: ``with``-item creations).
    names: frozenset[str] = frozenset()
    line: int = 0
    col: int = 0
    #: The creating statement/expression, matched by identity.
    creation: ast.AST | None = None
    #: Protocol-specific extras (handle aliases, rename targets, ...).
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TypestateContext:
    """Everything a protocol needs to know about the file under lint."""

    path: str
    config: LintConfig


class ProtocolAutomaton:
    """Base class for one declarative protocol automaton.

    Subclasses declare the automaton as data — ``initial``,
    ``transitions`` mapping ``(state, event)`` to ``(next state, error
    message or None)``, and exit obligations per state — and implement
    the AST-facing hooks :meth:`collect` (find tracked objects) and
    :meth:`events` (events one CFG node applies to one object).
    Unmapped ``(state, event)`` pairs keep the state and report
    nothing. Error messages may reference ``{obj_line}``.
    """

    rule_id: str = ""
    initial: str = ""
    transitions: Mapping[tuple[str, str], tuple[str, str | None]] = {}
    #: state -> message, checked against the normal-exit in-state.
    exit_obligations: Mapping[str, str] = {}
    #: state -> message, checked against the raise-exit in-state.
    exception_exit_obligations: Mapping[str, str] = {}
    #: Event names applied even on a node's *exception* out-edges: the
    #: lenient assumption that a cleanup call (``close``, ``__exit__``)
    #: took effect even if it raised. Without this, cleanup inside
    #: ``finally`` would be condemned by its own exception edge.
    cleanup_events: frozenset[str] = frozenset()

    def applies_to(self, ctx: TypestateContext) -> bool:
        """Scope gate, usually a config path-prefix check."""
        return True

    def collect(self, cfg: CFG, ctx: TypestateContext) -> list[TrackedObject]:
        """The objects this protocol tracks through ``cfg``."""
        return []

    def events(
        self, node: CFGNode, obj: TrackedObject, ctx: TypestateContext
    ) -> list[Event]:
        """Events ``node`` applies to ``obj``, in source order."""
        return []


# -- AST helpers shared by the protocol implementations ----------------------


def walk_evaluated(trees: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk AST subtrees, skipping code that does not run here.

    Nested ``def``/``class`` bodies and ``lambda`` bodies execute
    later (or never); scanning them for events would attribute their
    calls to the wrong program point.
    """
    stack = [tree for tree in trees if tree is not None]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def scope_calls(node: CFGNode) -> list[ast.Call]:
    """Every call evaluated at ``node``, in source order.

    ``with-exit`` nodes share their scope (the context expression) with
    the ``with-enter`` node that actually evaluated it; returning its
    calls again would double-count every event.
    """
    if node.kind == "with-exit":
        return []
    calls = [
        child
        for child in walk_evaluated(node.scope)
        if isinstance(child, ast.Call)
    ]
    calls.sort(key=lambda call: (call.lineno, call.col_offset))
    return calls


def own_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Statements belonging to ``func`` itself (nested defs opaque)."""
    stack: list[ast.stmt] = list(getattr(func, "body", []))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                stack.extend(
                    child for child in value if isinstance(child, ast.stmt)
                )


def assign_target(stmt: ast.stmt) -> str | None:
    """The single plain-name target of an assignment, if any."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


def alias_closure(func: ast.AST, seeds: Iterable[str]) -> frozenset[str]:
    """Locals transitively rebound from ``seeds`` (``a = b`` chains)."""
    names = set(seeds)
    changed = True
    while changed:
        changed = False
        for stmt in own_statements(func):
            target = assign_target(stmt)
            if (
                target is not None
                and target not in names
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id in names
            ):
                names.add(target)
                changed = True
    return frozenset(names)


def dotted_name(expr: ast.expr) -> str | None:
    """``os.replace`` for an ``os.replace`` attribute chain, else None."""
    parts: list[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_matches(call: ast.Call, specs: Iterable[str]) -> bool:
    """Does the call target match a configured function spec?

    Dotted specs (``os.replace``) require the full attribute chain;
    bare specs (``atomic_write_bytes``) match a plain name call or the
    final attribute segment (``atomic.atomic_write_bytes``).
    """
    dotted = dotted_name(call.func)
    last: str | None = None
    if isinstance(call.func, ast.Attribute):
        last = call.func.attr
    elif isinstance(call.func, ast.Name):
        last = call.func.id
    for spec in specs:
        if "." in spec:
            if dotted == spec:
                return True
        elif last == spec:
            return True
    return False


def receiver_name(call: ast.Call) -> str | None:
    """``x`` for an ``x.method(...)`` call, else None."""
    if isinstance(call.func, ast.Attribute) and isinstance(
        call.func.value, ast.Name
    ):
        return call.func.value.id
    return None


def names_in(expr: ast.AST) -> set[str]:
    """Every plain name mentioned in an evaluated expression."""
    return {
        node.id
        for node in walk_evaluated([expr])
        if isinstance(node, ast.Name)
    }


# -- the fixpoint engine -----------------------------------------------------

#: obj key -> set of automaton states it may occupy.
_StateMap = dict[str, frozenset[str]]


def _apply_events(
    protocol: ProtocolAutomaton,
    states: frozenset[str],
    events: tuple[Event, ...],
) -> frozenset[str]:
    for name, _, _ in events:
        if name == CREATE:
            states = frozenset((protocol.initial,))
            continue
        moved = set()
        for state in sorted(states):
            transition = protocol.transitions.get((state, name))
            moved.add(transition[0] if transition is not None else state)
        states = frozenset(moved)
    return states


def _transfer(
    protocol: ProtocolAutomaton,
    in_map: _StateMap,
    node_events: dict[str, tuple[Event, ...]],
    objects: list[TrackedObject],
) -> _StateMap:
    out = dict(in_map)
    for obj in objects:
        events = node_events.get(obj.key, ())
        if not events:
            continue
        out[obj.key] = _apply_events(
            protocol, out.get(obj.key, frozenset()), events
        )
    return out


def _join_into(target: _StateMap, incoming: _StateMap) -> bool:
    changed = False
    for key, states in incoming.items():
        merged = target.get(key, frozenset()) | states
        if merged != target.get(key, frozenset()):
            target[key] = merged
            changed = True
    return changed


def analyze_cfg(
    cfg: CFG, protocol: ProtocolAutomaton, ctx: TypestateContext
) -> list[Diagnostic]:
    """Run one protocol over one function and report its violations."""
    objects = protocol.collect(cfg, ctx)
    if not objects:
        return []

    events: dict[int, dict[str, tuple[Event, ...]]] = {}
    for node in cfg.nodes:
        per_node: dict[str, tuple[Event, ...]] = {}
        for obj in objects:
            found = tuple(
                sorted(protocol.events(node, obj, ctx), key=lambda e: e[1:])
            )
            if found:
                per_node[obj.key] = found
        events[node.index] = per_node

    in_states: list[_StateMap] = [{} for _ in cfg.nodes]
    in_states[cfg.entry] = {obj.key: frozenset((_VIRGIN,)) for obj in objects}
    worklist = [cfg.entry]
    while worklist:
        index = worklist.pop()
        node = cfg.nodes[index]
        pre = in_states[index]
        post = _transfer(protocol, pre, events[index], objects)
        # Exception edges carry the pre-event state (the statement may
        # raise before its effect lands) — except for declared cleanup
        # events, which are assumed to have taken effect regardless.
        exc_events = {
            key: cleaned
            for key, node_events in events[index].items()
            if (
                cleaned := tuple(
                    event
                    for event in node_events
                    if event[0] in protocol.cleanup_events
                )
            )
        }
        exc_post = (
            _transfer(protocol, pre, exc_events, objects)
            if exc_events
            else pre
        )
        for target, edge_kind in node.succs:
            carried = (
                exc_post
                if edge_kind == EXCEPTION
                and node.kind not in _POST_ON_EXCEPTION
                else post
            )
            if _join_into(in_states[target], carried):
                worklist.append(target)

    by_key = {obj.key: obj for obj in objects}
    diagnostics: list[Diagnostic] = []
    reported: set[tuple[str, int, int, str]] = set()

    def report(obj: TrackedObject, line: int, col: int, message: str) -> None:
        message = message.format(obj_line=obj.line)
        fingerprint = (obj.key, line, col, message)
        if fingerprint in reported:
            return
        reported.add(fingerprint)
        diagnostics.append(
            make(protocol.rule_id, ctx.path, line, col, message, cfg.name)
        )

    # Transition errors: replay each node's events over its fixpoint
    # in-state; a transition carrying a message is a finding at the
    # event site.
    for node in cfg.nodes:
        for key, node_events in events[node.index].items():
            states = in_states[node.index].get(key, frozenset())
            for name, line, col in node_events:
                if name == CREATE:
                    states = frozenset((protocol.initial,))
                    continue
                moved = set()
                for state in sorted(states):
                    transition = protocol.transitions.get((state, name))
                    if transition is None:
                        moved.add(state)
                        continue
                    next_state, error = transition
                    moved.add(next_state)
                    if error is not None:
                        report(by_key[key], line, col, error)
                states = frozenset(moved)

    # Exit obligations: states that may not survive to function exit.
    for obj in objects:
        for state in sorted(in_states[cfg.exit].get(obj.key, frozenset())):
            message = protocol.exit_obligations.get(state)
            if message is not None:
                report(obj, obj.line, obj.col, message)
        for state in sorted(
            in_states[cfg.raise_exit].get(obj.key, frozenset())
        ):
            message = protocol.exception_exit_obligations.get(state)
            if message is not None:
                report(obj, obj.line, obj.col, message)
    return diagnostics


# -- engine entry points -----------------------------------------------------


def lint_typestate_source(
    source: str, rel_path: str, config: LintConfig
) -> list[Diagnostic]:
    """Run every applicable protocol automaton over one Python source.

    Parse errors report nothing here — the code engine owns DET000.
    Like the other engines, this computes findings for *all* protocol
    rules; the runner applies ``select``/``ignore`` afterwards so the
    staleness pass sees pre-filter results.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    ctx = TypestateContext(path=rel_path, config=config)
    active = [
        protocol for protocol in TYPESTATE_CHECKERS if protocol.applies_to(ctx)
    ]
    if not active:
        return []
    diagnostics: list[Diagnostic] = []
    for graph in function_cfgs(tree):
        for protocol in active:
            diagnostics.extend(analyze_cfg(graph, protocol, ctx))
    return diagnostics


def lint_typestate_file(
    file_path: Path, rel_path: str, config: LintConfig
) -> list[Diagnostic]:
    """Typestate-lint one file on disk (unreadable files are skipped)."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    return lint_typestate_source(source, rel_path, config)
