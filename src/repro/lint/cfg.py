"""Per-function control-flow graphs with exception and ``finally`` edges.

The typestate engine (:mod:`repro.lint.typestate`) reasons about
*every* path through a function — including the ones chaos testing
rarely exercises: an exception thrown mid-statement, a ``return`` that
unwinds a ``with`` block, a ``finally`` that swallows an in-flight
exception by returning. This module builds that graph from the AST,
once per function:

* every statement that can raise gets an ``exception`` edge to the
  innermost handler — an except dispatch node, a ``finally`` copy, or
  the synthetic raise-exit;
* ``with`` blocks get explicit ``with-enter``/``with-exit`` nodes, and
  the body's exception/return/break/continue continuations are routed
  through dedicated ``with-exit`` copies, modelling the guaranteed
  ``__exit__`` call on unwinding;
* ``finally`` bodies are duplicated per continuation (normal,
  exception, return, break, continue), each copy built against the
  *outer* control context, so a ``return`` inside ``finally``
  correctly swallows the exception it interrupted.

Each node carries a ``scope``: the AST subtrees actually evaluated at
that point (an ``if`` node holds only its test, a ``for`` node its
target and iterable). Consumers that scan for events must walk the
scope, never the full statement, or they would see code from branches
the node does not execute. Nested ``def``/``class`` bodies are opaque
to the enclosing graph; every function gets its own CFG.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

#: Edge kinds.
NORMAL = "normal"
EXCEPTION = "exception"

#: try statement types (``except*`` groups build identically).
_TRY_TYPES: tuple[type[ast.stmt], ...] = (ast.Try,) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ()
)

#: Statements whose node is opaque (nested bodies never run here).
_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Statements that cannot raise: no exception edge.
_NO_RAISE = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)


@dataclass
class CFGNode:
    """One program point: a statement, a branch test, or synthetic."""

    index: int
    #: ``entry`` | ``exit`` | ``raise-exit`` | ``stmt`` | ``with-enter``
    #: | ``with-exit`` | ``except-dispatch`` | ``handler`` | ``finally``
    #: | ``join``
    kind: str
    label: str = ""
    line: int = 0
    col: int = 0
    ast_node: ast.AST | None = None
    #: AST subtrees evaluated at this node (the event scope).
    scope: tuple[ast.AST, ...] = ()
    #: Out-edges: ``(successor index, edge kind)``.
    succs: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class CFG:
    """The control-flow graph of one function."""

    name: str
    func: ast.FunctionDef | ast.AsyncFunctionDef
    nodes: list[CFGNode]
    entry: int
    exit: int
    #: Where escaping exceptions land; unreachable in functions whose
    #: every exception is swallowed (e.g. ``return`` inside ``finally``).
    raise_exit: int


@dataclass(frozen=True)
class _Env:
    """Where control transfers land in the current syntactic context."""

    exc: int
    ret: int
    brk: int | None = None
    cont: int | None = None


def _escape_kinds(bodies: Iterable[list[ast.stmt]]) -> set[str]:
    """Which of return/break/continue escape these statement lists.

    ``break``/``continue`` bound to a loop *inside* the scanned region
    do not escape it; nested function bodies never run here at all.
    """
    found: set[str] = set()

    def visit(stmt: ast.stmt, in_loop: bool) -> None:
        if isinstance(stmt, ast.Return):
            found.add("return")
            return
        if isinstance(stmt, ast.Break):
            if not in_loop:
                found.add("break")
            return
        if isinstance(stmt, ast.Continue):
            if not in_loop:
                found.add("continue")
            return
        if isinstance(stmt, _OPAQUE):
            return
        deeper = in_loop or isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for child in value:
                    if isinstance(child, ast.stmt):
                        visit(child, deeper)

    for body in bodies:
        for stmt in body:
            visit(stmt, False)
    return found


class _Builder:
    """Builds one function's CFG via a running frontier of open ends."""

    def __init__(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> None:
        self.func = func
        self.qualname = qualname
        self.nodes: list[CFGNode] = []
        self.entry = self._node("entry", label="entry", ast_node=func)
        self.exit = self._node("exit", label="exit", ast_node=func)
        self.raise_exit = self._node(
            "raise-exit", label="raise-exit", ast_node=func
        )

    # -- graph primitives ---------------------------------------------------

    def _node(
        self,
        kind: str,
        label: str = "",
        ast_node: ast.AST | None = None,
        scope: tuple[ast.AST, ...] = (),
    ) -> int:
        line = int(getattr(ast_node, "lineno", 0) or 0)
        col = int(getattr(ast_node, "col_offset", 0) or 0)
        if not line and scope:
            line = int(getattr(scope[0], "lineno", 0) or 0)
            col = int(getattr(scope[0], "col_offset", 0) or 0)
        index = len(self.nodes)
        self.nodes.append(
            CFGNode(index, kind, label, line, col, ast_node, scope)
        )
        return index

    def _edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        if (dst, kind) not in self.nodes[src].succs:
            self.nodes[src].succs.append((dst, kind))

    def _link(self, frontier: list[int], dst: int) -> None:
        for src in frontier:
            self._edge(src, dst)

    # -- statement dispatch -------------------------------------------------

    def build(self) -> CFG:
        env = _Env(exc=self.raise_exit, ret=self.exit)
        frontier = self._stmts(self.func.body, [self.entry], env)
        self._link(frontier, self.exit)
        return CFG(
            self.qualname,
            self.func,
            self.nodes,
            self.entry,
            self.exit,
            self.raise_exit,
        )

    def _stmts(
        self, body: list[ast.stmt], frontier: list[int], env: _Env
    ) -> list[int]:
        for stmt in body:
            frontier = self._stmt(stmt, frontier, env)
        return frontier

    def _stmt(
        self, stmt: ast.stmt, frontier: list[int], env: _Env
    ) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier, env)
        if isinstance(stmt, ast.While):
            return self._loop(stmt, (stmt.test,), frontier, env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._loop(stmt, (stmt.target, stmt.iter), frontier, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, 0, frontier, env)
        if isinstance(stmt, _TRY_TYPES):
            return self._try(stmt, frontier, env)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier, env)
        return self._simple(stmt, frontier, env)

    def _simple(
        self, stmt: ast.stmt, frontier: list[int], env: _Env
    ) -> list[int]:
        scope: tuple[ast.AST, ...] = (stmt,)
        if isinstance(stmt, _OPAQUE):
            scope = tuple(stmt.decorator_list)
        node = self._node(
            "stmt",
            label=type(stmt).__name__.lower(),
            ast_node=stmt,
            scope=scope,
        )
        self._link(frontier, node)
        if not isinstance(stmt, _NO_RAISE):
            self._edge(node, env.exc, EXCEPTION)
        if isinstance(stmt, ast.Return):
            self._edge(node, env.ret)
            return []
        if isinstance(stmt, ast.Raise):
            return []
        if isinstance(stmt, ast.Break):
            if env.brk is not None:
                self._edge(node, env.brk)
            return []
        if isinstance(stmt, ast.Continue):
            if env.cont is not None:
                self._edge(node, env.cont)
            return []
        return [node]

    def _if(self, stmt: ast.If, frontier: list[int], env: _Env) -> list[int]:
        test = self._node(
            "stmt", label="if", ast_node=stmt, scope=(stmt.test,)
        )
        self._link(frontier, test)
        self._edge(test, env.exc, EXCEPTION)
        out = self._stmts(stmt.body, [test], env)
        if stmt.orelse:
            out += self._stmts(stmt.orelse, [test], env)
        else:
            out.append(test)
        return out

    def _loop(
        self,
        stmt: ast.While | ast.For | ast.AsyncFor,
        scope: tuple[ast.AST, ...],
        frontier: list[int],
        env: _Env,
    ) -> list[int]:
        label = "while" if isinstance(stmt, ast.While) else "for"
        head = self._node("stmt", label=label, ast_node=stmt, scope=scope)
        after = self._node("join", label=f"{label}-exit", ast_node=stmt)
        self._link(frontier, head)
        self._edge(head, env.exc, EXCEPTION)
        body_env = _Env(exc=env.exc, ret=env.ret, brk=after, cont=head)
        body_out = self._stmts(stmt.body, [head], body_env)
        self._link(body_out, head)
        if stmt.orelse:
            # else runs when the loop exhausts; break bypasses it.
            else_out = self._stmts(stmt.orelse, [head], env)
            self._link(else_out, after)
        else:
            self._edge(head, after)
        return [after]

    def _with(
        self,
        stmt: ast.With | ast.AsyncWith,
        item_index: int,
        frontier: list[int],
        env: _Env,
    ) -> list[int]:
        item = stmt.items[item_index]
        enter = self._node(
            "with-enter",
            label="with-enter",
            ast_node=item,
            scope=(item.context_expr,),
        )
        self._link(frontier, enter)
        self._edge(enter, env.exc, EXCEPTION)

        def exit_copy(continuation: int | None, edge_kind: str) -> int | None:
            if continuation is None:
                return None
            node = self._node(
                "with-exit", label="with-exit", ast_node=item,
                scope=(item.context_expr,),
            )
            self._edge(node, continuation, edge_kind)
            return node

        exit_exc = exit_copy(env.exc, EXCEPTION)
        exit_ret = exit_copy(env.ret, NORMAL)
        assert exit_exc is not None and exit_ret is not None
        inner = _Env(
            exc=exit_exc,
            ret=exit_ret,
            brk=exit_copy(env.brk, NORMAL),
            cont=exit_copy(env.cont, NORMAL),
        )
        if item_index + 1 < len(stmt.items):
            body_out = self._with(stmt, item_index + 1, [enter], inner)
        else:
            body_out = self._stmts(stmt.body, [enter], inner)
        exit_norm = self._node(
            "with-exit", label="with-exit", ast_node=item,
            scope=(item.context_expr,),
        )
        self._link(body_out, exit_norm)
        return [exit_norm]

    def _try(self, stmt: ast.stmt, frontier: list[int], env: _Env) -> list[int]:
        assert isinstance(stmt, _TRY_TYPES)
        body: list[ast.stmt] = stmt.body  # type: ignore[attr-defined]
        handlers: list[ast.ExceptHandler] = stmt.handlers  # type: ignore[attr-defined]
        orelse: list[ast.stmt] = stmt.orelse  # type: ignore[attr-defined]
        finalbody: list[ast.stmt] = stmt.finalbody  # type: ignore[attr-defined]
        if not finalbody:
            return self._try_except(
                stmt, body, handlers, orelse, frontier, env
            )

        after = self._node("join", label="after-try", ast_node=stmt)

        def finally_copy(
            tag: str, continuation: int | None, edge_kind: str
        ) -> int | None:
            """One duplicate of the finally body, under the OUTER env."""
            if continuation is None:
                return None
            marker = self._node(
                "finally", label=f"finally-{tag}", ast_node=stmt
            )
            out = self._stmts(finalbody, [marker], env)
            tail = self._node("join", label=f"finally-{tag}-end", ast_node=stmt)
            self._link(out, tail)
            self._edge(tail, continuation, edge_kind)
            return marker

        escapes = _escape_kinds(
            [body, orelse] + [handler.body for handler in handlers]
        )
        f_exc = finally_copy("exception", env.exc, EXCEPTION)
        assert f_exc is not None
        inner = _Env(
            exc=f_exc,
            ret=(
                finally_copy("return", env.ret, NORMAL) or env.ret
                if "return" in escapes
                else env.ret
            ),
            brk=(
                finally_copy("break", env.brk, NORMAL)
                if "break" in escapes
                else env.brk
            ),
            cont=(
                finally_copy("continue", env.cont, NORMAL)
                if "continue" in escapes
                else env.cont
            ),
        )
        if handlers:
            body_out = self._try_except(
                stmt, body, handlers, orelse, frontier, inner
            )
        else:
            body_out = self._stmts(body, frontier, inner)
        f_norm = finally_copy("normal", after, NORMAL)
        assert f_norm is not None
        self._link(body_out, f_norm)
        return [after]

    def _try_except(
        self,
        stmt: ast.stmt,
        body: list[ast.stmt],
        handlers: list[ast.ExceptHandler],
        orelse: list[ast.stmt],
        frontier: list[int],
        env: _Env,
    ) -> list[int]:
        if not handlers:
            out = self._stmts(body, frontier, env)
            if orelse:
                out = self._stmts(orelse, out, env)
            return out
        dispatch = self._node(
            "except-dispatch", label="except-dispatch", ast_node=stmt
        )
        # Conservatively, an exception may match no handler and escape.
        self._edge(dispatch, env.exc, EXCEPTION)
        inner = _Env(exc=dispatch, ret=env.ret, brk=env.brk, cont=env.cont)
        body_out = self._stmts(body, frontier, inner)
        out: list[int] = []
        for handler in handlers:
            scope = (handler.type,) if handler.type is not None else ()
            node = self._node(
                "handler",
                label=f"except:{handler.name or ''}",
                ast_node=handler,
                scope=scope,
            )
            self._edge(dispatch, node)
            # Handler bodies (and re-raises) unwind to the outer context.
            self._edge(node, env.exc, EXCEPTION)
            out += self._stmts(handler.body, [node], env)
        if orelse:
            out += self._stmts(orelse, body_out, env)
        else:
            out += body_out
        return out

    def _match(
        self, stmt: ast.Match, frontier: list[int], env: _Env
    ) -> list[int]:
        subject = self._node(
            "stmt", label="match", ast_node=stmt, scope=(stmt.subject,)
        )
        self._link(frontier, subject)
        self._edge(subject, env.exc, EXCEPTION)
        out: list[int] = [subject]  # no case may match
        for case in stmt.cases:
            scope = (case.guard,) if case.guard is not None else ()
            node = self._node(
                "stmt", label="case", ast_node=case.pattern, scope=scope
            )
            self._edge(subject, node)
            self._edge(node, env.exc, EXCEPTION)
            out += self._stmts(case.body, [node], env)
        return out


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str | None = None
) -> CFG:
    """The CFG of one function definition."""
    return _Builder(func, qualname or func.name).build()


def function_cfgs(tree: ast.Module) -> list[CFG]:
    """A CFG per function/method in ``tree``, dotted-qualname keyed.

    Qualnames match the baseline anchor style used everywhere else in
    the linter: ``Class.method``, ``outer.inner`` for closures.
    """
    graphs: list[CFG] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                graphs.append(build_cfg(child, qualname))
                walk(child, qualname)
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                walk(child, qualname)
            else:
                walk(child, prefix)

    walk(tree, "")
    return graphs
