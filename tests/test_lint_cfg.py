"""Engine 4 substrate: per-function CFGs with exception/finally edges."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.cfg import EXCEPTION, NORMAL, CFG, function_cfgs


def _cfg(source: str, name: str | None = None) -> CFG:
    tree = ast.parse(textwrap.dedent(source))
    graphs = function_cfgs(tree)
    if name is None:
        assert len(graphs) == 1
        return graphs[0]
    return next(graph for graph in graphs if graph.name == name)


def _one(cfg: CFG, label: str) -> int:
    nodes = [node.index for node in cfg.nodes if node.label == label]
    assert len(nodes) == 1, f"expected one {label!r} node, got {nodes}"
    return nodes[0]


def _reachable(cfg: CFG, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for target, _ in cfg.nodes[stack.pop()].succs:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


class TestStraightLine:
    def test_every_statement_gets_an_exception_edge(self) -> None:
        cfg = _cfg("""
            def f(x):
                y = x + 1
                return y
        """)
        stmts = [node for node in cfg.nodes if node.kind == "stmt"]
        assert len(stmts) == 2
        for node in stmts:
            assert (cfg.raise_exit, EXCEPTION) in node.succs
        assert (cfg.exit, NORMAL) in stmts[-1].succs

    def test_qualnames_are_dotted(self) -> None:
        source = """
            class Store:
                def save(self):
                    pass

            def top():
                def inner():
                    pass
        """
        names = {graph.name for graph in function_cfgs(
            ast.parse(textwrap.dedent(source))
        )}
        assert names == {"Store.save", "top", "top.inner"}


class TestTryExceptElseFinally:
    SOURCE = """
        def f(work, cleanup):
            try:
                work()
            except ValueError:
                recover()
            else:
                extra()
            finally:
                cleanup()
    """

    def test_body_exception_routes_to_dispatch(self) -> None:
        cfg = _cfg(self.SOURCE)
        body_nodes = {
            node.line: node for node in cfg.nodes if node.kind == "stmt"
        }
        work = body_nodes[4]
        dispatch = _one(cfg, "except-dispatch")
        assert (dispatch, EXCEPTION) in work.succs

    def test_dispatch_reaches_handler_and_finally_exception_copy(self) -> None:
        cfg = _cfg(self.SOURCE)
        dispatch = cfg.nodes[_one(cfg, "except-dispatch")]
        handler = _one(cfg, "except:")
        f_exc = _one(cfg, "finally-exception")
        assert (handler, NORMAL) in dispatch.succs
        # An exception matching no handler still runs finally.
        assert (f_exc, EXCEPTION) in dispatch.succs

    def test_else_runs_only_after_body_completes(self) -> None:
        cfg = _cfg(self.SOURCE)
        by_line = {node.line: node for node in cfg.nodes if node.kind == "stmt"}
        work, extra = by_line[4], by_line[8]
        assert (extra.index, NORMAL) in work.succs
        handler_out = by_line[6]  # recover()
        assert (extra.index, NORMAL) not in handler_out.succs

    def test_finally_copies_exist_per_live_continuation(self) -> None:
        cfg = _cfg(self.SOURCE)
        labels = {node.label for node in cfg.nodes if node.kind == "finally"}
        # No return/break/continue escapes this try: just the two copies.
        assert labels == {"finally-exception", "finally-normal"}

    def test_return_in_body_adds_a_return_copy(self) -> None:
        cfg = _cfg("""
            def f(work, cleanup):
                try:
                    return work()
                finally:
                    cleanup()
        """)
        labels = {node.label for node in cfg.nodes if node.kind == "finally"}
        assert labels == {"finally-exception", "finally-return",
                          "finally-normal"}


class TestWithUnwinding:
    def test_body_exception_routes_through_with_exit(self) -> None:
        cfg = _cfg("""
            def f(cm, work):
                with cm:
                    work()
        """)
        by_line = {node.line: node for node in cfg.nodes if node.kind == "stmt"}
        work = by_line[4]
        (target, kind), = [
            succ for succ in work.succs if succ[1] == EXCEPTION
        ]
        assert cfg.nodes[target].kind == "with-exit"
        # ... and that exit copy re-raises outward.
        assert (cfg.raise_exit, EXCEPTION) in cfg.nodes[target].succs

    def test_return_inside_with_routes_through_exit_copy(self) -> None:
        cfg = _cfg("""
            def f(cm, work):
                with cm:
                    return work()
        """)
        by_line = {node.line: node for node in cfg.nodes if node.kind == "stmt"}
        ret = by_line[4]
        normal = [
            target for target, kind in ret.succs if kind == NORMAL
        ]
        assert len(normal) == 1
        exit_copy = cfg.nodes[normal[0]]
        assert exit_copy.kind == "with-exit"
        assert (cfg.exit, NORMAL) in exit_copy.succs

    def test_multi_item_with_unwinds_inner_first(self) -> None:
        cfg = _cfg("""
            def f(a, b, work):
                with a, b:
                    work()
        """)
        by_line = {node.line: node for node in cfg.nodes if node.kind == "stmt"}
        work = by_line[4]
        (inner_exit, _), = [s for s in work.succs if s[1] == EXCEPTION]
        (outer_exit, _), = [
            s for s in cfg.nodes[inner_exit].succs if s[1] == EXCEPTION
        ]
        assert cfg.nodes[inner_exit].kind == "with-exit"
        assert cfg.nodes[outer_exit].kind == "with-exit"
        assert (cfg.raise_exit, EXCEPTION) in cfg.nodes[outer_exit].succs


class TestReturnInsideFinally:
    def test_return_in_finally_swallows_the_exception(self) -> None:
        cfg = _cfg("""
            def f(work, fallback):
                try:
                    work()
                finally:
                    return fallback
        """)
        reachable = _reachable(cfg, cfg.entry)
        # The exception continuation's resume point is never reached:
        # every in-flight exception is swallowed by the return.
        tail = next(
            node.index
            for node in cfg.nodes
            if node.label == "finally-exception-end"
        )
        assert tail not in reachable
        # The exception path from the body still reaches normal exit.
        by_line = {node.line: node for node in cfg.nodes if node.kind == "stmt"}
        work = by_line[4]
        (f_exc, _), = [s for s in work.succs if s[1] == EXCEPTION]
        assert cfg.exit in _reachable(cfg, f_exc)
