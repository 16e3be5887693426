"""Engine 3: interprocedural flow analysis over the project graph.

Where DET001–DET009 are per-file and syntactic, these rules follow
calls across modules:

========  =======================  ==========================================
DET011    digest-taint             nondeterminism sources (builtin ``hash``,
                                   duration clocks) flowing transitively
                                   into sha256/checksum/manifest sinks
DET012    stale-baseline           baseline entries whose (path, symbol) no
                                   longer exists or no longer fires
DET013    watermark-bypass         stage/engine state watermarks written
                                   outside the sanctioned commit path
========  =======================  ==========================================

DET011 is a taint pass with per-function summaries, iterated to a
fixpoint over the call graph: a function's return value is *tainted*
when it derives from a nondeterminism source, and a *sink* is any
``hashlib`` constructor/update, a configured ``digest_sinks`` callable,
or a call into a function whose parameters are known to reach a sink.
The analysis is deliberately name-level and over-approximating: a
tainted name anywhere inside an expression taints the expression.
Accepted over-approximations go in the baseline with a reason, like
every other rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Sequence

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.callgraph import CallGraph, _dotted_base
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import FunctionInfo, ModuleInfo, ProjectGraph
from repro.lint.registry import make, rule

rule(
    "DET011", "digest-taint", "project",
    "nondeterministic value flows into a digest/checksum/manifest sink",
)
rule(
    "DET012", "stale-baseline", "project",
    "baseline entry whose (path, symbol) no longer exists or fires",
)
rule(
    "DET013", "watermark-bypass", "project",
    "watermark state mutated outside the sanctioned commit path",
)

#: The rules :func:`run_project_analysis` computes. DET012 is derived
#: from the baseline afterwards, not by the graph pass, so the runner
#: gates the (expensive) pass on these alone.
PROJECT_PASS_RULES: tuple[str, ...] = ("DET011", "DET013")

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
})

#: ``hashlib`` constructors whose input becomes a digest.
_HASHLIB_CTORS = frozenset({
    "sha256", "sha224", "sha384", "sha512", "sha1", "md5",
    "blake2b", "blake2s", "sha3_256", "sha3_512", "new",
})

#: ``time`` duration-clock reads (mirrors the DET009 list).
_DURATION_FNS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "thread_time", "thread_time_ns",
})


# ---------------------------------------------------------------------------
# shared per-function bookkeeping
# ---------------------------------------------------------------------------


def _own_statements(func: FunctionInfo) -> Iterable[ast.stmt]:
    """The function's body, excluding nested def/class bodies."""
    stack: list[ast.stmt] = list(func.node.body)
    while stack:
        statement = stack.pop(0)
        if isinstance(
            statement,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        yield statement
        # Blocks (if/for/while/try/with) carry their nested statements
        # in stmt-typed child fields; except handlers and match cases
        # interpose a non-stmt node that must be descended through.
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                stack.extend(child.body)


def _walk_own(func: FunctionInfo) -> Iterable[ast.AST]:
    """Every AST node in the function body, excluding nested defs."""
    for statement in _own_statements(func):
        for node in ast.walk(statement):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                break
            yield node


# ---------------------------------------------------------------------------
# DET011: digest-taint
# ---------------------------------------------------------------------------


@dataclass
class _TaintSummary:
    """Cross-call facts about one function."""

    returns_taint: bool = False  # return derives from a source
    param_to_sink: bool = False  # some parameter reaches a sink inside
    param_to_return: bool = False  # parameters flow into the return value


@dataclass
class _ModuleAliases:
    """hashlib / time import bindings for one module."""

    hashlib_modules: set[str] = field(default_factory=set)
    hashlib_functions: set[str] = field(default_factory=set)
    time_modules: set[str] = field(default_factory=set)
    duration_functions: set[str] = field(default_factory=set)


def _module_taint_aliases(module: ModuleInfo) -> _ModuleAliases:
    aliases = _ModuleAliases()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                if name.name == "hashlib":
                    aliases.hashlib_modules.add(local)
                elif name.name == "time":
                    aliases.time_modules.add(local)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "hashlib":
                for name in node.names:
                    if name.name in _HASHLIB_CTORS:
                        aliases.hashlib_functions.add(name.asname or name.name)
            elif node.module == "time":
                for name in node.names:
                    if name.name in _DURATION_FNS:
                        aliases.duration_functions.add(
                            name.asname or name.name
                        )
    return aliases


class _TaintPass:
    """One function's name-level forward taint propagation."""

    def __init__(
        self,
        graph: ProjectGraph,
        func: FunctionInfo,
        aliases: _ModuleAliases,
        summaries: dict[str, _TaintSummary],
        config: LintConfig,
        params_tainted: bool,
    ) -> None:
        self.graph = graph
        self.func = func
        self.module = graph.modules[func.module]
        self.aliases = aliases
        self.summaries = summaries
        self.config = config
        self.tainted: dict[str, str] = {}  # name -> provenance
        self.digest_locals: set[str] = set()
        self.returns_taint = False
        self.sink_hits: list[tuple[ast.Call, str, str]] = []
        if params_tainted:
            args = func.node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                self.tainted[arg.arg] = f"parameter {arg.arg!r}"

    # -- resolution helpers -------------------------------------------------

    def _resolve_call(self, call: ast.Call) -> tuple[str, str] | None:
        func = call.func
        if isinstance(func, ast.Name):
            nested = f"{self.func.qualname}.{func.id}"
            if nested in self.module.functions:
                return (self.module.name, nested)
            return self.graph.resolve_symbol(self.module, func.id)
        if isinstance(func, ast.Attribute):
            dotted = _dotted_base(func.value)
            if dotted is not None:
                owner = self.graph.resolve_dotted(self.module, dotted)
                if owner is not None:
                    return (owner, func.attr)
        return None

    def _summary_for(self, call: ast.Call) -> _TaintSummary | None:
        resolved = self._resolve_call(call)
        if resolved is None:
            return None
        owner_module, symbol = resolved
        owner = self.graph.modules.get(owner_module)
        if owner is None:
            return None
        if symbol in owner.classes:
            return None
        return self.summaries.get(f"{owner_module}:{symbol}")

    def _source_provenance(self, call: ast.Call) -> str | None:
        """Why this call is a nondeterminism source, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "hash" and "__hash__" not in self.func.qualname:
                if self.graph.resolve_symbol(self.module, func.id) is None:
                    return "builtin hash()"
            if func.id in self.aliases.duration_functions:
                return f"duration clock {func.id}()"
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            if base in self.aliases.time_modules and (
                func.attr in _DURATION_FNS
            ):
                return f"duration clock time.{func.attr}()"
        summary = self._summary_for(call)
        if summary is not None and summary.returns_taint:
            resolved = self._resolve_call(call)
            assert resolved is not None
            return f"tainted return of {resolved[0]}.{resolved[1]}()"
        return None

    def _sink_name(self, call: ast.Call) -> str | None:
        """The sink this call feeds, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.aliases.hashlib_functions:
                return f"hashlib.{func.id}"
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in self.aliases.hashlib_modules
                and func.attr in _HASHLIB_CTORS
            ):
                return f"hashlib.{func.attr}"
            if (
                isinstance(base, ast.Name)
                and base.id in self.digest_locals
                and func.attr == "update"
            ):
                return "digest.update"
        resolved = self._resolve_call(call)
        if resolved is not None:
            dotted = f"{resolved[0]}.{resolved[1]}"
            if dotted in self.config.digest_sinks:
                return dotted
        summary = self._summary_for(call)
        if summary is not None and summary.param_to_sink:
            resolved = self._resolve_call(call)
            assert resolved is not None
            return f"{resolved[0]}.{resolved[1]} (reaches a digest sink)"
        return None

    def _is_hashlib_ctor(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in self.aliases.hashlib_functions
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.aliases.hashlib_modules
            and func.attr in _HASHLIB_CTORS
        )

    # -- expression taint ---------------------------------------------------

    def expr_taint(self, expr: ast.expr) -> str | None:
        """Provenance when any part of ``expr`` is tainted, else None."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.tainted:
                    return self.tainted[node.id]
            elif isinstance(node, ast.Call):
                provenance = self._source_provenance(node)
                if provenance is not None:
                    return provenance
                summary = self._summary_for(node)
                if (
                    summary is not None
                    and summary.param_to_return
                    and any(
                        self._name_taint_only(arg) for arg in node.args
                    )
                ):
                    return self._first_arg_taint(node)
        return None

    def _name_taint_only(self, expr: ast.expr) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self.tainted:
                return True
        return False

    def _first_arg_taint(self, call: ast.Call) -> str | None:
        for arg in call.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name) and node.id in self.tainted:
                    return self.tainted[node.id]
        return None

    # -- driver --------------------------------------------------------------

    def run(self) -> None:
        # Two passes give loop-carried taint a chance to stabilize.
        for _ in range(2):
            changed = self._pass()
            if not changed:
                break

    def _pass(self) -> bool:
        before = dict(self.tainted)
        self.sink_hits = []
        for statement in _own_statements(self.func):
            self._statement(statement)
        return self.tainted != before

    def _assign_names(self, target: ast.expr, provenance: str | None) -> None:
        # Only plain-name targets (and their tuple/list unpackings) take
        # taint. Tainting the base of ``obj.attr = value`` would smear a
        # single tainted field over the whole receiver.
        if isinstance(target, ast.Name):
            if provenance is not None:
                self.tainted[target.id] = provenance
            else:
                self.tainted.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            children = (
                [target.value]
                if isinstance(target, ast.Starred)
                else target.elts
            )
            for element in children:
                self._assign_names(element, provenance)

    def _statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            provenance = self.expr_taint(statement.value)
            for target in statement.targets:
                if isinstance(target, ast.Name) and isinstance(
                    statement.value, ast.Call
                ) and self._is_hashlib_ctor(statement.value):
                    self.digest_locals.add(target.id)
                self._assign_names(target, provenance)
            self._scan_calls(statement.value)
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            provenance = self.expr_taint(statement.value)
            self._assign_names(statement.target, provenance)
            self._scan_calls(statement.value)
        elif isinstance(statement, ast.AugAssign):
            provenance = self.expr_taint(statement.value) or (
                self.expr_taint(statement.target)
            )
            if provenance is not None:
                self._assign_names(statement.target, provenance)
            self._scan_calls(statement.value)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            provenance = self.expr_taint(statement.iter)
            if provenance is not None:
                self._assign_names(statement.target, provenance)
            self._scan_calls(statement.iter)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                if self.expr_taint(statement.value) is not None:
                    self.returns_taint = True
                self._scan_calls(statement.value)
        elif isinstance(statement, (ast.Expr, ast.Assert)):
            value = (
                statement.value
                if isinstance(statement, ast.Expr)
                else statement.test
            )
            self._scan_calls(value)
        elif isinstance(statement, (ast.If, ast.While)):
            self._scan_calls(statement.test)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                provenance = self.expr_taint(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_names(item.optional_vars, provenance)
                self._scan_calls(item.context_expr)
        elif isinstance(statement, ast.Raise) and statement.exc is not None:
            self._scan_calls(statement.exc)

    def _scan_calls(self, expr: ast.expr) -> None:
        """Record every sink call inside ``expr`` fed by tainted input."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_name(node)
            if sink is None:
                continue
            arguments = list(node.args) + [
                keyword.value for keyword in node.keywords
            ]
            for argument in arguments:
                provenance = self.expr_taint(argument)
                if provenance is not None:
                    self.sink_hits.append((node, sink, provenance))
                    break


def check_digest_taint(
    graph: ProjectGraph, call_graph: CallGraph, config: LintConfig
) -> list[Diagnostic]:
    """DET011: fixpoint summaries, then per-function reporting."""
    module_aliases = {
        name: _module_taint_aliases(info)
        for name, info in graph.modules.items()
    }
    summaries: dict[str, _TaintSummary] = {
        func.ident: _TaintSummary() for func in graph.iter_functions()
    }
    for _ in range(10):
        changed = False
        for func in graph.iter_functions():
            aliases = module_aliases[func.module]
            intrinsic = _TaintPass(
                graph, func, aliases, summaries, config, params_tainted=False
            )
            intrinsic.run()
            parametric = _TaintPass(
                graph, func, aliases, summaries, config, params_tainted=True
            )
            parametric.run()
            summary = summaries[func.ident]
            updated = _TaintSummary(
                returns_taint=intrinsic.returns_taint,
                param_to_sink=bool(parametric.sink_hits),
                param_to_return=parametric.returns_taint,
            )
            if updated != summary:
                summaries[func.ident] = updated
                changed = True
        if not changed:
            break

    diagnostics: list[Diagnostic] = []
    for func in graph.iter_functions():
        aliases = module_aliases[func.module]
        final = _TaintPass(
            graph, func, aliases, summaries, config, params_tainted=False
        )
        final.run()
        module = graph.modules[func.module]
        seen: set[tuple[int, str]] = set()
        for node, sink, provenance in final.sink_hits:
            line = getattr(node, "lineno", func.lineno)
            key = (line, sink)
            if key in seen:
                continue
            seen.add(key)
            diagnostics.append(
                make(
                    "DET011", module.path, line,
                    getattr(node, "col_offset", 0),
                    f"value derived from {provenance} flows into digest "
                    f"sink {sink}; digests over nondeterministic inputs "
                    "diverge across reruns — derive the input from stable "
                    "content instead",
                    func.qualname,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# DET012: stale-baseline
# ---------------------------------------------------------------------------


def _file_symbols(path: Path) -> set[str] | None:
    """Every def/class qualname in ``path`` (None when unparseable)."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, SyntaxError):
        return None
    symbols: set[str] = {"<module>"}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                symbols.add(qualname)
                walk(child, qualname)
            else:
                walk(child, prefix)

    walk(tree, "")
    return symbols


def stale_baseline_diagnostics(
    baseline: Baseline,
    all_diagnostics: Iterable[Diagnostic],
    scanned_paths: set[str],
    config: LintConfig,
    evaluated_rules: Collection[str] | None = None,
) -> tuple[list[Diagnostic], list[BaselineEntry]]:
    """DET012: entries that no longer anchor to anything real.

    An entry is stale when its path is gone, its symbol is no longer
    defined in the file, or the file was scanned in this run and the
    finding did not fire. Entries for files outside this run's scope
    are left alone — ``riskybiz lint one_file.py`` must not condemn
    the rest of the baseline. Likewise, "no longer fires" is only
    meaningful for rules whose engine actually ran: with
    ``evaluated_rules`` given, entries for unevaluated rules are never
    condemned on that ground (``--select DET004`` skips the project
    pass, which must not mark every live DET011 entry prunable).
    Path- and symbol-existence staleness is engine-independent and is
    still checked.
    """
    fired = {diag.fingerprint for diag in all_diagnostics}
    diagnostics: list[Diagnostic] = []
    stale: list[BaselineEntry] = []
    symbol_cache: dict[str, set[str] | None] = {}
    for entry in baseline.entries:
        if entry.fingerprint in fired:
            continue
        reason: str | None = None
        absolute = config.root / entry.path
        if not absolute.exists():
            reason = "the path no longer exists"
        elif entry.path.endswith(".py") and entry.symbol not in ("", "<module>"):
            if entry.path not in symbol_cache:
                symbol_cache[entry.path] = _file_symbols(absolute)
            symbols = symbol_cache[entry.path]
            if symbols is not None and entry.symbol not in symbols:
                reason = f"symbol {entry.symbol!r} is no longer defined there"
        if (
            reason is None
            and entry.path in scanned_paths
            and (evaluated_rules is None or entry.rule in evaluated_rules)
        ):
            reason = "the finding no longer fires"
        if reason is None:
            continue
        stale.append(entry)
        diagnostics.append(
            make(
                "DET012", entry.path, 0, 0,
                f"stale baseline entry ({entry.rule}): {reason}; run "
                "`riskybiz lint --prune-baseline` to drop it",
                entry.symbol,
            )
        )
    return diagnostics, stale


# ---------------------------------------------------------------------------
# DET013: watermark-bypass
# ---------------------------------------------------------------------------

#: The stage-state key holding per-stage watermarks. The incremental
#: engine's correctness proof hinges on watermarks moving only through
#: the never-backwards commit helper; any other write can silently
#: rewind or skip a day.
_WATERMARK_KEY = "watermarks"


def _watermark_subscript(node: ast.expr, aliases: set[str]) -> bool:
    """``<expr>["watermarks"]`` or a local alias bound to one."""
    if isinstance(node, ast.Subscript):
        index = node.slice
        return isinstance(index, ast.Constant) and index.value == _WATERMARK_KEY
    return isinstance(node, ast.Name) and node.id in aliases


def _watermark_aliases(func: FunctionInfo) -> set[str]:
    """Locals assigned from a ``<expr>["watermarks"]`` subscript."""
    aliases: set[str] = set()
    for node in _walk_own(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _watermark_subscript(node.value, aliases)
        ):
            aliases.add(node.targets[0].id)
    return aliases


def check_watermark_bypass(
    graph: ProjectGraph, config: LintConfig
) -> list[Diagnostic]:
    """DET013: flag watermark-map writes outside the commit functions.

    The sanctioned writers are configured as ``module:qualname`` specs
    (``watermark_commit_functions``); every other function that assigns
    into, replaces, deletes from, or calls a mutating method on a
    ``state["watermarks"]`` mapping — directly or through a local alias
    — is reported. Purely syntactic by design: the commit path's
    never-backwards guard is the invariant, so any bypass is a finding
    regardless of reachability.
    """
    allowed = set(config.watermark_commit_functions)
    diagnostics: list[Diagnostic] = []
    for func in graph.iter_functions():
        if func.ident in allowed:
            continue
        module = graph.modules[func.module]
        aliases = _watermark_aliases(func)
        hits: list[tuple[ast.AST, str]] = []
        for node in _walk_own(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: Sequence[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                else:
                    targets = [node.target]
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    if _watermark_subscript(target, set()):
                        hits.append((node, "replaces the watermark map"))
                    elif _watermark_subscript(target.value, aliases):
                        hits.append((node, "writes a watermark entry"))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and (
                        _watermark_subscript(target, set())
                        or _watermark_subscript(target.value, aliases)
                    ):
                        hits.append((node, "deletes watermark state"))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATING_METHODS and _watermark_subscript(
                    node.func.value, aliases
                ):
                    hits.append(
                        (
                            node,
                            f".{node.func.attr}() mutates the watermark map "
                            "in place",
                        )
                    )
        for node, description in hits:
            diagnostics.append(
                make(
                    "DET013", module.path,
                    getattr(node, "lineno", func.lineno),
                    getattr(node, "col_offset", 0),
                    f"{description} outside the sanctioned commit path; "
                    "watermarks may only advance through "
                    + (
                        ", ".join(sorted(allowed))
                        if allowed
                        else "a configured commit function"
                    )
                    + " (the never-backwards guard lives there)",
                    func.qualname,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# entry point used by the runner
# ---------------------------------------------------------------------------


def run_project_analysis(
    config: LintConfig, graph: ProjectGraph | None = None
) -> tuple[list[Diagnostic], ProjectGraph, CallGraph]:
    """Build the graphs and run DET011 and DET013 over the project."""
    project = graph or ProjectGraph.build(config)
    call_graph = CallGraph.build(project)
    diagnostics = check_digest_taint(project, call_graph, config)
    diagnostics.extend(check_watermark_bypass(project, config))
    return diagnostics, project, call_graph
