"""Engine 1: determinism and durability discipline, enforced on the AST.

The reproduction's headline numbers depend on bit-identical reruns, so
every stochastic or time-dependent code path must draw from seeded,
named RNG streams and ``repro.simtime``, and every file a later run
reads must be published crash-safely. These rules catch the ways that
discipline silently erodes:

========  =======================  ==========================================
DET000    parse-error              file could not be parsed
DET001    unseeded-rng             global/unseeded ``random`` use
DET002    wall-clock               ``time.time()``/``datetime.now()`` reads
DET003    fault-stream-rng         fault layer bypassing the stream registry
DET004    set-iteration            set iteration order reaching ordered output
DET005    float-equality           ``==``/``!=`` against float literals
DET006    mutable-default          mutable default argument values
DET007    process-hash             builtin ``hash()`` outside ``__hash__``
DET008    non-atomic-write         raw file write in the durability layer
DET009    telemetry-read           raw duration-clock read outside ``repro.obs``
DET014    span-lifecycle           explicit ``__enter__``/``__exit__`` call
DET016    atomic-protocol          ``os.replace``/``os.rename`` outside the
                                   atomic-write modules
========  =======================  ==========================================

Checks are deliberately syntactic (no type inference beyond local
set-literal tracking): they over-approximate rarely and every accepted
over-approximation goes in the baseline with a reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import code_checker, make, rule

rule("DET000", "parse-error", "code", "file could not be parsed as Python")
rule(
    "DET001", "unseeded-rng", "code",
    "unseeded random.Random() or module-level random.* call",
)
rule(
    "DET002", "wall-clock", "code",
    "wall-clock read (time.time/datetime.now); use repro.simtime",
)
rule(
    "DET003", "fault-stream-rng", "code",
    "fault-layer RNG constructed directly; use repro.faults.rng.stream_rng",
)
rule(
    "DET004", "set-iteration", "code",
    "iteration over a set where order can leak into output",
)
rule(
    "DET005", "float-equality", "code",
    "float literal compared with == / != in analysis code",
)
rule(
    "DET006", "mutable-default", "code",
    "mutable default argument value",
)
rule(
    "DET007", "process-hash", "code",
    "builtin hash() varies per process (PYTHONHASHSEED); use a stable digest",
)
rule(
    "DET008", "non-atomic-write", "code",
    "raw file write in storage/runner code; route through repro.store.atomic",
)
rule(
    "DET009", "telemetry-read", "code",
    "raw duration-clock / tracemalloc read; route through repro.obs",
)
rule(
    "DET014", "span-lifecycle", "code",
    "explicit __enter__/__exit__ call; use `with` or contextlib.ExitStack",
)
rule(
    "DET016", "atomic-protocol", "code",
    "os.replace/os.rename outside the atomic-write modules; "
    "use repro.store.atomic.publish",
)

#: ``open()`` mode characters that make the call a write.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Functions on the ``random`` module that draw from the shared global RNG.
_MODULE_RNG_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "binomialvariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "seed",
})

#: ``time`` module functions that read the wall clock.
_TIME_FNS = frozenset({"time", "time_ns", "localtime", "gmtime", "ctime", "asctime"})

#: ``time`` module functions that read duration clocks (DET009). These
#: are deterministic-content-safe but belong to the telemetry layer:
#: scattered reads are how wall-clock data leaks into run artifacts.
_DURATION_FNS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "thread_time", "thread_time_ns",
})

#: ``os`` functions that rename a file into place (DET016).
_RENAME_FNS = frozenset({"replace", "rename"})

#: ``datetime.datetime`` / ``datetime.date`` constructors of "now".
_DATETIME_NOW = frozenset({"now", "today", "utcnow"})
_DATE_NOW = frozenset({"today"})

#: Builtin calls that materialize their argument's iteration order.
_ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})


@dataclass(frozen=True)
class CodeContext:
    """Where a module sits, and which path-scoped rules apply to it."""

    path: str
    config: LintConfig

    @property
    def in_analysis(self) -> bool:
        """True under a path where float equality is forbidden."""
        return self.config.path_in(self.path, self.config.analysis_paths)

    @property
    def in_faults(self) -> bool:
        """True under the fault-injection layer."""
        return self.config.path_in(self.path, self.config.fault_paths)

    @property
    def is_rng_module(self) -> bool:
        """True for the module(s) allowed to build stream RNGs directly."""
        return self.path in self.config.fault_rng_modules

    @property
    def in_atomic(self) -> bool:
        """True under a path whose writes must be crash-safe."""
        return self.config.path_in(self.path, self.config.atomic_paths)

    @property
    def is_atomic_module(self) -> bool:
        """True for the module(s) allowed to write files directly."""
        return self.path in self.config.atomic_write_modules

    @property
    def in_telemetry_scope(self) -> bool:
        """True under a path where raw duration-clock reads are policed."""
        return self.config.path_in(self.path, self.config.telemetry_paths)

    @property
    def is_telemetry_module(self) -> bool:
        """True under the module tree allowed to read clocks directly."""
        return self.config.path_in(self.path, self.config.telemetry_modules)

    @property
    def in_atomic_protocol_scope(self) -> bool:
        """True under a path where a rename must go through the helper."""
        return self.config.path_in(self.path, self.config.atomic_protocol_paths)


@dataclass(frozen=True)
class FixCandidate:
    """One mechanically fixable finding, with the AST nodes the fixer needs.

    ``data`` is rule-specific:

    * DET004 — ``{"wrap": expr}``: the set-valued expression to wrap in
      ``sorted(...)``;
    * DET006 — ``{"func": def_node, "default": expr, "arg": name}``: one
      mutable default and the parameter it belongs to;
    * DET007 — ``{"name": name_node}``: the ``hash`` name to replace
      with ``stable_hash``.
    """

    rule_id: str
    diagnostic: Diagnostic
    data: dict[str, object]


@dataclass
class _Aliases:
    """Import bindings relevant to the determinism rules."""

    random_modules: set[str] = field(default_factory=set)
    random_functions: set[str] = field(default_factory=set)
    random_class: set[str] = field(default_factory=set)
    time_modules: set[str] = field(default_factory=set)
    time_functions: set[str] = field(default_factory=set)
    duration_functions: set[str] = field(default_factory=set)
    tracemalloc_modules: set[str] = field(default_factory=set)
    tracemalloc_functions: set[str] = field(default_factory=set)
    datetime_modules: set[str] = field(default_factory=set)
    #: local name -> "datetime" | "date"
    datetime_classes: dict[str, str] = field(default_factory=dict)
    os_modules: set[str] = field(default_factory=set)
    rename_functions: set[str] = field(default_factory=set)


def _collect_aliases(tree: ast.Module) -> _Aliases:
    aliases = _Aliases()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                if name.name == "random":
                    aliases.random_modules.add(local)
                elif name.name == "time":
                    aliases.time_modules.add(local)
                elif name.name == "tracemalloc":
                    aliases.tracemalloc_modules.add(local)
                elif name.name == "datetime":
                    aliases.datetime_modules.add(local)
                elif name.name == "os":
                    aliases.os_modules.add(local)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                for name in node.names:
                    local = name.asname or name.name
                    if name.name == "Random":
                        aliases.random_class.add(local)
                    elif name.name in _MODULE_RNG_FNS:
                        aliases.random_functions.add(local)
            elif node.module == "time":
                for name in node.names:
                    if name.name in _TIME_FNS:
                        aliases.time_functions.add(name.asname or name.name)
                    elif name.name in _DURATION_FNS:
                        aliases.duration_functions.add(name.asname or name.name)
            elif node.module == "tracemalloc":
                for name in node.names:
                    aliases.tracemalloc_functions.add(name.asname or name.name)
            elif node.module == "datetime":
                for name in node.names:
                    if name.name in ("datetime", "date"):
                        aliases.datetime_classes[name.asname or name.name] = name.name
            elif node.module == "os":
                for name in node.names:
                    if name.name in _RENAME_FNS:
                        aliases.rename_functions.add(name.asname or name.name)
    return aliases


class _DeterminismVisitor(ast.NodeVisitor):
    """One traversal applying every rule of the built-in pack."""

    def __init__(self, ctx: CodeContext, aliases: _Aliases) -> None:
        self.ctx = ctx
        self.aliases = aliases
        self.diagnostics: list[Diagnostic] = []
        self.fix_candidates: list[FixCandidate] = []
        self._symbols: list[str] = []
        #: Per-function scopes mapping local names to "is set-valued".
        self._set_scopes: list[dict[str, bool]] = [{}]

    # -- helpers -----------------------------------------------------------

    @property
    def symbol(self) -> str:
        return ".".join(self._symbols) if self._symbols else "<module>"

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> Diagnostic:
        diagnostic = make(
            rule_id,
            self.ctx.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
            self.symbol,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def _fixable(
        self, diagnostic: Diagnostic, **data: object
    ) -> None:
        self.fix_candidates.append(
            FixCandidate(diagnostic.rule_id, diagnostic, data)
        )

    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_setish(node.left) or self._is_setish(node.right)
        if isinstance(node, ast.Name):
            for scope in reversed(self._set_scopes):
                if node.id in scope:
                    return scope[node.id]
        return False

    def _describe(self, node: ast.expr) -> str:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "expression"
        return text if len(text) <= 40 else text[:37] + "..."

    # -- scope / symbol bookkeeping ---------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._symbols.append(node.name)
        self._set_scopes.append({})
        self.generic_visit(node)
        self._set_scopes.pop()
        self._symbols.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._set_scopes[-1][node.targets[0].id] = self._is_setish(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._set_scopes[-1][node.target.id] = self._is_setish(node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and self._is_setish(node.value):
            self._set_scopes[-1][node.target.id] = True
        self.generic_visit(node)

    # -- DET001 / DET002 / DET003 / DET007: calls --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_random_call(node)
        self._check_wall_clock(node)
        self._check_telemetry_read(node)
        self._check_hash(node)
        self._check_order_sensitive_call(node)
        self._check_raw_write(node)
        self._check_manual_context(node)
        self._check_hand_publish(node)
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call) -> None:
        func = node.func
        is_random_ctor = False
        if isinstance(func, ast.Name) and func.id in self.aliases.random_class:
            is_random_ctor = True
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.aliases.random_modules
        ):
            if func.attr == "Random" or func.attr == "SystemRandom":
                is_random_ctor = True
            elif func.attr in _MODULE_RNG_FNS:
                self._emit(
                    "DET001", node,
                    f"random.{func.attr}() draws from the shared global RNG; "
                    "use a seeded random.Random or a named stream",
                )
                return
        if isinstance(func, ast.Name) and func.id in self.aliases.random_functions:
            self._emit(
                "DET001", node,
                f"{func.id}() (from random) draws from the shared global RNG; "
                "use a seeded random.Random or a named stream",
            )
            return
        if not is_random_ctor:
            return
        if not node.args and not node.keywords:
            self._emit(
                "DET001", node,
                "random.Random() without a seed is wall-entropy seeded; "
                "pass an explicit seed",
            )
        elif self.ctx.in_faults and not self.ctx.is_rng_module:
            self._emit(
                "DET003", node,
                "fault-layer code must obtain RNGs from "
                "repro.faults.rng.stream_rng / FaultStreams, not construct "
                "random.Random directly (cross-stream independence)",
            )

    def _check_wall_clock(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.aliases.time_functions:
            self._emit(
                "DET002", node,
                f"{func.id}() (from time) reads the wall clock; "
                "simulation code must use repro.simtime day indices",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self.aliases.time_modules and func.attr in _TIME_FNS:
                self._emit(
                    "DET002", node,
                    f"time.{func.attr}() reads the wall clock; "
                    "simulation code must use repro.simtime day indices",
                )
                return
            cls = self.aliases.datetime_classes.get(base.id)
            if cls == "datetime" and func.attr in _DATETIME_NOW:
                self._emit(
                    "DET002", node,
                    f"datetime.{func.attr}() reads the wall clock; "
                    "use repro.simtime.to_date(day) instead",
                )
                return
            if cls == "date" and func.attr in _DATE_NOW:
                self._emit(
                    "DET002", node,
                    "date.today() reads the wall clock; "
                    "use repro.simtime.to_date(day) instead",
                )
                return
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in self.aliases.datetime_modules
        ):
            if base.attr == "datetime" and func.attr in _DATETIME_NOW:
                self._emit(
                    "DET002", node,
                    f"datetime.datetime.{func.attr}() reads the wall clock; "
                    "use repro.simtime.to_date(day) instead",
                )
            elif base.attr == "date" and func.attr in _DATE_NOW:
                self._emit(
                    "DET002", node,
                    "datetime.date.today() reads the wall clock; "
                    "use repro.simtime.to_date(day) instead",
                )

    def _check_telemetry_read(self, node: ast.Call) -> None:
        """DET009: confine duration clocks and tracemalloc to repro.obs.

        Duration clocks don't threaten determinism by themselves, but a
        raw read is one assignment away from a timing field in a run
        artifact — and then resumed runs stop being bit-identical. So
        every read funnels through :mod:`repro.obs`: ``repro.obs.clock``
        for the clocks, ``repro.obs.profiling`` for tracemalloc, which
        keep measured durations in telemetry-only fields.
        """
        if not self.ctx.in_telemetry_scope or self.ctx.is_telemetry_module:
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.aliases.duration_functions:
                self._emit(
                    "DET009", node,
                    f"{func.id}() (from time) is a raw duration-clock read; "
                    "use repro.obs.clock (keeps timings in telemetry-only "
                    "fields)",
                )
            elif func.id in self.aliases.tracemalloc_functions:
                self._emit(
                    "DET009", node,
                    f"{func.id}() (from tracemalloc) outside the telemetry "
                    "layer; use repro.obs.profiling.profile_stage",
                )
            return
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            return
        base = func.value.id
        if base in self.aliases.time_modules and func.attr in _DURATION_FNS:
            self._emit(
                "DET009", node,
                f"time.{func.attr}() is a raw duration-clock read; use "
                "repro.obs.clock (keeps timings in telemetry-only fields)",
            )
        elif base in self.aliases.tracemalloc_modules:
            self._emit(
                "DET009", node,
                f"tracemalloc.{func.attr}() outside the telemetry layer; "
                "use repro.obs.profiling.profile_stage",
            )

    def _check_hash(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "hash"):
            return
        if "__hash__" in self._symbols:
            return  # defining object identity in-process is the one valid use
        diagnostic = self._emit(
            "DET007", node,
            "builtin hash() is randomized per process for str/bytes "
            "(PYTHONHASHSEED); derive values from a stable digest such as "
            "repro.faults.rng.stable_hash",
        )
        self._fixable(diagnostic, name=func)

    # -- DET008: raw writes in the durability layer -------------------------

    def _check_raw_write(self, node: ast.Call) -> None:
        """Flag writes that bypass the atomic-write helper.

        Scoped to the storage/runner/detection layers, where a
        half-written manifest, checkpoint, or journal would be read back
        later; everything there must go through
        :mod:`repro.store.atomic` (or be an explicitly allowed module,
        or carry a baselined justification).
        """
        if not self.ctx.in_atomic or self.ctx.is_atomic_module:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text", "write_bytes",
        ):
            self._emit(
                "DET008", node,
                f".{func.attr}() is not crash-safe (a kill mid-write leaves "
                "a torn file); use repro.store.atomic.atomic_write_*",
            )
            return
        if isinstance(func, ast.Name) and func.id == "open":
            mode_index = 1  # builtin open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode_index = 0  # Path.open(mode)
        else:
            return
        mode: str | None = None
        if (
            len(node.args) > mode_index
            and isinstance(node.args[mode_index], ast.Constant)
            and isinstance(node.args[mode_index].value, str)
        ):
            mode = node.args[mode_index].value
        for keyword in node.keywords:
            if (
                keyword.arg == "mode"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                mode = keyword.value.value
        if mode is not None and any(ch in _WRITE_MODE_CHARS for ch in mode):
            self._emit(
                "DET008", node,
                f"open(..., {mode!r}) writes in place (not crash-safe); "
                "use repro.store.atomic.atomic_write_*",
            )

    # -- DET014 / DET016: lifecycles that must not be written by hand ------

    def _check_manual_context(self, node: ast.Call) -> None:
        """DET014: a context entered or exited by an explicit call.

        A raise between a hand-written ``__enter__`` and its
        ``__exit__`` leaves the span open and the trace without its end;
        ``with`` (or ``contextlib.ExitStack``) exits on every path.
        """
        if not self.ctx.in_telemetry_scope:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "__enter__", "__exit__",
        ):
            self._emit(
                "DET014", node,
                f"explicit .{func.attr}() call; a raise before the matching "
                "exit leaks the context — use `with` or contextlib.ExitStack",
            )

    def _check_hand_publish(self, node: ast.Call) -> None:
        """DET016: a rename into place outside the atomic-write modules.

        A hand-written publish is where the temp -> fsync -> rename ->
        fsync-directory order gets lost; :func:`repro.store.atomic.publish`
        is its one implementation, and a test checks its order.
        """
        if not self.ctx.in_atomic_protocol_scope or self.ctx.is_atomic_module:
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.aliases.rename_functions:
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.aliases.os_modules
            and func.attr in _RENAME_FNS
        ):
            name = f"os.{func.attr}"
        else:
            return
        self._emit(
            "DET016", node,
            f"{name}() publishes a file by hand; write it through "
            "repro.store.atomic.publish (fsync, rename, fsync the directory)",
        )

    def _check_order_sensitive_call(self, node: ast.Call) -> None:
        func = node.func
        sink: str | None = None
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_BUILTINS:
            sink = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            sink = "join"
        if sink is None or not node.args:
            return
        arg = node.args[0]
        if self._is_setish(arg):
            diagnostic = self._emit(
                "DET004", node,
                f"{sink}() materializes the iteration order of a set "
                f"({self._describe(arg)}); wrap it in sorted()",
            )
            self._fixable(diagnostic, wrap=arg)

    # -- DET004: loops and comprehensions ----------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_setish(iter_node):
            diagnostic = self._emit(
                "DET004", iter_node,
                f"iterating a set ({self._describe(iter_node)}) leaks "
                "hash-randomized order into the result; wrap it in sorted()",
            )
            self._fixable(diagnostic, wrap=iter_node)

    # -- DET005: float equality ---------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.ctx.in_analysis:
            operands = [node.left, *node.comparators]
            has_float = any(
                isinstance(op, ast.Constant) and isinstance(op.value, float)
                for op in operands
            )
            has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            if has_float and has_eq:
                self._emit(
                    "DET005", node,
                    "exact ==/!= against a float literal in analysis code; "
                    "use math.isclose or an integer representation",
                )
        self.generic_visit(node)

    # -- DET006: mutable defaults -------------------------------------------

    def _check_mutable_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        positional = [*node.args.posonlyargs, *node.args.args]
        pairs: list[tuple[ast.arg, ast.expr]] = list(
            zip(positional[len(positional) - len(node.args.defaults):],
                node.args.defaults)
        )
        pairs.extend(
            (arg, default)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        )
        for arg, default in pairs:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                diagnostic = self._emit(
                    "DET006", default,
                    f"mutable default argument in {node.name}(); defaults are "
                    "shared across calls — use None and create inside",
                )
                self._fixable(
                    diagnostic, func=node, default=default, arg=arg.arg
                )


@code_checker
def check_determinism(tree: ast.Module, ctx: CodeContext) -> list[Diagnostic]:
    """The built-in rule pack (DET001–DET009, DET014, DET016)."""
    visitor = _DeterminismVisitor(ctx, _collect_aliases(tree))
    visitor.visit(tree)
    return visitor.diagnostics


def lint_code_source(
    source: str, path: str, config: LintConfig | None = None
) -> list[Diagnostic]:
    """Lint one module's source text; ``path`` scopes path-based rules."""
    from repro.lint.registry import CODE_CHECKERS

    cfg = config or LintConfig()
    ctx = CodeContext(path=path, config=cfg)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            make(
                "DET000", path, error.lineno or 0, error.offset or 0,
                f"could not parse: {error.msg}", "<module>",
            )
        ]
    diagnostics: list[Diagnostic] = []
    for checker in CODE_CHECKERS:
        diagnostics.extend(checker(tree, ctx))
    return diagnostics


def collect_fix_candidates(
    source: str, path: str, config: LintConfig | None = None
) -> list[FixCandidate]:
    """The mechanically fixable findings in one module's source text.

    Unlike :func:`lint_code_source` this runs only the built-in
    determinism pack (plugins do not describe their fixes) and returns
    candidates carrying live AST nodes, so callers must keep the parsed
    source around while applying them.
    """
    cfg = config or LintConfig()
    ctx = CodeContext(path=path, config=cfg)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    visitor = _DeterminismVisitor(ctx, _collect_aliases(tree))
    visitor.visit(tree)
    return visitor.fix_candidates


def lint_code_file(
    file_path: Path, rel_path: str, config: LintConfig
) -> list[Diagnostic]:
    """Lint one ``.py`` file on disk."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return [make("DET000", rel_path, 0, 0, f"could not read: {error}")]
    return lint_code_source(source, rel_path, config)
