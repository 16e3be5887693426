"""The rule registry: one catalogue for every engine.

Every rule — code, scenario, or the runner's own baseline check —
registers itself here with an id, a slug, the engine that runs
it, and a one-line summary. The runner uses the catalogue to validate
``--select``/``--ignore`` arguments (and to skip engines whose every
rule is deselected), the docs generator renders the rule table from
it, and the engines use it to look up severities. Registering a new
rule is the whole extension contract:

    @code_checker
    def check_my_rule(tree, ctx): ...          # yields Diagnostics

    RULES register via :func:`rule` at import time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Protocol

from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.code_engine import CodeContext
    from repro.lint.scenario_engine import ScenarioContext


@dataclass(frozen=True, slots=True)
class Rule:
    """Catalogue entry for one lint rule."""

    rule_id: str
    slug: str
    engine: str  # "code" | "scenario" | "baseline"
    summary: str
    severity: Severity = Severity.ERROR


#: The full rule catalogue, keyed by rule id.
RULES: dict[str, Rule] = {}


class CodeChecker(Protocol):
    """A code-engine plugin: receives a parsed module and its context."""

    def __call__(
        self, tree: ast.Module, ctx: "CodeContext"
    ) -> Iterable[Diagnostic]: ...  # pragma: no cover - protocol


class ScenarioChecker(Protocol):
    """A scenario-engine plugin: receives a parsed JSON document."""

    def __call__(
        self, doc: dict[str, Any], ctx: "ScenarioContext"
    ) -> Iterable[Diagnostic]: ...  # pragma: no cover - protocol


#: Checker plugins, run in registration order by their engine.
CODE_CHECKERS: list[CodeChecker] = []
SCENARIO_CHECKERS: list[ScenarioChecker] = []


def rule(
    rule_id: str,
    slug: str,
    engine: str,
    summary: str,
    severity: Severity = Severity.ERROR,
) -> Rule:
    """Register one rule in the catalogue (idempotent per id)."""
    if engine not in ("code", "scenario", "baseline"):
        raise ValueError(f"unknown lint engine {engine!r}")
    entry = Rule(rule_id, slug, engine, summary, severity)
    existing = RULES.get(rule_id)
    if existing is not None and existing != entry:
        raise ValueError(f"conflicting registrations for rule {rule_id}")
    RULES[rule_id] = entry
    return entry


def code_checker(func: CodeChecker) -> CodeChecker:
    """Register a code-engine checker plugin."""
    CODE_CHECKERS.append(func)
    return func


def scenario_checker(func: ScenarioChecker) -> ScenarioChecker:
    """Register a scenario-engine checker plugin."""
    SCENARIO_CHECKERS.append(func)
    return func


def severity_of(rule_id: str) -> Severity:
    """The catalogue severity for ``rule_id`` (ERROR if unregistered)."""
    entry = RULES.get(rule_id)
    return entry.severity if entry is not None else Severity.ERROR


def make(
    rule_id: str,
    path: str,
    line: int,
    col: int,
    message: str,
    symbol: str = "",
) -> Diagnostic:
    """Build a diagnostic carrying the rule's catalogue severity."""
    return Diagnostic(
        rule_id=rule_id,
        path=path,
        line=line,
        col=col,
        message=message,
        symbol=symbol,
        severity=severity_of(rule_id),
    )


def validate_rule_ids(rule_ids: Iterable[str]) -> None:
    """Raise ``ValueError`` naming any id absent from the catalogue."""
    unknown = sorted(set(rule_ids) - set(RULES))
    if unknown:
        raise ValueError(f"unknown lint rule id(s): {', '.join(unknown)}")


def catalogue() -> list[Rule]:
    """Every registered rule, ordered by id (engines must be imported)."""
    return [RULES[key] for key in sorted(RULES)]
