"""The diagnostic model shared by every lint engine.

A :class:`Diagnostic` is one finding: a rule id, a location, a message,
and a *symbol* — the enclosing function/class for code findings, or the
offending object name (domain, host, rename target) for scenario
findings. Symbols, not line numbers, anchor baseline suppression, so a
baseline survives unrelated edits to the same file.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(str, Enum):
    """How a finding affects the lint exit code.

    ``ERROR`` findings fail the run unless baselined; ``WARNING``
    findings are reported but never fail the run (used for advisory
    rules such as purge-orphan detection, where the flagged state is
    the paper's subject rather than a data defect).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One lint finding, produced by either engine."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""
    severity: Severity = Severity.ERROR

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """The identity baseline entries match on (rule, path, symbol)."""
        return (self.rule_id, self.path, self.symbol)

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable report ordering: by file, position, then rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict[str, object]:
        """JSON-reporter form."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "severity": self.severity.value,
        }

    def render(self) -> str:
        """Text-reporter form: ``path:line:col RULE message [symbol]``."""
        where = f"{self.path}:{self.line}:{self.col}"
        suffix = f"  [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule_id} {self.message}{suffix}"
