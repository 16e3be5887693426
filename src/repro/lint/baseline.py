"""Baseline suppression: known findings, each with a written reason.

The baseline is a checked-in JSON file listing findings that are
accepted rather than fixed. Entries match diagnostics by ``(rule,
path, symbol)`` — not line numbers — so they survive unrelated edits.
Every entry must carry a non-empty ``reason``; an unexplained
suppression is itself an error, which keeps the file honest. An entry
that no longer anchors to anything is itself a finding, DET012, so the
file shrinks when code improves.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import make, rule

rule(
    "DET012", "stale-baseline", "baseline",
    "baseline entry whose (path, symbol) no longer exists or fires",
)

#: Current baseline file format version.
BASELINE_VERSION = 1


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One accepted finding."""

    rule: str
    path: str
    symbol: str
    reason: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """The identity this entry suppresses."""
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> dict[str, str]:
        """JSON form."""
        return {
            "rule": self.rule,
            "path": self.path,
            "symbol": self.symbol,
            "reason": self.reason,
        }


@dataclass
class Baseline:
    """The set of accepted findings."""

    entries: tuple[BaselineEntry, ...] = ()
    _index: set[tuple[str, str, str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {entry.fingerprint for entry in self.entries}

    def suppresses(self, diagnostic: Diagnostic) -> bool:
        """True if ``diagnostic`` matches a baseline entry."""
        return diagnostic.fingerprint in self._index

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError(f"{path}: baseline must be an object with 'entries'")
        version = data.get("version", BASELINE_VERSION)
        if version != BASELINE_VERSION:
            raise ValueError(f"{path}: unsupported baseline version {version!r}")
        entries: list[BaselineEntry] = []
        for index, raw in enumerate(data["entries"]):
            if not isinstance(raw, dict):
                raise ValueError(f"{path}: entry {index} is not an object")
            try:
                entry = BaselineEntry(
                    rule=raw["rule"],
                    path=raw["path"],
                    symbol=raw.get("symbol", ""),
                    reason=raw["reason"],
                )
            except KeyError as missing:
                raise ValueError(
                    f"{path}: entry {index} is missing {missing}"
                ) from None
            if not entry.reason.strip():
                raise ValueError(
                    f"{path}: entry {index} ({entry.rule} at {entry.path}) "
                    "has an empty reason — every suppression must be justified"
                )
            entries.append(entry)
        return cls(entries=tuple(entries))

    def save(self, path: Path) -> None:
        """Write the baseline, sorted for stable diffs."""
        ordered = sorted(self.entries, key=lambda e: e.fingerprint)
        payload = {
            "version": BASELINE_VERSION,
            "entries": [entry.to_dict() for entry in ordered],
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def from_diagnostics(
        cls,
        diagnostics: Iterable[Diagnostic],
        reason: str = "recorded by --write-baseline; replace with a real justification",
    ) -> "Baseline":
        """A baseline accepting every given diagnostic (deduplicated)."""
        entries: dict[tuple[str, str, str], BaselineEntry] = {}
        for diag in diagnostics:
            entries[diag.fingerprint] = BaselineEntry(
                rule=diag.rule_id,
                path=diag.path,
                symbol=diag.symbol,
                reason=reason,
            )
        return cls(entries=tuple(entries.values()))

    def merged_with(self, other: "Baseline") -> "Baseline":
        """This baseline plus ``other``'s entries (other wins on clashes)."""
        merged: dict[tuple[str, str, str], BaselineEntry] = {
            entry.fingerprint: entry for entry in self.entries
        }
        for entry in other.entries:
            merged[entry.fingerprint] = entry
        return Baseline(entries=tuple(merged.values()))


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
    condemned on that ground (``--select DET004`` skips the scenario
    engine, which must not mark every live SCN entry prunable).
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
