"""The lint runner: walk paths, dispatch engines, apply the baseline.

``run_lint`` is the single entry point behind both the ``riskybiz
lint`` subcommand and the test suite. It runs in one process: Python
files go through the code engine, JSON files through the scenario
engine. Engines whose every rule is deselected are skipped entirely.
Baseline entries that no longer anchor to anything become DET012
findings. Findings are filtered by ``select``/``ignore``, split into
new vs. baselined, and sorted before reporting; the exit code is 1
exactly when a non-baselined ERROR remains. Wall time per file and per
run lands in the ``lint.file`` / ``lint.run`` histograms of the
process-global metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.baseline import (
    Baseline,
    BaselineEntry,
    stale_baseline_diagnostics,
)
from repro.lint.code_engine import lint_code_file
from repro.lint.config import LintConfig, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import RULES, validate_rule_ids
from repro.lint.scenario_engine import lint_scenario_file
from repro.obs import runtime

#: The engines dispatched per file.
_PER_FILE_ENGINES = ("code", "scenario")


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    baselined: list[Diagnostic] = field(default_factory=list)
    stale_baseline_entries: list[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def errors(self) -> list[Diagnostic]:
        """Non-baselined findings that fail the run."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        """1 when any non-baselined error remains, else 0."""
        return 1 if self.errors else 0

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        """Non-baselined findings for one rule (test helper)."""
        return [d for d in self.diagnostics if d.rule_id == rule_id]


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _iter_lintable(paths: Iterable[Path], config: LintConfig) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*") if p.suffix in (".py", ".json")
            )
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if config.is_excluded(_relativize(candidate, config.root)):
                continue
            yield candidate


def _lint_one(
    file_path: Path,
    rel: str,
    cfg: LintConfig,
    engines: frozenset[str],
) -> list[Diagnostic]:
    """Run the enabled per-file engines for one path.

    ``engines`` holds the engines with at least one enabled rule; a
    ``--select`` that excludes a whole engine skips its pass entirely
    rather than computing findings the filter would drop.
    """
    diagnostics: list[Diagnostic] = []
    with runtime.timed("lint.file"):
        if file_path.suffix == ".py":
            if "code" in engines:
                diagnostics.extend(lint_code_file(file_path, rel, cfg))
        elif "scenario" in engines:
            diagnostics.extend(lint_scenario_file(file_path, rel, cfg))
    return diagnostics


# -- the runner --------------------------------------------------------------


def run_lint(
    paths: Iterable[Path | str],
    *,
    root: Path | str | None = None,
    config: LintConfig | None = None,
    baseline: Baseline | None = None,
    use_baseline: bool = True,
    select: Iterable[str] = (),
    ignore: Iterable[str] = (),
) -> LintResult:
    """Lint ``paths`` and return the partitioned findings.

    ``select``/``ignore`` extend (not replace) the pyproject config;
    passing ``use_baseline=False`` reports every finding as new.
    """
    cfg = config or load_config(root)
    extra_select = tuple(select)
    extra_ignore = tuple(ignore)
    validate_rule_ids(extra_select + extra_ignore + cfg.select + cfg.ignore)
    if baseline is None and use_baseline:
        baseline = Baseline.load(cfg.baseline_path())
    elif baseline is None:
        baseline = Baseline()

    def enabled(rule_id: str) -> bool:
        if not cfg.rule_enabled(rule_id):
            return False
        if extra_ignore and rule_id in extra_ignore:
            return False
        return not extra_select or rule_id in extra_select

    result = LintResult()
    with runtime.timed("lint.run"):
        targets = [Path(p) for p in paths]
        files = [
            (file_path, _relativize(file_path, cfg.root))
            for file_path in _iter_lintable(targets, cfg)
        ]
        result.files_scanned = len(files)
        runtime.counter("lint.files").inc(len(files))

        # Engines with at least one enabled rule run; the others are
        # skipped wholesale, so e.g. ``--select DET004`` pays for no
        # scenario pass.
        engines = frozenset(
            engine
            for engine in _PER_FILE_ENGINES
            if any(
                enabled(rule_id)
                for rule_id, entry in RULES.items()
                if entry.engine == engine
            )
        )

        #: Engine output is pre-filter — DET012 staleness must see
        #: findings for rules the caller deselected, or narrowing
        #: ``--select`` would condemn perfectly live baseline entries.
        raw_diagnostics: list[Diagnostic] = []
        for file_path, rel in files:
            raw_diagnostics.extend(_lint_one(file_path, rel, cfg, engines))

        if use_baseline and baseline.entries:
            # A skipped engine evaluated nothing: its rules' baseline
            # entries must not be condemned as "no longer fires".
            evaluated_rules = frozenset(
                rule_id
                for rule_id, entry in RULES.items()
                if entry.engine in engines
            )
            scanned = {rel for _, rel in files}
            stale_diags, stale_entries = stale_baseline_diagnostics(
                baseline,
                raw_diagnostics,
                scanned,
                cfg,
                evaluated_rules=evaluated_rules,
            )
            result.stale_baseline_entries = stale_entries
            if enabled("DET012"):
                raw_diagnostics.extend(stale_diags)

        for diag in sorted(raw_diagnostics, key=Diagnostic.sort_key):
            if not enabled(diag.rule_id):
                continue
            if baseline.suppresses(diag):
                result.baselined.append(diag)
            else:
                result.diagnostics.append(diag)
        runtime.counter("lint.findings").inc(len(result.diagnostics))
    return result
