"""The lint runner: walk paths, dispatch engines, apply the baseline.

``run_lint`` is the single entry point behind both the ``riskybiz
lint`` subcommand and the test suite. Python files go through the code
engine and the typestate protocol engine, JSON files through the
scenario engine, and — when the lint targets cover the configured
project roots — the whole-program flow pass (DET010/DET011/DET013)
runs once over the project graph. Engines whose every rule is
deselected are skipped entirely. Findings are filtered by
``select``/``ignore``, split into new vs. baselined, and the exit
code is 1 exactly when a non-baselined ERROR remains.

With ``jobs > 1`` the per-file engines fan out across a process pool
driven by :class:`~repro.runner.supervisor.RunSupervisor`: files are
split into contiguous shards of the sorted file list, each worker
lints its shard, heartbeats per file, and writes its findings to a
spill file the parent merges after a verified clean exit. Findings are
sorted before reporting, so inline and parallel runs emit byte-identical
output. Wall time per file and per run lands in the ``lint.file`` /
``lint.run`` histograms of the process-global metrics registry.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.lint import protocols as _protocols  # noqa: F401  (registers DET014-017)
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.code_engine import lint_code_file
from repro.lint.config import LintConfig, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import RULES, validate_rule_ids
from repro.lint.scenario_engine import lint_scenario_file
from repro.lint.typestate import lint_typestate_file
from repro.obs import runtime

#: The engines dispatched per file (the project pass runs once).
_PER_FILE_ENGINES = ("code", "scenario", "typestate")


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    baselined: list[Diagnostic] = field(default_factory=list)
    stale_baseline_entries: list[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    #: True when the interprocedural pass (DET010/DET011) ran.
    project_analyzed: bool = False

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
            if "typestate" in engines:
                diagnostics.extend(lint_typestate_file(file_path, rel, cfg))
        elif "scenario" in engines:
            diagnostics.extend(lint_scenario_file(file_path, rel, cfg))
    return diagnostics


def _covers_project_roots(
    targets: list[Path], config: LintConfig
) -> bool:
    """Do the lint targets contain every configured project root?

    The interprocedural rules reason about reachability across the
    whole program; running them while linting a single file would
    re-derive whole-project findings on every narrow invocation, so
    they activate only when the target set covers the project roots
    (e.g. ``riskybiz lint src tests`` with ``project-paths = ["src"]``).
    """
    resolved_targets = [t.resolve() for t in targets]
    for project_path in config.project_paths:
        base = (config.root / project_path).resolve()
        if not base.is_dir():
            continue
        covered = False
        for target in resolved_targets:
            if target == base or target in base.parents:
                covered = True
                break
        if not covered:
            return False
    return True


# -- parallel execution ------------------------------------------------------


def _lint_worker(
    index: int,
    shard_files: list[tuple[str, str]],
    config: LintConfig,
    engines: frozenset[str],
    out_path: str,
    heartbeats: Any,
) -> None:
    """One lint shard, in its own process.

    Module-level so it pickles under any multiprocessing start method.
    The findings go to a spill file the supervisor reads only after a
    clean (exit 0) worker exit; a crashed worker's partial file is
    never parsed because the shard is retried from scratch.
    """
    from repro.obs import runtime as obs

    # A forked worker inherits the parent's tracer and registry handle;
    # per the fork-safety discipline DET010 enforces, drop them first.
    obs.detach()

    findings: list[dict[str, object]] = []
    for absolute, rel in shard_files:
        findings.extend(
            diag.to_dict()
            for diag in _lint_one(Path(absolute), rel, config, engines)
        )
        heartbeats.put((index, rel))
    payload = json.dumps(findings, sort_keys=True)
    Path(out_path).write_text(payload, encoding="utf-8")


def _run_parallel(
    files: list[tuple[Path, str]],
    cfg: LintConfig,
    jobs: int,
    engines: frozenset[str],
) -> list[Diagnostic]:
    """Fan the per-file engines out across a supervised process pool."""
    from repro.runner.supervisor import RunSupervisor, SupervisorPolicy

    shard_count = min(jobs, len(files))
    shards: list[list[tuple[str, str]]] = [[] for _ in range(shard_count)]
    for position, (absolute, rel) in enumerate(files):
        shards[position % shard_count].append((str(absolute), rel))

    diagnostics: list[Diagnostic] = []
    with tempfile.TemporaryDirectory(prefix="riskybiz-lint-") as spill_dir:
        out_paths = [
            str(Path(spill_dir) / f"shard-{index}.json")
            for index in range(shard_count)
        ]

        def spawn(index: int, attempt: int, heartbeats: Any) -> Any:
            import multiprocessing

            process = multiprocessing.get_context().Process(
                target=_lint_worker,
                args=(
                    index, shards[index], cfg, engines,
                    out_paths[index], heartbeats,
                ),
            )
            process.start()
            return process

        def on_complete(index: int) -> None:
            raw = json.loads(
                Path(out_paths[index]).read_text(encoding="utf-8")
            )
            diagnostics.extend(Diagnostic.from_dict(item) for item in raw)

        supervisor = RunSupervisor(SupervisorPolicy(workers=jobs))
        supervisor.run_processes(
            list(range(shard_count)), spawn, on_complete=on_complete
        )
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
    jobs: int = 1,
    project_analysis: bool | None = None,
) -> LintResult:
    """Lint ``paths`` and return the partitioned findings.

    ``select``/``ignore`` extend (not replace) the pyproject config;
    passing ``use_baseline=False`` reports every finding as new.
    ``jobs`` > 1 shards the per-file engines across worker processes.
    ``project_analysis`` forces the interprocedural pass on or off;
    the default (None) enables it when the targets cover the project
    roots.
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
        # skipped wholesale, so e.g. ``--select DET004`` pays for
        # neither the typestate fixpoint nor the scenario pass.
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
        raw_diagnostics: list[Diagnostic]
        if jobs > 1 and len(files) > 1:
            raw_diagnostics = _run_parallel(files, cfg, jobs, engines)
        else:
            raw_diagnostics = []
            for file_path, rel in files:
                raw_diagnostics.extend(_lint_one(file_path, rel, cfg, engines))

        from repro.lint.flow import (
            PROJECT_PASS_RULES,
            run_project_analysis,
            stale_baseline_diagnostics,
        )

        run_project = (
            project_analysis
            if project_analysis is not None
            else any(enabled(rule_id) for rule_id in PROJECT_PASS_RULES)
            and _covers_project_roots(targets, cfg)
        )
        if run_project:
            with runtime.timed("lint.project"):
                project_diags, _, _ = run_project_analysis(cfg)
            raw_diagnostics.extend(project_diags)
            result.project_analyzed = True

        if use_baseline and baseline.entries:
            # A skipped engine evaluated nothing: its rules' baseline
            # entries must not be condemned as "no longer fires".
            evaluated_rules = frozenset(
                rule_id
                for rule_id, entry in RULES.items()
                if entry.engine in engines
                or (entry.engine == "project" and run_project)
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
