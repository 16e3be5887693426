"""Lint configuration, read from ``[tool.riskybiz.lint]`` in pyproject.toml.

Everything has a working default, so the linter runs configuration-free
on any checkout; the pyproject table only *narrows* behaviour (rule
selection, extra exclusions, a different baseline path). Path options
are repo-root-relative, compared as path prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path, PurePosixPath
from typing import Any

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback, no toml parser
    tomllib = None  # type: ignore[assignment]


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint settings for one repository root."""

    root: Path = field(default_factory=Path.cwd)
    #: Baseline file, root-relative.
    baseline: str = "lint-baseline.json"
    #: If non-empty, run only these rule ids.
    select: tuple[str, ...] = ()
    #: Rule ids to skip entirely.
    ignore: tuple[str, ...] = ()
    #: Root-relative path prefixes never scanned.
    exclude: tuple[str, ...] = (
        ".git",
        "__pycache__",
        "build",
        "dist",
    )
    #: Paths where float-equality comparisons are forbidden (DET005).
    analysis_paths: tuple[str, ...] = ("src/repro/analysis",)
    #: Paths where direct ``random.Random`` construction is forbidden
    #: in favour of the named-stream registry (DET003).
    fault_paths: tuple[str, ...] = ("src/repro/faults",)
    #: The modules allowed to construct stream RNGs directly.
    fault_rng_modules: tuple[str, ...] = ("src/repro/faults/rng.py",)
    #: Paths whose manifest/checkpoint/journal writes must route through
    #: :mod:`repro.store.atomic` (DET008).
    atomic_paths: tuple[str, ...] = (
        "src/repro/store",
        "src/repro/runner",
        "src/repro/detection",
    )
    #: The modules allowed to perform raw file writes: the atomic helper
    #: itself, and the append-only journal (appends cannot temp-rename).
    atomic_write_modules: tuple[str, ...] = (
        "src/repro/store/atomic.py",
        "src/repro/runner/journal.py",
    )
    #: Paths where raw duration-clock / tracemalloc reads are forbidden
    #: outside the telemetry modules (DET009).
    telemetry_paths: tuple[str, ...] = ("src/repro",)
    #: The modules (prefix match) allowed to read duration clocks and
    #: tracemalloc directly: the obs layer itself.
    telemetry_modules: tuple[str, ...] = ("src/repro/obs",)
    #: Roots (relative to ``root``) the project graph is built from. The
    #: interprocedural rules (DET010–DET012) see exactly these trees.
    project_paths: tuple[str, ...] = ("src",)
    #: Worker-process entry points, as ``module:qualname`` specs. DET010
    #: polices everything reachable from these through the call graph.
    worker_entry_points: tuple[str, ...] = ("repro.lint.runner:_lint_worker",)
    #: Paths (prefix match) exempt from DET010: the modules that *are*
    #: the process-global state, with their own fork-safety discipline.
    worker_safe_modules: tuple[str, ...] = ("src/repro/obs",)
    #: Dotted project functions treated as digest/manifest sinks by
    #: DET011, in addition to ``hashlib`` constructors.
    digest_sinks: tuple[str, ...] = (
        "repro.faults.rng.stable_hash",
        "repro.store.atomic.write_checked_json",
        "repro.store.artifacts.content_digest",
    )
    #: The only functions (``module:qualname`` specs) allowed to write
    #: the incremental engine's ``state["watermarks"]`` mapping (DET013).
    watermark_commit_functions: tuple[str, ...] = (
        "repro.detection.incremental:commit_watermark",
    )
    #: Span-context factory names (bare or attribute calls) whose
    #: results DET014 tracks through enter/exit.
    span_factories: tuple[str, ...] = ("span",)
    #: Tracer class names: construction (or a classmethod constructor)
    #: starts a DET014 open/closed lifecycle.
    tracer_classes: tuple[str, ...] = ("Tracer",)
    #: Journal class names for the DET015 open/closed lifecycle.
    journal_classes: tuple[str, ...] = ("RunJournal",)
    #: Method names that close a tracked handle (DET014/DET015).
    protocol_close_methods: tuple[str, ...] = ("close",)
    #: Journal event names that rewrite resume history; appending them
    #: outside the reconcile functions below is a DET015 finding.
    journal_reconcile_events: tuple[str, ...] = (
        "engine-reset",
        "pipeline-reset",
    )
    #: The functions (``module:qualname`` specs) sanctioned to append
    #: reconcile events: the resume/verify paths that own recovery.
    journal_reconcile_functions: tuple[str, ...] = (
        "repro.runner.execution:_load_partial_state",
        "repro.runner.execution:_restore_engine",
    )
    #: Paths where DET016 polices manual temp-file dances. Wider than
    #: ``atomic_paths``: a hand-rolled temp write anywhere in the
    #: package must follow the full protocol or route through
    #: :mod:`repro.store.atomic`.
    atomic_protocol_paths: tuple[str, ...] = ("src/repro",)
    #: Names/suffixes that mark an expression as a temp-file path:
    #: entries starting with ``.`` match string-literal suffixes, the
    #: rest match variable names.
    atomic_temp_markers: tuple[str, ...] = ("TMP_SUFFIX", ".tmp")
    #: Calls DET016 accepts as the durability barrier (dotted specs
    #: require the full attribute chain).
    protocol_fsync_functions: tuple[str, ...] = ("os.fsync",)
    #: Calls DET016/the atomic protocol accept as the publishing rename.
    protocol_rename_functions: tuple[str, ...] = ("os.replace",)
    #: Calls that durably write the incremental engine checkpoint;
    #: DET017 requires one on every path before a watermark commit.
    checkpoint_write_functions: tuple[str, ...] = ("atomic_write_bytes",)
    #: Method names that commit a consumer watermark (DET017 tracks
    #: attribute calls only; the module-level DET013 helper is exempt).
    watermark_commit_methods: tuple[str, ...] = ("commit_watermark",)
    #: Paths where the DET017 checkpoint-before-commit ordering holds.
    incremental_runner_paths: tuple[str, ...] = (
        "src/repro/runner",
        "src/repro/detection",
    )

    def baseline_path(self) -> Path:
        """Absolute path of the configured baseline file."""
        return self.root / self.baseline

    def is_excluded(self, rel_path: str) -> bool:
        """True if ``rel_path`` (posix, root-relative) is excluded."""
        parts = PurePosixPath(rel_path).parts
        for prefix in self.exclude:
            prefix_parts = PurePosixPath(prefix).parts
            if parts[: len(prefix_parts)] == prefix_parts:
                return True
        # Exclude cache dirs at any depth, not only at the root.
        return "__pycache__" in parts

    def rule_enabled(self, rule_id: str) -> bool:
        """Apply ``select``/``ignore`` to one rule id."""
        if rule_id in self.ignore:
            return False
        return not self.select or rule_id in self.select

    def path_in(self, rel_path: str, prefixes: tuple[str, ...]) -> bool:
        """True if ``rel_path`` sits under any of ``prefixes``."""
        parts = PurePosixPath(rel_path).parts
        for prefix in prefixes:
            prefix_parts = PurePosixPath(prefix).parts
            if parts[: len(prefix_parts)] == prefix_parts:
                return True
        return False


def _as_str_tuple(value: Any, option: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"lint option {option!r} must be a list of strings")
    return tuple(value)


def load_config(root: Path | str | None = None) -> LintConfig:
    """The lint config for ``root`` (defaults merged with pyproject)."""
    base = LintConfig(root=Path(root) if root is not None else Path.cwd())
    pyproject = base.root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return base
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("riskybiz", {}).get("lint", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.riskybiz.lint] must be a table")
    updates: dict[str, Any] = {}
    if "baseline" in table:
        if not isinstance(table["baseline"], str):
            raise ValueError("lint option 'baseline' must be a string")
        updates["baseline"] = table["baseline"]
    for option, attr in (
        ("select", "select"),
        ("ignore", "ignore"),
        ("exclude", "exclude"),
        ("analysis-paths", "analysis_paths"),
        ("fault-paths", "fault_paths"),
        ("fault-rng-modules", "fault_rng_modules"),
        ("atomic-paths", "atomic_paths"),
        ("atomic-write-modules", "atomic_write_modules"),
        ("telemetry-paths", "telemetry_paths"),
        ("telemetry-modules", "telemetry_modules"),
        ("project-paths", "project_paths"),
        ("worker-entry-points", "worker_entry_points"),
        ("worker-safe-modules", "worker_safe_modules"),
        ("digest-sinks", "digest_sinks"),
        ("watermark-commit-functions", "watermark_commit_functions"),
        ("span-factories", "span_factories"),
        ("tracer-classes", "tracer_classes"),
        ("journal-classes", "journal_classes"),
        ("protocol-close-methods", "protocol_close_methods"),
        ("journal-reconcile-events", "journal_reconcile_events"),
        ("journal-reconcile-functions", "journal_reconcile_functions"),
        ("atomic-protocol-paths", "atomic_protocol_paths"),
        ("atomic-temp-markers", "atomic_temp_markers"),
        ("protocol-fsync-functions", "protocol_fsync_functions"),
        ("protocol-rename-functions", "protocol_rename_functions"),
        ("checkpoint-write-functions", "checkpoint_write_functions"),
        ("watermark-commit-methods", "watermark_commit_methods"),
        ("incremental-runner-paths", "incremental_runner_paths"),
    ):
        if option in table:
            updates[attr] = _as_str_tuple(table[option], option)
    return replace(base, **updates) if updates else base
