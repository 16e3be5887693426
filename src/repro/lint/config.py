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
    #: The modules allowed to perform raw file writes (DET008) and
    #: renames (DET016): the atomic helper itself, and the append-only
    #: journal (appends cannot temp-rename).
    atomic_write_modules: tuple[str, ...] = (
        "src/repro/store/atomic.py",
        "src/repro/runner/journal.py",
    )
    #: Paths where raw duration-clock / tracemalloc reads are forbidden
    #: outside the telemetry modules (DET009), and where DET014 forbids
    #: explicit ``__enter__``/``__exit__`` calls.
    telemetry_paths: tuple[str, ...] = ("src/repro",)
    #: The modules (prefix match) allowed to read duration clocks and
    #: tracemalloc directly: the obs layer itself.
    telemetry_modules: tuple[str, ...] = ("src/repro/obs",)
    #: Paths where DET016 forbids ``os.replace``/``os.rename`` outside
    #: ``atomic_write_modules``. Wider than ``atomic_paths``: a
    #: hand-written publish anywhere in the package must route through
    #: :func:`repro.store.atomic.publish`.
    atomic_protocol_paths: tuple[str, ...] = ("src/repro",)

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
        ("atomic-protocol-paths", "atomic_protocol_paths"),
    ):
        if option in table:
            updates[attr] = _as_str_tuple(table[option], option)
    return replace(base, **updates) if updates else base
