"""DET012: baseline entries that no longer anchor to anything."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import (
    Baseline,
    BaselineEntry,
    stale_baseline_diagnostics,
)
from repro.lint.config import LintConfig
from repro.lint.runner import run_lint


def _write_project(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


class TestDet012StaleBaseline:
    def test_missing_path_and_dead_symbol_are_stale(
        self, tmp_path: Path
    ) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": "def alive():\n    return 1\n",
        })
        baseline = Baseline(entries=(
            BaselineEntry("DET007", "src/pkg/gone.py", "f", "was removed"),
            BaselineEntry("DET007", "src/pkg/mod.py", "dead", "renamed"),
        ))
        diagnostics, stale = stale_baseline_diagnostics(
            baseline, [], {"src/pkg/mod.py"}, LintConfig(root=tmp_path)
        )
        assert [(d.rule_id, d.path, d.symbol) for d in diagnostics] == [
            ("DET012", "src/pkg/gone.py", "f"),
            ("DET012", "src/pkg/mod.py", "dead"),
        ]
        assert [e.fingerprint for e in stale] == [
            ("DET007", "src/pkg/gone.py", "f"),
            ("DET007", "src/pkg/mod.py", "dead"),
        ]

    def test_unscanned_live_entry_is_left_alone(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": "def alive():\n    return 1\n",
        })
        baseline = Baseline(entries=(
            BaselineEntry("DET007", "src/pkg/mod.py", "alive", "justified"),
        ))
        # The file exists, the symbol exists, and the file was NOT part
        # of this (narrow) run — the entry must survive.
        diagnostics, stale = stale_baseline_diagnostics(
            baseline, [], set(), LintConfig(root=tmp_path)
        )
        assert diagnostics == []
        assert stale == []

    def test_stale_entry_fails_lint_until_pruned(self, tmp_path: Path) -> None:
        """Regression: a dead baseline entry is an error, and pruning it
        (what ``--prune-baseline`` does) restores a clean run."""
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": "def alive():\n    return 1\n",
        })
        config = LintConfig(root=tmp_path)
        baseline = Baseline(entries=(
            BaselineEntry("DET007", "src/pkg/mod.py", "dead_symbol", "stale"),
        ))
        baseline.save(config.baseline_path())

        result = run_lint([tmp_path / "src"], config=config)
        det012 = result.by_rule("DET012")
        assert [(d.path, d.symbol) for d in det012] == [
            ("src/pkg/mod.py", "dead_symbol")
        ]
        assert result.exit_code == 1
        assert [e.fingerprint for e in result.stale_baseline_entries] == [
            ("DET007", "src/pkg/mod.py", "dead_symbol")
        ]

        # Prune exactly the flagged entries and re-run: clean.
        stale = {e.fingerprint for e in result.stale_baseline_entries}
        kept = Baseline(entries=tuple(
            e for e in baseline.entries if e.fingerprint not in stale
        ))
        kept.save(config.baseline_path())
        rerun = run_lint([tmp_path / "src"], config=config)
        assert rerun.exit_code == 0
        assert rerun.by_rule("DET012") == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
