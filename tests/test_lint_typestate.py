"""Engine 4: protocol automata positives/negatives and the fixed point."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import LintConfig, lint_typestate_source, run_lint
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.registry import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings(
    source: str, path: str = "src/repro/store/example.py"
) -> list[tuple[str, int]]:
    diags = lint_typestate_source(textwrap.dedent(source), path, LintConfig())
    return [(d.rule_id, d.line) for d in diags]


class TestRegistry:
    def test_typestate_rules_registered(self) -> None:
        for rule_id in ("DET014", "DET016"):
            assert RULES[rule_id].engine == "typestate"


class TestSpanLifecycle:
    def test_span_leaked_via_early_raise(self) -> None:
        found = findings("""
            def f(tracer, risky):
                ctx = tracer.span("stage")
                ctx.__enter__()
                risky()  # may raise: the span never reaches __exit__
                ctx.__exit__(None, None, None)
        """)
        assert found == [("DET014", 3)]

    def test_span_never_exited_at_all(self) -> None:
        found = findings("""
            def f(tracer, work):
                ctx = tracer.span("stage")
                ctx.__enter__()
                work()
        """)
        # Leaked on the normal exit and on the exception exit (if
        # work() raises, the span is still entered when f unwinds).
        assert [rule for rule, _ in found] == ["DET014", "DET014"]

    def test_try_finally_exit_is_clean(self) -> None:
        assert findings("""
            def f(tracer, risky):
                ctx = tracer.span("stage")
                ctx.__enter__()
                try:
                    risky()
                finally:
                    ctx.__exit__(None, None, None)
        """) == []

    def test_with_statement_is_clean(self) -> None:
        assert findings("""
            def f(tracer, work):
                with tracer.span("stage"):
                    work()
        """) == []

    def test_tracer_use_after_close(self) -> None:
        found = findings("""
            def f(path):
                tracer = Tracer.open_or_create(path, "run")
                tracer.close()
                tracer.event("late")
        """)
        assert found == [("DET014", 5)]

    def test_tracer_close_in_finally_is_clean(self) -> None:
        assert findings("""
            def f(path, work):
                tracer = Tracer.open_or_create(path, "run")
                try:
                    work(tracer)
                finally:
                    tracer.close()
        """) == []


class TestAtomicProtocol:
    def test_rename_without_fsync(self) -> None:
        found = findings("""
            import os, pickle

            def save(point, point_path):
                temp = point_path.with_suffix(".tmp")
                with open(temp, "wb") as handle:
                    pickle.dump(point, handle)
                os.replace(temp, point_path)
        """)
        assert found == [("DET016", 8)]

    def test_full_protocol_is_clean(self) -> None:
        assert findings("""
            import os

            def atomic_write_bytes(target, data):
                temp = target.with_name(target.name + TMP_SUFFIX)
                with open(temp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, target)
                return target
        """) == []

    def test_temp_left_dirty_on_exit(self) -> None:
        found = findings("""
            def save(data, target):
                temp = target.with_suffix(".tmp")
                with open(temp, "wb") as handle:
                    handle.write(data)
        """)
        assert found == [("DET016", 3)]

    def test_target_written_after_publish(self) -> None:
        found = findings("""
            import os

            def save(data, target):
                temp = target.with_suffix(".tmp")
                with open(temp, "wb") as handle:
                    handle.write(data)
                    os.fsync(handle.fileno())
                os.replace(temp, target)
                target.write_text("oops")
        """)
        assert found == [("DET016", 10)]

    def test_files_outside_protocol_paths_are_ignored(self) -> None:
        assert findings(
            """
            import os

            def save(data, target):
                temp = target.with_suffix(".tmp")
                with open(temp, "wb") as handle:
                    handle.write(data)
                os.replace(temp, target)
            """,
            path="scripts/oneoff.py",
        ) == []


class TestRunnerIntegration:
    @staticmethod
    def _violating_tree(root: Path) -> None:
        (root / "src" / "repro" / "store").mkdir(parents=True)
        (root / "src" / "repro" / "store" / "save.py").write_text(
            textwrap.dedent("""
                import os, pickle

                def save(point, path):
                    temp = path.with_suffix(".tmp")
                    with open(temp, "wb") as handle:
                        pickle.dump(point, handle)
                    os.replace(temp, path)
            """),
            encoding="utf-8",
        )
        (root / "src" / "repro" / "obs").mkdir(parents=True)
        (root / "src" / "repro" / "obs" / "trace.py").write_text(
            textwrap.dedent("""
                def f(path):
                    tracer = Tracer.open_or_create(path, "run")
                    tracer.close()
                    tracer.event("late")
            """),
            encoding="utf-8",
        )

    def test_run_lint_surfaces_typestate_findings(self, tmp_path: Path) -> None:
        self._violating_tree(tmp_path)
        result = run_lint([tmp_path / "src"], config=LintConfig(root=tmp_path))
        assert [d.rule_id for d in result.by_rule("DET016")] == ["DET016"]
        assert [d.rule_id for d in result.by_rule("DET014")] == ["DET014"]

    def test_select_can_skip_the_typestate_engine(self, tmp_path: Path) -> None:
        self._violating_tree(tmp_path)
        result = run_lint(
            [tmp_path / "src"],
            config=LintConfig(root=tmp_path),
            select=["DET001"],
        )
        assert result.by_rule("DET016") == []
        assert result.by_rule("DET014") == []

    def test_narrow_select_never_condemns_other_engines_baseline(
        self, tmp_path: Path
    ) -> None:
        self._violating_tree(tmp_path)
        baseline = Baseline(entries=[
            BaselineEntry(
                rule="DET016",
                path="src/repro/store/save.py",
                symbol="save",
                reason="known: fixture trades durability for speed",
            ),
        ])
        # A code-engine-only run evaluates no typestate rule; the live
        # DET016 entry must not be reported stale (latent-prune guard).
        result = run_lint(
            [tmp_path / "src"],
            config=LintConfig(root=tmp_path),
            baseline=baseline,
            select=["DET001"],
        )
        assert result.stale_baseline_entries == []


class TestFixedPoint:
    def test_repository_is_lint_clean(self) -> None:
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        assert result.exit_code == 0, [
            d.to_dict() for d in result.errors
        ]
