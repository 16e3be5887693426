"""Engine 3: project graph, call graph, and interprocedural rules."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.callgraph import CallGraph
from repro.lint.config import LintConfig
from repro.lint.flow import (
    check_watermark_bypass,
    run_project_analysis,
    stale_baseline_diagnostics,
)
from repro.lint.project import ProjectGraph
from repro.lint.runner import run_lint


def _write_project(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def _config(root: Path, **overrides: object) -> LintConfig:
    defaults: dict[str, object] = dict(
        root=root,
        project_paths=("src",),
        digest_sinks=(),
    )
    defaults.update(overrides)
    return LintConfig(**defaults)  # type: ignore[arg-type]


def _analyze(root: Path, config: LintConfig):
    diagnostics, _, _ = run_project_analysis(config)
    return diagnostics


class TestProjectGraph:
    def test_modules_functions_and_globals(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """\
                LIMIT = 10

                def top():
                    return LIMIT

                class Box:
                    def get(self):
                        return top()
            """,
        })
        graph = ProjectGraph.build(_config(tmp_path))
        assert set(graph.modules) == {"pkg", "pkg.mod"}
        mod = graph.modules["pkg.mod"]
        assert set(mod.functions) == {"top", "Box.get"}
        assert mod.classes == {"Box": {"get"}}
        assert mod.symbol_names() == {"<module>", "top", "Box.get", "Box"}

    def test_import_resolution_follows_reexport(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "from pkg.impl import thing\n",
            "src/pkg/impl.py": "def thing():\n    return 1\n",
            "src/pkg/user.py": "from pkg import thing\n\ndef use():\n    return thing()\n",
        })
        graph = ProjectGraph.build(_config(tmp_path))
        user = graph.modules["pkg.user"]
        assert graph.resolve_symbol(user, "thing") == ("pkg.impl", "thing")

    def test_parse_failure_is_recorded_not_fatal(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/bad.py": "def broken(:\n",
            "src/pkg/good.py": "def fine():\n    return 0\n",
        })
        graph = ProjectGraph.build(_config(tmp_path))
        assert "src/pkg/bad.py" in graph.parse_failures
        assert "pkg.good" in graph.modules


class TestCallGraph:
    def test_reachability_through_reexport_and_method(
        self, tmp_path: Path
    ) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/worker.py": """\
                from pkg.engine import Engine

                def entry(index):
                    engine = Engine()
                    engine.run()
            """,
            "src/pkg/engine.py": """\
                from pkg.state import mutate

                class Engine:
                    def run(self):
                        mutate()
            """,
            "src/pkg/state.py": """\
                CACHE = {}

                def mutate():
                    CACHE["k"] = 1
            """,
        })
        edges = CallGraph.build(ProjectGraph.build(_config(tmp_path))).edges
        # entry -> Engine() -> engine.run() -> mutate(): the constructor
        # types the receiver, and the import resolves to its definition.
        assert edges["pkg.worker:entry"] == {"pkg.engine:Engine.run"}
        assert edges["pkg.engine:Engine.run"] == {"pkg.state:mutate"}
        assert edges["pkg.state:mutate"] == set()

    def test_address_taken_function_counts_as_edge(
        self, tmp_path: Path
    ) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/worker.py": """\
                from pkg.tasks import task

                def entry(index):
                    submit(target=task)

                def submit(target):
                    pass
            """,
            "src/pkg/tasks.py": "def task():\n    return 1\n",
        })
        edges = CallGraph.build(ProjectGraph.build(_config(tmp_path))).edges
        assert edges["pkg.worker:entry"] == {
            "pkg.worker:submit", "pkg.tasks:task",
        }

    def test_to_dict_is_deterministic(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/a.py": "def f():\n    return g()\n\ndef g():\n    return 0\n",
        })
        config = _config(tmp_path)
        one = CallGraph.build(ProjectGraph.build(config)).to_dict()
        two = CallGraph.build(ProjectGraph.build(config)).to_dict()
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


class TestDet011DigestTaint:
    def test_intraprocedural_clock_into_sha256(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/digest.py": """\
                import hashlib
                import time

                def stamp():
                    started = time.perf_counter()
                    return hashlib.sha256(str(started).encode()).hexdigest()
            """,
        })
        diagnostics = _analyze(tmp_path, _config(tmp_path))
        det011 = [d for d in diagnostics if d.rule_id == "DET011"]
        assert [(d.path, d.symbol, d.line) for d in det011] == [
            ("src/pkg/digest.py", "stamp", 6)
        ]
        assert "perf_counter" in det011[0].message

    def test_taint_crosses_function_boundaries(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/clockwrap.py": """\
                import time

                def now():
                    return time.perf_counter()
            """,
            "src/pkg/sink.py": """\
                import hashlib

                def digest_of(payload):
                    return hashlib.sha256(payload).hexdigest()
            """,
            "src/pkg/use.py": """\
                from pkg.clockwrap import now
                from pkg.sink import digest_of

                def manifest():
                    elapsed = now()
                    return digest_of(str(elapsed).encode())
            """,
        })
        diagnostics = _analyze(tmp_path, _config(tmp_path))
        det011 = [d for d in diagnostics if d.rule_id == "DET011"]
        assert [(d.path, d.symbol, d.line) for d in det011] == [
            ("src/pkg/use.py", "manifest", 6)
        ]

    def test_builtin_hash_is_a_source(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/keys.py": """\
                import hashlib

                def key_for(value):
                    bucket = hash(value)
                    return hashlib.sha256(str(bucket).encode()).hexdigest()
            """,
        })
        diagnostics = _analyze(tmp_path, _config(tmp_path))
        det011 = [d for d in diagnostics if d.rule_id == "DET011"]
        assert [(d.symbol, d.line) for d in det011] == [("key_for", 5)]

    def test_stable_inputs_are_clean(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/clean.py": """\
                import hashlib
                import time

                def content_digest(data):
                    return hashlib.sha256(data).hexdigest()

                def elapsed(started):
                    return time.perf_counter() - started
            """,
        })
        diagnostics = _analyze(tmp_path, _config(tmp_path))
        assert [d for d in diagnostics if d.rule_id == "DET011"] == []

    def test_configured_digest_sink(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/manifest.py": """\
                def write_manifest(path, payload):
                    return (path, payload)
            """,
            "src/pkg/use.py": """\
                import time

                from pkg.manifest import write_manifest

                def record(path):
                    took = time.monotonic()
                    write_manifest(path, {"took": took})
            """,
        })
        config = _config(
            tmp_path, digest_sinks=("pkg.manifest.write_manifest",)
        )
        diagnostics = _analyze(tmp_path, config)
        det011 = [d for d in diagnostics if d.rule_id == "DET011"]
        assert [(d.symbol, d.line) for d in det011] == [("record", 7)]


class TestDet013WatermarkBypass:
    def _findings(self, tmp_path: Path, source: str, **overrides: object):
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/stages.py": source,
        })
        config = _config(
            tmp_path,
            watermark_commit_functions=("pkg.stages:commit",),
            **overrides,
        )
        graph = ProjectGraph.build(config)
        return check_watermark_bypass(graph, config)

    def test_direct_entry_write_flagged(self, tmp_path: Path) -> None:
        findings = self._findings(tmp_path, """\
            def sneaky(state, day):
                state["watermarks"]["mine"] = day
        """)
        assert [(d.rule_id, d.symbol, d.line) for d in findings] == [
            ("DET013", "sneaky", 2)
        ]
        assert "writes a watermark entry" in findings[0].message
        assert "pkg.stages:commit" in findings[0].message

    def test_commit_function_is_allowed(self, tmp_path: Path) -> None:
        findings = self._findings(tmp_path, """\
            def commit(state, stage, day):
                state["watermarks"][stage] = day
        """)
        assert findings == []

    def test_alias_writes_and_mutating_methods_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = self._findings(tmp_path, """\
            def drift(state, day):
                marks = state["watermarks"]
                marks["engine"] = day
                marks.update(engine=day)
                del marks["mine"]
        """)
        descriptions = sorted(d.message.split(" outside")[0] for d in findings)
        assert descriptions == [
            ".update() mutates the watermark map in place",
            "deletes watermark state",
            "writes a watermark entry",
        ]

    def test_map_replacement_flagged(self, tmp_path: Path) -> None:
        findings = self._findings(tmp_path, """\
            def reset(state):
                state["watermarks"] = {}
        """)
        assert len(findings) == 1
        assert "replaces the watermark map" in findings[0].message

    def test_reads_are_not_flagged(self, tmp_path: Path) -> None:
        findings = self._findings(tmp_path, """\
            def peek(state, stage):
                marks = state["watermarks"]
                return marks.get(stage), state["watermarks"].get("engine")
        """)
        assert findings == []

    def test_runner_gates_project_pass_on_det013(self, tmp_path: Path) -> None:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/stages.py": """\
                def sneaky(state, day):
                    state["watermarks"]["mine"] = day
            """,
        })
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.riskybiz.lint]
            select = ["DET013"]
            watermark-commit-functions = ["pkg.stages:commit"]
        """), encoding="utf-8")
        result = run_lint([tmp_path / "src"], root=tmp_path)
        assert result.project_analyzed
        assert [d.rule_id for d in result.diagnostics] == ["DET013"]


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
            baseline, [], {"src/pkg/mod.py"}, _config(tmp_path)
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
            baseline, [], set(), _config(tmp_path)
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
        config = _config(tmp_path)
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


class TestRunnerIntegration:
    def _project(self, tmp_path: Path) -> LintConfig:
        _write_project(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/worker.py": """\
                from pkg.state import mutate

                def entry(index):
                    mutate({"watermarks": {}}, index)
            """,
            "src/pkg/state.py": """\
                def mutate(state, day):
                    state["watermarks"]["mine"] = day
            """,
        })
        return _config(tmp_path)

    def test_run_lint_includes_project_rules_when_roots_covered(
        self, tmp_path: Path
    ) -> None:
        config = self._project(tmp_path)
        result = run_lint([tmp_path / "src"], config=config)
        assert result.project_analyzed
        assert [(d.rule_id, d.symbol) for d in result.errors] == [
            ("DET013", "mutate")
        ]

    def test_narrow_run_skips_project_pass(self, tmp_path: Path) -> None:
        config = self._project(tmp_path)
        result = run_lint([tmp_path / "src" / "pkg" / "state.py"], config=config)
        assert not result.project_analyzed
        assert result.by_rule("DET013") == []

    def test_project_finding_can_be_baselined(self, tmp_path: Path) -> None:
        config = self._project(tmp_path)
        baseline = Baseline(entries=(
            BaselineEntry(
                "DET013", "src/pkg/state.py", "mutate", "test fixture"
            ),
        ))
        result = run_lint([tmp_path / "src"], config=config, baseline=baseline)
        assert result.exit_code == 0
        assert [d.rule_id for d in result.baselined] == ["DET013"]

    def test_graph_dump_shape(self, tmp_path: Path) -> None:
        config = self._project(tmp_path)
        graph = CallGraph.build(ProjectGraph.build(config))
        payload = graph.to_dict()
        assert "src/pkg/state.py" == payload["modules"]["pkg.state"]["path"]  # type: ignore[index]
        assert ["pkg.worker:entry", "pkg.state:mutate"] in payload["edges"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
