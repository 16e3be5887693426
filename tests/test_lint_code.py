"""Code lint engine: per-rule positives/negatives and the CLI gate."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    lint_code_source,
    run_lint,
)
from repro.lint.baseline import BaselineEntry
from repro.lint.registry import RULES, validate_rule_ids


REPO_ROOT = Path(__file__).resolve().parent.parent


def rule_ids(source: str, path: str = "src/repro/example.py") -> list[str]:
    diags = lint_code_source(textwrap.dedent(source), path, LintConfig())
    return [d.rule_id for d in diags]


class TestUnseededRng:
    def test_module_level_random_flagged(self):
        assert rule_ids("import random\nrandom.random()\n") == ["DET001"]

    def test_module_level_choice_flagged(self):
        assert rule_ids("import random\nrandom.choice([1, 2])\n") == ["DET001"]

    def test_from_import_function_flagged(self):
        assert rule_ids(
            "from random import shuffle\nshuffle([1, 2])\n"
        ) == ["DET001"]

    def test_unseeded_random_instance_flagged(self):
        assert rule_ids("import random\nrng = random.Random()\n") == ["DET001"]

    def test_unseeded_from_import_class_flagged(self):
        assert rule_ids("from random import Random\nrng = Random()\n") == [
            "DET001"
        ]

    def test_seeded_instance_clean(self):
        assert rule_ids("import random\nrng = random.Random(42)\n") == []

    def test_aliased_module_tracked(self):
        assert rule_ids("import random as rnd\nrnd.randint(0, 9)\n") == [
            "DET001"
        ]

    def test_method_on_instance_clean(self):
        source = """
        import random

        def draw(rng: random.Random) -> float:
            return rng.random()
        """
        assert rule_ids(source) == []


class TestWallClock:
    def test_time_time_flagged(self):
        assert rule_ids("import time\nt = time.time()\n") == ["DET002"]

    def test_from_import_time_flagged(self):
        assert rule_ids("from time import time\nt = time()\n") == ["DET002"]

    def test_datetime_now_flagged(self):
        assert rule_ids(
            "from datetime import datetime\nd = datetime.now()\n"
        ) == ["DET002"]

    def test_module_qualified_now_flagged(self):
        assert rule_ids(
            "import datetime\nd = datetime.datetime.now()\n"
        ) == ["DET002"]

    def test_date_today_flagged(self):
        assert rule_ids("from datetime import date\nd = date.today()\n") == [
            "DET002"
        ]

    def test_monotonic_not_wall_clock(self):
        # DET009, not DET002: a duration clock, not a wall clock.
        assert rule_ids("import time\nt = time.monotonic()\n") == ["DET009"]

    def test_constructed_datetime_clean(self):
        assert rule_ids(
            "import datetime\nd = datetime.date(2011, 4, 1)\n"
        ) == []


class TestFaultStreamRng:
    def test_seeded_random_in_fault_layer_flagged(self):
        assert rule_ids(
            "import random\nrng = random.Random(7)\n",
            path="src/repro/faults/drops.py",
        ) == ["DET003"]

    def test_rng_module_itself_exempt(self):
        assert rule_ids(
            "import random\nrng = random.Random(7)\n",
            path="src/repro/faults/rng.py",
        ) == []

    def test_seeded_random_outside_fault_layer_clean(self):
        assert rule_ids(
            "import random\nrng = random.Random(7)\n",
            path="src/repro/ecosystem/world.py",
        ) == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        assert rule_ids("for x in {1, 2, 3}:\n    print(x)\n") == ["DET004"]

    def test_for_over_tracked_set_name_flagged(self):
        source = """
        def emit(items):
            seen = set(items)
            return [x for x in seen]
        """
        assert rule_ids(source) == ["DET004"]

    def test_set_difference_flagged(self):
        source = """
        def diff(a, b):
            for x in set(a) - set(b):
                print(x)
        """
        assert rule_ids(source) == ["DET004"]

    def test_list_of_set_flagged(self):
        assert rule_ids("names = list({'a', 'b'})\n") == ["DET004"]

    def test_join_of_set_flagged(self):
        assert rule_ids("text = ','.join({'a', 'b'})\n") == ["DET004"]

    def test_sorted_set_clean(self):
        assert rule_ids("for x in sorted({1, 2, 3}):\n    print(x)\n") == []

    def test_for_over_list_clean(self):
        assert rule_ids("for x in [3, 1, 2]:\n    print(x)\n") == []

    def test_membership_test_clean(self):
        source = """
        def keep(items, allowed):
            allowed_set = set(allowed)
            return [x for x in items if x in allowed_set]
        """
        assert rule_ids(source) == []


class TestFloatEquality:
    ANALYSIS = "src/repro/analysis/tables.py"

    def test_eq_against_float_flagged_in_analysis(self):
        assert rule_ids("ok = rate == 0.25\n", path=self.ANALYSIS) == [
            "DET005"
        ]

    def test_neq_against_float_flagged_in_analysis(self):
        assert rule_ids("ok = 0.5 != rate\n", path=self.ANALYSIS) == ["DET005"]

    def test_inequality_clean_in_analysis(self):
        assert rule_ids("ok = rate <= 0.25\n", path=self.ANALYSIS) == []

    def test_int_equality_clean_in_analysis(self):
        assert rule_ids("ok = count == 3\n", path=self.ANALYSIS) == []

    def test_float_eq_outside_analysis_not_flagged(self):
        assert rule_ids("ok = rate == 0.25\n") == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert rule_ids("def f(items=[]):\n    return items\n") == ["DET006"]

    def test_dict_call_default_flagged(self):
        assert rule_ids("def f(table=dict()):\n    return table\n") == [
            "DET006"
        ]

    def test_kwonly_set_default_flagged(self):
        assert rule_ids("def f(*, seen={1}):\n    return seen\n") == ["DET006"]

    def test_none_default_clean(self):
        assert rule_ids("def f(items=None):\n    return items or []\n") == []

    def test_tuple_default_clean(self):
        assert rule_ids("def f(items=()):\n    return items\n") == []


class TestProcessHash:
    def test_hash_call_flagged(self):
        assert rule_ids("key = hash('example.com')\n") == ["DET007"]

    def test_hash_inside_dunder_hash_exempt(self):
        source = """
        class Name:
            def __hash__(self):
                return hash(self.text)
        """
        assert rule_ids(source) == []

    def test_stable_hash_clean(self):
        assert rule_ids(
            "from repro.faults.rng import stable_hash\n"
            "key = stable_hash('example.com')\n"
        ) == []


class TestNonAtomicWrite:
    STORE_PATH = "src/repro/store/example.py"

    def test_write_text_in_store_flagged(self):
        assert rule_ids(
            "path.write_text('data')\n", path=self.STORE_PATH
        ) == ["DET008"]

    def test_write_bytes_in_runner_flagged(self):
        assert rule_ids(
            "path.write_bytes(b'data')\n", path="src/repro/runner/example.py"
        ) == ["DET008"]

    def test_open_for_write_flagged(self):
        assert rule_ids(
            "handle = open('manifest.json', 'w')\n", path=self.STORE_PATH
        ) == ["DET008"]

    def test_open_append_flagged(self):
        assert rule_ids(
            "handle = open('journal.jsonl', mode='ab')\n", path=self.STORE_PATH
        ) == ["DET008"]

    def test_path_open_write_flagged(self):
        assert rule_ids(
            "handle = path.open('wb')\n", path=self.STORE_PATH
        ) == ["DET008"]

    def test_open_for_read_clean(self):
        assert rule_ids(
            "data = open('manifest.json').read()\n"
            "more = open('dataset.sqlite', 'rb').read()\n",
            path=self.STORE_PATH,
        ) == []

    def test_read_helpers_clean(self):
        assert rule_ids(
            "data = path.read_bytes()\ntext = path.read_text()\n",
            path=self.STORE_PATH,
        ) == []

    def test_atomic_helper_module_exempt(self):
        assert rule_ids(
            "handle = open('x.tmp', 'wb')\n", path="src/repro/store/atomic.py"
        ) == []

    def test_journal_module_exempt(self):
        assert rule_ids(
            "handle = open('journal.jsonl', 'ab')\n",
            path="src/repro/runner/journal.py",
        ) == []

    def test_outside_durability_layer_clean(self):
        assert rule_ids(
            "path.write_text('csv,data')\n", path="src/repro/analysis/export.py"
        ) == []

    def test_repo_tree_routes_writes_atomically(self):
        """The real storage/runner tree carries no unbaselined DET008."""
        result = run_lint(
            ["src/repro/store", "src/repro/runner", "src/repro/detection"],
            root=REPO_ROOT,
            select=["DET008"],
        )
        assert result.errors == []


class TestTelemetryRead:
    def test_perf_counter_flagged_in_src(self):
        assert rule_ids("import time\nt = time.perf_counter()\n") == [
            "DET009"
        ]

    def test_from_import_monotonic_flagged(self):
        assert rule_ids(
            "from time import monotonic\nt = monotonic()\n"
        ) == ["DET009"]

    def test_aliased_duration_fn_flagged(self):
        assert rule_ids(
            "from time import perf_counter as pc\nt = pc()\n"
        ) == ["DET009"]

    def test_tracemalloc_module_flagged(self):
        assert rule_ids(
            "import tracemalloc\ntracemalloc.start()\n"
        ) == ["DET009"]

    def test_tracemalloc_from_import_flagged(self):
        assert rule_ids(
            "from tracemalloc import start\nstart()\n"
        ) == ["DET009"]

    def test_obs_layer_exempt(self):
        assert rule_ids(
            "import time\nt = time.perf_counter()\n",
            path="src/repro/obs/clock.py",
        ) == []

    def test_obs_submodule_exempt(self):
        assert rule_ids(
            "import tracemalloc\ntracemalloc.start()\n",
            path="src/repro/obs/profiling.py",
        ) == []

    def test_outside_scope_clean(self):
        assert rule_ids(
            "import time\nt = time.monotonic()\n", path="tests/test_x.py"
        ) == []

    def test_obs_clock_wrapper_clean(self):
        assert rule_ids(
            "from repro.obs import clock\nt = clock.monotonic()\n"
        ) == []

    def test_time_sleep_clean(self):
        # sleep is not a clock read; backoff waits stay legal anywhere.
        assert rule_ids("import time\ntime.sleep(0.1)\n") == []


class TestManualContextCall:
    def test_manual_enter_exit_pair_flagged(self):
        """The hand-written pair a raise in between leaves open."""
        source = """
            def f(tracer, risky):
                ctx = tracer.span("stage")
                ctx.__enter__()
                risky()
                ctx.__exit__(None, None, None)
        """
        diags = lint_code_source(
            textwrap.dedent(source), "src/repro/obs/example.py", LintConfig()
        )
        assert [(d.rule_id, d.line) for d in diags] == [
            ("DET014", 4), ("DET014", 6),
        ]

    def test_enter_without_exit_flagged(self):
        assert rule_ids("""
            def f(tracer, work):
                tracer.span("stage").__enter__()
                work()
        """) == ["DET014"]

    def test_with_statement_clean(self):
        assert rule_ids("""
            import contextlib

            def f(tracer, work, names):
                with tracer.span("stage"):
                    work()
                with contextlib.ExitStack() as stack:
                    for name in names:
                        stack.enter_context(tracer.span(name))
        """) == []

    def test_outside_telemetry_paths_clean(self):
        assert rule_ids(
            "ctx.__enter__()\n", path="scripts/oneoff.py"
        ) == []


class TestHandWrittenPublish:
    SAVE = """
        import os, pickle

        def save(point, point_path):
            temp = point_path.with_suffix(".tmp")
            with open(temp, "wb") as handle:
                pickle.dump(point, handle)
            os.replace(temp, point_path)
    """

    def test_os_replace_outside_atomic_modules_flagged(self):
        assert rule_ids(self.SAVE, path="src/repro/experiment/save.py") == [
            "DET016"
        ]

    def test_rename_spellings_flagged(self):
        assert rule_ids("""
            import os as _os
            from os import rename, replace as swap

            def move(source, target):
                _os.rename(source, target)
                rename(source, target)
                swap(source, target)
        """) == ["DET016", "DET016", "DET016"]

    def test_atomic_module_exempt(self):
        assert rule_ids(self.SAVE, path="src/repro/store/atomic.py") == []

    def test_files_outside_protocol_paths_are_ignored(self):
        assert rule_ids(self.SAVE, path="scripts/oneoff.py") == []

    def test_other_replace_calls_clean(self):
        assert rule_ids("""
            import dataclasses

            def f(text, record):
                return text.replace("a", "b"), dataclasses.replace(record)
        """) == []


class TestRunnerIntegration:
    @staticmethod
    def _violating_tree(root: Path) -> None:
        (root / "src" / "repro" / "store").mkdir(parents=True)
        (root / "src" / "repro" / "store" / "save.py").write_text(
            textwrap.dedent(TestHandWrittenPublish.SAVE), encoding="utf-8"
        )
        (root / "src" / "repro" / "obs").mkdir(parents=True)
        (root / "src" / "repro" / "obs" / "trace.py").write_text(
            textwrap.dedent("""
                def f(tracer):
                    ctx = tracer.span("stage")
                    ctx.__enter__()
            """),
            encoding="utf-8",
        )

    def test_run_lint_surfaces_det014_and_det016(self, tmp_path):
        self._violating_tree(tmp_path)
        result = run_lint([tmp_path / "src"], config=LintConfig(root=tmp_path))
        assert [d.rule_id for d in result.by_rule("DET016")] == ["DET016"]
        assert [d.rule_id for d in result.by_rule("DET014")] == ["DET014"]

    def test_select_skips_det014_and_det016(self, tmp_path):
        self._violating_tree(tmp_path)
        result = run_lint(
            [tmp_path / "src"],
            config=LintConfig(root=tmp_path),
            select=["DET001"],
        )
        assert result.by_rule("DET016") == []
        assert result.by_rule("DET014") == []

    def test_narrow_select_keeps_a_live_det016_entry(self, tmp_path):
        self._violating_tree(tmp_path)
        baseline = Baseline(entries=[
            BaselineEntry(
                rule="DET016",
                path="src/repro/store/save.py",
                symbol="save",
                reason="known: fixture trades durability for speed",
            ),
        ])
        # Neither run reports DET016, and the SCN100 one skips the code
        # engine altogether; the live entry must not be reported stale.
        for select in ("DET001", "SCN100"):
            result = run_lint(
                [tmp_path / "src"],
                config=LintConfig(root=tmp_path),
                baseline=baseline,
                select=[select],
            )
            assert result.stale_baseline_entries == [], select


class TestFixedPoint:
    def test_repository_is_lint_clean(self):
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        assert result.exit_code == 0, [d.to_dict() for d in result.errors]


class TestParseError:
    def test_syntax_error_reported_as_det000(self):
        assert rule_ids("def broken(:\n") == ["DET000"]


class TestCatalogue:
    def test_rule_ids_consistent(self):
        validate_rule_ids(RULES)
        with pytest.raises(ValueError):
            validate_rule_ids(["DET999"])

    def test_every_det_rule_documented(self):
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005",
                        "DET006", "DET007", "DET008", "DET009"):
            assert rule_id in RULES
            assert RULES[rule_id].engine == "code"


class TestRunner:
    def test_runner_scans_tree_and_baselines(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        (tmp_path / "good.py").write_text("VALUE = 3\n", encoding="utf-8")
        result = run_lint([tmp_path], root=tmp_path)
        assert [d.rule_id for d in result.diagnostics] == ["DET001"]
        assert result.exit_code == 1

        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="DET001",
                    path="bad.py",
                    symbol="<module>",
                    reason="fixture exercising the baseline",
                )
            ]
        )
        baseline.save(tmp_path / "lint-baseline.json")
        rebased = run_lint([tmp_path], root=tmp_path)
        assert rebased.diagnostics == []
        assert len(rebased.baselined) == 1
        assert rebased.exit_code == 0

    def test_stale_baseline_entries_reported(self, tmp_path):
        (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
        Baseline(
            entries=[
                BaselineEntry(
                    rule="DET001",
                    path="gone.py",
                    symbol="<module>",
                    reason="no longer exists",
                )
            ]
        ).save(tmp_path / "lint-baseline.json")
        result = run_lint([tmp_path], root=tmp_path)
        assert len(result.stale_baseline_entries) == 1
        # Since DET012, a dead entry is itself an error until pruned
        # (riskybiz lint --prune-baseline drops it).
        assert [d.rule_id for d in result.diagnostics] == ["DET012"]
        assert result.exit_code == 1


class TestCli:
    def _run(self, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )

    def test_cli_fails_on_violating_tree(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        proc = self._run(["lint", "bad.py"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "DET002" in proc.stdout

    def test_cli_json_format(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "key = hash('x')\n", encoding="utf-8"
        )
        proc = self._run(["lint", "--format", "json", "bad.py"], cwd=tmp_path)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [d["rule"] for d in payload["diagnostics"]] == ["DET007"]

    def test_cli_select_filters_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\nkey = hash('x')\n",
            encoding="utf-8",
        )
        proc = self._run(
            ["lint", "--select", "DET007", "bad.py"], cwd=tmp_path
        )
        assert proc.returncode == 1
        assert "DET007" in proc.stdout
        assert "DET002" not in proc.stdout

    def test_cli_write_baseline_then_clean(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        recorded = self._run(["lint", "--write-baseline", "bad.py"], cwd=tmp_path)
        assert recorded.returncode == 0
        assert (tmp_path / "lint-baseline.json").exists()
        proc = self._run(["lint", "bad.py"], cwd=tmp_path)
        assert proc.returncode == 0
        assert "1 baselined" in proc.stdout
