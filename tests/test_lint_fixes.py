"""The ``lint --fix`` engine: precision, safety, and idempotency."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.code_engine import lint_code_source
from repro.lint.config import LintConfig
from repro.lint.fixes import (
    FIXABLE_RULES,
    apply_fixes,
    fix_source,
    plan_fixes,
)

_PATH = "src/repro/example.py"


def _fix(source: str, **kwargs: object) -> tuple[str, list, list]:
    return fix_source(
        textwrap.dedent(source), _PATH, LintConfig(), **kwargs  # type: ignore[arg-type]
    )


def _fixable_findings(source: str) -> list:
    return [
        d for d in lint_code_source(source, _PATH, LintConfig())
        if d.rule_id in FIXABLE_RULES
    ]


class TestDet004Fix:
    def test_wraps_iterated_set_in_sorted(self) -> None:
        after, applied, _ = _fix("""\
            def f(s):
                for item in set(s):
                    print(item)
        """)
        assert "for item in sorted(set(s)):" in after
        assert [d.rule_id for d in applied] == ["DET004"]

    def test_wraps_order_sensitive_call_argument(self) -> None:
        after, applied, _ = _fix("""\
            def f(s):
                return ",".join({x.lower() for x in s})
        """)
        assert '",".join(sorted({x.lower() for x in s}))' in after
        assert [d.rule_id for d in applied] == ["DET004"]

    def test_multiline_set_expression(self) -> None:
        after, applied, _ = _fix("""\
            def f(a, b):
                merged = set(a) | set(b)
                return list(
                    merged
                )
        """)
        assert "sorted(\n        merged\n    )" in after or "sorted(merged)" in after
        assert applied


class TestDet006Fix:
    def test_replaces_default_and_inserts_guard(self) -> None:
        after, applied, _ = _fix("""\
            def f(items=[], limit=3):
                items.append(limit)
                return items
        """)
        assert "def f(items=None, limit=3):" in after
        assert "    if items is None:\n        items = []\n" in after
        assert [d.rule_id for d in applied] == ["DET006"]

    def test_guard_lands_after_docstring(self) -> None:
        after, _, _ = _fix('''\
            def f(mapping={}):
                """Doc line."""
                return mapping
        ''')
        lines = after.splitlines()
        assert lines[1].strip() == '"""Doc line."""'
        assert lines[2] == "    if mapping is None:"
        assert lines[3] == "        mapping = {}"

    def test_kwonly_and_multiple_defaults(self) -> None:
        after, applied, _ = _fix("""\
            def f(a=[], *, b={}):
                return a, b
        """)
        assert "def f(a=None, *, b=None):" in after
        assert "if a is None:" in after and "if b is None:" in after
        assert len(applied) == 2

    def test_one_line_def_is_skipped_not_mangled(self) -> None:
        source = "def f(items=[]): return items\n"
        after, applied, skipped = _fix(source)
        assert after == source
        assert applied == []
        assert any("insertion" in reason for _, reason in skipped)


class TestDet007Fix:
    def test_replaces_hash_and_adds_import(self) -> None:
        after, applied, _ = _fix("""\
            import json

            def key(value):
                return hash(value) % 64
        """)
        assert "from repro.faults.rng import stable_hash" in after
        assert "return stable_hash(value) % 64" in after
        assert [d.rule_id for d in applied] == ["DET007"]
        # The import lands after the existing import block.
        assert after.index("import json") < after.index("from repro.faults")

    def test_existing_import_is_not_duplicated(self) -> None:
        after, _, _ = _fix("""\
            from repro.faults.rng import stable_hash

            def key(value):
                return hash(value), stable_hash("x")
        """)
        assert after.count("from repro.faults.rng import stable_hash") == 1
        assert "return stable_hash(value), stable_hash" in after

    def test_dunder_hash_untouched(self) -> None:
        source = textwrap.dedent("""\
            class Name:
                def __hash__(self):
                    return hash(self.text)
        """)
        after, applied, _ = _fix(source)
        assert after == source
        assert applied == []


class TestFixPolicy:
    def test_baselined_finding_is_never_rewritten(self) -> None:
        source = textwrap.dedent("""\
            def key(value):
                return hash(value)
        """)
        baseline = Baseline(entries=(
            BaselineEntry("DET007", _PATH, "key", "asserts hash protocol"),
        ))
        after, applied, skipped = fix_source(
            source, _PATH, LintConfig(), baseline
        )
        assert after == source
        assert applied == []
        assert any("baselined" in reason for _, reason in skipped)

    def test_rewritten_source_must_parse_or_revert(self) -> None:
        # Every fix path re-parses; this asserts the guard exists by
        # running the full pipeline over a tricky-but-valid rewrite.
        after, applied, _ = _fix("""\
            def f(s):
                return list({x
                             for x in s})
        """)
        ast.parse(after)
        assert applied

    def test_fix_then_relint_clean_then_noop(self) -> None:
        source = textwrap.dedent("""\
            def order(items=[], *, extra={}):
                tags = {t for t in items}
                key = hash("x")
                return list(tags), sorted(extra), key
        """)
        after, applied, _ = fix_source(source, _PATH, LintConfig())
        assert applied
        assert _fixable_findings(after) == []
        again, applied2, _ = fix_source(after, _PATH, LintConfig())
        assert again == after
        assert applied2 == []


#: Building blocks for the property test: each template contains at
#: least one fixable finding and parametrizes over identifier names.
_TEMPLATES = (
    "def f_{n}({a}=[]):\n    return {a}\n",
    "def f_{n}({a}={{}}, *, {b}=[]):\n    return {a}, {b}\n",
    "def f_{n}({a}):\n    for x in set({a}):\n        print(x)\n",
    "def f_{n}({a}):\n    return ','.join({{y for y in {a}}})\n",
    "def f_{n}({a}):\n    return hash({a})\n",
    "def f_{n}({a}):\n    return list({a} | set('x')), hash({a})\n"
    "",
    "def f_{n}({a}, {b}=[]):\n    {b}.append(hash({a}))\n    return list(set({b}))\n",
)

_names = st.sampled_from(("items", "values", "payload", "entries", "data"))


@st.composite
def _modules(draw: st.DrawFn) -> str:
    count = draw(st.integers(min_value=1, max_value=4))
    chunks = []
    for index in range(count):
        template = draw(st.sampled_from(_TEMPLATES))
        a = draw(_names)
        b = draw(_names.filter(lambda name: name != a))
        chunks.append(template.format(n=index, a=a, b=b))
    return "\n\n".join(chunks)


class TestFixProperties:
    @settings(max_examples=40, deadline=None)
    @given(_modules())
    def test_fix_parses_relints_clean_and_is_idempotent(
        self, source: str
    ) -> None:
        assert _fixable_findings(source), "template lost its finding"
        after, applied, _ = fix_source(source, _PATH, LintConfig())
        assert applied, "nothing was fixed"
        ast.parse(after)  # the rewrite is valid Python
        assert _fixable_findings(after) == []  # and re-lints clean
        again, applied2, _ = fix_source(after, _PATH, LintConfig())
        assert again == after and applied2 == []  # and is a fixed point


class TestPlanAndApply:
    def test_plan_apply_roundtrip(self, tmp_path: Path) -> None:
        target = tmp_path / "src" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def f(items=[]):\n    return items\n", encoding="utf-8"
        )
        config = LintConfig(root=tmp_path)
        fixes = plan_fixes([tmp_path / "src"], config=config)
        assert [fix.path for fix in fixes] == ["src/mod.py"]
        assert fixes[0].changed
        diff = fixes[0].unified_diff()
        assert "-def f(items=[]):" in diff
        assert "+def f(items=None):" in diff
        # Nothing on disk until apply_fixes.
        assert target.read_text(encoding="utf-8").startswith("def f(items=[])")
        written = apply_fixes(fixes)
        assert [fix.path for fix in written] == ["src/mod.py"]
        assert "if items is None:" in target.read_text(encoding="utf-8")
        # Second plan over the fixed tree is empty.
        assert plan_fixes([tmp_path / "src"], config=config) == []


class TestCliFix:
    def _run(self, args: list[str], cwd: Path):
        import os
        import subprocess
        import sys

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )

    def test_fix_rewrites_and_exits_clean(self, tmp_path: Path) -> None:
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(items=[]):\n    return items\n", encoding="utf-8"
        )
        proc = self._run(
            ["lint", "--fix", "--root", str(tmp_path), str(target)], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "fixed mod.py: 1 finding(s)" in proc.stdout
        assert "if items is None:" in target.read_text(encoding="utf-8")
        # A second --fix run is a no-op (the CI idempotency gate).
        again = self._run(
            ["lint", "--fix", "--root", str(tmp_path), str(target)], tmp_path
        )
        assert again.returncode == 0
        assert "fixed 0 file(s)" in again.stderr

    def test_fix_diff_previews_without_writing(self, tmp_path: Path) -> None:
        target = tmp_path / "mod.py"
        source = "def f(s):\n    return list(set(s))\n"
        target.write_text(source, encoding="utf-8")
        proc = self._run(
            ["lint", "--fix-diff", "--root", str(tmp_path), str(target)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "+    return list(sorted(set(s)))" in proc.stdout
        assert target.read_text(encoding="utf-8") == source

    def test_prune_baseline_drops_stale_entries(self, tmp_path: Path) -> None:
        import json

        (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
        baseline_path = tmp_path / "lint-baseline.json"
        baseline_path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "DET001",
                "path": "gone.py",
                "symbol": "<module>",
                "reason": "file was deleted",
            }],
        }), encoding="utf-8")
        proc = self._run(
            [
                "lint", "--prune-baseline", "--root", str(tmp_path),
                str(tmp_path / "clean.py"),
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Pruned 1 stale" in proc.stderr
        pruned = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert pruned["entries"] == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
