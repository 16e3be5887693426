"""``repro.lint``: two-engine static analysis for the reproduction.

Engine 1 (:mod:`repro.lint.code_engine`) enforces determinism and
durability discipline on the Python tree — seeded named RNG streams,
simtime-only clocks, order-stable iteration, writes and renames routed
through :mod:`repro.store.atomic`, spans entered only by ``with``.
Engine 2 (:mod:`repro.lint.scenario_engine`) verifies EPP referential
integrity (RFC 5731/5732) in scenario and world JSON before anything
runs. Both engines share one diagnostic model, rule registry, pyproject
config, and baseline-suppression file (whose stale entries
:mod:`repro.lint.baseline` reports as DET012), and run in one process;
``riskybiz lint`` is the CLI front end and :mod:`repro.lint.fixes`
supplies the ``--fix`` rewrite engine.
"""

from repro.lint.baseline import (
    Baseline,
    BaselineEntry,
    stale_baseline_diagnostics,
)
from repro.lint.code_engine import CodeContext, FixCandidate, lint_code_source
from repro.lint.config import LintConfig, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.fixes import FileFix, apply_fixes, fix_source, plan_fixes
from repro.lint.registry import (
    RULES,
    Rule,
    catalogue,
    code_checker,
    rule,
    scenario_checker,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import LintResult, run_lint
from repro.lint.scenario_engine import (
    WORLD_FORMAT,
    ScenarioContext,
    classify_document,
    lint_scenario_data,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CodeContext",
    "Diagnostic",
    "FileFix",
    "FixCandidate",
    "LintConfig",
    "LintResult",
    "RULES",
    "Rule",
    "ScenarioContext",
    "Severity",
    "WORLD_FORMAT",
    "apply_fixes",
    "catalogue",
    "classify_document",
    "code_checker",
    "fix_source",
    "lint_code_source",
    "lint_scenario_data",
    "load_config",
    "plan_fixes",
    "render_json",
    "render_text",
    "rule",
    "run_lint",
    "scenario_checker",
    "stale_baseline_diagnostics",
]
