"""Telemetry end-to-end: tracing never changes results, traces converge.

The telemetry plane's contract with the determinism story:

* running detection with tracing on produces the same result digest as
  running it with tracing off;
* a traced run emits ``trace.jsonl`` and ``metrics.json`` that validate
  against the telemetry schemas;
* a kill-and-resume chaos trial converges on the same canonical trace
  content as the uninterrupted baseline.
"""

from __future__ import annotations

import json

import pytest

from repro.detection.pipeline import DetectionPipeline
from repro.obs.schema import validate_metrics_file, validate_trace_file
from repro.obs.tracer import canonical_spans, read_trace, trace_content_digest
from repro.runner.chaos_harness import run_kill_resume_trial
from repro.runner.execution import (
    METRICS_NAME,
    TRACE_NAME,
    run_supervised_detection,
)

SCALE = 0.06
SEED = 2021


@pytest.fixture(scope="module")
def world():
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World

    return World(default_scenario(SEED).scaled(SCALE)).run()


class TestTracingIsContentNeutral:
    def test_trace_on_off_bit_identical(self, world, tmp_path):
        plain = run_supervised_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "plain"
        )
        traced = run_supervised_detection(
            world.zonedb,
            world.whois,
            run_dir=tmp_path / "traced",
            trace=True,
        )
        assert traced.result_digest == plain.result_digest
        assert not (tmp_path / "plain" / TRACE_NAME).exists()
        assert not (tmp_path / "plain" / METRICS_NAME).exists()
        assert (tmp_path / "traced" / TRACE_NAME).exists()
        assert (tmp_path / "traced" / METRICS_NAME).exists()

    def test_traced_artifacts_validate_and_cover_the_run(self, world, tmp_path):
        run_supervised_detection(
            world.zonedb,
            world.whois,
            run_dir=tmp_path / "run",
            trace=True,
            profile=True,
        )
        trace_path = tmp_path / "run" / TRACE_NAME
        metrics_path = tmp_path / "run" / METRICS_NAME
        assert validate_trace_file(trace_path) == []
        assert validate_metrics_file(metrics_path) == []

        records = read_trace(trace_path)
        paths = [span["path"] for span in canonical_spans(records)]
        assert "run" in paths
        for stage in DetectionPipeline.STAGES:
            assert f"run/{stage}" in paths

        document = json.loads(metrics_path.read_text(encoding="utf-8"))
        counters = document["counters"]
        assert counters["pipeline.stage_runs.candidates"] == 1
        assert any(
            name.startswith("pipeline.stage.") for name in document["histograms"]
        )
        # --profile adds per-stage wall/memory gauges to the snapshot.
        assert any(
            name.startswith("profile.stage.") for name in document["gauges"]
        )

    def test_two_traced_runs_share_canonical_content(self, world, tmp_path):
        for name in ("first", "second"):
            run_supervised_detection(
                world.zonedb,
                world.whois,
                run_dir=tmp_path / name,
                trace=True,
            )
        first = read_trace(tmp_path / "first" / TRACE_NAME)
        second = read_trace(tmp_path / "second" / TRACE_NAME)
        assert trace_content_digest(first) == trace_content_digest(second)


class TestChaosTraceConvergence:
    def test_kill_resume_trial_traces_identical(self, tmp_path):
        report = run_kill_resume_trial(
            workdir=tmp_path,
            scale=SCALE,
            seed=SEED,
            backend="memory",
            chaos_seed=7,
            max_kills=4,
            trace=True,
        )
        assert report.kills >= 4
        assert report.bit_identical
        assert report.baseline_trace_digest is not None
        assert report.traces_identical, (
            report.baseline_trace_digest,
            report.chaos_trace_digest,
        )
        assert report.passed, report.verify_issues
