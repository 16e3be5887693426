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
from repro.faults.process import ChaosMonkey, ProcessChaosConfig
from repro.obs.schema import validate_metrics_file, validate_trace_file
from repro.obs.tracer import canonical_spans, read_trace, trace_content_digest
from repro.runner.chaos_harness import run_kill_resume_trial
from repro.runner.execution import (
    METRICS_NAME,
    TRACE_NAME,
    result_digest,
    run_incremental_detection,
)
from repro.store.dataset import DeltaView
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

SCALE = 0.06
SEED = 2021


@pytest.fixture(scope="module")
def world():
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World

    return World(default_scenario(SEED).scaled(SCALE)).run()


class TestTracingIsContentNeutral:
    def test_trace_on_off_bit_identical(self, world, tmp_path):
        plain = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "plain"
        )
        traced = run_incremental_detection(
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
        run_incremental_detection(
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

    def test_profile_alone_writes_the_metrics_snapshot(self, world, tmp_path):
        run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run", profile=True
        )
        assert not (tmp_path / "run" / TRACE_NAME).exists()
        metrics_path = tmp_path / "run" / METRICS_NAME
        assert validate_metrics_file(metrics_path) == []
        document = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert any(
            name.startswith("profile.stage.") for name in document["gauges"]
        )

    def test_a_resumed_fold_profiles_each_stage(self, world, tmp_path):
        days = [day for day, _events in DeltaView(world.zonedb).batches()]
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir,
            until=days[len(days) // 2], profile=True,
        )
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir,
            resume=first.run_id, profile=True,
        )
        assert again.days_advanced > 0
        document = json.loads((run_dir / METRICS_NAME).read_text(encoding="utf-8"))
        for stage in DetectionPipeline.STAGES:
            assert f"profile.stage.{stage}.duration_s" in document["gauges"]
            assert document["counters"][f"pipeline.stage_runs.{stage}"] == 1

    def test_metrics_describe_the_newest_invocation(self, world, tmp_path):
        """An invocation that neither traces nor profiles deletes the
        snapshot an older one wrote."""
        days = [day for day, _events in DeltaView(world.zonedb).batches()]
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir,
            until=days[len(days) // 2], trace=True, profile=True,
        )
        assert (run_dir / METRICS_NAME).exists()
        run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id,
        )
        assert not (run_dir / METRICS_NAME).exists()
        assert (run_dir / TRACE_NAME).exists()

    def test_every_invocation_has_one_result_span(self, world, tmp_path):
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run", trace=True
        )
        again = run_incremental_detection(
            world.zonedb,
            world.whois,
            run_dir=tmp_path / "run",
            resume=first.run_id,
            trace=True,
        )
        assert again.days_advanced == 0
        ends = [
            record.payload
            for record in read_trace(tmp_path / "run" / TRACE_NAME)
            if record.type == "span-end" and record.payload["path"] == "run/result"
        ]
        assert len(ends) == 2
        for payload in ends:
            assert payload["result_digest"] == first.result_digest
            assert (
                payload["sacrificial_total"]
                == first.result.funnel.sacrificial_total
            )

    def test_two_traced_runs_share_canonical_content(self, world, tmp_path):
        for name in ("first", "second"):
            run_incremental_detection(
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


def _span_ends(run_dir, name):
    return [
        record.payload
        for record in read_trace(run_dir / TRACE_NAME)
        if record.type == "span-end" and record.payload["name"] == name
    ]


class TestFoldSpans:
    """One fold per invocation shows as one span per invocation."""

    def test_capped_run_then_resume_folds_once_each(self, world, tmp_path):
        days = [day for day, _events in DeltaView(world.zonedb).batches()]
        middle = len(days) // 2
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir,
            until=days[middle], trace=True,
        )
        spans = canonical_spans(read_trace(run_dir / TRACE_NAME))
        paths = [span["path"] for span in spans]
        for stage in DetectionPipeline.STAGES:
            assert f"run/{stage}" in paths
        assert not _span_ends(run_dir, "engine.advance")
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir,
            until=days[middle + 3], resume=first.run_id, trace=True,
        )
        assert again.days_advanced == 3
        (fold,) = _span_ends(run_dir, "engine.advance")
        assert fold["path"] == "run/engine.advance"
        assert (fold["day"], fold["days"]) == (days[middle + 3], 3)
        assert fold["deltas"] == again.deltas_applied
        assert fold["dirty"] > 0
        assert not _span_ends(run_dir, "delta.apply")
        # The fold runs each stage under its own span; only a fold over
        # every nameserver counts them all.
        stages = [
            span for span in _span_ends(run_dir, "candidates")
            if span["path"] == "run/engine.advance/candidates"
        ]
        assert len(stages) == 1
        assert "total_nameservers" not in stages[0]
        (full,) = [
            span for span in _span_ends(run_dir, "candidates")
            if span["path"] == "run/candidates"
        ]
        assert full["total_nameservers"] > 0

    def test_a_rewriting_stream_folds_once_per_call(self, tmp_path):
        """A stream that rewrites an earlier day is folded on the same
        schedule as any other: a capped fold, then one fold per resume,
        against a replica each invocation fills once."""
        zonedb = ZoneDatabase()
        zonedb.cover("biz")
        zonedb.set_delegation(4, "dom0.biz", ["ns1.host0.biz"])
        zonedb.set_delegation(2, "dom1.biz", ["ns1.host0.biz"])  # behind day 4
        zonedb.set_delegation(6, "dom2.biz", ["ns1.host1.biz"])
        zonedb.set_delegation(8, "dom3.biz", ["ns1.host1.biz"])
        zonedb.set_delegation(10, "dom0.biz", ["ns1.host1.biz"])
        assert zonedb.store.scan_deltas() is None
        whois = WhoisArchive()
        run_dir = tmp_path / "run"

        first_boundaries = _BoundaryLog()
        first = run_incremental_detection(
            zonedb, whois, run_dir=run_dir, until=6,
            chaos=first_boundaries, trace=True,
        )
        seen, spans = _span_ends_since(run_dir, 0)
        names = [span["name"] for span in spans]
        assert [name for name in names if name in DetectionPipeline.STAGES] == list(
            DetectionPipeline.STAGES
        )
        assert "engine.advance" not in names
        (fill,) = [span for span in spans if span["name"] == "delta.apply"]
        assert (fill["day"], fill["count"]) == (6, len(zonedb.deltas_since(None, 6)))
        assert "restore" not in fill
        assert first_boundaries.days() == ["day:6"]

        second_boundaries = _BoundaryLog()
        again = run_incremental_detection(
            zonedb, whois, run_dir=run_dir, resume=first.run_id,
            chaos=second_boundaries, trace=True,
        )
        _seen, spans = _span_ends_since(run_dir, seen)
        (fold,) = [span for span in spans if span["name"] == "engine.advance"]
        assert again.days_advanced == 2
        assert (fold["day"], fold["days"]) == (10, again.days_advanced)
        restore, extend = [span for span in spans if span["name"] == "delta.apply"]
        assert (restore["path"], restore["day"]) == ("run/delta.apply", 6)
        assert restore["restore"] is True
        assert (extend["path"], extend["day"]) == ("run/engine.advance/delta.apply", 10)
        assert "restore" not in extend
        assert restore["count"] + extend["count"] == len(zonedb.deltas_since(None))
        assert second_boundaries.days() == ["day:10"]
        batch = DetectionPipeline(zonedb, whois).run()
        assert again.result_digest == result_digest(batch)


class _BoundaryLog(ChaosMonkey):
    """A monkey that never kills and logs every worker boundary."""

    def __init__(self) -> None:
        super().__init__(ProcessChaosConfig())
        self.labels: list[str] = []

    def worker_boundary(self, label: str) -> None:
        self.labels.append(label)

    def days(self) -> list[str]:
        return [label for label in self.labels if label.startswith("day:")]


def _span_ends_since(run_dir, start):
    """The trace's record count, and the span-ends recorded from ``start``."""
    records = read_trace(run_dir / TRACE_NAME)
    ends = [record.payload for record in records[start:] if record.type == "span-end"]
    return len(records), ends
