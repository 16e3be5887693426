"""Tracer: deterministic span IDs, torn-tail recovery, canonical view."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.faults.process import ChaosKill
from repro.obs import runtime as obs
from repro.obs.schema import validate_trace_file, validate_trace_records
from repro.obs.tracer import (
    TRACE_FORMAT,
    TraceCorruption,
    Tracer,
    canonical_spans,
    read_trace,
    span_id_for,
    trace_content_digest,
)
from tests.test_run_journal import kill_at_operation

RUN = "run-feedbeef0123"


class TestSpanIds:
    def test_derived_not_drawn(self):
        first = span_id_for(RUN, "run/shard-0/candidates")
        again = span_id_for(RUN, "run/shard-0/candidates")
        assert first == again
        assert len(first) == 16
        assert int(first, 16) >= 0  # hex digest prefix

    def test_distinct_per_path_and_run(self):
        assert span_id_for(RUN, "run/shard-0") != span_id_for(RUN, "run/shard-1")
        assert span_id_for(RUN, "run") != span_id_for("run-other", "run")


class TestEmission:
    def test_trace_start_and_nested_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.open_or_create(path, RUN)
        with tracer.span("run", shards=2) as run_span:
            with tracer.span("shard-0", shard=0) as shard_span:
                shard_span.set(stages=["candidates"])
            run_span.set(result_digest="abc")
        tracer.close()

        records = read_trace(path)
        assert records[0].type == "trace-start"
        assert records[0].payload["format"] == TRACE_FORMAT
        types = [record.type for record in records]
        assert types == [
            "trace-start", "span-start", "span-start", "span-end", "span-end",
        ]
        shard_end = records[3]
        assert shard_end.payload["path"] == "run/shard-0"
        assert shard_end.payload["span_id"] == span_id_for(RUN, "run/shard-0")
        assert shard_end.payload["stages"] == ["candidates"]
        assert "duration_ms" in shard_end.telemetry
        run_end = records[4]
        assert run_end.payload["result_digest"] == "abc"
        assert validate_trace_records(records) == []

    def test_event_carries_parent_span(self, tmp_path):
        tracer = Tracer.open_or_create(tmp_path / "trace.jsonl", RUN)
        with tracer.span("run"):
            tracer.event("supervisor.retry", shard=1, attempt=2)
        tracer.close()
        records = read_trace(tmp_path / "trace.jsonl")
        event = next(r for r in records if r.type == "event")
        assert event.payload["name"] == "supervisor.retry"
        assert event.payload["parent_id"] == span_id_for(RUN, "run")

    def test_records_after_close_are_written(self, tmp_path):
        """``close`` releases the handle only: the next record reopens
        the file, so nothing emitted after it is lost."""
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.open_or_create(path, RUN)
        tracer.event("before")
        tracer.close()
        tracer.event("after")
        with tracer.span("late"):
            pass
        tracer.close()
        records = read_trace(path)
        assert [r.type for r in records] == [
            "trace-start", "event", "event", "span-start", "span-end",
        ]
        assert [r.payload["name"] for r in records[1:3]] == ["before", "after"]

    def test_exception_leaves_span_unended(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.open_or_create(path, RUN)
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                raise RuntimeError("simulated death")
        tracer.close()
        records = read_trace(path)
        assert [r.type for r in records] == ["trace-start", "span-start"]
        assert canonical_spans(records) == []


class TestContentTelemetrySplit:
    def test_checksum_ignores_telemetry(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.open_or_create(path, RUN)
        with tracer.span("run"):
            pass
        tracer.close()
        before = read_trace(path)

        # Rewrite every duration on disk: records must still verify and
        # the content digest must not move — durations are telemetry.
        lines = path.read_text(encoding="utf-8").splitlines()
        edited = []
        for line in lines:
            document = json.loads(line)
            if "telemetry" in document:
                document["telemetry"] = {"duration_ms": 99999.9}
            edited.append(json.dumps(document, sort_keys=True))
        path.write_text("\n".join(edited) + "\n", encoding="utf-8")

        after = read_trace(path)
        assert len(after) == len(before)
        assert trace_content_digest(after) == trace_content_digest(before)

    def test_tampered_content_is_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.open_or_create(path, RUN)
        with tracer.span("run"):
            pass
        tracer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        document = json.loads(lines[1])
        document["payload"]["name"] = "forged"
        lines[1] = json.dumps(document, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceCorruption):
            read_trace(path)


class TestRecovery:
    def _write_some(self, path):
        tracer = Tracer.open_or_create(path, RUN)
        with tracer.span("run"):
            pass
        tracer.close()

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_some(path)
        whole = read_trace(path)
        with open(path, "ab") as handle:
            handle.write(b'{"checksum": "dead", "seq": 3, "trunc')
        assert read_trace(path) == whole

    def test_reopen_truncates_torn_tail_and_continues(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_some(path)
        with open(path, "ab") as handle:
            handle.write(b'{"half a record')
        tracer = Tracer.open_or_create(path, RUN)
        tracer.event("after.recovery")
        tracer.close()
        records = read_trace(path)
        assert records[-1].payload["name"] == "after.recovery"
        # Sequence numbers stay dense through the recovery.
        assert [r.seq for r in records] == list(range(len(records)))
        assert validate_trace_file(path) == []

    def test_kill_at_each_recovery_operation(self, tmp_path, monkeypatch):
        """Recovery cuts the torn tail off in place: a kill at any of
        its file operations loses no verified record."""
        path = tmp_path / "trace.jsonl"
        self._write_some(path)
        verified = path.read_bytes()
        torn = verified + b'{"checksum": "dead", "seq": 3, "trunc'
        whole = read_trace(path)
        operations: list[str] = []
        for target in itertools.count():
            path.write_bytes(torn)
            with kill_at_operation(monkeypatch, target) as reached:
                try:
                    Tracer.open_or_create(path, RUN).close()
                except ChaosKill:
                    pass
            assert read_trace(path) == whole
            if len(reached) <= target:  # recovery finished unkilled
                break
            operations = reached
        assert path.read_bytes() == verified
        assert "truncate" in operations

    def test_mid_file_damage_quarantined_on_reopen(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_some(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracer = Tracer.open_or_create(path, RUN)
        tracer.close()
        assert (tmp_path / "trace.jsonl.corrupt").exists()
        fresh = read_trace(path)
        assert [r.type for r in fresh] == ["trace-start"]

    def test_foreign_run_quarantined(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_some(path)
        tracer = Tracer.open_or_create(path, "run-someoneelse")
        tracer.close()
        assert (tmp_path / "trace.jsonl.corrupt").exists()
        assert read_trace(path)[0].run_id == "run-someoneelse"


class TestCanonicalView:
    def test_redone_work_dedupes_to_one_span(self, tmp_path):
        """A kill-and-redo trace converges on the uninterrupted digest."""
        clean_path = tmp_path / "clean.jsonl"
        tracer = Tracer.open_or_create(clean_path, RUN)
        with tracer.span("run"):
            with tracer.span("shard-0") as span:
                span.set(stages=["candidates"])
        tracer.close()
        clean = read_trace(clean_path)

        # Interrupted session: shard-0 starts but never ends...
        chaos_path = tmp_path / "chaos.jsonl"
        tracer = Tracer.open_or_create(chaos_path, RUN)
        try:
            with tracer.span("run"):
                with tracer.span("shard-0"):
                    raise KeyboardInterrupt  # BaseException, like ChaosKill
        except KeyboardInterrupt:
            pass
        tracer.close()
        # ...and the resumed session redoes it with identical content.
        tracer = Tracer.open_or_create(chaos_path, RUN)
        with tracer.span("run"):
            with tracer.span("shard-0") as span:
                span.set(stages=["candidates"])
        tracer.close()
        chaos = read_trace(chaos_path)

        assert len(chaos) > len(clean)  # more raw records...
        spans = canonical_spans(chaos)
        assert [s["path"] for s in spans] == ["run", "run/shard-0"]
        assert trace_content_digest(chaos) == trace_content_digest(clean)

    def test_last_span_end_wins(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.open_or_create(path, RUN)
        for stages in (["old"], ["new"]):
            with tracer.span("run") as span:
                span.set(stages=stages)
        tracer.close()
        spans = canonical_spans(read_trace(path))
        assert len(spans) == 1
        assert spans[0]["stages"] == ["new"]


class TestRuntimeIntegration:
    def test_observing_installs_and_restores(self, tmp_path):
        tracer = Tracer.open_or_create(tmp_path / "trace.jsonl", RUN)
        assert obs.active_tracer() is None
        with obs.observing(tracer):
            assert obs.active_tracer() is tracer
            with obs.span("run") as span:
                assert span.span_id == span_id_for(RUN, "run")
            obs.trace_event("ping")
        assert obs.active_tracer() is None
        tracer.close()
        types = [r.type for r in read_trace(tmp_path / "trace.jsonl")]
        assert types == ["trace-start", "span-start", "span-end", "event"]
