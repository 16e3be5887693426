"""Reporters for telemetry: trace timelines, stage tables, metrics.

Mirrors the lint reporter split (:mod:`repro.lint.reporters`): a text
renderer for humans and a JSON renderer with stable key order for CI.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.tracer import TraceRecord, canonical_spans, trace_content_digest

REPORT_FORMAT = "riskybiz-trace-report/1"


def _duration_ms(record: TraceRecord) -> float | None:
    value = record.telemetry.get("duration_ms")
    return float(value) if isinstance(value, (int, float)) else None


def _stage_rows(records: list[TraceRecord]) -> list[dict[str, Any]]:
    """Per-span-name aggregate over completed spans (count, durations)."""
    by_name: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.type != "span-end":
            continue
        name = str(record.payload.get("name", ""))
        row = by_name.setdefault(
            name, {"name": name, "completed": 0, "duration_ms": 0.0}
        )
        row["completed"] += 1
        duration = _duration_ms(record)
        if duration is not None:
            row["duration_ms"] = round(row["duration_ms"] + duration, 3)
    return [by_name[name] for name in sorted(by_name)]


def summarize_trace(
    records: list[TraceRecord],
    metrics_document: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One JSON-able document describing a trace (and optional metrics)."""
    events = [
        dict(record.payload) for record in records if record.type == "event"
    ]
    summary: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "run_id": records[0].run_id if records else None,
        "records": len(records),
        "spans": canonical_spans(records),
        "events": events,
        "stages": _stage_rows(records),
        "content_digest": trace_content_digest(records),
    }
    if metrics_document is not None:
        summary["metrics"] = metrics_document
    return summary


def render_trace_json(
    records: list[TraceRecord],
    metrics_document: dict[str, Any] | None = None,
) -> str:
    return json.dumps(
        summarize_trace(records, metrics_document), indent=2, sort_keys=True
    )


def render_trace_text(
    records: list[TraceRecord],
    metrics_document: dict[str, Any] | None = None,
) -> str:
    """Timeline, per-stage summary table, and metrics snapshot as text."""
    lines: list[str] = []
    run_id = records[0].run_id if records else "(empty trace)"
    lines.append(f"trace: {run_id} — {len(records)} record(s)")
    lines.append("")
    lines.append("timeline:")
    for record in records:
        if record.type == "trace-start":
            lines.append(f"  [{record.seq:>4}] trace-start")
        elif record.type == "span-start":
            lines.append(
                f"  [{record.seq:>4}] start {record.payload.get('path')}"
            )
        elif record.type == "span-end":
            duration = _duration_ms(record)
            suffix = f"  ({duration} ms)" if duration is not None else ""
            lines.append(
                f"  [{record.seq:>4}] end   "
                f"{record.payload.get('path')}{suffix}"
            )
        else:
            detail = {
                k: v
                for k, v in record.payload.items()
                if k not in ("name", "parent_id")
            }
            rendered = (
                " " + json.dumps(detail, sort_keys=True) if detail else ""
            )
            lines.append(
                f"  [{record.seq:>4}] event {record.payload.get('name')}"
                f"{rendered}"
            )
    lines.append("")
    lines.append("stages (completed spans):")
    rows = _stage_rows(records)
    if rows:
        width = max(len(row["name"]) for row in rows)
        for row in rows:
            lines.append(
                f"  {row['name']:<{width}}  x{row['completed']:<4} "
                f"{row['duration_ms']} ms"
            )
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append(f"content digest: {trace_content_digest(records)}")
    if metrics_document is not None:
        lines.append("")
        lines.extend(render_metrics_text(metrics_document).split("\n"))
    return "\n".join(lines)


def render_metrics_text(document: dict[str, Any]) -> str:
    """A metrics snapshot as an aligned text block."""
    lines: list[str] = ["metrics:"]
    counters = document.get("counters") or {}
    gauges = document.get("gauges") or {}
    histograms = document.get("histograms") or {}
    for name in sorted(counters):
        lines.append(f"  counter   {name} = {counters[name]}")
    for name in sorted(gauges):
        lines.append(f"  gauge     {name} = {gauges[name]}")
    for name in sorted(histograms):
        histogram = histograms[name]
        lines.append(
            f"  histogram {name}: count={histogram.get('count')} "
            f"sum={histogram.get('sum')}"
        )
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)
