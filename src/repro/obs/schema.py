"""Schema validation for telemetry artifacts (trace.jsonl, metrics.json).

No external JSON-Schema dependency — like the lint scenario engine,
these are hand-rolled structural checks returning a list of issue
strings (empty = valid). ``riskybiz verify-data --run-dir`` runs them
over whichever of the two files a ``riskybiz advance --trace`` or
``--profile`` run left in its run directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import METRICS_FORMAT
from repro.obs.tracer import (
    TRACE_FORMAT,
    TraceCorruption,
    TraceRecord,
    read_trace,
)

_RECORD_TYPES = frozenset({"trace-start", "span-start", "span-end", "event"})


def validate_trace_records(records: list[TraceRecord]) -> list[str]:
    """Structural issues in an in-memory trace (empty list = valid)."""
    issues: list[str] = []
    if not records:
        return ["trace is empty (missing trace-start record)"]
    first = records[0]
    if first.type != "trace-start":
        issues.append(f"record 0 is {first.type!r}, expected trace-start")
    elif first.payload.get("format") != TRACE_FORMAT:
        issues.append(
            f"trace-start format is {first.payload.get('format')!r}, "
            f"expected {TRACE_FORMAT!r}"
        )
    run_id = first.run_id
    started: set[str] = set()
    for record in records:
        if record.type not in _RECORD_TYPES:
            issues.append(f"record {record.seq}: unknown type {record.type!r}")
            continue
        if record.run_id != run_id:
            issues.append(
                f"record {record.seq}: run_id {record.run_id!r} differs "
                f"from trace run_id {run_id!r}"
            )
        if record.type in ("span-start", "span-end"):
            span_id = record.payload.get("span_id")
            if not isinstance(span_id, str) or not span_id:
                issues.append(f"record {record.seq}: missing span_id")
                continue
            for key in ("name", "path"):
                if not isinstance(record.payload.get(key), str):
                    issues.append(f"record {record.seq}: missing {key}")
            if record.type == "span-start":
                started.add(span_id)
            elif span_id not in started:
                issues.append(
                    f"record {record.seq}: span-end for {span_id} "
                    "without a prior span-start"
                )
        if record.type == "event" and not isinstance(
            record.payload.get("name"), str
        ):
            issues.append(f"record {record.seq}: event without a name")
        for key, value in record.telemetry.items():
            if not isinstance(value, (int, float)):
                issues.append(
                    f"record {record.seq}: telemetry field {key!r} is not "
                    "numeric"
                )
    return issues


def validate_trace_file(path: str | Path) -> list[str]:
    """Validate a trace file on disk (checksums first, then structure)."""
    target = Path(path)
    if not target.exists():
        return [f"{target}: no such trace file"]
    try:
        records = read_trace(target)
    except TraceCorruption as exc:
        return [str(exc)]
    return validate_trace_records(records)


def validate_metrics_snapshot(document: Any) -> list[str]:
    """Structural issues in a metrics snapshot (empty list = valid)."""
    if not isinstance(document, dict):
        return ["metrics snapshot is not a JSON object"]
    issues: list[str] = []
    if document.get("format") != METRICS_FORMAT:
        issues.append(
            f"format is {document.get('format')!r}, expected "
            f"{METRICS_FORMAT!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(document.get(section), dict):
            issues.append(f"missing or non-object section {section!r}")
    for section in ("counters", "gauges"):
        values = document.get(section)
        if isinstance(values, dict):
            for name, value in values.items():
                if not isinstance(value, (int, float)):
                    issues.append(f"{section}.{name} is not numeric")
    histograms = document.get("histograms")
    if isinstance(histograms, dict):
        for name, histogram in histograms.items():
            issues.extend(_validate_histogram(name, histogram))
    return issues


def _validate_histogram(name: str, histogram: Any) -> list[str]:
    if not isinstance(histogram, dict):
        return [f"histograms.{name} is not an object"]
    issues: list[str] = []
    boundaries = histogram.get("boundaries")
    counts = histogram.get("counts")
    if not isinstance(boundaries, list) or not boundaries:
        issues.append(f"histograms.{name}: missing boundaries")
    elif boundaries != sorted(boundaries):
        issues.append(f"histograms.{name}: boundaries not sorted")
    if not isinstance(counts, list):
        issues.append(f"histograms.{name}: missing counts")
    elif isinstance(boundaries, list) and len(counts) != len(boundaries) + 1:
        issues.append(
            f"histograms.{name}: {len(counts)} bucket count(s) for "
            f"{len(boundaries)} boundar(ies), expected "
            f"{len(boundaries) + 1}"
        )
    if isinstance(counts, list):
        total = histogram.get("count")
        if isinstance(total, int) and sum(
            c for c in counts if isinstance(c, int)
        ) != total:
            issues.append(
                f"histograms.{name}: bucket counts do not sum to count"
            )
    if not isinstance(histogram.get("sum"), (int, float)):
        issues.append(f"histograms.{name}: missing sum")
    return issues


def validate_metrics_file(path: str | Path) -> list[str]:
    """Validate a metrics.json file on disk."""
    target = Path(path)
    if not target.exists():
        return [f"{target}: no such metrics file"]
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{target}: invalid JSON ({exc})"]
    return validate_metrics_snapshot(document)
