"""Per-layer metrics derived from the traces a ``--trace 1`` run records.

Three kinds of trace feed them:

* the bench trace — spans the benchmark opens around each call into a
  layer (``ecosystem.simulate``, ``store.open_dataset``, ...); the
  program's own stage spans (``candidates`` ... ``match``) nest under
  ``detection.pipeline``;
* the set-up traces — the same, written by each set-up child process;
* the runner traces — written by ``run_incremental_detection(trace=True)``
  into each standing run's directory: one ``run`` span per invocation,
  after the ``engine.advance`` and ``delta.apply`` spans inside it. The
  first is the set-up drain.

Times are means per occurrence of a span, so they do not depend on how
many operations fit into a run. A layer the workload never enters reads
0. The sqlite read counts come from the metrics registry, sampled
around each traced pipeline run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import fields
from pathlib import Path
from typing import Any

from repro.detection.pipeline import DetectionPipeline, PipelineFunnel
from repro.obs.tracer import read_trace

FUNNEL_FIELDS = tuple(
    f.name for f in fields(PipelineFunnel) if f.name != "sacrificial_total"
)

#: Per-layer metrics every traced run reports, with their units.
PER_LAYER_UNITS: dict[str, str] = {
    "ecosystem.simulate_s": "s",
    "ecosystem.renames": "count",
    "store.write_dataset_s": "s",
    "store.dataset_bytes": "B",
    "store.open_dataset_s": "s",
    "store.sqlite.ns_records_queries": "count",
    "store.sqlite.ns_records_s": "s",
    "whois.dump_s": "s",
    "whois.load_s": "s",
    "detection.pipeline_s": "s",
    **{f"detection.stage.{stage}_s": "s" for stage in DetectionPipeline.STAGES},
    **{f"detection.funnel.{name}": "count" for name in FUNNEL_FIELDS},
    "detection.engine.fold_s": "s",
    "detection.bare_fold_s": "s",
    "detection.delta.restore_s": "s",
    "detection.incremental.days": "count",
    "detection.incremental.deltas_applied": "count",
    "runner.drain_s": "s",
    "runner.overhead_s": "s",
    "runner.checkpoint_bytes": "B",
    "runner.journal_records": "count",
    "runner.invocation_s": "s",
    "analysis.study_s": "s",
    "analysis.report_s": "s",
    "obs.trace_overhead_pct": "%",
}


def read_spans(path: Path) -> list[dict[str, Any]]:
    """Completed spans in emission order, each with its ``seconds``.

    Not :func:`~repro.obs.tracer.canonical_spans`: repeated operations
    emit spans with the same path, hence the same ID, and each one
    counts here.
    """
    if not path.exists():
        return []
    spans = []
    for record in read_trace(path):
        if record.type == "span-end":
            span = dict(record.payload)
            span["seconds"] = float(record.telemetry.get("duration_ms", 0.0)) / 1000
            spans.append(span)
    return spans


def runner_runs(spans: list[dict[str, Any]]) -> list[dict[str, float]]:
    """One entry per ``run`` span: its time and the fold/restore inside it."""
    runs = []
    fold = restore = 0.0
    days = deltas = 0
    for span in spans:
        if span["name"] == "engine.advance":
            fold += span["seconds"]
            days += 1
            deltas += int(span.get("deltas", 0))
        elif span["name"] == "delta.apply" and span.get("restore"):
            restore += span["seconds"]
        elif span["name"] == "run":
            runs.append({
                "run_s": span["seconds"],
                "fold_s": fold,
                "restore_s": restore,
                "days": days,
                "deltas": deltas,
            })
            fold = restore = 0.0
            days = deltas = 0
    return runs


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(
    *,
    bench_trace: Path,
    setup_traces: list[Path],
    runner_traces: list[Path],
    untraced: list[float],
    traced: list[float],
    sqlite_reads: list[tuple[int, float]],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit)."""
    spans = read_spans(bench_trace)
    for path in setup_traces:
        spans.extend(read_spans(path))
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def seconds(name: str) -> float:
        return _mean([span["seconds"] for span in by_name[name]])

    def attribute(name: str, key: str) -> float:
        return _mean([span[key] for span in by_name[name] if key in span])

    values: dict[str, float] = {
        "ecosystem.simulate_s": seconds("ecosystem.simulate"),
        "ecosystem.renames": attribute("ecosystem.simulate", "renames"),
        "store.write_dataset_s": seconds("store.write_dataset"),
        "store.dataset_bytes": attribute("store.write_dataset", "bytes"),
        "store.open_dataset_s": seconds("store.open_dataset"),
        "store.sqlite.ns_records_queries": _mean([q for q, _ in sqlite_reads]),
        "store.sqlite.ns_records_s": _mean([s for _, s in sqlite_reads]),
        "whois.dump_s": seconds("whois.dump"),
        "whois.load_s": seconds("whois.load"),
        "detection.pipeline_s": seconds("detection.pipeline"),
        "detection.bare_fold_s": seconds("detection.bare_fold"),
        "runner.drain_s": seconds("runner.drain"),
        "runner.checkpoint_bytes": attribute("runner.drain", "checkpoint_bytes"),
        "runner.journal_records": attribute("runner.drain", "journal_records"),
        "runner.invocation_s": seconds("runner.invocation"),
        "analysis.study_s": seconds("analysis.study"),
        "analysis.report_s": seconds("analysis.report"),
    }
    stage_spans = []
    for stage in DetectionPipeline.STAGES:
        values[f"detection.stage.{stage}_s"] = seconds(stage)
        stage_spans.extend(by_name[stage])
    for name in FUNNEL_FIELDS:
        values[f"detection.funnel.{name}"] = _mean(
            [span[name] for span in stage_spans if name in span]
        )

    drains: list[dict[str, float]] = []
    invocations: list[dict[str, float]] = []
    for path in runner_traces:
        runs = runner_runs(read_spans(path))
        drains.extend(runs[:1])
        invocations.extend(runs[1:])
    values["detection.engine.fold_s"] = _mean([d["fold_s"] for d in drains])
    values["detection.incremental.days"] = _mean([d["days"] for d in drains])
    values["detection.incremental.deltas_applied"] = _mean(
        [d["deltas"] for d in drains]
    )
    values["runner.overhead_s"] = (
        values["runner.drain_s"] - values["detection.engine.fold_s"]
        if drains
        else 0.0
    )
    values["detection.delta.restore_s"] = _mean(
        [run["restore_s"] for run in invocations]
    )
    values["obs.trace_overhead_pct"] = (
        (statistics.median(traced) / statistics.median(untraced) - 1) * 100
        if traced and untraced
        else 0.0
    )
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
