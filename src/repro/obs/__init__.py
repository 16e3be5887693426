"""Runtime telemetry plane: tracing, metrics, and profiling hooks.

The observability subsystem:

* :mod:`repro.obs.clock` — the one sanctioned source of duration clocks
  (lint rule DET009 confines raw monotonic/perf-counter reads here);
* :mod:`repro.obs.tracer` — span-based tracer with deterministic span
  IDs and journal-style torn-tail recovery;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms;
* :mod:`repro.obs.runtime` — the process-global registry + active
  tracer, with no-op-safe ``span``/``trace_event`` helpers;
* :mod:`repro.obs.profiling` — opt-in per-stage duration and
  ``tracemalloc`` peak capture;
* :mod:`repro.obs.reporters` — text/JSON rendering for ``riskybiz
  trace`` and the bench progress sink;
* :mod:`repro.obs.schema` — structural validation of ``trace.jsonl``
  and ``metrics.json``.

Everything here depends only on the standard library and on
:mod:`repro.store.atomic` (the tracer's record checksums and torn-tail
cut), so any layer of the reproduction (stores, resolver, runner) may
import it.
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS_S,
    METRICS_FORMAT,
    MetricsRegistry,
)
from repro.obs.tracer import (
    TRACE_FORMAT,
    TraceCorruption,
    TraceRecord,
    Tracer,
    canonical_spans,
    read_trace,
    span_id_for,
    trace_content_digest,
)

__all__ = [
    "COUNT_BUCKETS",
    "DURATION_BUCKETS_S",
    "METRICS_FORMAT",
    "MetricsRegistry",
    "TRACE_FORMAT",
    "TraceCorruption",
    "TraceRecord",
    "Tracer",
    "canonical_spans",
    "read_trace",
    "span_id_for",
    "trace_content_digest",
]
