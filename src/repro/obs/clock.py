"""The telemetry clock: the one place raw duration clocks are read.

Everything in the reproduction that wants to *measure* time — stage
latencies, query timings, lint wall time — goes through this wrapper
instead of calling ``time.perf_counter`` directly. Lint rule ``DET009``
enforces the funnel: outside :mod:`repro.obs`, a direct
monotonic/perf-counter/``tracemalloc`` read is an error, because
scattered clock reads are how wall-clock state quietly leaks into
content that must stay bit-identical across replays.

This is a *duration* source (monotonic, no epoch), not a wall clock:
``DET002`` (wall-clock reads) remains a separate, stricter rule. The
values it returns are telemetry — they may appear in clearly-marked
telemetry-only fields (see :mod:`repro.obs.tracer`) and never in
journal, checkpoint, or result content.
"""

from __future__ import annotations

import time


def perf_counter() -> float:
    """High-resolution duration clock (seconds, arbitrary origin)."""
    return time.perf_counter()
