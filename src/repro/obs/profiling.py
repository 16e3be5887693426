"""Opt-in profiling hooks: per-stage durations and allocation peaks.

Off by default because ``tracemalloc`` roughly doubles allocation cost;
``riskybiz advance --profile`` (or :func:`enable` in code) turns it on
for one invocation. Measurements land in the global metrics registry,
which the run writes to ``metrics.json``:

* ``profile.stage.duration_s`` — histogram of per-stage wall durations
  (fixed buckets, see :data:`~repro.obs.metrics.DURATION_BUCKETS_S`);
* ``profile.stage.<label>.duration_s`` — gauge, last duration per stage;
* ``profile.stage.<label>.tracemalloc_peak_bytes`` — gauge, allocation
  peak while the stage ran.

Everything recorded here is telemetry by definition — wall- and
machine-dependent, never part of run content. The snapshot schema
(:mod:`repro.obs.schema`) checks shape, not values.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from typing import Iterator

from repro.obs import clock, runtime

_ENABLED = False
_STARTED_TRACEMALLOC = False


def enable() -> None:
    """Turn profiling on; starts ``tracemalloc`` if nothing else has."""
    global _ENABLED, _STARTED_TRACEMALLOC
    _ENABLED = True
    if not tracemalloc.is_tracing():
        tracemalloc.start()
        _STARTED_TRACEMALLOC = True


def disable() -> None:
    """Turn profiling off; stops ``tracemalloc`` if we started it."""
    global _ENABLED, _STARTED_TRACEMALLOC
    _ENABLED = False
    if _STARTED_TRACEMALLOC and tracemalloc.is_tracing():
        tracemalloc.stop()
    _STARTED_TRACEMALLOC = False


@contextlib.contextmanager
def profile_stage(label: str) -> Iterator[None]:
    """Measure one stage when profiling is on; free no-op when off."""
    if not _ENABLED:
        yield
        return
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    started = clock.perf_counter()
    try:
        yield
    finally:
        elapsed = clock.perf_counter() - started
        runtime.histogram("profile.stage.duration_s").observe(elapsed)
        runtime.gauge(f"profile.stage.{label}.duration_s").set(
            round(elapsed, 6)
        )
        if tracing:
            _, peak = tracemalloc.get_traced_memory()
            runtime.gauge(
                f"profile.stage.{label}.tracemalloc_peak_bytes"
            ).set(peak)
