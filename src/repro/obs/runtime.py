"""Process-global observability runtime.

The hot paths (pipeline stages, stores, resolver, supervisor) cannot
thread a tracer/registry handle through every call signature without
distorting the APIs they instrument, so this module holds the process's
single :class:`~repro.obs.metrics.MetricsRegistry` plus the *currently
active* tracer, and exposes no-op-safe helpers:

* :func:`metrics` / :func:`counter` / :func:`gauge` / :func:`histogram`
  — always live; instruments are cheap enough to update unconditionally.
* :func:`observing` — context manager installing a tracer for the
  duration of a run (the runner enters it; nested runs restore the
  previous tracer on exit).
* :func:`span` / :func:`trace_event` — emit through the active tracer,
  or do nothing when tracing is off. ``span()`` always yields a span
  object (a null one when off) so call sites never branch.

Worker processes (``riskybiz lint --jobs``) never install a tracer —
the trace file has the same single-writer rule as the run journal, and
worker lifecycle is recorded by the supervisor on their behalf. Because
a forked worker inherits this module's globals (including an open
tracer), worker entry points must call :func:`detach` first thing.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

from repro.obs import clock
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import Span, Tracer

_REGISTRY = MetricsRegistry()
_ACTIVE_TRACER: Tracer | None = None


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(
    name: str, boundaries: tuple[float, ...] = DURATION_BUCKETS_S
) -> Histogram:
    return _REGISTRY.histogram(name, boundaries)


def count_histogram(name: str) -> Histogram:
    """A histogram bucketed for record counts rather than durations."""
    return _REGISTRY.histogram(name, COUNT_BUCKETS)


def reset_metrics() -> None:
    """Zero the global registry in place (run boundaries, tests)."""
    _REGISTRY.reset()


class _NullSpan:
    """Stand-in yielded by :func:`span` when tracing is off."""

    __slots__ = ()

    span_id = ""
    name = ""
    path = ""

    def set(self, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


def active_tracer() -> Tracer | None:
    """The tracer installed by the innermost :func:`observing`, if any."""
    return _ACTIVE_TRACER


def detach() -> None:
    """Abandon any inherited tracer without touching its file.

    Called at worker-process entry: a forked child shares the parent's
    trace file descriptor, and two writers would interleave sequence
    numbers and corrupt the trace. The parent's tracer object is left
    alone — only this process's reference to it is dropped — and the
    inherited metrics counts are zeroed so worker-side increments never
    look like a continuation of the parent's run.
    """
    global _ACTIVE_TRACER
    _ACTIVE_TRACER = None
    _REGISTRY.reset()


@contextlib.contextmanager
def observing(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Install ``tracer`` as the active tracer for this block.

    Passing ``None`` is valid and disables tracing inside the block,
    which is also how nested untraced runs are isolated from an outer
    traced one.
    """
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER = previous


@contextlib.contextmanager
def span(name: str, **attributes: Any) -> Iterator[Span | _NullSpan]:
    """A span on the active tracer, or a null span when tracing is off."""
    tracer = _ACTIVE_TRACER
    if tracer is None:
        yield _NULL_SPAN
        return
    with tracer.span(name, **attributes) as live:
        yield live


def trace_event(name: str, **attributes: Any) -> None:
    """Emit a point event on the active tracer; no-op when off."""
    tracer = _ACTIVE_TRACER
    if tracer is not None:
        tracer.event(name, **attributes)


@contextlib.contextmanager
def timed(histogram_name: str) -> Iterator[None]:
    """Record the block's duration (seconds) into a duration histogram.

    Always on — a histogram observation is one bisect plus two adds, so
    hot paths (stage bodies, store queries, transactions) keep it
    unconditionally; the observed values are telemetry, the bucket
    boundaries are fixed.
    """
    started = clock.perf_counter()
    try:
        yield
    finally:
        histogram(histogram_name).observe(clock.perf_counter() - started)
