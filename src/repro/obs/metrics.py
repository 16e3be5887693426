"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every instrument the pipeline, the
runner, the stores, and the resolver increment on their hot paths.
Instruments are created on first use and are cheap to update (a dict
lookup plus an integer add), so instrumentation can stay threaded
through production code unconditionally.

Determinism contract:

* **Counter and gauge values that describe content** (record counts,
  funnel sizes, fault activations) are pure functions of the run's
  inputs and replay identically; values that describe *operations*
  (cache hits, retries, engine resets) may differ between an
  uninterrupted run and a kill-and-resume run and are therefore
  telemetry.
* **Histogram bucket boundaries are fixed at registration** and never
  derived from observed values, so the *shape* of a metrics snapshot is
  stable across runs and machines even though observed durations are
  wall-dependent telemetry.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts
with sorted keys, written next to the run journal as ``metrics.json``
and validated by :mod:`repro.obs.schema`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

#: Format tag carried by metrics snapshots.
METRICS_FORMAT = "riskybiz-metrics/1"

#: Fixed bucket boundaries for duration histograms, in seconds.
#: Chosen once; never computed from data (snapshot-shape stability).
DURATION_BUCKETS_S = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Fixed bucket boundaries for size/count histograms.
COUNT_BUCKETS = (1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram of observed values.

    ``boundaries`` are upper-inclusive bucket edges; one overflow bucket
    catches everything above the last edge. Boundaries are part of the
    instrument's identity — re-registering the same name with different
    boundaries is an error, so snapshots can never silently change shape.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "total")

    def __init__(self, name: str, boundaries: tuple[float, ...]) -> None:
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError(
                f"histogram {name} boundaries must be non-empty and sorted"
            )
        self.name = name
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot of this histogram."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 9),
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, boundaries: tuple[float, ...] = DURATION_BUCKETS_S
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, boundaries)
        elif instrument.boundaries != tuple(boundaries):
            raise ValueError(
                f"histogram {name} already registered with boundaries "
                f"{instrument.boundaries}, not {tuple(boundaries)}"
            )
        return instrument

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument in place (identities survive).

        In-place so hot paths that cached an instrument object keep a
        live handle; used by tests and at CLI-run boundaries.
        """
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.counts = [0] * (len(histogram.boundaries) + 1)
            histogram.count = 0
            histogram.total = 0.0

    def snapshot(self) -> dict[str, Any]:
        """The registry as one JSON-able document (sorted keys)."""
        return {
            "format": METRICS_FORMAT,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }
