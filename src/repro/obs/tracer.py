"""Span-based tracing with deterministic span IDs.

One trace file (``trace.jsonl``, next to the run journal) records what
one run *did* as spans and point events, append-only, one JSON record
per line::

    {"checksum": "<sha256 of the content body>", "seq": 3,
     "run_id": "run-…", "type": "span-end",
     "payload": {"span_id": "…", "path": "run/candidates", …},
     "telemetry": {"duration_ms": 12.4}}

Determinism contract:

* **Span IDs are derived, not drawn**: a span's ID is a stable digest
  of the run ID plus the span's path (``run/candidates``), so
  the same logical work gets the same ID in every session — an
  uninterrupted run and a kill-and-resume run agree on every ID.
* **Content vs telemetry**: the per-record checksum covers ``seq``,
  ``run_id``, ``type``, and ``payload`` only. Wall-dependent values
  (durations, memory peaks) live exclusively in the clearly-marked
  ``telemetry`` field, which is excluded from the checksum and from
  every content comparison — resumed runs stay bit-identical on
  content while still carrying real timings.
* **Canonical view**: :func:`canonical_spans` reduces a raw trace to
  its deterministic core — the completed spans, deduplicated by span ID
  (a stage re-run after a kill re-emits the *same* content) and ordered
  by path. :func:`trace_content_digest` hashes that view, which is what
  the chaos tests compare.

Recovery reuses the journal's torn-tail semantics: a final line cut
short by a killed writer fails verification and is dropped on reopen,
which cuts the file in place to its verified records
(:func:`~repro.store.atomic.truncate_file`). Unlike the journal,
damage *before* the tail does not poison the run — a trace is
telemetry, so :meth:`Tracer.open_or_create` quarantines the unreadable
file (:func:`~repro.store.atomic.quarantine`) and starts fresh rather
than refusing to run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs import clock
from repro.store.atomic import (
    content_digest,
    encode_checked_line,
    quarantine,
    read_checked_lines,
    truncate_file,
)

#: Format tag recorded by the trace-start event.
TRACE_FORMAT = "riskybiz-trace/1"


class TraceCorruption(Exception):
    """A trace record before the tail failed verification."""


def span_id_for(run_id: str, path: str) -> str:
    """Deterministic span ID: digest of run ID + span path.

    No entropy anywhere — the ID is a pure function of *which run* and
    *which piece of work*, so sessions separated by a crash agree.
    """
    digest = hashlib.sha256(f"{run_id}|{path}".encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One verified trace record."""

    seq: int
    run_id: str
    type: str
    payload: dict[str, Any]
    telemetry: dict[str, Any] = field(default_factory=dict)

    def body(self) -> dict[str, Any]:
        """The checksummed (content-only) portion of the record."""
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "type": self.type,
            "payload": self.payload,
        }


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Replay a trace file, dropping a torn tail.

    Journal recovery semantics: an unverifiable or unterminated *final*
    line is the residue of a killed writer and is silently dropped; an
    unverifiable record with valid records after it means the file was
    damaged after the fact and raises :class:`TraceCorruption`.
    """
    return list(
        read_checked_lines(Path(path), TraceRecord, TraceCorruption, "trace")[0]
    )


class Span:
    """One live span; content attributes set here land in its span-end."""

    __slots__ = ("span_id", "name", "path", "attributes", "_started")

    def __init__(self, span_id: str, name: str, path: str, started: float) -> None:
        self.span_id = span_id
        self.name = name
        self.path = path
        self.attributes: dict[str, Any] = {}
        self._started = started

    def set(self, **attributes: Any) -> None:
        """Attach deterministic content attributes (record counts etc.)."""
        self.attributes.update(attributes)


class Tracer:
    """Single-writer tracer for one run directory.

    Exactly one process writes a given trace file at a time (the
    runner, mirroring the journal's single-writer rule). Appends flush
    per record but do not fsync — a trace is telemetry, not a
    durability artifact, and its recovery path tolerates any torn tail.
    """

    def __init__(self, path: str | Path, run_id: str, *, next_seq: int = 0) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._seq = next_seq
        self._stack: list[Span] = []
        self._handle: Any = None

    # -- construction --------------------------------------------------------

    @classmethod
    def open_or_create(cls, path: str | Path, run_id: str) -> "Tracer":
        """Open a run's trace for appending, recovering what verifies.

        A readable trace belonging to this run is continued (the torn
        tail, if any, is truncated away first). A trace that is damaged
        mid-file or belongs to a different run is quarantined and a
        fresh one started — telemetry must never block the run itself.
        """
        target = Path(path)
        if not target.exists():
            tracer = cls(target, run_id)
            tracer._append("trace-start", {"format": TRACE_FORMAT})
            return tracer
        try:
            records, verified, size = read_checked_lines(
                target, TraceRecord, TraceCorruption, "trace"
            )
        except TraceCorruption:
            records = None
        if records is None or (records and records[0].run_id != run_id):
            quarantine(target)
            tracer = cls(target, run_id)
            tracer._append("trace-start", {"format": TRACE_FORMAT})
            return tracer
        if verified < size:
            truncate_file(target, verified)
        tracer = cls(target, run_id, next_seq=len(records))
        if not records:
            tracer._append("trace-start", {"format": TRACE_FORMAT})
        return tracer

    # -- emission ------------------------------------------------------------

    def _append(
        self,
        event_type: str,
        payload: dict[str, Any],
        telemetry: dict[str, Any] | None = None,
    ) -> TraceRecord:
        record = TraceRecord(
            seq=self._seq,
            run_id=self.run_id,
            type=event_type,
            payload=payload,
            telemetry=dict(telemetry or {}),
        )
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(encode_checked_line(record.body(), record.telemetry))
        self._handle.flush()
        self._seq += 1
        return record

    def event(self, name: str, **attributes: Any) -> None:
        """Emit one point event (operational, not part of any span)."""
        payload: dict[str, Any] = {"name": name}
        if self._stack:
            payload["parent_id"] = self._stack[-1].span_id
        payload.update(attributes)
        self._append("event", payload)

    def span(self, name: str, **attributes: Any) -> "_SpanContext":
        """Context manager for one span; see :class:`_SpanContext`."""
        return _SpanContext(self, name, attributes)

    def close(self) -> None:
        """Close the underlying file handle (the file itself persists)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _SpanContext:
    """Starts a span on enter; records span-end only on *clean* exit.

    A crash (or simulated :class:`~repro.faults.process.ChaosKill`)
    inside the span leaves only its span-start behind — exactly the
    journal's semantics, so the canonical view never contains work that
    did not finish.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(
        self, tracer: Tracer, name: str, attributes: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        path = f"{parent.path}/{self._name}" if parent else self._name
        span = Span(
            span_id_for(tracer.run_id, path),
            self._name,
            path,
            clock.perf_counter(),
        )
        payload = {
            "span_id": span.span_id,
            "parent_id": parent.span_id if parent else None,
            "name": span.name,
            "path": span.path,
        }
        payload.update(self._attributes)
        tracer._append("span-start", payload)
        tracer._stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        tracer = self._tracer
        span = self._span
        if tracer._stack and tracer._stack[-1] is span:
            tracer._stack.pop()
        if exc_type is not None or span is None:
            return  # died inside the span: no span-end, like a real kill
        payload = {
            "span_id": span.span_id,
            "name": span.name,
            "path": span.path,
        }
        payload.update(self._attributes)
        payload.update(span.attributes)
        duration_ms = (clock.perf_counter() - span._started) * 1000.0
        tracer._append(
            "span-end", payload, telemetry={"duration_ms": round(duration_ms, 3)}
        )


# -- the canonical (deterministic) view --------------------------------------


def canonical_spans(records: list[TraceRecord]) -> list[dict[str, Any]]:
    """The trace's deterministic core: completed spans, deduped, ordered.

    A stage killed mid-way and redone emits two span-starts and one
    span-end with identical content; a resume re-emits nothing for work
    that durably completed. Keeping the *last* span-end per span ID and
    ordering by path therefore yields the same sequence for an
    uninterrupted run and any kill-and-resume replay of it.
    """
    ends: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.type == "span-end":
            ends[str(record.payload["span_id"])] = dict(record.payload)
    return sorted(ends.values(), key=lambda p: str(p.get("path", "")))


def canonical_events(records: list[TraceRecord]) -> Iterator[dict[str, Any]]:
    """Point events in emission order (operational; not content-stable)."""
    for record in records:
        if record.type == "event":
            yield dict(record.payload)


def trace_content_digest(records: list[TraceRecord]) -> str:
    """SHA-256 over the canonical span view (content fields only)."""
    return content_digest(canonical_spans(records))
