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
short by a killed writer fails verification and is dropped on reopen.
Unlike the journal, damage *before* the tail does not poison the run —
a trace is telemetry, so :meth:`Tracer.open_or_create` quarantines the
unreadable file and starts fresh rather than refusing to run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs import clock

#: Format tag recorded by the trace-start event.
TRACE_FORMAT = "riskybiz-trace/1"

#: Suffix given to unreadable trace files moved aside on reopen.
QUARANTINE_SUFFIX = ".corrupt"


class TraceCorruption(Exception):
    """A trace record before the tail failed verification."""


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _record_checksum(body: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical_json(body).encode("utf-8")).hexdigest()


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


def _parse_line(line: str) -> TraceRecord | None:
    """The verified record on ``line``, or None if it fails."""
    try:
        document = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(document, dict):
        return None
    recorded = document.get("checksum")
    telemetry = document.get("telemetry", {})
    body = {
        k: v for k, v in document.items() if k not in ("checksum", "telemetry")
    }
    if not isinstance(recorded, str) or _record_checksum(body) != recorded:
        return None
    if not isinstance(telemetry, dict):
        telemetry = {}
    try:
        return TraceRecord(
            seq=int(body["seq"]),
            run_id=str(body["run_id"]),
            type=str(body["type"]),
            payload=dict(body["payload"]),
            telemetry=telemetry,
        )
    except (KeyError, TypeError, ValueError):
        return None


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Replay a trace file, dropping a torn tail.

    Journal recovery semantics: an unverifiable *final* line is the
    residue of a killed writer and is silently dropped; an unverifiable
    record with valid records after it means the file was damaged after
    the fact and raises :class:`TraceCorruption`.
    """
    target = Path(path)
    raw_lines = target.read_text(encoding="utf-8").split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    records: list[TraceRecord] = []
    for index, line in enumerate(raw_lines):
        record = _parse_line(line)
        if record is None or record.seq != len(records):
            if index == len(raw_lines) - 1:
                break  # torn tail: the event never durably happened
            raise TraceCorruption(
                f"{target}: record {index} failed verification with valid "
                "records after it — trace damaged, not torn"
            )
        records.append(record)
    return records


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
    runner, mirroring the journal's single-writer rule); worker
    processes report through heartbeats instead. Appends flush per
    record but do not fsync — a trace is telemetry, not a durability
    artifact, and its recovery path tolerates any torn tail.
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
            records = read_trace(target)
        except TraceCorruption:
            records = None
        if records is None or (records and records[0].run_id != run_id):
            _quarantine(target)
            tracer = cls(target, run_id)
            tracer._append("trace-start", {"format": TRACE_FORMAT})
            return tracer
        _truncate_to_verified(target, len(records))
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
        body = record.body()
        document = dict(body)
        document["checksum"] = _record_checksum(body)
        if record.telemetry:
            document["telemetry"] = record.telemetry
        line = json.dumps(document, sort_keys=True) + "\n"
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(line.encode("utf-8"))
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


# -- recovery helpers --------------------------------------------------------


def _truncate_to_verified(path: Path, verified: int) -> None:
    """Rewrite the file to exactly its ``verified`` leading records."""
    raw_lines = path.read_text(encoding="utf-8").split("\n")
    kept = raw_lines[:verified]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in kept))
        handle.flush()


def _quarantine(path: Path) -> Path:
    """Move an unreadable trace aside (first free ``.corrupt-N`` name)."""
    for attempt in range(1000):
        target = path.with_name(f"{path.name}{QUARANTINE_SUFFIX}-{attempt}")
        if not target.exists():
            os.replace(path, target)
            return target
    raise RuntimeError(f"could not quarantine {path}")  # pragma: no cover


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
    canonical = _canonical_json(canonical_spans(records))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
