"""The durable run journal: append-only, checksummed JSONL.

One journal records one run's progress as a sequence of events —
``run-start``, ``run-config``, ``day-advanced`` (with the engine
checkpoint's digest), ``engine-reset``, ``run-complete`` — each on its
own line:

    {"checksum": "<sha256 of the rest>", "payload": {...},
     "run_id": "run-…", "seq": 3, "type": "day-advanced"}

Appends are durable (write → flush → fsync) and every record carries a
SHA-256 over its own canonical body, so on reopen the journal can tell
exactly which events survived a crash:

* a *torn tail* — a final line cut short by a killed writer (one
  without its newline), or a final record whose checksum does not
  verify — is dropped: the event it described never durably happened,
  so the work is simply redone. The file is cut in place to its
  verified records (:func:`~repro.store.atomic.truncate_file`), which
  are never rewritten;
* corruption anywhere *before* the tail (a bad record followed by good
  ones) means the file was damaged after the fact and raises
  :class:`JournalCorruption` — resuming from a lying journal would
  silently skip work.

Timestamps are deliberately absent: the journal orders events by
sequence number only, so its bytes are a pure function of what the run
did (wall-clock reads are banned repo-wide by lint rule ``DET002``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.store.atomic import content_digest, fsync_directory, truncate_file

#: Format tag recorded by the run-start event.
JOURNAL_FORMAT = "riskybiz-journal/1"


class JournalCorruption(Exception):
    """A journal record before the tail failed verification."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One verified journal event."""

    seq: int
    run_id: str
    type: str
    payload: dict[str, Any]

    def body(self) -> dict[str, Any]:
        """The checksummed portion of the record."""
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "type": self.type,
            "payload": self.payload,
        }


def _parse_line(line: bytes) -> JournalRecord | None:
    """The verified record on ``line``, or ``None`` if it fails."""
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    recorded = document.get("checksum")
    body = {k: v for k, v in document.items() if k != "checksum"}
    if not isinstance(recorded, str) or content_digest(body) != recorded:
        return None
    try:
        return JournalRecord(
            seq=int(body["seq"]),
            run_id=str(body["run_id"]),
            type=str(body["type"]),
            payload=dict(body["payload"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


def _read_verified(target: Path) -> tuple[list[JournalRecord], int, int]:
    """A journal's verified records, their length in bytes, and the
    file's length. Reads only: the file is left as it is.

    Raises :class:`JournalCorruption` on a bad record with valid records
    after it, or when no ``run-start`` record verifies.
    """
    data = target.read_bytes()
    # Whatever follows the last newline is an append that never
    # finished: empty on an intact journal.
    *lines, fragment = data.split(b"\n")
    records: list[JournalRecord] = []
    verified = 0  # bytes taken by the verified records
    for index, line in enumerate(lines):
        record = _parse_line(line)
        if record is None or record.seq != len(records):
            if index == len(lines) - 1 and not fragment:
                break  # the final record is the torn tail
            raise JournalCorruption(
                f"{target}: record {index} failed verification with "
                "valid records after it — journal damaged, not torn"
            )
        records.append(record)
        verified += len(line) + 1
    if not records:
        raise JournalCorruption(f"{target}: no verifiable records")
    if records[0].type != "run-start":
        raise JournalCorruption(f"{target}: first record is not run-start")
    return records, verified, len(data)


class JournalReplay:
    """The verified records of one journal and the queries over them.

    :func:`read_journal` returns this, not a :class:`RunJournal`: it
    has no ``append``, so a reader that left a torn tail in place
    cannot write a record after it.
    """

    def __init__(self, records: list[JournalRecord] | None = None) -> None:
        self.records: list[JournalRecord] = list(records or ())

    # -- replay queries ------------------------------------------------------

    def events(self, event_type: str | None = None) -> Iterator[JournalRecord]:
        """Verified events, optionally filtered by type."""
        for record in self.records:
            if event_type is None or record.type == event_type:
                yield record

    def last(self, event_type: str) -> JournalRecord | None:
        """The most recent event of ``event_type``, if any."""
        for record in reversed(self.records):
            if record.type == event_type:
                return record
        return None

    @property
    def run_complete(self) -> JournalRecord | None:
        """The run-complete event, if the run durably finished."""
        return self.last("run-complete")

    @property
    def last_drain(self) -> JournalRecord | None:
        """The newest ``day-advanced`` event after the last ``engine-reset``.

        The run's engine checkpoint must be the one this event hashed;
        None when no drain is durable since a reset.
        """
        for record in reversed(self.records):
            if record.type == "engine-reset":
                return None
            if record.type == "day-advanced":
                return record
        return None


class RunJournal(JournalReplay):
    """Append-only journal for one run, checksummed per record.

    Construct with :meth:`create` for a fresh run or :meth:`open` to
    replay an existing file (cutting off a torn tail, raising
    :class:`JournalCorruption` on earlier damage); :func:`read_journal`
    replays one without writing to it. The ``torn_writer``
    hook exists for chaos testing: given the encoded record it may
    return a cut position, in which case only that prefix is written
    (durably — the fragment must survive, that is the point) and the
    writer dies via :class:`~repro.faults.process.ChaosKill`,
    simulating a crash mid-append.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str,
        records: list[JournalRecord] | None = None,
        *,
        torn_writer: "Callable[[bytes], int | None] | None" = None,
    ) -> None:
        super().__init__(records)
        self.path = Path(path)
        self.run_id = run_id
        self.torn_writer = torn_writer

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, run_id: str) -> "RunJournal":
        """Start a fresh journal (the file must not already exist)."""
        target = Path(path)
        if target.exists():
            raise FileExistsError(f"journal already exists: {target}")
        target.parent.mkdir(parents=True, exist_ok=True)
        journal = cls(target, run_id)
        journal.append("run-start", format=JOURNAL_FORMAT, run_id_echo=run_id)
        return journal

    @classmethod
    def open(cls, path: str | Path) -> "RunJournal":
        """Replay an existing journal, cutting off a torn tail."""
        target = Path(path)
        records, verified, size = _read_verified(target)
        if verified < size:
            truncate_file(target, verified)
        return cls(target, records[0].run_id, records)

    # -- appends -------------------------------------------------------------

    def append(self, event_type: str, **payload: Any) -> JournalRecord:
        """Durably append one event; returns the written record."""
        record = JournalRecord(
            seq=len(self.records),
            run_id=self.run_id,
            type=event_type,
            payload=payload,
        )
        body = record.body()
        document = dict(body)
        document["checksum"] = content_digest(body)
        line = json.dumps(document, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        cut = self.torn_writer(data) if self.torn_writer is not None else None
        with open(self.path, "ab") as handle:
            handle.write(data if cut is None else data[:cut])
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self.path.parent)
        if cut is not None:
            # Chaos: the torn fragment is on disk; the writer is now dead.
            from repro.faults.process import ChaosKill

            raise ChaosKill("torn", f"journal-append:{event_type}")
        self.records.append(record)
        return record


def read_journal(path: str | Path) -> JournalReplay:
    """Replay a journal without changing its file.

    The records :meth:`RunJournal.open` would recover, for a reader
    such as ``verify-data``: a torn tail is skipped, not cut off.
    """
    records, _verified, _size = _read_verified(Path(path))
    return JournalReplay(records)


def journal_run_id(path: str | Path) -> str:
    """The run ID of the journal at ``path``, from its first record.

    Reads and verifies only the ``run-start`` line, so a caller that
    needs the ID before the runner opens the journal does not replay
    the whole file twice. A journal whose first line is not a verified
    ``run-start`` is opened in full instead, which raises the
    :class:`JournalCorruption` :meth:`RunJournal.open` gives.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
    record = _parse_line(first[:-1]) if first.endswith(b"\n") else None
    if record is None or record.seq != 0 or record.type != "run-start":
        return RunJournal.open(path).run_id
    return record.run_id
