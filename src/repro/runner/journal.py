"""The durable run journal: append-only, checksummed JSONL.

One journal records one run's progress as a sequence of events —
``run-start``, ``run-config``, ``day-advanced`` (with the engine
checkpoint's digest), ``engine-reset``, ``run-complete`` — each on its
own line:

    {"checksum": "<sha256 of the rest>", "payload": {...},
     "prev": "<sha256 of every byte before this line>",
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

Every record also carries ``prev``, inside its checksummed body: the
SHA-256 of every byte of the file before its line. So an edit that
keeps each record's checksum valid (a space after a comma, a record
swapped for another of the same ``seq``) still raises
:class:`JournalCorruption`, naming the changed record — never a torn
tail, even on the final line. And an open hashes the bytes before the
newest record once, compares the digest with its ``prev`` and, on a
match, decodes only the records a query returns; a journal whose
newest record has no ``prev`` (one an older version wrote) is verified
record by record, and chained by its next append.

Timestamps are deliberately absent: the journal orders events by
sequence number only, so its bytes are a pure function of what the run
did (wall-clock reads are banned repo-wide by lint rule ``DET002``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.store.atomic import (
    CheckedLines,
    fsync_directory,
    parse_checked_line,
    read_checked_lines,
    truncate_file,
)

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
        """The record's checksummed fields; its line adds ``prev``."""
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "type": self.type,
            "payload": self.payload,
        }


def _read_verified(target: Path) -> tuple[CheckedLines[JournalRecord], int, int]:
    """A journal's verified records, their length in bytes, and the
    file's length. Reads only: the file is left as it is.

    Raises :class:`JournalCorruption` on a bad record with valid records
    after it, a ``prev`` that does not hash the bytes before its record,
    or when no ``run-start`` record verifies.
    """
    log, verified, size = read_checked_lines(
        target, JournalRecord, JournalCorruption, "journal"
    )
    if not log:
        raise JournalCorruption(f"{target}: no verifiable records")
    if log[0].type != "run-start":
        raise JournalCorruption(f"{target}: first record is not run-start")
    return log, verified, size


class JournalReplay:
    """The verified records of one journal and the queries over them.

    :func:`read_journal` returns this, not a :class:`RunJournal`: it
    has no ``append``, so a reader that left a torn tail in place
    cannot write a record after it. The queries scan from the newest
    record and decode only the ones they return.
    """

    def __init__(self, log: CheckedLines[JournalRecord]) -> None:
        self._log = log

    @property
    def records(self) -> list[JournalRecord]:
        """Every verified event, in order."""
        return list(self._log)

    # -- replay queries ------------------------------------------------------

    def events(self, event_type: str | None = None) -> Iterator[JournalRecord]:
        """Verified events, optionally filtered by type."""
        for record in self._log:
            if event_type is None or record.type == event_type:
                yield record

    def last(self, event_type: str) -> JournalRecord | None:
        """The most recent event of ``event_type``, if any."""
        index = self._log.newest((event_type,))
        return None if index < 0 else self._log[index]

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
        index = self._log.newest(("day-advanced", "engine-reset"))
        if index < 0 or self._log[index].type == "engine-reset":
            return None
        return self._log[index]


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
        log: CheckedLines[JournalRecord] | None = None,
        *,
        torn_writer: "Callable[[bytes], int | None] | None" = None,
    ) -> None:
        self.path = Path(path)
        super().__init__(
            CheckedLines(self.path, JournalRecord, JournalCorruption, "journal")
            if log is None
            else log
        )
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
    def open(
        cls,
        path: str | Path,
        *,
        admit: "Callable[[RunJournal], None] | None" = None,
    ) -> "RunJournal":
        """Replay an existing journal, cutting off a torn tail.

        ``admit`` sees the replayed journal before the cut: an exception
        it raises leaves the file as it is.
        """
        target = Path(path)
        log, verified, size = _read_verified(target)
        journal = cls(target, log[0].run_id, log)
        if admit is not None:
            admit(journal)
        if verified < size:
            truncate_file(target, verified)
        return journal

    # -- appends -------------------------------------------------------------

    def append(self, event_type: str, **payload: Any) -> JournalRecord:
        """Durably append one event; returns the written record."""
        record = JournalRecord(
            seq=len(self._log),
            run_id=self.run_id,
            type=event_type,
            payload=payload,
        )
        data = self._log.encode(record.body())
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
        self._log.append(data, record)
        return record


def read_journal(path: str | Path) -> JournalReplay:
    """Replay a journal without changing its file.

    The records :meth:`RunJournal.open` would recover, for a reader
    such as ``verify-data``: a torn tail is skipped, not cut off.
    """
    log, _verified, _size = _read_verified(Path(path))
    return JournalReplay(log)


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
    parsed = (
        parse_checked_line(first[:-1], JournalRecord)
        if first.endswith(b"\n")
        else None
    )
    record = None if parsed is None else parsed[0]
    if record is None or record.seq != 0 or record.type != "run-start":
        return RunJournal.open(path).run_id
    return record.run_id
