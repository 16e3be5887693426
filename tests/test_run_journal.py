"""Run journal: durable appends, torn-tail recovery, corruption refusal."""

from __future__ import annotations

import builtins
import itertools
import json
import os
from contextlib import contextmanager
from typing import Any, Iterator

import pytest

from repro.faults.process import ChaosKill
from repro.runner.journal import (
    JOURNAL_FORMAT,
    JournalCorruption,
    RunJournal,
    journal_run_id,
    read_journal,
)


class _KilledHandle:
    """A file handle whose writes and truncations are kill points."""

    def __init__(self, handle: Any, point: Any) -> None:
        self._handle = handle
        self._point = point

    def __enter__(self) -> "_KilledHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self._handle.close()

    def write(self, data: Any) -> int:
        self._point("write")
        return self._handle.write(data)

    def truncate(self, *args: Any) -> int:
        self._point("truncate")
        return self._handle.truncate(*args)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._handle, name)


@contextmanager
def kill_at_operation(monkeypatch: Any, target: int) -> Iterator[list[str]]:
    """Raise :class:`ChaosKill` at the ``target``-th file operation.

    The operations counted are every open for writing (builtin ``open``
    in a writing mode, ``os.open`` with a write flag), every write,
    every truncate and every fsync, in the order they happen; the
    yielded list names each one reached. Reads are never killed.
    """
    reached: list[str] = []

    def point(operation: str) -> None:
        reached.append(operation)
        if len(reached) == target + 1:
            raise ChaosKill("test", operation)

    real_open, real_os_open = builtins.open, os.open
    real_write, real_fsync = os.write, os.fsync
    real_truncate, real_ftruncate = os.truncate, os.ftruncate

    def open_(file: Any, mode: str = "r", *args: Any, **kwargs: Any) -> Any:
        if not any(flag in mode for flag in "wax+"):
            return real_open(file, mode, *args, **kwargs)
        point("open")
        return _KilledHandle(real_open(file, mode, *args, **kwargs), point)

    def os_open(path: Any, flags: int, *args: Any, **kwargs: Any) -> int:
        if flags & (os.O_WRONLY | os.O_RDWR):
            point("open")
        return real_os_open(path, flags, *args, **kwargs)

    def with_point(operation: str, real: Any) -> Any:
        def wrapped(*args: Any) -> Any:
            point(operation)
            return real(*args)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", open_)
        patch.setattr(os, "open", os_open)
        patch.setattr(os, "write", with_point("write", real_write))
        patch.setattr(os, "fsync", with_point("fsync", real_fsync))
        patch.setattr(os, "truncate", with_point("truncate", real_truncate))
        patch.setattr(os, "ftruncate", with_point("truncate", real_ftruncate))
        yield reached


@pytest.fixture
def journal(tmp_path):
    return RunJournal.create(tmp_path / "journal.jsonl", "run-test")


class TestCreateAndAppend:
    def test_create_writes_run_start(self, journal):
        assert journal.records[0].type == "run-start"
        assert journal.records[0].payload["format"] == JOURNAL_FORMAT

    def test_create_refuses_existing_file(self, journal, tmp_path):
        with pytest.raises(FileExistsError):
            RunJournal.create(tmp_path / "journal.jsonl", "run-other")

    def test_appends_are_sequenced(self, journal):
        journal.append("shard-start", shard=0)
        journal.append("shard-complete", shard=0)
        assert [r.seq for r in journal.records] == [0, 1, 2]

    def test_every_line_carries_verifying_checksum(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        for line in (tmp_path / "journal.jsonl").read_text().splitlines():
            document = json.loads(line)
            assert "checksum" in document


class TestReplay:
    def test_open_round_trips(self, journal, tmp_path):
        journal.append("shard-start", shard=1)
        journal.append("shard-complete", shard=1, checkpoint_sha256="aa")
        reopened = RunJournal.open(tmp_path / "journal.jsonl")
        assert reopened.run_id == "run-test"
        assert [r.type for r in reopened.records] == [
            "run-start", "shard-start", "shard-complete",
        ]

    def test_last_drain_since_last_reset(self, journal):
        journal.append("day-advanced", day=3)
        journal.append("engine-reset", reason="checkpoint-missing")
        assert journal.last_drain is None
        journal.append("day-advanced", day=3)
        journal.append("day-advanced", day=5)
        drain = journal.last_drain
        assert drain is not None
        assert (drain.seq, drain.payload["day"]) == (4, 5)
        journal.append("engine-reset", reason="checkpoint-unreadable")
        assert journal.last_drain is None

    def test_run_complete_property(self, journal):
        assert journal.run_complete is None
        journal.append("run-complete", result_digest="dd")
        assert journal.run_complete is not None


class TestTornTailRecovery:
    def test_truncated_last_line_dropped(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        journal.append("shard-complete", shard=0)
        path = tmp_path / "journal.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # tear the final record
        reopened = RunJournal.open(path)
        assert [r.type for r in reopened.records] == ["run-start", "shard-start"]

    def test_recovery_truncates_the_file(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes() + b'{"torn": tr')
        RunJournal.open(path)
        # After recovery the file replays with no tail to drop.
        reopened = RunJournal.open(path)
        assert len(reopened.records) == 2

    def test_read_leaves_the_tail_and_cannot_append(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        path = tmp_path / "journal.jsonl"
        torn = path.read_bytes() + b'{"torn": tr'
        path.write_bytes(torn)
        replay = read_journal(path)
        assert path.read_bytes() == torn
        assert replay.records == RunJournal.open(path).records
        assert not hasattr(replay, "append")

    def test_append_continues_after_recovery(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes() + b"garbage")
        reopened = RunJournal.open(path)
        reopened.append("shard-complete", shard=0)
        final = RunJournal.open(path)
        assert [r.seq for r in final.records] == [0, 1, 2]


class TestKilledRecovery:
    """Recovery cuts the torn tail off in place; a kill at any of its
    file operations leaves a journal that still opens with every
    verified record."""

    def test_kill_at_each_recovery_operation(
        self, journal, tmp_path, monkeypatch
    ):
        journal.append("day-advanced", day=1)
        journal.append("day-advanced", day=2)
        path = tmp_path / "journal.jsonl"
        verified = path.read_bytes()
        operations: list[str] = []
        for target in itertools.count():
            path.write_bytes(verified + b'{"checksum": "to')
            with kill_at_operation(monkeypatch, target) as reached:
                try:
                    RunJournal.open(path)
                except ChaosKill:
                    pass
            reopened = RunJournal.open(path)
            assert [r.seq for r in reopened.records] == [0, 1, 2]
            assert path.read_bytes() == verified
            if len(reached) <= target:  # recovery finished unkilled
                break
            operations = reached
        assert "truncate" in operations

    def test_intact_journal_is_not_written(
        self, journal, tmp_path, monkeypatch
    ):
        journal.append("day-advanced", day=1)
        with kill_at_operation(monkeypatch, 0) as reached:
            RunJournal.open(tmp_path / "journal.jsonl")
        assert reached == []

    def test_record_without_its_newline_is_torn(self, journal, tmp_path):
        """A cut just before the newline leaves a record that verifies,
        but its append never finished: it is dropped, so the next
        append starts a line of its own."""
        journal.torn_writer = lambda data: len(data) - 1
        with pytest.raises(ChaosKill):
            journal.append("day-advanced", day=1)
        path = tmp_path / "journal.jsonl"
        reopened = RunJournal.open(path)
        assert [r.type for r in reopened.records] == ["run-start"]
        reopened.append("day-advanced", day=1)
        reopened.append("run-complete", result_digest="dd")
        final = RunJournal.open(path)
        assert [r.type for r in final.records] == [
            "run-start", "day-advanced", "run-complete",
        ]


class TestJournalRunId:
    def test_reads_the_run_start_record(self, journal, tmp_path):
        journal.append("day-advanced", day=1)
        assert journal_run_id(tmp_path / "journal.jsonl") == "run-test"

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: b"", "no verifiable records"),
            (lambda data: b"x" + data, "record 0 failed verification"),
        ],
        ids=["empty", "damaged-first-record"],
    )
    def test_damage_raises_what_open_raises(
        self, journal, tmp_path, damage, message
    ):
        journal.append("day-advanced", day=1)
        path = tmp_path / "journal.jsonl"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(JournalCorruption, match=message):
            RunJournal.open(path)
        with pytest.raises(JournalCorruption, match=message):
            journal_run_id(path)

    def test_first_record_must_be_run_start(self, tmp_path):
        path = tmp_path / "other.jsonl"
        RunJournal(path, "run-x").append("day-advanced", day=1)
        with pytest.raises(JournalCorruption, match="not run-start"):
            journal_run_id(path)


class TestCorruptionRefusal:
    def test_damaged_middle_record_raises(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        journal.append("shard-complete", shard=0)
        path = tmp_path / "journal.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"shard-start"', '"shard-sneaky"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruption):
            RunJournal.open(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(JournalCorruption):
            RunJournal.open(path)

    def test_first_record_must_be_run_start(self, tmp_path):
        path = tmp_path / "other.jsonl"
        journal = RunJournal(path, "run-x")
        journal.append("shard-start", shard=0)
        journal.append("shard-complete", shard=0)
        with pytest.raises(JournalCorruption):
            RunJournal.open(path)

    def test_reordered_records_raise(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        journal.append("shard-complete", shard=0)
        path = tmp_path / "journal.jsonl"
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruption):
            RunJournal.open(path)


class TestTornWriter:
    def test_torn_writer_cuts_record_and_kills(self, journal, tmp_path):
        journal.torn_writer = lambda data: len(data) // 2
        with pytest.raises(ChaosKill):
            journal.append("shard-start", shard=0)
        # The fragment is on disk; recovery drops it and keeps the rest.
        reopened = RunJournal.open(tmp_path / "journal.jsonl")
        assert [r.type for r in reopened.records] == ["run-start"]

    def test_torn_writer_pass_through(self, journal, tmp_path):
        journal.torn_writer = lambda data: None
        journal.append("shard-start", shard=0)
        reopened = RunJournal.open(tmp_path / "journal.jsonl")
        assert len(reopened.records) == 2
