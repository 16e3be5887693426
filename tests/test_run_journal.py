"""Run journal: durable appends, torn-tail recovery, corruption refusal."""

from __future__ import annotations

import builtins
import hashlib
import itertools
import json
import os
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.process import ChaosKill
from repro.runner.journal import (
    JOURNAL_FORMAT,
    JournalCorruption,
    JournalRecord,
    RunJournal,
    journal_run_id,
    read_journal,
)
from repro.store import atomic
from repro.store.atomic import encode_checked_line


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


# -- the prev chain ----------------------------------------------------------


def _reencoded_without_prev(data: bytes) -> bytes:
    """``data`` with every complete line re-encoded without ``prev``:
    the bytes a journal written before the chain holds."""
    *lines, fragment = data.split(b"\n")
    out = []
    for line in lines:
        document = json.loads(line)
        body = {key: document[key] for key in ("payload", "run_id", "seq", "type")}
        out.append(encode_checked_line(body))
    return b"".join(out) + fragment


def _same_seq_record(line: bytes) -> bytes:
    """Another valid record with the ``seq`` and ``prev`` of ``line``."""
    document = json.loads(line)
    del document["checksum"]
    document["payload"] = {"day": 4}
    return encode_checked_line(document)[:-1]


class _Refused(Exception):
    """The reference walk refuses a journal; ``pattern`` matches the
    message :class:`JournalCorruption` gives for it."""

    def __init__(self, pattern: str) -> None:
        super().__init__(pattern)
        self.pattern = pattern


def _reference_open(data: bytes) -> tuple[list[JournalRecord], int]:
    """The records and verified length of a journal's bytes, by the
    rules a journal is read by, line by line: a line failing its
    checksum or ``seq`` refuses the journal, naming it, unless it is the
    final one before no fragment; failing that, the first line after
    line 0 whose checksum verifies and whose ``prev`` is not the SHA-256
    of every byte before it refuses it, naming the record before it, the
    final line too; a torn tail (what follows the last newline, or a final
    line failing its checksum or ``seq``) is left out."""
    *lines, fragment = data.split(b"\n")
    records: list[JournalRecord] = []
    verified, changed = 0, None
    for index, line in enumerate(lines):
        try:
            document = json.loads(line.decode("utf-8"))
            checksum = document.pop("checksum")
            canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
            verifies = (
                hashlib.sha256(canonical.encode("utf-8")).hexdigest() == checksum
                and "telemetry" not in document
            )
            record = JournalRecord(
                document["seq"], document["run_id"], document["type"],
                dict(document["payload"]),
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            verifies = False
        in_seq = verifies and record.seq == index
        if not in_seq and (index < len(lines) - 1 or fragment):
            raise _Refused(f": record {index} failed verification")
        prev = document.get("prev") if verifies else None
        before = hashlib.sha256(data[:verified]).hexdigest()
        if index and changed is None and prev not in (None, before):
            changed = index
        if not in_seq:
            break  # the torn tail
        records.append(record)
        verified += len(line) + 1
    if changed is not None:
        raise _Refused(f": record {changed - 1} was changed")
    if not records:
        raise _Refused("no verifiable records")
    if records[0].type != "run-start":
        raise _Refused("not run-start")
    return records, verified


#: One append: a runner record type, a small payload with non-ASCII
#: text, and where a torn append cuts its line (None: it does not).
_STEP = st.tuples(
    st.sampled_from(
        ["run-start", "run-config", "day-advanced", "engine-reset", "run-complete"]
    ),
    st.dictionaries(
        st.sampled_from(["day", "reason", "note"]),
        st.one_of(
            st.integers(-3, 10**6),
            st.text(alphabet='aé✓\u2028 ",:\\', max_size=6),
        ),
        max_size=3,
    ),
    st.one_of(st.none(), st.floats(0, 1, exclude_max=True)),
)


def _mutate(data: bytes, mutation: str, draw: Any) -> bytes:
    """``data`` with (at most) the one edit ``mutation`` names."""
    *lines, fragment = data.split(b"\n")
    commas = [match.end() for match in re.finditer(b", ", data)]
    if mutation == "flip" and data:
        at = draw(st.integers(0, len(data) - 1))
        flipped = data[at] ^ draw(st.integers(1, 255))
        return data[:at] + bytes([flipped]) + data[at + 1 :]
    if mutation == "space" and commas:
        at = draw(st.sampled_from(commas))
        return data[:at] + b" " + data[at:]
    if mutation == "delete" and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif mutation == "swap" and len(lines) > 1:
        first = draw(st.integers(0, len(lines) - 2))
        second = draw(st.integers(first + 1, len(lines) - 1))
        lines[first], lines[second] = lines[second], lines[first]
    elif mutation == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    elif mutation == "unchain":
        return _reencoded_without_prev(data)
    return b"".join(line + b"\n" for line in lines) + fragment


def _runner_journal(directory: Path, monkeypatch: Any, length: int) -> Path:
    """A journal of ``length`` records like a run of one-day advances
    leaves: ``run-start``, ``run-config``, then ``day-advanced`` and
    ``run-complete`` by turns (written without fsync, for speed)."""
    path = directory / "runner.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", lambda fd: None)
        journal = RunJournal.create(path, "run-year")
        journal.append("run-config", mode="incremental", whois_sha256="ab" * 32)
        for seq, day in zip(range(2, length), itertools.count(1500)):
            if seq % 2 == 0:
                digest = hashlib.sha256(b"%d" % day).hexdigest()
                journal.append("day-advanced", day=day, checkpoint_sha256=digest)
            else:
                journal.append("run-complete", watermark=day, result_digest="cd")
    return path


def _decoded_by_open(path: Path, monkeypatch: Any) -> int:
    """Lines decoded by the runner's open of ``path`` and its queries."""
    decoded = []
    loads = json.loads

    def counting(text: Any, *args: Any, **kwargs: Any) -> Any:
        decoded.append(text)
        return loads(text, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(atomic.json, "loads", counting)
        journal = RunJournal.open(
            path, admit=lambda journal: journal.last("run-config")
        )
        assert journal.last("run-config") is not None
        assert journal.last_drain is not None
        assert journal.run_complete is not None
    return len(decoded)


class TestChain:
    """Every record carries ``prev``, the SHA-256 of the bytes before it."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(_STEP, max_size=8),
        mutation=st.sampled_from(
            ["none", "flip", "space", "delete", "swap", "truncate", "unchain"]
        ),
        data=st.data(),
    )
    def test_open_agrees_with_a_reference_walk(self, steps, mutation, data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "journal.jsonl"
            journal: RunJournal | None = RunJournal.create(path, "run-prop")
            for event_type, payload, cut in steps:
                if journal is None:
                    journal = RunJournal.open(path)  # cuts the torn tail
                if cut is None:
                    journal.append(event_type, **payload)
                    continue
                journal.torn_writer = lambda line, cut=cut: int(cut * len(line))
                with pytest.raises(ChaosKill):
                    journal.append(event_type, **payload)
                journal = None
            edited = _mutate(path.read_bytes(), mutation, data.draw)
            path.write_bytes(edited)
            try:
                records, verified = _reference_open(edited)
            except _Refused as refusal:
                for reader in (read_journal, RunJournal.open):
                    with pytest.raises(JournalCorruption, match=refusal.pattern):
                        reader(path)
                assert path.read_bytes() == edited
                return
            assert read_journal(path).records == records
            assert path.read_bytes() == edited
            assert RunJournal.open(path).records == records
            assert path.read_bytes() == edited[:verified]

    def test_every_line_chains_the_bytes_before_it(self, journal, tmp_path):
        journal.append("day-advanced", day=1)
        journal.append("run-complete", result_digest="dd")
        data = (tmp_path / "journal.jsonl").read_bytes()
        offset = 0
        for line in data.splitlines(keepends=True):
            assert json.loads(line)["prev"] == hashlib.sha256(data[:offset]).hexdigest()
            offset += len(line)

    @pytest.mark.parametrize("length", [4, 732])
    def test_an_open_decodes_a_bounded_number_of_lines(
        self, tmp_path, monkeypatch, length
    ):
        path = _runner_journal(tmp_path, monkeypatch, length)
        assert len(read_journal(path).records) == length
        assert _decoded_by_open(path, monkeypatch) <= 5

    def test_a_journal_in_the_parents_form_is_walked_then_chained(
        self, tmp_path, monkeypatch
    ):
        path = _runner_journal(tmp_path, monkeypatch, 40)
        chained = _decoded_by_open(path, monkeypatch)
        path.write_bytes(_reencoded_without_prev(path.read_bytes()))
        records = read_journal(path).records
        assert _decoded_by_open(path, monkeypatch) >= 40
        RunJournal.open(path).append("day-advanced", day=99)
        assert RunJournal.open(path).records[:40] == records
        assert _decoded_by_open(path, monkeypatch) <= chained

    def test_last_is_exact_where_a_line_end_cannot_tell_the_type(self, journal):
        journal.append("run-config", mode="incremental")
        journal.append("day-advanced", note=', "type": "run-config"}')
        journal.append("day-advanced", a=1, type="run-config")
        journal.append("réinit")
        reopened = RunJournal.open(journal.path)
        assert reopened.last("run-config").seq == 1
        assert reopened.last("day-advanced").seq == 3
        assert reopened.last("réinit").seq == 4
        assert reopened.last("engine-reset") is None

    @pytest.mark.parametrize(
        "edit",
        [lambda line: line.replace(b", ", b",  ", 1), _same_seq_record],
        ids=["space-after-comma", "same-seq-record"],
    )
    def test_an_edit_before_the_final_record_is_never_cut_as_torn(
        self, journal, tmp_path, edit
    ):
        """Every record still verifies on its own, so only the final
        record's prev tells: the journal is refused, naming the changed
        record, and the final one is not cut as a torn tail."""
        journal.append("day-advanced", day=2)
        journal.append("day-advanced", day=3)
        journal.append("run-complete", result_digest="dd")
        path = tmp_path / "journal.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = edit(lines[2])
        edited = b"\n".join(lines)
        path.write_bytes(edited)
        for reader in (read_journal, RunJournal.open):
            with pytest.raises(JournalCorruption, match=": record 2 was changed"):
                reader(path)
        assert path.read_bytes() == edited

    def test_damage_is_named_as_before_the_chain(self, journal, tmp_path):
        """A record that fails its checksum is named, as a journal
        without prev names it, even after an edit that keeps every
        checksum valid but breaks the next record's prev."""
        for day in range(2, 6):
            journal.append("day-advanced", day=day)
        path = tmp_path / "journal.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b", ", b",  ", 1)
        lines[3] = lines[3].replace(b'"day": ', b'"day": 1', 1)
        path.write_bytes(b"\n".join(lines))
        for reader in (read_journal, RunJournal.open):
            with pytest.raises(JournalCorruption, match=": record 3 failed"):
                reader(path)

    def test_a_deleted_record_before_the_final_one_is_never_cut_as_torn(
        self, journal, tmp_path
    ):
        """The final record is then out of sequence, which alone makes a
        torn tail, but its checksum verifies and its prev tells that the
        bytes before it changed. A journal in the parent's form has no
        prev to tell, so its final record is cut as before."""
        journal.append("day-advanced", day=2)
        journal.append("day-advanced", day=3)
        journal.append("run-complete", result_digest="dd")
        path = tmp_path / "journal.jsonl"
        lines = path.read_bytes().split(b"\n")
        del lines[2]
        edited = b"\n".join(lines)
        path.write_bytes(edited)
        for reader in (read_journal, RunJournal.open):
            with pytest.raises(JournalCorruption, match=": record 1 was changed"):
                reader(path)
        assert path.read_bytes() == edited
        unchained = _reencoded_without_prev(edited)
        path.write_bytes(unchained)
        assert len(RunJournal.open(path).records) == 2
        assert path.read_bytes() == unchained[: unchained.rindex(b"\n", 0, -1) + 1]
