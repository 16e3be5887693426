"""Run journal: durable appends, torn-tail recovery, corruption refusal."""

from __future__ import annotations

import json

import pytest

from repro.faults.process import ChaosKill
from repro.runner.journal import (
    JOURNAL_FORMAT,
    JournalCorruption,
    RunJournal,
)


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

    def test_completed_stages_since_last_reset(self, journal):
        journal.append("stage-complete", stage="candidates")
        journal.append("pipeline-reset", reason="checkpoint-missing")
        journal.append("stage-complete", stage="candidates")
        journal.append("stage-complete", stage="mine")
        stages = journal.completed_stages()
        assert [r.payload["stage"] for r in stages] == ["candidates", "mine"]
        assert [r.seq for r in stages] == [3, 4]
        journal.append("pipeline-reset", reason="checkpoint-unreadable")
        assert journal.completed_stages() == []

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

    def test_append_continues_after_recovery(self, journal, tmp_path):
        journal.append("shard-start", shard=0)
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes() + b"garbage")
        reopened = RunJournal.open(path)
        reopened.append("shard-complete", shard=0)
        final = RunJournal.open(path)
        assert [r.seq for r in final.records] == [0, 1, 2]


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
