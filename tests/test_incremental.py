"""The detection engine: a direct fold and a daily drain agree.

The contract under test: after advancing through batch day N, the
engine's :meth:`~repro.detection.incremental.IncrementalDetectionEngine.result`
is bit-identical (same result digest) to a direct fold of a zone
database holding the history through day N — over the in-memory world
and a written SQLite dataset, with byte-identical checkpoints, across
serialize/restore, and through the journaled runner with its
crash-recovery paths. The source dataset is never written.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sqlite3
from collections import Counter

import pytest

from repro.detection.incremental import (
    ENGINE_WATERMARK,
    IncrementalDetectionEngine,
    commit_watermark,
    dump_engine_state,
    load_engine_state,
    new_engine_state,
)
from repro.cli import main
from repro.detection.pipeline import DetectionPipeline
from repro.faults.process import ChaosKill, ChaosMonkey, ProcessChaosConfig
from repro.runner.execution import (
    CHECKPOINT_DIR_NAME,
    ENGINE_CHECKPOINT_NAME,
    JOURNAL_NAME,
    STALE_NAMES,
    RunFailed,
    result_digest,
    run_incremental_detection,
)
from repro.runner.journal import RunJournal
from repro.store.dataset import DeltaView, open_dataset, write_dataset
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase
from tests.substring_oracle import naive_substring_counts

SCALE = 0.05
SEED = 2021


@pytest.fixture(scope="module")
def world():
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World

    return World(default_scenario(SEED).scaled(SCALE)).run()


@pytest.fixture(scope="module")
def batch_digest(world):
    result = DetectionPipeline(world.zonedb, world.whois).run()
    return result_digest(result)


@pytest.fixture(scope="module")
def dataset(world, tmp_path_factory):
    """The world written as a SQLite dataset (reopened read-only)."""
    path = tmp_path_factory.mktemp("dataset") / "dataset.sqlite"
    write_dataset(world.zonedb, path, scenario_digest="ab" * 32)
    return path


def _drained_engine(zonedb, whois, **kwargs) -> IncrementalDetectionEngine:
    """An engine that folded ``zonedb``'s history one batch day per call,
    as a daily job does."""
    engine = IncrementalDetectionEngine(whois, **kwargs)
    for batch_day, _events in DeltaView(zonedb).batches():
        engine.advance_from(zonedb, until=batch_day)
    return engine


def _mini_inputs() -> tuple[ZoneDatabase, WhoisArchive]:
    """A tiny hand-built history: a few days, every delta kind."""
    zonedb = ZoneDatabase()
    zonedb.cover("biz")
    zonedb.set_delegation(1, "alpha.biz", ["ns1.alpha.biz"])
    zonedb.set_glue(1, "ns1.alpha.biz")
    zonedb.set_delegation(2, "beta.biz", ["ns1.alpha.biz"])
    zonedb.set_delegation(3, "alpha.biz", ["dropme99.gamma.biz"])
    zonedb.remove_glue(3, "ns1.alpha.biz")
    zonedb.set_delegation(5, "beta.biz", ["ns2.delta.biz"])
    zonedb.remove_delegation(6, "alpha.biz")
    return zonedb, WhoisArchive()


class TestEngineEquivalence:
    def test_memory_backend_matches_batch(self, world, batch_digest):
        engine = _drained_engine(world.zonedb, world.whois)
        assert result_digest(engine.result()) == batch_digest

    def test_sqlite_backend_matches_batch(self, world, dataset, batch_digest):
        """Folding a written dataset directly, and draining it day by
        day, both reproduce the in-memory batch result."""
        zonedb = open_dataset(dataset)
        try:
            folded = IncrementalDetectionEngine(world.whois)
            folded.fold(zonedb)
            drained = _drained_engine(zonedb, world.whois)
            assert result_digest(folded.result()) == batch_digest
            assert result_digest(drained.result()) == batch_digest
            assert dump_engine_state(folded.state) == dump_engine_state(
                drained.state
            )
        finally:
            zonedb.close()

    def test_partial_then_continued_advance_matches_batch(
        self, world, batch_digest
    ):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        engine = IncrementalDetectionEngine(world.whois)
        days_first = engine.advance_from(world.zonedb, until=midpoint)
        assert engine.watermark == midpoint
        days_rest = engine.advance_from(world.zonedb)
        assert days_first > 0 and days_rest > 0
        assert result_digest(engine.result()) == batch_digest

    def test_every_prefix_matches_batch_on_mini_history(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        for batch_day, _events in DeltaView(zonedb).batches():
            engine.advance_from(zonedb, until=batch_day)
            replica = ZoneDatabase()
            for day, event in zonedb.deltas_since(None):
                if day <= batch_day:
                    replica.apply_delta(event)
            batch = DetectionPipeline(replica, whois).run()
            assert result_digest(engine.result()) == result_digest(batch), (
                f"prefix through day {batch_day} diverged"
            )


class TestWatermarkGuards:
    def test_commit_watermark_never_moves_backwards(self):
        state = new_engine_state()
        commit_watermark(state, ENGINE_WATERMARK, 5)
        commit_watermark(state, ENGINE_WATERMARK, 5)
        with pytest.raises(ValueError, match="cannot move backwards"):
            commit_watermark(state, ENGINE_WATERMARK, 4)

    def test_direct_fold_cannot_advance_further(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        engine.fold(zonedb)
        assert engine.zonedb is zonedb
        assert engine.watermark == DeltaView(zonedb).last_batch_day()
        assert engine.advance_from(zonedb) == 0
        longer, _whois = _mini_inputs()
        longer.set_delegation(7, "beta.biz", ["ns1.alpha.biz"])
        with pytest.raises(ValueError, match="cannot advance"):
            engine.advance_from(longer)
        with pytest.raises(ValueError, match="fresh engine"):
            engine.fold(zonedb)


class TestSerialization:
    def test_dump_restore_round_trip_matches(self, world, batch_digest):
        data = dump_engine_state(_drained_engine(world.zonedb, world.whois).state)
        fresh = IncrementalDetectionEngine(world.whois)
        watermark = fresh.restore(world.zonedb, load_engine_state(data))
        assert watermark == DeltaView(world.zonedb).last_batch_day()
        assert fresh.watermark == watermark
        assert result_digest(fresh.result()) == batch_digest

    def test_dump_is_deterministic(self):
        zonedb, whois = _mini_inputs()
        first = IncrementalDetectionEngine(whois)
        first.advance_from(zonedb)
        second = IncrementalDetectionEngine(whois)
        second.advance_from(zonedb)
        assert dump_engine_state(first.state) == dump_engine_state(second.state)

    def test_restore_requires_fresh_engine(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        engine.advance_from(zonedb)
        with pytest.raises(ValueError, match="fresh engine"):
            engine.restore(
                zonedb, load_engine_state(dump_engine_state(engine.state))
            )

    def test_load_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="not an engine state"):
            load_engine_state(pickle.dumps({"format": "something-else/1"}))

    def test_restored_engine_continues_advancing(self):
        zonedb, whois = _mini_inputs()
        batches = DeltaView(zonedb).batches()
        partial = IncrementalDetectionEngine(whois)
        for batch_day, _events in batches[:-2]:
            partial.advance_from(zonedb, until=batch_day)
        fresh = IncrementalDetectionEngine(whois)
        fresh.restore(zonedb, load_engine_state(dump_engine_state(partial.state)))
        fresh.advance_from(zonedb)
        batch = DetectionPipeline(zonedb, whois).run()
        assert result_digest(fresh.result()) == result_digest(batch)


class TestIncrementalRunner:
    def test_fresh_run_matches_batch(self, world, batch_digest, tmp_path):
        outcome = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        assert outcome.result_digest == batch_digest
        assert outcome.days_advanced > 0
        assert not outcome.resumed
        assert outcome.watermark == DeltaView(world.zonedb).last_batch_day()

    def test_sqlite_engine_backend_matches_batch(
        self, world, dataset, batch_digest, tmp_path
    ):
        """The runner's fold evaluates a SQLite dataset directly."""
        zonedb = open_dataset(dataset)
        try:
            outcome = run_incremental_detection(
                zonedb, world.whois, run_dir=tmp_path / "run"
            )
        finally:
            zonedb.close()
        assert outcome.result_digest == batch_digest

    def test_resume_folds_exactly_the_new_days(self, world, batch_digest, tmp_path):
        view = DeltaView(world.zonedb)
        total = len(view.batches())
        midpoint = view.batches()[total // 2][0]
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run", until=midpoint
        )
        assert first.watermark == midpoint
        second = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run",
            resume=first.run_id,
        )
        assert second.resumed
        assert second.restored_watermark == midpoint
        assert second.days_advanced == total - (total // 2 + 1)
        assert second.result_digest == batch_digest

    def test_current_run_replays_recorded_result(self, world, tmp_path):
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        replay = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run",
            resume=first.run_id,
        )
        assert replay.resumed
        assert replay.days_advanced == 0
        assert replay.result_digest == first.result_digest

    def test_existing_journal_requires_resume(self, world, tmp_path):
        run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        with pytest.raises(RunFailed, match="already holds a journal"):
            run_incremental_detection(
                world.zonedb, world.whois, run_dir=tmp_path / "run"
            )

    def test_resume_detects_changed_inputs(self, world, tmp_path):
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        with pytest.raises(RunFailed, match="run inputs changed"):
            run_incremental_detection(
                world.zonedb, world.whois, run_dir=tmp_path / "run",
                mine_patterns=False, resume=first.run_id,
            )

    def _journaled_resets(self, run_dir):
        journal = RunJournal.open(run_dir / JOURNAL_NAME)
        return [r.payload["reason"] for r in journal.events("engine-reset")]

    def test_drain_journals_one_day_advanced(self, world, tmp_path):
        outcome = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        journal = RunJournal.open(tmp_path / "run" / JOURNAL_NAME)
        records = list(journal.events("day-advanced"))
        assert len(records) == 1
        assert records[0].payload["day"] == outcome.watermark
        assert records[0].payload["deltas_applied"] == outcome.deltas_applied
        assert outcome.days_advanced == len(DeltaView(world.zonedb).batches())

    def test_kill_mid_drain_keeps_previous_drain_durable(
        self, world, batch_digest, tmp_path
    ):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, until=midpoint
        )
        journal_path = run_dir / JOURNAL_NAME
        checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
        journal_before = journal_path.read_bytes()
        checkpoint_before = checkpoint.read_bytes()
        # Kill at the first day: boundary of the next drain.
        monkey = ChaosMonkey(
            ProcessChaosConfig(kill_worker_rate=1.0, max_kills=1)
        )
        with pytest.raises(ChaosKill) as killed:
            run_incremental_detection(
                world.zonedb, world.whois, run_dir=run_dir,
                resume=first.run_id, chaos=monkey,
            )
        assert killed.value.label.startswith("day:")
        assert journal_path.read_bytes() == journal_before
        assert checkpoint.read_bytes() == checkpoint_before
        resumed = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert resumed.restored_watermark == midpoint
        assert resumed.result_digest == batch_digest

    def test_v1_checkpoint_resets_and_refolds(self, world, tmp_path):
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir
        )
        # A checkpoint in the first format: a pickle, derived counts
        # included.
        checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
        payload = json.loads(checkpoint.read_bytes())
        min_length, max_length = payload["mine_lengths"]
        names = Counter(dict(payload["mine_names"])).elements()
        payload["format"] = "riskybiz-engine-state/1"
        payload["mine_counts"] = sorted(
            naive_substring_counts(names, min_length, max_length).items()
        )
        checkpoint.write_bytes(pickle.dumps(payload))
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert self._journaled_resets(run_dir) == ["checkpoint-unreadable"]
        assert again.restored_watermark is None
        assert again.days_advanced == first.days_advanced
        assert again.result_digest == first.result_digest

    def test_corrupt_checkpoint_resets_and_refolds(self, world, tmp_path):
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir
        )
        checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
        checkpoint.write_bytes(b"garbage")
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert again.restored_watermark is None
        assert again.days_advanced > 0  # full deterministic refold
        assert again.result_digest == first.result_digest
        assert self._journaled_resets(run_dir) == ["checkpoint-unreadable"]

    def test_missing_checkpoint_resets_and_refolds(self, world, tmp_path):
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir
        )
        (run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME).unlink()
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert again.result_digest == first.result_digest
        assert self._journaled_resets(run_dir) == ["checkpoint-missing"]

    def test_stale_checkpoint_behind_journal_resets(self, world, tmp_path):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, until=midpoint
        )
        checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
        stale = dump_engine_state(
            _drained_engine_until(world, view.batches()[0][0]).state
        )
        checkpoint.write_bytes(stale)
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert self._journaled_resets(run_dir) == ["checkpoint-behind-journal"]
        batch = DetectionPipeline(world.zonedb, world.whois).run()
        assert again.result_digest == result_digest(batch)


def _drained_engine_until(world, until: int) -> IncrementalDetectionEngine:
    engine = IncrementalDetectionEngine(world.whois)
    engine.advance_from(world.zonedb, until=until)
    return engine


def _run_dir_bytes(run_dir) -> dict:
    return {
        path: path.read_bytes() for path in sorted(run_dir.rglob("*")) if path.is_file()
    }


class TestWhoisInput:
    """A run is bound to the WHOIS archive it started with."""

    def test_resume_without_the_runs_whois_is_refused(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(
            ["simulate", "--seed", "7", "--scale", "0.05", "--out", str(sim)]
        ) == 0
        dataset, whois = sim / "dataset.sqlite", sim / "whois.jsonl"
        run_dir = tmp_path / "run"
        assert main([
            "advance", "--dataset", str(dataset), "--whois", str(whois),
            "--run-dir", str(run_dir), "--until", "1500",
        ]) == 0
        before = _run_dir_bytes(run_dir)
        capsys.readouterr()
        assert main(
            ["advance", "--dataset", str(dataset), "--run-dir", str(run_dir)]
        ) == 1
        error = capsys.readouterr().err
        assert "WHOIS input changed" in error
        assert WhoisArchive.load(whois).sha256() in error
        assert WhoisArchive().sha256() in error
        assert _run_dir_bytes(run_dir) == before

    def test_a_refused_resume_changes_no_byte(self, tmp_path):
        """Every refusal comes before the run directory is touched: a
        torn journal tail stays uncut and a stale file undeleted."""
        zonedb, whois = _mini_inputs()
        whois.record_registration("alpha.biz", "registrar-a", day=0)
        run_dir = tmp_path / "run"
        first = run_incremental_detection(zonedb, whois, run_dir=run_dir, until=3)
        with open(run_dir / JOURNAL_NAME, "ab") as handle:
            handle.write(b'{"checksum": "torn')
        (run_dir / STALE_NAMES[-1]).write_bytes(b"stale")
        before = _run_dir_bytes(run_dir)
        refusals = [
            ("WHOIS input changed", {"resume": first.run_id, "whois": WhoisArchive()}),
            ("journal belongs to", {"resume": "run-other"}),
            ("run inputs changed", {"resume": first.run_id, "mine_patterns": False}),
        ]
        for message, overrides in refusals:
            kwargs = {"whois": whois, "run_dir": run_dir, **overrides}
            with pytest.raises(RunFailed, match=message):
                run_incremental_detection(zonedb, **kwargs)
            assert _run_dir_bytes(run_dir) == before

    def test_a_run_journaled_without_a_digest_adopts_its_resumes(
        self, tmp_path, capsys
    ):
        """A run directory written before WHOIS digests were journaled
        keeps its run ID, journals the digest it resumes with and then
        refuses another archive."""
        zonedb, whois = _mini_inputs()
        whois.record_registration("alpha.biz", "registrar-a", day=0)
        run_dir = tmp_path / "run"
        first = run_incremental_detection(zonedb, whois, run_dir=run_dir, until=3)
        journal = RunJournal.open(run_dir / JOURNAL_NAME)
        records = list(journal.records)
        (config,) = [record for record in records if record.type == "run-config"]
        assert config.payload.pop("whois_sha256") == whois.sha256()
        (run_dir / JOURNAL_NAME).unlink()
        legacy = RunJournal.create(run_dir / JOURNAL_NAME, first.run_id)
        for record in records[1:]:
            legacy.append(record.type, **record.payload)
        capsys.readouterr()
        again = run_incremental_detection(
            zonedb, whois, run_dir=run_dir, resume=first.run_id
        )
        assert "journaled no WHOIS digest" in capsys.readouterr().err
        assert again.run_id == first.run_id
        assert again.result_digest == result_digest(
            DetectionPipeline(zonedb, whois).run()
        )
        assert RunJournal.open(run_dir / JOURNAL_NAME).last("run-config").payload[
            "whois_sha256"
        ] == whois.sha256()
        with pytest.raises(RunFailed, match="WHOIS input changed"):
            run_incremental_detection(
                zonedb, WhoisArchive(), run_dir=run_dir, resume=first.run_id
            )


class TestDailyCadence:
    """A standing run advanced one recorded batch day per invocation, as
    a daily job does, over the SQLite dataset."""

    #: (until, SHA-256 of checkpoints/engine-state.json) after
    #: ``advance --until`` at the middle batch day and after each of the
    #: next three one-day advances, computed by the code that rebuilt
    #: the store by replaying every delta on each resume.
    PINS = [
        (1580, "c99a1304d371f73e5794852f0f62d7d308a29167b6d0361c7fbd8c10e176a9db"),
        (1586, "1321c25487be00a74950040b9b29e6b64009e2f5a2f320b3c05c60620ed5cfe6"),
        (1591, "72c025fe3c757397e911e70cff4410b325ec129649c125fba94214517beb26fc"),
        (1596, "99220d81479dca9bb74d0619f45bcc991dd800fc32ec777a283c86e9f01947a3"),
    ]

    @pytest.fixture
    def inputs(self, world, tmp_path):
        """A private copy of the dataset, the WHOIS file and its batch days."""
        path = write_dataset(
            world.zonedb, tmp_path / "dataset.sqlite", scenario_digest="ab" * 32
        )
        whois = tmp_path / "whois.jsonl"
        world.whois.dump(whois)
        zonedb = open_dataset(path)
        days = [day for day, _events in DeltaView(zonedb).batches()]
        zonedb.close()
        return path, whois, days

    def _advance(self, inputs, run_dir, until):
        path, whois, _days = inputs
        return main([
            "advance", "--dataset", str(path), "--whois", str(whois),
            "--run-dir", str(run_dir), "--until", str(until), "--mine-patterns",
        ])

    def test_checkpoints_are_pinned(self, inputs, tmp_path, capsys):
        days = inputs[2]
        assert days[len(days) // 2] == self.PINS[0][0]
        run_dir = tmp_path / "run"
        checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
        for index, (until, sha256) in enumerate(self.PINS):
            assert self._advance(inputs, run_dir, until) == 0
            if index:
                assert "advanced 1 day(s)" in capsys.readouterr().err
            assert hashlib.sha256(checkpoint.read_bytes()).hexdigest() == sha256

    def test_resume_reads_no_delta_at_or_before_its_watermark(
        self, world, inputs, tmp_path
    ):
        """Apart from the one scan that picks the path, a resumed
        one-day advance reads only the deltas past its watermark."""
        path, _whois, days = inputs
        watermark, until = days[len(days) // 2], days[len(days) // 2 + 1]
        zonedb = open_dataset(path)
        try:
            first = run_incremental_detection(
                zonedb, world.whois, run_dir=tmp_path / "run", until=watermark
            )
            store = zonedb.store
            windows: list[tuple[str, int | None, int | None]] = []
            scans: list[object] = []
            for method in ("deltas_since", "delta_stats"):
                def spy(day, until=None, _read=getattr(store, method), _method=method):
                    windows.append((_method, day, until))
                    return _read(day, until)
                setattr(store, method, spy)
            scan = store.scan_deltas
            store.scan_deltas = lambda: scans.append(scan()) or scans[-1]
            outcome = run_incremental_detection(
                zonedb, world.whois, run_dir=tmp_path / "run",
                until=until, resume=first.run_id,
            )
        finally:
            zonedb.close()
        assert outcome.days_advanced == 1
        assert len(scans) == 1 and scans[0] is not None
        assert ("deltas_since", watermark, until) in windows
        assert all(day is not None and day >= watermark for _m, day, _u in windows)

    def test_resumed_advance_opens_its_journal_once(
        self, inputs, tmp_path, monkeypatch, capsys
    ):
        days = inputs[2]
        run_dir = tmp_path / "run"
        assert self._advance(inputs, run_dir, days[len(days) // 2]) == 0
        opened: list[object] = []
        replay = RunJournal.open.__func__

        def spy(cls, path, **kwargs):
            opened.append(path)
            return replay(cls, path, **kwargs)

        monkeypatch.setattr(RunJournal, "open", classmethod(spy))
        assert self._advance(inputs, run_dir, days[len(days) // 2 + 1]) == 0
        assert "advanced 1 day(s)" in capsys.readouterr().err
        assert opened == [run_dir / JOURNAL_NAME]

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: b"", "no verifiable records"),
            (lambda data: b"x" + data, "record 0 failed verification"),
            (
                lambda data: data.replace(b'"run-config"', b'"run-sneaky"'),
                "record 1 failed verification",
            ),
        ],
        ids=["empty", "damaged-run-start", "damaged-later-record"],
    )
    def test_damaged_journal_is_refused_by_name(
        self, inputs, tmp_path, capsys, damage, message
    ):
        days = inputs[2]
        run_dir = tmp_path / "run"
        assert self._advance(inputs, run_dir, days[len(days) // 2]) == 0
        journal = run_dir / JOURNAL_NAME
        journal.write_bytes(damage(journal.read_bytes()))
        capsys.readouterr()
        assert self._advance(inputs, run_dir, days[len(days) // 2 + 1]) == 1
        assert message in capsys.readouterr().err

    def test_foreign_inputs_are_refused(self, inputs, tmp_path, capsys):
        path, whois, days = inputs
        run_dir = tmp_path / "run"
        assert self._advance(inputs, run_dir, days[len(days) // 2]) == 0
        capsys.readouterr()
        assert main([
            "advance", "--dataset", str(path), "--whois", str(whois),
            "--run-dir", str(run_dir),
        ]) == 1
        assert "run inputs changed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plant, message",
        [
            (
                "UPDATE deltas SET ns = NULL WHERE seq = (SELECT MIN(seq) "
                "FROM deltas WHERE kind = 'delegation-add')",
                "delegation-add delta for .* has no nameserver",
            ),
            (
                "UPDATE deltas SET kind = 'bogus-kind' WHERE seq = (SELECT "
                "MIN(seq) FROM deltas WHERE kind = 'glue-add')",
                "unknown delta kind 'bogus-kind'",
            ),
        ],
        ids=["null-ns", "unknown-kind"],
    )
    def test_malformed_row_deep_in_history_still_fails(
        self, inputs, tmp_path, plant, message
    ):
        path, _whois, days = inputs
        run_dir = tmp_path / "run"
        assert self._advance(inputs, run_dir, days[len(days) // 2]) == 0
        connection = sqlite3.connect(path)
        with connection:
            assert connection.execute(plant).rowcount == 1
        connection.close()
        with pytest.raises(ValueError, match=message):
            self._advance(inputs, run_dir, days[len(days) // 2 + 1])
