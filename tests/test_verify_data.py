"""verify-data: every recorded digest is recomputed, every lie reported."""

from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3

import pytest

from repro.faults.process import ChaosKill
from repro.runner.execution import (
    CHECKPOINT_DIR_NAME,
    ENGINE_CHECKPOINT_NAME,
    JOURNAL_NAME,
    RESULT_MANIFEST_NAME,
)
from repro.runner.journal import RunJournal
from repro.store.atomic import (
    file_sha256,
    verify_checked_json,
    write_checked_json,
)
from repro.store.verify import (
    CHECKSUM_MISMATCH,
    CORRUPT,
    HASH_MISMATCH,
    INCONSISTENT,
    MISSING,
    QUARANTINED,
    STALE,
    issues_as_json,
    render_issues,
    verify_dataset,
    verify_run_dir,
)


def kinds(issues):
    return [issue.kind for issue in issues]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, tiny_bundle):
    from repro.store.dataset import write_dataset

    path = tmp_path_factory.mktemp("verify-ds") / "dataset.sqlite"
    write_dataset(
        tiny_bundle.world.zonedb, path, scenario_digest="cd" * 32
    )
    return path


@pytest.fixture
def dataset_copy(dataset, tmp_path):
    from repro.store.dataset import manifest_path

    copy = tmp_path / "dataset.sqlite"
    shutil.copy(dataset, copy)
    shutil.copy(manifest_path(dataset), manifest_path(copy))
    return copy


class TestVerifyDataset:
    def test_clean_dataset_verifies(self, dataset_copy):
        assert verify_dataset(dataset_copy) == []

    def test_missing_dataset(self, tmp_path):
        assert kinds(verify_dataset(tmp_path / "absent.sqlite")) == [MISSING]

    def test_missing_manifest(self, dataset_copy):
        from repro.store.dataset import manifest_path

        manifest_path(dataset_copy).unlink()
        assert MISSING in kinds(verify_dataset(dataset_copy))

    def test_tampered_manifest(self, dataset_copy):
        from repro.store.dataset import manifest_path

        sidecar = manifest_path(dataset_copy)
        sidecar.write_text(sidecar.read_text().replace('"domains"', '"d0main"'))
        assert CHECKSUM_MISMATCH in kinds(verify_dataset(dataset_copy))

    def test_modified_dataset_bytes(self, dataset_copy):
        with open(dataset_copy, "ab") as handle:
            handle.write(b"\x00" * 16)
        assert HASH_MISMATCH in kinds(verify_dataset(dataset_copy))

    def test_manifest_count_disagreement(self, dataset_copy):
        from repro.store.dataset import manifest_path

        sidecar = manifest_path(dataset_copy)
        body = verify_checked_json(sidecar)
        body["domains"] = body["domains"] + 1
        write_checked_json(sidecar, body)
        assert kinds(verify_dataset(dataset_copy)) == [INCONSISTENT]

    def test_quarantine_leftovers_reported(self, dataset_copy, tmp_path):
        (tmp_path / "dataset.sqlite.manifest.json.corrupt").write_text("x")
        assert QUARANTINED in kinds(verify_dataset(dataset_copy))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, tiny_bundle):
    from repro.runner.execution import run_incremental_detection

    directory = tmp_path_factory.mktemp("verify-run") / "run"
    run_incremental_detection(
        tiny_bundle.world.zonedb, tiny_bundle.world.whois, run_dir=directory
    )
    return directory


@pytest.fixture
def run_copy(run_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return copy


class TestVerifyRunDir:
    def test_clean_run_verifies(self, run_copy):
        assert verify_run_dir(run_copy) == []

    def test_missing_journal(self, tmp_path):
        assert kinds(verify_run_dir(tmp_path)) == [MISSING]

    def test_torn_journal_is_left_unchanged(self, run_copy):
        journal = run_copy / JOURNAL_NAME
        torn = journal.read_bytes() + b'{"checksum": "torn'
        journal.write_bytes(torn)
        assert verify_run_dir(run_copy) == []
        assert journal.read_bytes() == torn

    def test_corrupt_journal(self, run_copy):
        journal = run_copy / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines[1] = lines[1].replace('"', "'", 2)
        journal.write_text("\n".join(lines) + "\n")
        assert kinds(verify_run_dir(run_copy)) == [CORRUPT]

    def test_corrupt_journal_is_named_once(self, run_copy):
        journal = run_copy / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines[1] = lines[1].replace('"', "'", 2)
        journal.write_text("\n".join(lines) + "\n")
        (issue,) = verify_run_dir(run_copy)
        assert issue.path == str(journal)
        assert issue.detail.startswith("record 1 failed verification")
        assert str(issue).count(str(journal)) == 1

    def test_only_journal_checkpoint_and_result(self, run_copy):
        files = sorted(
            str(path.relative_to(run_copy))
            for path in run_copy.rglob("*")
            if path.is_file()
        )
        assert files == sorted([
            JOURNAL_NAME,
            f"{CHECKPOINT_DIR_NAME}/{ENGINE_CHECKPOINT_NAME}",
            RESULT_MANIFEST_NAME,
        ])

    def test_corrupted_checkpoint(self, run_copy):
        checkpoint = run_copy / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
        checkpoint.write_bytes(checkpoint.read_bytes()[:-1] + b"\x00")
        assert HASH_MISMATCH in kinds(verify_run_dir(run_copy))

    def test_missing_checkpoint(self, run_copy):
        (run_copy / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME).unlink()
        assert MISSING in kinds(verify_run_dir(run_copy))

    def test_corrupted_result(self, run_copy):
        result = run_copy / RESULT_MANIFEST_NAME
        result.write_bytes(result.read_bytes()[:-2] + b"0\n")
        assert kinds(verify_run_dir(run_copy)) == [CHECKSUM_MISMATCH]

    def test_missing_result(self, run_copy):
        (run_copy / RESULT_MANIFEST_NAME).unlink()
        assert kinds(verify_run_dir(run_copy)) == [MISSING]

    def test_result_manifest_digest_disagreement(self, run_copy):
        manifest_file = run_copy / RESULT_MANIFEST_NAME
        body = verify_checked_json(manifest_file)
        body["result_digest"] = "0" * 64
        write_checked_json(manifest_file, body)
        assert INCONSISTENT in kinds(verify_run_dir(run_copy))


@pytest.fixture(scope="module")
def traced_run_dir(tmp_path_factory, tiny_bundle):
    from repro.runner.execution import run_incremental_detection

    directory = tmp_path_factory.mktemp("verify-traced") / "run"
    run_incremental_detection(
        tiny_bundle.world.zonedb,
        tiny_bundle.world.whois,
        run_dir=directory,
        trace=True,
        profile=True,
    )
    return directory


class TestVerifyTelemetry:
    """A run directory's trace and metrics snapshot are checked against
    their schemas when present."""

    @pytest.fixture
    def traced_copy(self, traced_run_dir, tmp_path):
        copy = tmp_path / "run"
        shutil.copytree(traced_run_dir, copy)
        return copy

    def test_clean_telemetry_verifies(self, traced_copy):
        assert verify_run_dir(traced_copy) == []

    def test_trace_damaged_mid_file(self, traced_copy):
        from repro.runner.execution import TRACE_NAME

        trace = traced_copy / TRACE_NAME
        lines = trace.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"run_id"', b'"run_ID"', 1)
        trace.write_bytes(b"\n".join(lines))
        (issue,) = verify_run_dir(traced_copy)
        assert (issue.kind, issue.path) == (CORRUPT, str(trace))
        assert issue.detail.startswith("record 2 failed verification")

    def test_torn_trace_tail_verifies(self, traced_copy):
        from repro.runner.execution import TRACE_NAME

        trace = traced_copy / TRACE_NAME
        trace.write_bytes(trace.read_bytes() + b'{"checksum": "torn')
        assert verify_run_dir(traced_copy) == []

    def test_malformed_metrics_snapshot(self, traced_copy):
        from repro.runner.execution import METRICS_NAME

        metrics = traced_copy / METRICS_NAME
        document = json.loads(metrics.read_text())
        document["gauges"] = []
        metrics.write_text(json.dumps(document))
        (issue,) = verify_run_dir(traced_copy)
        assert (issue.kind, issue.path) == (CORRUPT, str(metrics))
        assert issue.detail == "missing or non-object section 'gauges'"


class _KillAt:
    """Duck-typed chaos monkey that dies at one journal-append boundary."""

    def __init__(self, label: str) -> None:
        self.label = label

    def worker_boundary(self, label: str) -> None:
        pass

    def supervisor_boundary(self, label: str) -> None:
        if label == self.label:
            raise ChaosKill("supervisor", label)

    def torn_write(self, data: bytes) -> None:
        return None


@pytest.fixture
def killed_run(tiny_bundle, tmp_path):
    """A batch run killed after journaling its fold, before completing."""
    from repro.runner.execution import run_incremental_detection

    directory = tmp_path / "killed"
    with pytest.raises(ChaosKill):
        run_incremental_detection(
            tiny_bundle.world.zonedb,
            tiny_bundle.world.whois,
            run_dir=directory,
            mine_patterns=False,
            chaos=_KillAt("run-complete"),
        )
    return directory


class TestVerifyUnfinishedBatchRun:
    def _checkpoint(self, run_dir):
        return run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME

    def test_killed_run_verifies(self, killed_run):
        journal = RunJournal.open(killed_run / JOURNAL_NAME)
        assert journal.last_drain is not None
        assert journal.run_complete is None
        assert verify_run_dir(killed_run) == []

    def test_flipped_checkpoint_byte_exits_one(self, killed_run, capsys):
        from repro.cli import main

        checkpoint = self._checkpoint(killed_run)
        data = bytearray(checkpoint.read_bytes())
        data[len(data) // 2] ^= 0xFF
        checkpoint.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify-data", "--run-dir", str(killed_run)]) == 1
        assert HASH_MISMATCH in capsys.readouterr().out

    def test_missing_checkpoint(self, killed_run):
        self._checkpoint(killed_run).unlink()
        assert kinds(verify_run_dir(killed_run)) == [MISSING]

    def test_unloadable_checkpoint(self, tmp_path):
        data = b"not an engine state"
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.parent.mkdir()
        checkpoint.write_bytes(data)
        journal = RunJournal.create(tmp_path / JOURNAL_NAME, "run-verify")
        journal.append(
            "day-advanced", day=3,
            checkpoint_sha256=hashlib.sha256(data).hexdigest(),
        )
        assert kinds(verify_run_dir(tmp_path)) == [CORRUPT]

    def test_reset_leaves_nothing_to_check(self, killed_run):
        self._checkpoint(killed_run).unlink()
        journal = RunJournal.open(killed_run / JOURNAL_NAME)
        journal.append("engine-reset", reason="checkpoint-missing")
        assert verify_run_dir(killed_run) == []


@pytest.fixture
def killed_resume(tiny_bundle, tmp_path):
    """A run advanced to mid-history, then resumed and killed after
    writing ``result.json`` but before journaling ``run-complete``."""
    from repro.runner.execution import run_incremental_detection

    world = tiny_bundle.world
    directory = tmp_path / "resumed"
    first = run_incremental_detection(
        world.zonedb,
        world.whois,
        run_dir=directory,
        until=world.zonedb.horizon // 2,
        mine_patterns=False,
    )
    with pytest.raises(ChaosKill):
        run_incremental_detection(
            world.zonedb,
            world.whois,
            run_dir=directory,
            mine_patterns=False,
            resume=first.run_id,
            chaos=_KillAt("run-complete"),
        )
    return directory, first.run_id


class TestVerifyKilledResume:
    """A result written ahead of its ``run-complete`` record is no lie."""

    def test_killed_resume_verifies(self, killed_resume):
        directory, _ = killed_resume
        journal = RunJournal.open(directory / JOURNAL_NAME)
        assert journal.last_drain.seq > journal.run_complete.seq
        assert verify_run_dir(directory) == []

    def test_next_invocation_completes_and_verifies(self, killed_resume, tiny_bundle):
        from repro.runner.execution import run_incremental_detection

        directory, run_id = killed_resume
        world = tiny_bundle.world
        finished = run_incremental_detection(
            world.zonedb,
            world.whois,
            run_dir=directory,
            mine_patterns=False,
            resume=run_id,
        )
        journal = RunJournal.open(directory / JOURNAL_NAME)
        assert journal.records[-1].type == "run-complete"
        assert journal.run_complete.payload["result_digest"] == finished.result_digest
        assert verify_run_dir(directory) == []

    def test_corrupted_result_still_reported(self, killed_resume):
        directory, _ = killed_resume
        result = directory / RESULT_MANIFEST_NAME
        result.write_bytes(result.read_bytes()[:-2] + b"0\n")
        assert kinds(verify_run_dir(directory)) == [CHECKSUM_MISMATCH]


@pytest.fixture
def advanced_run(dataset_copy, tmp_path):
    """A standing incremental run directory left by ``riskybiz advance``."""
    from repro.cli import main

    directory = tmp_path / "advanced"
    assert main([
        "advance", "--dataset", str(dataset_copy), "--run-dir", str(directory),
    ]) == 0
    return directory


class TestVerifyIncrementalRunDir:
    def _checkpoint(self, run_dir):
        return run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME

    def test_clean_advance_verifies(self, advanced_run):
        assert verify_run_dir(advanced_run) == []

    def test_flipped_checkpoint_byte_exits_one(self, advanced_run, capsys):
        from repro.cli import main

        checkpoint = self._checkpoint(advanced_run)
        data = bytearray(checkpoint.read_bytes())
        data[len(data) // 2] ^= 0xFF
        checkpoint.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify-data", "--run-dir", str(advanced_run)]) == 1
        assert HASH_MISMATCH in capsys.readouterr().out

    def test_missing_engine_checkpoint(self, advanced_run):
        self._checkpoint(advanced_run).unlink()
        assert kinds(verify_run_dir(advanced_run)) == [MISSING]

    def test_unloadable_engine_checkpoint(self, tmp_path):
        data = json.dumps({"format": "riskybiz-engine-state/1"}).encode()
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.parent.mkdir()
        checkpoint.write_bytes(data)
        journal = RunJournal.create(tmp_path / JOURNAL_NAME, "run-verify")
        journal.append(
            "day-advanced", day=3,
            checkpoint_sha256=hashlib.sha256(data).hexdigest(),
        )
        assert kinds(verify_run_dir(tmp_path)) == [CORRUPT]


class TestStalePickles:
    """Pickles an older version left are reported, and the next
    ``advance`` deletes them unread."""

    def _plant(self, run_dir):
        planted = [
            run_dir / CHECKPOINT_DIR_NAME / "engine-state.pkl",
            run_dir / "result.pkl",
        ]
        for path in planted:
            path.write_bytes(b"not a pickle anything may load")
        return planted

    def test_leftovers_are_reported_stale(self, advanced_run, capsys):
        from repro.cli import main

        planted = self._plant(advanced_run)
        issues = verify_run_dir(advanced_run)
        assert kinds(issues) == [STALE, STALE]
        assert sorted(issue.path for issue in issues) == sorted(map(str, planted))
        capsys.readouterr()
        assert main(["verify-data", "--run-dir", str(advanced_run)]) == 1
        assert STALE in capsys.readouterr().out

    def test_advance_deletes_them_and_verifies_clean(
        self, advanced_run, dataset_copy
    ):
        from repro.cli import main

        planted = self._plant(advanced_run)
        journal = RunJournal.open(advanced_run / JOURNAL_NAME)
        assert main([
            "advance", "--dataset", str(dataset_copy),
            "--run-dir", str(advanced_run),
        ]) == 0
        assert not any(path.exists() for path in planted)
        assert verify_run_dir(advanced_run) == []
        again = RunJournal.open(advanced_run / JOURNAL_NAME)
        assert not list(again.events("engine-reset"))
        assert len(again.records) == len(journal.records)


class TestSourceDatasetIsReadOnly:
    """Detection reads the dataset and writes only its run directory."""

    def test_advance_and_detect_leave_dataset_bytes_unchanged(
        self, dataset_copy, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.store.dataset import DeltaView, open_dataset

        before = file_sha256(dataset_copy)
        zonedb = open_dataset(dataset_copy)
        days = [day for day, _ in DeltaView(zonedb).batches()]
        zonedb.close()
        midpoint = ["--until", str(days[len(days) // 2])]
        for argv in (
            ["advance", "--run-dir", str(tmp_path / "standing")] + midpoint,
            ["advance", "--run-dir", str(tmp_path / "standing")],
            ["detect"],
        ):
            assert main(argv + ["--dataset", str(dataset_copy)]) == 0
            assert file_sha256(dataset_copy) == before, argv
            assert verify_dataset(dataset_copy) == [], argv
        capsys.readouterr()

    def test_write_through_open_dataset_raises(self, dataset_copy):
        from repro.store.dataset import open_dataset

        before = file_sha256(dataset_copy)
        zonedb = open_dataset(dataset_copy)
        try:
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                zonedb.set_glue(zonedb.horizon + 1, "ns1.readonly.biz")
        finally:
            zonedb.store.close()
        assert file_sha256(dataset_copy) == before


class TestRendering:
    def test_all_clear_message(self):
        assert "all checks passed" in render_issues([])

    def test_json_round_trips(self, run_copy):
        (run_copy / RESULT_MANIFEST_NAME).write_bytes(b"junk")
        issues = verify_run_dir(run_copy)
        document = json.loads(issues_as_json(issues))
        assert document
        assert {"kind", "path", "detail"} <= set(document[0])


class TestVerifyDataCli:
    def test_no_targets_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["verify-data"]) == 2
        assert "nothing to verify" in capsys.readouterr().err

    def test_clean_targets_exit_zero(self, dataset_copy, run_copy, capsys):
        from repro.cli import main

        code = main([
            "verify-data",
            "--dataset", str(dataset_copy),
            "--run-dir", str(run_copy),
        ])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_corruption_exits_one(self, dataset_copy, capsys):
        from repro.cli import main
        from repro.store.dataset import manifest_path

        sidecar = manifest_path(dataset_copy)
        sidecar.write_text(sidecar.read_text().replace('"domains"', '"dom"'))
        assert main(["verify-data", "--dataset", str(dataset_copy)]) == 1
        assert CHECKSUM_MISMATCH in capsys.readouterr().out

    def test_dropped_delta_rows_exit_one(self, dataset_copy, capsys):
        """A load that lost rows is caught even under a matching hash."""
        from repro.cli import main
        from repro.store.dataset import manifest_path

        connection = sqlite3.connect(dataset_copy)
        with connection:
            connection.execute(
                "DELETE FROM deltas WHERE seq > (SELECT MAX(seq) - 3 FROM deltas)"
            )
        connection.close()
        sidecar = manifest_path(dataset_copy)
        body = verify_checked_json(sidecar)
        body["dataset_sha256"] = file_sha256(dataset_copy)
        write_checked_json(sidecar, body)
        issues = verify_dataset(dataset_copy)
        assert kinds(issues) == [INCONSISTENT]
        assert issues[0].detail == (
            f"deltas: store has {body['deltas'] - 3}, manifest says "
            f"{body['deltas']}"
        )
        assert main(["verify-data", "--dataset", str(dataset_copy)]) == 1
        assert "deltas" in capsys.readouterr().out

    def test_json_format(self, dataset_copy, capsys):
        from repro.cli import main

        with open(dataset_copy, "ab") as handle:
            handle.write(b"\x00")
        code = main([
            "verify-data", "--dataset", str(dataset_copy), "--format", "json",
        ])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert any(issue["kind"] == HASH_MISMATCH for issue in document)
