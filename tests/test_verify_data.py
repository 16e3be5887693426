"""verify-data: every recorded digest is recomputed, every lie reported."""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil

import pytest

from repro.faults.process import ChaosKill
from repro.runner.execution import (
    CHECKPOINT_DIR_NAME,
    ENGINE_CHECKPOINT_NAME,
    JOURNAL_NAME,
    PIPELINE_CHECKPOINT_NAME,
)
from repro.runner.journal import RunJournal
from repro.store.atomic import verify_checked_json, write_checked_json
from repro.store.verify import (
    CHECKSUM_MISMATCH,
    CORRUPT,
    HASH_MISMATCH,
    INCONSISTENT,
    MISSING,
    ORPHANED,
    QUARANTINED,
    issues_as_json,
    render_issues,
    verify_artifact_dir,
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


class TestVerifyArtifactDir:
    def _cache(self, root):
        from repro.store.artifacts import ArtifactCache, ArtifactKey

        cache = ArtifactCache(root=root)
        key = ArtifactKey.build("verify", "ee" * 32, {"n": 1})
        cache.put(key, {"value": 7})
        return key

    def test_clean_cache_verifies(self, tmp_path):
        self._cache(tmp_path)
        assert verify_artifact_dir(tmp_path) == []

    def test_missing_directory(self, tmp_path):
        assert kinds(verify_artifact_dir(tmp_path / "absent")) == [MISSING]

    def test_orphaned_pickle(self, tmp_path):
        self._cache(tmp_path)
        (tmp_path / "stray.pkl").write_bytes(b"data")
        assert ORPHANED in kinds(verify_artifact_dir(tmp_path))

    def test_manifest_without_artifact(self, tmp_path):
        key = self._cache(tmp_path)
        (tmp_path / f"{key.basename}.pkl").unlink()
        assert ORPHANED in kinds(verify_artifact_dir(tmp_path))

    def test_corrupted_artifact_bytes(self, tmp_path):
        key = self._cache(tmp_path)
        artifact = tmp_path / f"{key.basename}.pkl"
        artifact.write_bytes(artifact.read_bytes()[:-1] + b"\x00")
        assert HASH_MISMATCH in kinds(verify_artifact_dir(tmp_path))

    def test_tampered_manifest(self, tmp_path):
        key = self._cache(tmp_path)
        sidecar = tmp_path / f"{key.basename}.json"
        sidecar.write_text(sidecar.read_text().replace("riskybiz", "r1skybiz"))
        assert CHECKSUM_MISMATCH in kinds(verify_artifact_dir(tmp_path))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, tiny_bundle):
    from repro.runner.execution import run_supervised_detection

    directory = tmp_path_factory.mktemp("verify-run") / "run"
    run_supervised_detection(
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

    def test_corrupt_journal(self, run_copy):
        journal = run_copy / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines[1] = lines[1].replace('"', "'", 2)
        journal.write_text("\n".join(lines) + "\n")
        assert kinds(verify_run_dir(run_copy)) == [CORRUPT]

    def test_corrupted_checkpoint(self, run_copy):
        checkpoint = sorted((run_copy / CHECKPOINT_DIR_NAME).glob("*.pkl"))[0]
        checkpoint.write_bytes(checkpoint.read_bytes()[:-1] + b"\x00")
        assert HASH_MISMATCH in kinds(verify_run_dir(run_copy))

    def test_missing_checkpoint(self, run_copy):
        for checkpoint in (run_copy / CHECKPOINT_DIR_NAME).glob("*.pkl"):
            checkpoint.unlink()
        assert MISSING in kinds(verify_run_dir(run_copy))

    def test_corrupted_result(self, run_copy):
        result = run_copy / "result.pkl"
        result.write_bytes(result.read_bytes()[:-1] + b"\x00")
        assert HASH_MISMATCH in kinds(verify_run_dir(run_copy))

    def test_result_manifest_digest_disagreement(self, run_copy):
        manifest_file = run_copy / "result.json"
        body = verify_checked_json(manifest_file)
        body["result_digest"] = "0" * 64
        write_checked_json(manifest_file, body)
        assert INCONSISTENT in kinds(verify_run_dir(run_copy))


class _KillAt:
    """Duck-typed chaos monkey that dies at one stage boundary."""

    def __init__(self, label: str) -> None:
        self.label = label

    def worker_boundary(self, label: str) -> None:
        if label == self.label:
            raise ChaosKill("worker", label)

    def supervisor_boundary(self, label: str) -> None:
        pass

    def torn_write(self, data: bytes) -> None:
        return None


@pytest.fixture
def killed_run(tiny_bundle, tmp_path):
    """A batch run killed right after journaling its pattern-sweep stage."""
    from repro.runner.execution import run_supervised_detection

    directory = tmp_path / "killed"
    with pytest.raises(ChaosKill):
        run_supervised_detection(
            tiny_bundle.world.zonedb,
            tiny_bundle.world.whois,
            run_dir=directory,
            mine_patterns=False,
            chaos=_KillAt("stage:single-repo"),
        )
    return directory


class TestVerifyUnfinishedBatchRun:
    def _checkpoint(self, run_dir):
        return run_dir / CHECKPOINT_DIR_NAME / PIPELINE_CHECKPOINT_NAME

    def test_killed_run_verifies(self, killed_run):
        stages = RunJournal.open(killed_run / JOURNAL_NAME).completed_stages()
        assert stages[-1].payload["stage"] == "pattern-sweep"
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
        data = b"not a pickle"
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.parent.mkdir()
        checkpoint.write_bytes(data)
        journal = RunJournal.create(tmp_path / JOURNAL_NAME, "run-verify")
        journal.append(
            "stage-complete", stage="candidates",
            checkpoint_sha256=hashlib.sha256(data).hexdigest(),
        )
        assert kinds(verify_run_dir(tmp_path)) == [CORRUPT]

    def test_reset_leaves_nothing_to_check(self, killed_run):
        self._checkpoint(killed_run).unlink()
        journal = RunJournal.open(killed_run / JOURNAL_NAME)
        journal.append("pipeline-reset", reason="checkpoint-missing")
        assert verify_run_dir(killed_run) == []


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
        data = pickle.dumps({"format": "riskybiz-engine-state/1"})
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.parent.mkdir()
        checkpoint.write_bytes(data)
        journal = RunJournal.create(tmp_path / JOURNAL_NAME, "run-verify")
        journal.append(
            "day-advanced", day=3,
            checkpoint_sha256=hashlib.sha256(data).hexdigest(),
        )
        assert kinds(verify_run_dir(tmp_path)) == [CORRUPT]


class TestRendering:
    def test_all_clear_message(self):
        assert "all checks passed" in render_issues([])

    def test_json_round_trips(self, run_copy):
        (run_copy / "result.pkl").write_bytes(b"junk")
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
