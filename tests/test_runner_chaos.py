"""Kill-anywhere + resume = bit-identical, on both store backends.

The exhaustive test enumerates every chaos boundary a supervised run
crosses (stage boundaries, journal appends, torn journal writes) and
kills the run at each one in turn; every resumed run must reproduce the
uninterrupted result digest exactly and leave a run directory that
verifies clean. The randomized trials drive the
same claim through the seeded harness with a full kill budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.detection.pipeline import DetectionPipeline
from repro.faults.process import ChaosKill
from repro.runner.chaos_harness import BACKENDS, run_kill_resume_trial
from repro.runner.execution import run_supervised_detection
from repro.runner.journal import RunJournal
from repro.runner.supervisor import RunFailed
from repro.store.verify import verify_run_dir

SCALE = 0.06
SEED = 2021


class BoundaryKiller:
    """Duck-typed chaos monkey that kills exactly once, at boundary ``nth``.

    Boundaries are counted across all three sites in program order, so
    sweeping ``nth`` over ``[0, total)`` kills the run at every place a
    real crash could land. ``nth=None`` never kills — a counting probe.
    """

    def __init__(self, nth: int | None = None) -> None:
        self.nth = nth
        self.crossed = 0
        self.sites: set[str] = set()
        self.killed_at: tuple[str, str] | None = None

    def _cross(self, site: str, label: str) -> bool:
        index = self.crossed
        self.crossed += 1
        self.sites.add(site)
        if self.nth is not None and self.killed_at is None and index == self.nth:
            self.killed_at = (site, label)
            return True
        return False

    def worker_boundary(self, label: str) -> None:
        if self._cross("worker", label):
            raise ChaosKill("worker", label)

    def supervisor_boundary(self, label: str) -> None:
        if self._cross("supervisor", label):
            raise ChaosKill("supervisor", label)

    def torn_write(self, data: bytes) -> int | None:
        if self._cross("torn", "journal-append"):
            return max(1, len(data) // 2) if len(data) >= 2 else 0
        return None


@dataclass(frozen=True)
class Inputs:
    backend: str
    zonedb: object
    whois: object


@pytest.fixture(scope="module")
def world():
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World

    return World(default_scenario(SEED).scaled(SCALE)).run()


@pytest.fixture(scope="module")
def sqlite_inputs(world, tmp_path_factory):
    from repro.ecosystem.config import default_scenario
    from repro.store.artifacts import scenario_digest
    from repro.store.dataset import open_dataset, write_dataset
    from repro.whois.archive import WhoisArchive

    root = tmp_path_factory.mktemp("sqlite-inputs")
    config = default_scenario(SEED).scaled(SCALE)
    dataset_path = write_dataset(
        world.zonedb,
        root / "dataset.sqlite",
        scenario_digest=scenario_digest(config),
    )
    whois_path = root / "whois.jsonl"
    world.whois.dump(whois_path)
    return Inputs(
        "sqlite", open_dataset(dataset_path), WhoisArchive.load(whois_path)
    )


@pytest.fixture(scope="module", params=list(BACKENDS))
def inputs(request, world, sqlite_inputs):
    if request.param == "memory":
        return Inputs("memory", world.zonedb, world.whois)
    return sqlite_inputs


@pytest.fixture(scope="module")
def baseline(inputs, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp(f"baseline-{inputs.backend}")
    return run_supervised_detection(
        inputs.zonedb, inputs.whois, run_dir=run_dir / "run"
    )


class TestKillAnywhere:
    def test_kill_at_every_boundary_resumes_bit_identical(
        self, inputs, baseline, tmp_path
    ):
        probe = BoundaryKiller(nth=None)
        run_supervised_detection(
            inputs.zonedb,
            inputs.whois,
            run_dir=tmp_path / "probe",
            chaos=probe,
        )
        total = probe.crossed
        # Sanity: the sweep actually covers stage, append, and torn sites.
        assert probe.sites == {"worker", "supervisor", "torn"}
        assert total > 3 * len(DetectionPipeline.STAGES)

        for nth in range(total):
            killer = BoundaryKiller(nth=nth)
            run_dir = tmp_path / f"kill-{nth:03d}"
            with pytest.raises(ChaosKill):
                run_supervised_detection(
                    inputs.zonedb,
                    inputs.whois,
                    run_dir=run_dir,
                    chaos=killer,
                )
            assert killer.killed_at is not None
            run_id = RunJournal.open(run_dir / "journal.jsonl").run_id
            resumed = run_supervised_detection(
                inputs.zonedb,
                inputs.whois,
                run_dir=run_dir,
                resume=run_id,
            )
            assert resumed.result_digest == baseline.result_digest, (
                nth,
                killer.killed_at,
            )
            issues = [str(issue) for issue in verify_run_dir(run_dir)]
            assert not issues, (nth, killer.killed_at, issues)


class TestRandomizedTrials:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_kill_budget_trial_passes(self, backend, tmp_path):
        report = run_kill_resume_trial(
            workdir=tmp_path,
            scale=SCALE,
            seed=SEED,
            backend=backend,
            chaos_seed=7,
            max_kills=5,
        )
        assert report.kills >= 5
        assert report.resumes == report.kills
        assert report.bit_identical, (report.baseline_digest, report.chaos_digest)
        assert report.passed, report.verify_issues


class TestResumeSemantics:
    def _run(self, inputs, run_dir, **kwargs):
        return run_supervised_detection(
            inputs.zonedb, inputs.whois, run_dir=run_dir, **kwargs
        )

    def test_completed_run_replays_without_reexecution(self, world, tmp_path):
        inputs = Inputs("memory", world.zonedb, world.whois)
        first = self._run(inputs, tmp_path / "run")
        journaled = len(RunJournal.open(first.journal_path).records)
        replay = self._run(inputs, tmp_path / "run", resume=first.run_id)
        assert replay.resumed
        assert len(RunJournal.open(first.journal_path).records) == journaled
        assert replay.result_digest == first.result_digest

    def test_existing_journal_requires_resume(self, world, tmp_path):
        inputs = Inputs("memory", world.zonedb, world.whois)
        self._run(inputs, tmp_path / "run")
        with pytest.raises(RunFailed, match="already holds a journal"):
            self._run(inputs, tmp_path / "run")

    def test_resume_rejects_wrong_run_id(self, world, tmp_path):
        inputs = Inputs("memory", world.zonedb, world.whois)
        self._run(inputs, tmp_path / "run")
        with pytest.raises(RunFailed, match="belongs to"):
            self._run(inputs, tmp_path / "run", resume="run-bogus")

    def test_resume_without_journal_fails(self, world, tmp_path):
        inputs = Inputs("memory", world.zonedb, world.whois)
        with pytest.raises(RunFailed, match="nothing to resume"):
            self._run(inputs, tmp_path / "run", resume="run-bogus")

    def test_checkpoint_the_journal_did_not_hash_is_reset(self, world, tmp_path):
        """A checkpoint that still loads but is not the one the newest
        stage-complete hashed is quarantined, and the stages rerun."""
        from repro.detection.pipeline import (
            dump_pipeline_state,
            load_pipeline_state,
        )
        from repro.runner.execution import (
            CHECKPOINT_DIR_NAME,
            PIPELINE_CHECKPOINT_NAME,
            RESULT_NAME,
        )

        inputs = Inputs("memory", world.zonedb, world.whois)
        first = self._run(inputs, tmp_path / "run")
        checkpoint = (
            tmp_path / "run" / CHECKPOINT_DIR_NAME / PIPELINE_CHECKPOINT_NAME
        )
        state = load_pipeline_state(checkpoint.read_bytes())
        state["funnel"].candidates += 1
        checkpoint.write_bytes(dump_pipeline_state(state))
        (tmp_path / "run" / RESULT_NAME).unlink()

        resumed = self._run(inputs, tmp_path / "run", resume=first.run_id)
        assert resumed.result_digest == first.result_digest
        resets = list(RunJournal.open(first.journal_path).events("pipeline-reset"))
        assert [r.payload["reason"] for r in resets] == ["checkpoint-mismatch"]

    def test_resume_detects_changed_inputs(self, world, tmp_path):
        inputs = Inputs("memory", world.zonedb, world.whois)
        first = self._run(inputs, tmp_path / "run")
        with pytest.raises(RunFailed, match="run inputs changed"):
            run_supervised_detection(
                inputs.zonedb,
                inputs.whois,
                run_dir=tmp_path / "run",
                mine_patterns=False,
                resume=first.run_id,
            )
