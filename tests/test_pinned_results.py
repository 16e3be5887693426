"""Pinned results: the detection outputs this code must keep reproducing.

The digests and funnels below were computed by the batch pipeline this
code replaced, which ran each stage's own batch body over the whole
store. Every way of running detection must still reproduce them
exactly: :meth:`DetectionPipeline.run`, a fresh and an already-current
``riskybiz advance``, and a drain of the recorded delta stream
that folds one batch day per call. A direct fold and a drain must also
leave byte-identical engine checkpoints, in memory and over the written
SQLite dataset.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.detection.incremental import IncrementalDetectionEngine, dump_engine_state
from repro.detection.pipeline import DetectionPipeline, PipelineFunnel
from repro.runner.execution import JOURNAL_NAME, RESULT_MANIFEST_NAME, result_digest
from repro.store.dataset import DeltaView, open_dataset, write_dataset

SEED = 2021
SCALE = 0.1

CLEAN_FUNNEL = {
    "total_nameservers": 476,
    "candidates": 234,
    "test_removed": 58,
    "pattern_classified": 135,
    "single_repo_removed": 0,
    "history_matched": 45,
    "match_classified": 45,
    "sacrificial_total": 180,
}
DEGRADED_FUNNEL = {
    "total_nameservers": 469,
    "candidates": 227,
    "test_removed": 58,
    "pattern_classified": 128,
    "single_repo_removed": 2,
    "history_matched": 44,
    "match_classified": 44,
    "sacrificial_total": 172,
}

#: (world, mine_patterns) -> (result digest, funnel, coverage degraded)
PINS = {
    ("clean", False): (
        "f428b956e4e8118cbebfefb387de62e10690ec377e86f9c432d49dbb53cd5ebb",
        CLEAN_FUNNEL,
        False,
    ),
    ("clean", True): (
        "e6e98ba26f903885bdbb699c7a3930de49476231c1d95ca11a10c70c3fdc91a9",
        CLEAN_FUNNEL,
        False,
    ),
    ("degraded", True): (
        "cb2a1b7929fca1d514f11eed8c95a37d99b1b0f98d74ac887e4e9306db1c9755",
        DEGRADED_FUNNEL,
        True,
    ),
}


@pytest.fixture(scope="module")
def worlds():
    """The clean seed-2021 world and its 10%-fault degraded view."""
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World
    from repro.faults import FaultConfig, degrade_world

    world = World(default_scenario(SEED).scaled(SCALE)).run()
    degraded = degrade_world(world, FaultConfig.uniform(0.10, seed=SEED), every=7)
    return {
        "clean": (world.zonedb, world.whois),
        "degraded": (degraded.zonedb, degraded.whois),
    }


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda key: f"{key[0]}-{key[1]}")
class TestPinnedResults:
    def test_detection_pipeline(self, worlds, key):
        digest, funnel, degraded = PINS[key]
        zonedb, whois = worlds[key[0]]
        result = DetectionPipeline(zonedb, whois, mine_patterns=key[1]).run()
        assert result_digest(result) == digest
        assert asdict(result.funnel) == funnel
        assert result.coverage.degraded is degraded

    def test_advance_cli(self, worlds, key, tmp_path, capsys):
        digest, funnel, degraded = PINS[key]
        zonedb, whois = worlds[key[0]]
        dataset = write_dataset(zonedb, tmp_path / "dataset.sqlite")
        whois_path = tmp_path / "whois.jsonl"
        whois.dump(whois_path)
        run_dir = tmp_path / "run"
        argv = [
            "advance", "--dataset", str(dataset), "--whois", str(whois_path),
            "--run-dir", str(run_dir),
        ]
        argv += ["--mine-patterns"] if key[1] else []
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        manifest = json.loads((run_dir / RESULT_MANIFEST_NAME).read_text())
        assert manifest["result_digest"] == digest
        assert manifest["sacrificial_total"] == funnel["sacrificial_total"]
        for label, count in PipelineFunnel(**funnel).rows():
            assert re.search(rf"{re.escape(label)}\s+{count}\b", fresh), label
        assert ("Data coverage and confidence" in fresh) is degraded
        assert f"Result digest: {digest}" in fresh

        # Already current: recomputed from the checkpoint, nothing new
        # journaled, the same report.
        journal = run_dir / JOURNAL_NAME
        before = journal.read_bytes()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "already current" in captured.err
        assert captured.out == fresh
        assert journal.read_bytes() == before
        manifest = json.loads((run_dir / RESULT_MANIFEST_NAME).read_text())
        assert manifest["result_digest"] == digest

    def test_day_by_day_advance(self, worlds, key):
        digest, funnel, _degraded = PINS[key]
        zonedb, whois = worlds[key[0]]
        engine = IncrementalDetectionEngine(whois, mine_patterns=key[1])
        for batch_day, _events in DeltaView(zonedb).batches():
            engine.advance_from(zonedb, until=batch_day)
        result = engine.result()
        assert result_digest(result) == digest
        assert asdict(result.funnel) == funnel


class TestDirectFoldEqualsDrain:
    """A direct fold's checkpoint is byte-identical to a drain's."""

    def _assert_identical(self, zonedb, whois):
        for mine_patterns in (False, True):
            folded = IncrementalDetectionEngine(whois, mine_patterns=mine_patterns)
            folded.fold(zonedb)
            drained = IncrementalDetectionEngine(whois, mine_patterns=mine_patterns)
            drained.advance_from(zonedb, until=folded.watermark - 1)
            drained.advance_from(zonedb)
            assert drained.watermark == folded.watermark
            assert dump_engine_state(folded.state) == dump_engine_state(
                drained.state
            )

    @pytest.mark.parametrize("name", ["clean", "degraded"])
    def test_seed_2021(self, worlds, name):
        self._assert_identical(*worlds[name])

    def test_seed_2021_sqlite_dataset(self, worlds, tmp_path):
        """Over the written dataset too, where equal strings read back
        as distinct objects."""
        zonedb, whois = worlds["clean"]
        dataset = open_dataset(write_dataset(zonedb, tmp_path / "dataset.sqlite"))
        try:
            self._assert_identical(dataset, whois)
        finally:
            dataset.close()

    def test_seed_7(self):
        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.world import World

        world = World(default_scenario(7).scaled(0.05)).run()
        self._assert_identical(world.zonedb, world.whois)
