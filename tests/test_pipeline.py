"""End-to-end detection pipeline tests, validated against ground truth.

The pipeline sees only the observable data (zone database + WHOIS); the
simulator's event log says what actually happened. On the shared worlds
the two must agree exactly.
"""

import collections

import pytest

from repro.detection.idioms import (
    IdiomClass,
    IdiomClassifier,
    classify_match,
    known_classifiers,
)
from repro.detection.incremental import IncrementalDetectionEngine
from repro.detection.pipeline import DetectionPipeline
from repro.runner.execution import result_digest
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase


@pytest.fixture(scope="module")
def outcome(tiny_bundle):
    return tiny_bundle.world, tiny_bundle.pipeline


class TestGroundTruthParity:
    def test_every_rename_detected(self, outcome):
        world, result = outcome
        truth = {r.new_name for r in world.log.renames}
        detected = {s.name for s in result.sacrificial}
        assert truth - detected == set()

    def test_no_false_positives(self, outcome):
        world, result = outcome
        truth = {r.new_name for r in world.log.renames}
        detected = {s.name for s in result.sacrificial}
        assert detected - truth == set()

    # Detection-side idiom ids use the paper's table labels, which differ
    # cosmetically from the simulator-side idiom ids for two families.
    LABEL_ALIASES = {
        "XXXXX.BIZ": "XXXXX.{BIZ, COM}",
        "LAMEDELEGATIONSERVERS.COM": "LAMEDELEGATIONSERVERS.{COM, NET}",
    }

    def test_idiom_attribution_matches(self, outcome):
        world, result = outcome
        truth = world.log.renames_by_new_name()
        for entry in result.sacrificial:
            truth_id = truth[entry.name].idiom_id
            expected = self.LABEL_ALIASES.get(truth_id, truth_id)
            assert entry.idiom_id == expected

    def test_registrar_attribution_matches(self, outcome):
        world, result = outcome
        truth = world.log.renames_by_new_name()
        for entry in result.sacrificial:
            assert entry.registrar == truth[entry.name].registrar, entry.name

    def test_hijackable_classification_matches(self, outcome):
        world, result = outcome
        truth = world.log.renames_by_new_name()
        for entry in result.sacrificial:
            if not entry.collision:
                assert entry.hijackable == truth[entry.name].hijackable

    def test_created_day_matches(self, outcome):
        world, result = outcome
        truth = world.log.renames_by_new_name()
        for entry in result.sacrificial:
            assert entry.created_day == truth[entry.name].day


class TestFunnel:
    def test_funnel_monotonic(self, outcome):
        _world, result = outcome
        funnel = result.funnel
        assert funnel.total_nameservers >= funnel.candidates
        assert funnel.candidates >= funnel.test_removed
        assert funnel.sacrificial_total == (
            funnel.pattern_classified + funnel.match_classified
        )

    def test_test_ns_removed(self, outcome):
        world, result = outcome
        assert result.funnel.test_removed == 2 * world.config.test_ns_count

    def test_single_repo_eliminations_nonzero(self, default_bundle):
        # Cross-repository typo noise is sparse at 1:1000 scale, so the
        # elimination-count assertion runs on the full-scale world.
        assert default_bundle.pipeline.funnel.single_repo_removed > 0

    def test_candidates_include_noise(self, outcome):
        """Typo nameservers inflate the candidate set beyond sacrificial."""
        world, result = outcome
        sacrificial = len([s for s in result.sacrificial])
        assert result.funnel.candidates > sacrificial

    def test_funnel_rows_render(self, outcome):
        _world, result = outcome
        rows = result.funnel.rows()
        assert len(rows) == 8
        assert all(isinstance(count, int) for _label, count in rows)


class TestReopenedDataset:
    def test_reopened_sqlite_dataset_matches(self, tiny_bundle, tmp_path):
        """simulate → write dataset → reopen → detect: identical result,
        and the dataset's bytes still match its manifest afterwards."""
        from repro.runner.execution import result_fingerprint
        from repro.store.artifacts import scenario_digest
        from repro.store.dataset import open_dataset, write_dataset
        from repro.store.verify import verify_dataset

        world = tiny_bundle.world
        path = tmp_path / "dataset.sqlite"
        write_dataset(
            world.zonedb, path, scenario_digest=scenario_digest(world.config)
        )
        zonedb = open_dataset(path)
        reopened = DetectionPipeline(zonedb, world.whois, mine_patterns=False).run()
        zonedb.close()
        assert result_fingerprint(reopened) == result_fingerprint(
            tiny_bundle.pipeline
        )
        assert verify_dataset(path) == []


class TestPatternMining:
    def test_miner_discovers_known_idioms(self, tiny_bundle):
        result = DetectionPipeline(
            tiny_bundle.world.zonedb, tiny_bundle.world.whois,
            mine_patterns=True,
        ).run()
        mined = " ".join(p.substring for p in result.mined_patterns)
        assert "dropthishost" in mined
        assert "emt-" in mined


class TestClassifiers:
    def test_known_classifier_ids_unique(self):
        ids = [c.idiom_id for c in known_classifiers()]
        assert len(ids) == len(set(ids))

    def test_post_remediation_flags(self):
        flagged = {
            c.idiom_id for c in known_classifiers() if c.post_remediation
        }
        assert flagged == {
            "EMPTY.AS112.ARPA", "NOTAPLACETO.BE", "DELETE-REGISTRATION.COM"
        }

    def test_sink_classifiers_not_hijackable(self):
        for classifier in known_classifiers():
            if classifier.sink_domain is not None:
                assert not classifier.hijackable

    def test_pattern_examples(self):
        by_id = {c.idiom_id: c for c in known_classifiers()}
        assert by_id["PLEASEDROPTHISHOST"].matches_name(
            "pleasedropthishostxxxxx.foo.biz"
        )
        assert by_id["DROPTHISHOST"].matches_name(
            "dropthishost-ac0fe532-ea63-4d85-a013-7b0e94c4cc04.biz"
        )
        assert by_id["DELETED-DROP"].matches_name("deleted-ab1de.drop-x1y2z3.biz")
        assert by_id["DUMMYNS.COM"].matches_name("ns2-foo-com-ab12.dummyns.com")
        assert by_id["EMPTY.AS112.ARPA"].matches_name("x-1.empty.as112.arpa")

    def test_patterns_reject_lookalikes(self):
        by_id = {c.idiom_id: c for c in known_classifiers()}
        assert not by_id["DROPTHISHOST"].matches_name("dropthishost.example.com")
        assert not by_id["DUMMYNS.COM"].matches_name("dummyns.com.evil.net")
        assert not by_id["PLEASEDROPTHISHOST"].matches_name("ns1.ordinary.biz")

    def test_first_listed_classifier_wins(self):
        """List order decides, not where in the name a pattern matches:
        ``^ns`` matches ``ns1.sink.com`` before ``\\.sink\\.com$`` does, in
        a batch fold and in a fold past a watermark."""
        classifiers = [
            IdiomClassifier(
                "SINK.COM", IdiomClass.SINK, None,
                pattern=r"\.sink\.com$", sink_domain="sink.com",
            ),
            IdiomClassifier("NS", IdiomClass.RANDOM, None, pattern=r"^ns"),
        ]
        zonedb = ZoneDatabase()
        zonedb.cover("com")
        zonedb.set_delegation(1, "a.com", ["ns1.a.com"])
        zonedb.set_delegation(3, "b.com", ["ns1.sink.com"])
        whois = WhoisArchive()
        batch = DetectionPipeline(zonedb, whois, classifiers=classifiers).run()
        engine = IncrementalDetectionEngine(whois, classifiers=classifiers)
        engine.advance_from(zonedb, until=1)
        assert engine.advance_from(zonedb) == 1
        assert result_digest(engine.result()) == result_digest(batch)
        assert batch.by_name()["ns1.sink.com"].idiom_id == "SINK.COM"
        assert batch.by_name()["ns1.a.com"].idiom_id == "NS"


class TestMatchClassification:
    def test_123_suffix(self, outcome):
        _world, result = outcome
        entries = [s for s in result.sacrificial if s.idiom_id == "123.BIZ"]
        for entry in entries:
            assert entry.registered_domain.split(".", 1)[0].endswith("123")

    def test_classify_match_split(self):
        from repro.detection.matching import MatchResult

        def match_with(candidate, original):
            return MatchResult(
                candidate=candidate, first_seen=0,
                original_ns=f"ns1.{original}", original_domain=original,
                witness_domain="w.com", registrar="enom",
            )

        assert classify_match(match_with("ns1.foo123.biz", "foo.com")) == "123.BIZ"
        assert classify_match(
            match_with("ns1.fooa1b2c3.biz", "foo.com")
        ) == "XXXXX.{BIZ, COM}"
        assert classify_match(match_with("ns1.foo.biz", "foo.com")) is None

    def test_collisions_detected(self, default_bundle):
        """PLEASEDROPTHISHOST accidents land on registered domains."""
        collisions = [
            s for s in default_bundle.pipeline.sacrificial if s.collision
        ]
        assert collisions
        assert all(
            s.idiom_id == "PLEASEDROPTHISHOST" for s in collisions
        )

    def test_namecheap_renames_detected_and_attributed(self, outcome):
        world, result = outcome
        accidental = {r.new_name for r in world.log.renames if r.accidental}
        by_name = result.by_name()
        for name in sorted(accidental):
            assert name in by_name
            assert by_name[name].original_domain == "registrar-servers.com"


class TestIdiomDistribution:
    def test_major_idioms_present(self, outcome):
        _world, result = outcome
        counts = collections.Counter(s.idiom_id for s in result.sacrificial)
        for idiom in ("PLEASEDROPTHISHOST", "DROPTHISHOST", "XXXXX.{BIZ, COM}"):
            assert counts[idiom] > 0

    def test_hijackable_helper_excludes_collisions(self, default_bundle):
        result = default_bundle.pipeline
        hijackable = result.hijackable()
        assert all(h.hijackable and not h.collision for h in hijackable)
        assert len(hijackable) < len(result.sacrificial)
