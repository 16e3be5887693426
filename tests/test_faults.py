"""Tests for the fault-injection subsystem and its consumers.

Covers the FaultConfig/RetryPolicy value types (including the scenario
JSON round-trip), the three injectors, the resolver's retry/timeout
semantics against flaky servers, and gap-bridging ingestion.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dnscore.records import RRType
from repro.faults import (
    FaultConfig,
    FlakyBehavior,
    RetryPolicy,
    SnapshotFaultInjector,
    WhoisFaultInjector,
)
from repro.faults.config import fault_config_from_dict, fault_config_to_dict
from repro.resolver.resolver import IterativeResolver, ResolutionStatus
from repro.resolver.server import (
    AnsweringBehavior,
    NameserverBehavior,
    SilentBehavior,
    TransientServerFailure,
)
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import IngestPolicy, ZoneDatabase
from repro.zonedb.snapshot import ZoneSnapshot


class TestFaultConfig:
    def test_off_is_disabled(self):
        config = FaultConfig.off()
        assert not config.enabled
        assert not config.snapshot_faults_enabled
        assert not config.whois_faults_enabled
        assert not config.ns_faults_enabled

    def test_uniform_enables_every_plane(self):
        config = FaultConfig.uniform(0.1)
        assert config.enabled
        assert config.snapshot_faults_enabled
        assert config.whois_faults_enabled
        assert config.ns_faults_enabled
        assert config.gap_bridge_days > 0

    def test_uniform_overrides(self):
        config = FaultConfig.uniform(0.1, seed=9, gap_bridge_days=5)
        assert config.seed == 9
        assert config.gap_bridge_days == 5

    def test_dict_round_trip(self):
        config = FaultConfig.uniform(
            0.07, seed=3, retry=RetryPolicy(max_retries=4, base_timeout_ms=250)
        )
        assert fault_config_from_dict(fault_config_to_dict(config)) == config

    def test_from_none_is_disabled_default(self):
        assert fault_config_from_dict(None) == FaultConfig()

    def test_scenario_json_round_trip(self, tmp_path):
        from repro.ecosystem.config import tiny_scenario
        from repro.ecosystem.scenario_io import load_scenario, save_scenario

        config = replace(
            tiny_scenario(7),
            faults=FaultConfig.uniform(0.12, seed=21, strict=True),
        )
        path = save_scenario(config, tmp_path / "scenario.json")
        loaded = load_scenario(path)
        assert loaded.faults == config.faults
        assert loaded == config

    def test_old_scenario_files_load_without_faults_key(self, tmp_path):
        import json

        from repro.ecosystem.config import tiny_scenario
        from repro.ecosystem.scenario_io import (
            load_scenario,
            save_scenario,
            scenario_to_dict,
        )

        data = scenario_to_dict(tiny_scenario(7))
        del data["faults"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert load_scenario(path).faults == FaultConfig()


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(
            max_retries=4, base_timeout_ms=1000, backoff_factor=2.0,
            max_timeout_ms=5000,
        )
        assert [policy.timeout_for(k) for k in range(5)] == [
            1000, 2000, 4000, 5000, 5000,
        ]

    def test_attempts_counts_first_try(self):
        assert RetryPolicy(max_retries=2).attempts == 3
        assert RetryPolicy(max_retries=0).attempts == 1


def _snapshots(count: int = 10) -> list[ZoneSnapshot]:
    return [
        ZoneSnapshot(
            day=day * 7,
            tld="biz",
            delegations={
                f"domain{i}.biz": frozenset({f"ns{i}.host.com"}) for i in range(4)
            },
        )
        for day in range(count)
    ]


class TestSnapshotFaultInjector:
    def test_disabled_is_identity_without_draws(self):
        snapshots = _snapshots()
        injector = SnapshotFaultInjector(FaultConfig.off())
        out = injector.degrade(snapshots)
        assert out == snapshots
        assert injector.log.total_faults == 0
        # The drop stream was never consumed: its next draw equals a
        # fresh stream's first draw.
        from repro.faults.rng import stream_rng

        assert injector._drop_rng.random() == stream_rng(0, "snapshot.drop").random()

    def test_drop_rate_one_drops_everything(self):
        injector = SnapshotFaultInjector(FaultConfig(snapshot_drop_rate=1.0))
        assert injector.degrade(_snapshots()) == []
        assert len(injector.log.dropped) == 10

    def test_duplicate_rate_one_doubles_the_stream(self):
        injector = SnapshotFaultInjector(FaultConfig(snapshot_duplicate_rate=1.0))
        out = injector.degrade(_snapshots())
        assert len(out) == 20
        assert out[0] == out[1]

    def test_truncation_keeps_the_configured_fraction(self):
        injector = SnapshotFaultInjector(
            FaultConfig(snapshot_truncate_rate=1.0, truncate_keep_fraction=0.5)
        )
        out = injector.degrade(_snapshots())
        assert all(len(s.delegations) == 2 for s in out)
        assert len(injector.log.truncated) == 10

    def test_corruption_produces_invalid_names(self):
        injector = SnapshotFaultInjector(FaultConfig(record_corrupt_rate=1.0))
        out = injector.degrade(_snapshots(2))
        assert injector.log.corrupted
        from repro.dnscore.errors import NameError_
        from repro.dnscore.names import Name

        bad = injector.log.corrupted[0][2]
        with pytest.raises(NameError_):
            Name(bad)
        # Corrupt records are skipped and counted on ingest (lenient).
        db = ZoneDatabase()
        report = db.ingest_snapshot(out[0])
        assert report.corruption_detected
        assert report.records_skipped > 0

    def test_reordering_swaps_adjacent_deliveries(self):
        injector = SnapshotFaultInjector(FaultConfig(snapshot_reorder_rate=1.0))
        out = injector.degrade(_snapshots(4))
        days = [s.day for s in out]
        assert days == [7, 0, 21, 14]
        # Lenient ingestion skips the out-of-order deliveries.
        db = ZoneDatabase()
        for snapshot in out:
            db.ingest_snapshot(snapshot)
        rejected = [r for r in db.ingest_reports if not r.ingested]
        assert [r.reason for r in rejected] == ["out-of-order", "out-of-order"]


class TestWhoisFaultInjector:
    def _archive(self) -> WhoisArchive:
        archive = WhoisArchive()
        archive.record_registration("alpha.com", "godaddy", day=0)
        archive.record_registration("beta.com", "enom", day=10)
        archive.record_deletion("beta.com", day=50)
        archive.record_registration("gamma.com", "enom", day=20)
        archive.record_transfer("gamma.com", "godaddy", day=40)
        return archive

    def test_disabled_returns_the_input_archive(self):
        archive = self._archive()
        assert WhoisFaultInjector(FaultConfig.off()).degrade(archive) is archive

    def test_gap_rate_one_empties_the_archive(self):
        injector = WhoisFaultInjector(FaultConfig(whois_gap_rate=1.0))
        degraded = injector.degrade(self._archive())
        assert len(degraded) == 0
        assert sorted(injector.log.domains_dropped) == [
            "alpha.com", "beta.com", "gamma.com",
        ]

    def test_stale_records_never_see_deletion_or_transfers(self):
        injector = WhoisFaultInjector(FaultConfig(whois_stale_rate=1.0))
        degraded = injector.degrade(self._archive())
        beta = degraded.history("beta.com")[0]
        assert beta.deleted is None
        gamma = degraded.history("gamma.com")[0]
        assert gamma.transfers == []
        assert degraded.registrar_at("gamma.com", 60) == "enom"

    def test_degrading_copies_rather_than_aliases(self):
        archive = self._archive()
        injector = WhoisFaultInjector(FaultConfig(whois_stale_rate=1.0))
        injector.degrade(archive)
        # The pristine archive still sees the deletion and the transfer.
        assert archive.history("beta.com")[0].deleted == 50
        assert archive.registrar_at("gamma.com", 60) == "godaddy"


class _FailNTimes(NameserverBehavior):
    """Raises a transient failure for the first ``fails`` queries."""

    def __init__(self, fails: int, kind: str = "timeout", rdata: str = "192.0.2.80"):
        super().__init__()
        self.fails = fails
        self.kind = kind
        self.rdata = rdata
        self.calls = 0

    def handle(self, day, qname, qtype, source_ip):
        self.calls += 1
        if self.calls <= self.fails:
            raise TransientServerFailure(self.kind)
        return [self.rdata]


class _AlwaysSlow(NameserverBehavior):
    """Always answers, but ``latency_ms`` late."""

    def __init__(self, latency_ms: int, rdata: str = "192.0.2.80"):
        super().__init__()
        self.latency_ms = latency_ms
        self.rdata = rdata

    def handle(self, day, qname, qtype, source_ip):
        raise TransientServerFailure(
            "slow", latency_ms=self.latency_ms, answer=[self.rdata]
        )


@pytest.fixture()
def flaky_db():
    database = ZoneDatabase(["com"])
    database.set_delegation(0, "foo.com", ["ns1.foo.com"])
    database.set_glue(0, "ns1.foo.com")
    database.set_delegation(0, "bar.com", ["ns1.foo.com"])
    return database


class TestResolverRetry:
    def test_no_policy_gives_up_after_one_transient_try(self, flaky_db):
        resolver = IterativeResolver(flaky_db)
        resolver.attach_server("ns1.foo.com", _FailNTimes(1))
        result = resolver.resolve("bar.com", day=5)
        assert result.status is ResolutionStatus.TRANSIENT
        assert result.transient_failures == 1
        assert result.retries == 0

    def test_retry_succeeds_after_transient_failures(self, flaky_db):
        resolver = IterativeResolver(
            flaky_db, retry_policy=RetryPolicy(max_retries=2)
        )
        resolver.attach_server("ns1.foo.com", _FailNTimes(2))
        result = resolver.resolve("bar.com", day=5)
        assert result.ok
        assert result.answer == ["192.0.2.80"]
        assert result.retries == 2
        assert result.transient_failures == 2
        assert result.degraded

    def test_exhausted_retries_are_transient_not_lame(self, flaky_db):
        resolver = IterativeResolver(
            flaky_db, retry_policy=RetryPolicy(max_retries=1)
        )
        resolver.attach_server("ns1.foo.com", _FailNTimes(99, kind="servfail"))
        result = resolver.resolve("bar.com", day=5)
        assert result.status is ResolutionStatus.TRANSIENT
        # Transient failure does not prove lameness.
        assert not resolver.is_lame("bar.com", day=5)

    def test_true_silence_is_still_lame(self, flaky_db):
        resolver = IterativeResolver(
            flaky_db, retry_policy=RetryPolicy(max_retries=2)
        )
        # Glue exists but nobody is listening: definitive silence.
        assert resolver.resolve("bar.com", day=5).status is ResolutionStatus.LAME
        assert resolver.is_lame("bar.com", day=5)

    def test_slow_answer_accepted_once_backoff_grows_the_budget(self, flaky_db):
        policy = RetryPolicy(
            max_retries=2, base_timeout_ms=1000, backoff_factor=2.0,
            max_timeout_ms=8000,
        )
        resolver = IterativeResolver(flaky_db, retry_policy=policy)
        resolver.attach_server("ns1.foo.com", _AlwaysSlow(1500))
        result = resolver.resolve("bar.com", day=5)
        # Attempt 0 (budget 1000ms) rejects the 1500ms answer; attempt 1
        # (budget 2000ms) accepts it.
        assert result.ok
        assert result.retries == 1
        assert result.transient_failures == 1

    def test_slow_answer_over_every_budget_is_transient(self, flaky_db):
        policy = RetryPolicy(
            max_retries=1, base_timeout_ms=100, backoff_factor=2.0,
            max_timeout_ms=150,
        )
        resolver = IterativeResolver(flaky_db, retry_policy=policy)
        resolver.attach_server("ns1.foo.com", _AlwaysSlow(1500))
        result = resolver.resolve("bar.com", day=5)
        assert result.status is ResolutionStatus.TRANSIENT

    def test_wire_capture_records_each_attempt(self, flaky_db):
        resolver = IterativeResolver(
            flaky_db, capture_wire=True, retry_policy=RetryPolicy(max_retries=2)
        )
        resolver.attach_server("ns1.foo.com", _FailNTimes(2))
        assert resolver.resolve("bar.com", day=5).ok
        exchanges = [e for e in resolver.wire_log if e.server == "ns1.foo.com"]
        assert [e.attempt for e in exchanges] == [0, 1, 2]
        assert [e.error for e in exchanges] == ["timeout", "timeout", None]
        assert exchanges[-1].response is not None

    def test_stock_resolution_unchanged_with_policy_attached(self, flaky_db):
        baseline = IterativeResolver(flaky_db)
        with_policy = IterativeResolver(
            flaky_db, retry_policy=RetryPolicy(max_retries=3)
        )
        for resolver in (baseline, with_policy):
            server = AnsweringBehavior()
            server.add_record("bar.com", RRType.A, "192.0.2.80")
            resolver.attach_server("ns1.foo.com", server)
        first = baseline.resolve("bar.com", day=5)
        second = with_policy.resolve("bar.com", day=5)
        assert first.status == second.status
        assert first.answer == second.answer
        assert second.retries == 0


class TestFlakyBehavior:
    def test_disabled_delegates_without_drawing(self):
        inner = AnsweringBehavior()
        inner.add_record("x.com", RRType.A, "192.0.2.9")
        flaky = FlakyBehavior(inner=inner, config=FaultConfig.off(), host="ns1.x.com")
        assert flaky.handle(0, "x.com", RRType.A, "1.2.3.4") == ["192.0.2.9"]
        assert flaky.faults_injected == 0

    def test_timeout_rate_one_always_raises_but_logs_the_query(self):
        inner = SilentBehavior()
        flaky = FlakyBehavior(
            inner=inner, config=FaultConfig(ns_timeout_rate=1.0), host="ns1.x.com"
        )
        with pytest.raises(TransientServerFailure) as excinfo:
            flaky.handle(0, "x.com", RRType.A, "1.2.3.4")
        assert excinfo.value.kind == "timeout"
        assert len(flaky.queries_for("x.com")) == 1  # the query arrived

    def test_slow_carries_the_answer_and_latency(self):
        inner = AnsweringBehavior()
        inner.add_record("x.com", RRType.A, "192.0.2.9")
        flaky = FlakyBehavior(
            inner=inner,
            config=FaultConfig(ns_slow_rate=1.0, slow_latency_ms=700),
            host="ns1.x.com",
        )
        with pytest.raises(TransientServerFailure) as excinfo:
            flaky.handle(0, "x.com", RRType.A, "1.2.3.4")
        assert excinfo.value.kind == "slow"
        assert excinfo.value.answer == ["192.0.2.9"]
        assert excinfo.value.latency_ms == 700

    def test_flaky_silent_server_stays_silent(self):
        flaky = FlakyBehavior(
            inner=SilentBehavior(),
            config=FaultConfig(ns_slow_rate=1.0),
            host="ns1.x.com",
        )
        # A "slow" fault on a silent server has nothing to delay.
        assert flaky.handle(0, "x.com", RRType.A, "1.2.3.4") is None


class TestIngestGapBridging:
    def _snapshot(self, day: int, domains: dict) -> ZoneSnapshot:
        return ZoneSnapshot(
            day=day, tld="biz",
            delegations={d: frozenset(ns) for d, ns in domains.items()},
        )

    def test_short_gap_keeps_the_interval_open(self):
        db = ZoneDatabase(ingest_policy=IngestPolicy(gap_bridge_days=30))
        delegated = {"victim.biz": ["ns1.host.com"]}
        db.ingest_snapshot(self._snapshot(0, delegated))
        db.ingest_snapshot(self._snapshot(10, {}))  # missing: within window
        report = db.ingest_snapshot(self._snapshot(20, delegated))
        assert report.gaps_bridged == 1
        db.finalize_pending()
        records = db.domain_records("victim.biz")
        assert len(records) == 1
        assert records[0].end is None

    def test_long_gap_closes_at_first_absence(self):
        db = ZoneDatabase(ingest_policy=IngestPolicy(gap_bridge_days=5))
        delegated = {"victim.biz": ["ns1.host.com"]}
        db.ingest_snapshot(self._snapshot(0, delegated))
        db.ingest_snapshot(self._snapshot(10, {}))
        report = db.ingest_snapshot(self._snapshot(30, delegated))
        assert report.closed_after_gap == 1
        records = sorted(db.domain_records("victim.biz"), key=lambda r: r.start)
        assert [(r.start, r.end) for r in records] == [(0, 10), (30, None)]

    def test_finalize_closes_trailing_absences(self):
        db = ZoneDatabase(ingest_policy=IngestPolicy(gap_bridge_days=30))
        db.ingest_snapshot(self._snapshot(0, {"victim.biz": ["ns1.host.com"]}))
        db.ingest_snapshot(self._snapshot(10, {}))
        report = db.finalize_pending()
        assert report.closed == 1
        assert report.domains == ["victim.biz"]
        assert report.deltas_emitted >= 1
        assert not report.clean
        records = db.domain_records("victim.biz")
        assert [(r.start, r.end) for r in records] == [(0, 10)]

    def test_zero_window_reproduces_strict_diffing(self):
        strict = ZoneDatabase()
        bridged = ZoneDatabase(ingest_policy=IngestPolicy(gap_bridge_days=0))
        for db in (strict, bridged):
            db.ingest_snapshot(self._snapshot(0, {"victim.biz": ["ns1.host.com"]}))
            db.ingest_snapshot(self._snapshot(10, {}))
            db.ingest_snapshot(self._snapshot(20, {"victim.biz": ["ns1.host.com"]}))
            db.finalize_pending()
        assert (
            [(r.start, r.end) for r in strict.domain_records("victim.biz")]
            == [(r.start, r.end) for r in bridged.domain_records("victim.biz")]
            == [(0, 10), (20, None)]
        )

    def test_strict_mode_raises_on_out_of_order(self):
        from repro.zonedb.database import IngestError

        db = ZoneDatabase(ingest_policy=IngestPolicy(strict=True))
        db.ingest_snapshot(self._snapshot(10, {"a.biz": ["ns1.host.com"]}))
        with pytest.raises(IngestError):
            db.ingest_snapshot(self._snapshot(5, {"a.biz": ["ns1.host.com"]}))

    def test_strict_mode_raises_on_corrupt_records(self):
        from repro.zonedb.database import IngestError

        db = ZoneDatabase(ingest_policy=IngestPolicy(strict=True))
        with pytest.raises(IngestError):
            db.ingest_snapshot(
                self._snapshot(0, {"a.biz": ["ns1..host.com"]})
            )
