"""Overhead benchmark: the fault layer must be free when switched off.

Two contracts are enforced (not just measured):

* ingesting a snapshot stream through a *disabled* SnapshotFaultInjector
  plus a default IngestPolicy costs <5% over raw ingestion;
* resolving with a RetryPolicy attached costs <5% over resolving with
  no policy when every server answers on the first try.

Each round times one raw and one layered run back to back, in turned
order, and the ratio checked is the median of the rounds' ratios: a
slow spell of the host reaches both runs of a round rather than one
side, and a round it splits does not move the median. Each run starts
after a full garbage collection, so the garbage one run leaves is not
collected on the next run's time.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.dnscore.records import RRType
from repro.faults import FaultConfig, RetryPolicy, SnapshotFaultInjector
from repro.resolver.resolver import IterativeResolver
from repro.resolver.server import AnsweringBehavior
from repro.zonedb.database import IngestPolicy, ZoneDatabase
from repro.zonedb.snapshot import ZoneSnapshot

OVERHEAD_LIMIT = 1.05
ROUNDS = 21


def _median_ratio(raw, layered, rounds: int = ROUNDS) -> tuple[float, float, float]:
    """The best wall time of ``raw`` and of ``layered``, and the median
    over ``rounds`` of ``layered``'s time over ``raw``'s in one round."""
    pairs = []
    for round_ in range(rounds):
        took = {}
        for fn in (raw, layered) if round_ % 2 == 0 else (layered, raw):
            gc.collect()
            start = time.perf_counter()
            fn()
            took[fn] = time.perf_counter() - start
        pairs.append((took[raw], took[layered]))
    ratio = statistics.median(slow / fast for fast, slow in pairs)
    return min(fast for fast, _ in pairs), min(slow for _, slow in pairs), ratio


def _snapshot_stream(days: int = 52, domains: int = 400) -> list[ZoneSnapshot]:
    snapshots = []
    for day in range(days):
        delegations = {
            f"domain{i}.biz": frozenset(
                {f"ns{i % 20}.host{i % 7}.com", f"ns{(i + 1) % 20}.host{i % 7}.com"}
            )
            for i in range(domains)
            # Churn a tenth of the zone every week.
            if (i + day) % 10 != 0
        }
        snapshots.append(ZoneSnapshot(day=day * 7, tld="biz", delegations=delegations))
    return snapshots


def test_bench_disabled_fault_layer_ingest_overhead(benchmark):
    snapshots = _snapshot_stream()

    def ingest_raw():
        db = ZoneDatabase()
        for snapshot in snapshots:
            db.ingest_snapshot(snapshot)
        db.finalize_pending()
        return db

    def ingest_through_disabled_layer():
        injector = SnapshotFaultInjector(FaultConfig.off())
        db = ZoneDatabase(ingest_policy=IngestPolicy())
        for snapshot in injector.degrade(snapshots):
            db.ingest_snapshot(snapshot)
        db.finalize_pending()
        return db

    raw, layered, ratio = _median_ratio(ingest_raw, ingest_through_disabled_layer)
    print(f"\ningest: raw={raw * 1e3:.1f}ms layered={layered * 1e3:.1f}ms "
          f"ratio={ratio:.3f}")
    assert ratio < OVERHEAD_LIMIT

    db = benchmark.pedantic(ingest_through_disabled_layer, rounds=3, iterations=1)
    assert db.nameserver_count() > 0


def test_bench_retry_policy_resolution_overhead(benchmark):
    db = ZoneDatabase(["com"])
    db.set_delegation(0, "foo.com", ["ns1.foo.com"])
    db.set_glue(0, "ns1.foo.com")
    names = [f"site{i}.com" for i in range(200)]
    behavior = AnsweringBehavior()
    for name in names:
        db.set_delegation(0, name, ["ns1.foo.com"])
        behavior.add_record(name, RRType.A, "192.0.2.80")

    plain = IterativeResolver(db)
    retrying = IterativeResolver(db, retry_policy=RetryPolicy(max_retries=3))
    for resolver in (plain, retrying):
        resolver.attach_server("ns1.foo.com", behavior)

    def resolve_all(resolver):
        def run():
            for name in names:
                assert resolver.resolve(name, day=5).ok
        return run

    raw, layered, ratio = _median_ratio(resolve_all(plain), resolve_all(retrying))
    print(f"\nresolve: raw={raw * 1e3:.1f}ms layered={layered * 1e3:.1f}ms "
          f"ratio={ratio:.3f}")
    assert ratio < OVERHEAD_LIMIT

    benchmark.pedantic(resolve_all(retrying), rounds=3, iterations=1)
