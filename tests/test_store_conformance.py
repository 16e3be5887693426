"""Backend-conformance suite for the DelegationStore protocol.

Every behavioral contract here is asserted against both backends via a
parametrized fixture: the in-memory reference store and the SQLite
on-disk store must be observationally interchangeable — same visible
intervals, same same-day-annihilation semantics, same presence and meta
round-trips, deterministic enumeration. Iteration *order* of name
enumerations is a per-backend contract (memory: first-seen order,
SQLite: lexicographic) and is pinned separately; everything the
detection layer consumes is order-normalized above the store.

The façade-level tests (gap bridging, fault schedules) live in
test_zonedb*.py and run over both backends too; this module pins down
the protocol layer itself.
"""

from __future__ import annotations

import pytest

from repro.store.base import DOMAIN, GLUE, DelegationStore
from repro.store.changelog import GLUE_ADD, DeltaEvent
from repro.store.memory import MemoryDelegationStore
from repro.store.sqlite import SqliteDelegationStore
from repro.zonedb.database import IngestPolicy, ZoneDatabase
from repro.zonedb.snapshot import ZoneSnapshot


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "sqlite":
        backing = SqliteDelegationStore(tmp_path / "store.sqlite")
    else:
        backing = MemoryDelegationStore()
    yield backing
    backing.close()


def test_backends_satisfy_protocol(store):
    assert isinstance(store, DelegationStore)
    assert store.backend_name in {"memory", "sqlite"}


class TestPairIntervals:
    def test_open_then_close(self, store):
        store.open_pair("a.biz", "ns1.x.com", 0)
        store.close_pair("a.biz", "ns1.x.com", 5)
        records = store.domain_records("a.biz")
        assert [r.as_tuple() for r in records] == [("a.biz", "ns1.x.com", 0, 5)]
        assert store.ns_records("ns1.x.com")[0].as_tuple() == (
            "a.biz", "ns1.x.com", 0, 5
        )

    def test_open_interval_visible_from_both_sides(self, store):
        store.open_pair("a.biz", "ns1.x.com", 3)
        assert store.domain_records("a.biz")[0].end is None
        assert store.ns_records("ns1.x.com")[0].end is None
        assert store.current_nameservers("a.biz") == {"ns1.x.com"}

    def test_same_day_annihilation(self, store):
        """open+close on the same day leaves no trace (daily granularity)."""
        store.open_pair("flash.biz", "ns1.x.com", 7)
        store.close_pair("flash.biz", "ns1.x.com", 7)
        assert store.domain_records("flash.biz") == []
        assert store.ns_records("ns1.x.com") == []
        assert store.current_nameservers("flash.biz") == frozenset()
        assert "flash.biz" not in list(store.all_domains())
        assert "ns1.x.com" not in list(store.all_nameservers())

    def test_reopen_after_close(self, store):
        store.open_pair("a.biz", "ns1.x.com", 0)
        store.close_pair("a.biz", "ns1.x.com", 4)
        store.open_pair("a.biz", "ns1.x.com", 9)
        spans = [(r.start, r.end) for r in store.domain_records("a.biz")]
        assert spans == [(0, 4), (9, None)]

    def test_close_unopened_pair_is_noop(self, store):
        store.close_pair("ghost.biz", "ns1.x.com", 5)
        assert store.domain_records("ghost.biz") == []

    def test_add_record_bulk_copy(self, store):
        store.add_record("a.biz", "ns1.x.com", 0, 5)
        store.add_record("a.biz", "ns2.x.com", 2, None)
        assert store.current_nameservers("a.biz") == {"ns2.x.com"}
        spans = {
            r.ns: (r.start, r.end) for r in store.domain_records("a.biz")
        }
        assert spans == {"ns1.x.com": (0, 5), "ns2.x.com": (2, None)}

    def test_current_domains_suffix_filter(self, store):
        store.open_pair("a.biz", "ns1.x.com", 0)
        store.open_pair("b.com", "ns1.x.com", 0)
        assert set(store.current_domains()) == {"a.biz", "b.com"}
        assert list(store.current_domains(".biz")) == ["a.biz"]


class TestEnumeration:
    def _populate(self, store):
        # Chronological, as real ingestion always is.
        store.open_pair("c.biz", "ns1.x.com", 0)
        store.open_pair("a.biz", "ns2.x.com", 1)
        store.close_pair("a.biz", "ns2.x.com", 2)
        store.open_pair("b.biz", "ns2.x.com", 3)
        store.open_pair("a.biz", "ns2.x.com", 4)

    def test_enumeration_is_deterministic(self, store):
        self._populate(store)
        assert list(store.all_domains()) == list(store.all_domains())
        assert list(store.all_nameservers()) == list(store.all_nameservers())
        assert set(store.all_domains()) == {"a.biz", "b.biz", "c.biz"}
        assert set(store.all_nameservers()) == {"ns1.x.com", "ns2.x.com"}

    def test_per_backend_name_order(self, store):
        self._populate(store)
        domains = list(store.all_domains())
        if store.backend_name == "memory":
            assert domains == ["c.biz", "a.biz", "b.biz"]  # first-seen
        else:
            assert domains == ["a.biz", "b.biz", "c.biz"]  # lexicographic

    def test_records_ordered_by_start(self, store):
        self._populate(store)
        ns_starts = [r.start for r in store.ns_records("ns2.x.com")]
        assert ns_starts == sorted(ns_starts)
        domain_starts = [r.start for r in store.domain_records("a.biz")]
        assert domain_starts == sorted(domain_starts)

    def test_counts(self, store):
        self._populate(store)
        assert store.domain_count() == 3
        assert store.nameserver_count() == 2


class TestPartitions:
    def test_domains_in_tld(self, store):
        store.open_pair("a.biz", "ns1.x.com", 0)
        store.open_pair("b.com", "ns1.x.com", 0)
        store.open_pair("c.biz", "ns2.x.com", 0)
        assert sorted(store.domains_in_tld("biz")) == ["a.biz", "c.biz"]
        assert list(store.domains_in_tld("com")) == ["b.com"]
        assert list(store.domains_in_tld("org")) == []

    def test_partitions_enumerate_tlds(self, store):
        store.open_pair("a.biz", "ns1.x.com", 0)
        store.open_pair("b.com", "ns1.x.com", 0)
        assert sorted(store.partitions()) == ["biz", "com"]


class TestPresence:
    def test_open_close_reopen(self, store):
        store.open_presence(GLUE, "ns1.a.biz", 0)
        store.close_presence(GLUE, "ns1.a.biz", 4)
        store.open_presence(GLUE, "ns1.a.biz", 9)
        spans = store.presence_intervals(GLUE, "ns1.a.biz")
        assert [(s.start, s.end) for s in spans] == [(0, 4), (9, None)]
        assert store.presence_contains(GLUE, "ns1.a.biz", 2)
        assert not store.presence_contains(GLUE, "ns1.a.biz", 5)
        assert store.presence_contains(GLUE, "ns1.a.biz", 100)

    def test_same_day_presence_annihilates(self, store):
        store.open_presence(DOMAIN, "a.biz", 3)
        store.close_presence(DOMAIN, "a.biz", 3)
        assert store.presence_intervals(DOMAIN, "a.biz") == []
        assert "a.biz" not in list(store.presence_keys(DOMAIN))

    def test_kinds_are_independent(self, store):
        store.open_presence(GLUE, "shared.name", 0)
        assert not store.presence_contains(DOMAIN, "shared.name", 0)
        assert list(store.presence_keys(DOMAIN)) == []

    def test_presence_keys_sorted(self, store):
        for key in ("c.biz", "a.biz", "b.biz"):
            store.open_presence(DOMAIN, key, 0)
        assert list(store.presence_keys(DOMAIN)) == ["a.biz", "b.biz", "c.biz"]

    def test_add_presence_bulk_copy(self, store):
        store.add_presence(GLUE, "ns1.a.biz", 2, 8)
        store.add_presence(GLUE, "ns1.a.biz", 10, None)
        spans = store.presence_intervals(GLUE, "ns1.a.biz")
        assert [(s.start, s.end) for s in spans] == [(2, 8), (10, None)]


class TestMeta:
    def test_roundtrip(self, store):
        assert store.get_meta("missing") is None
        store.set_meta("k", "v1")
        store.set_meta("k", "v2")
        assert store.get_meta("k") == "v2"


class TestDeltaWindow:
    """``deltas_since(since, until)`` returns ``since < batch_day <= until``."""

    BATCH_DAYS = (1, 1, 2, 3, 3, 5)

    def _recorded(self, store):
        for index, batch_day in enumerate(self.BATCH_DAYS):
            event = DeltaEvent(GLUE_ADD, batch_day, f"ns{index}.x.com")
            store.record_delta(event, batch_day)

    def _days(self, store, since, until=None):
        return [day for day, _ in store.deltas_since(since, until)]

    def test_open_window_is_the_whole_stream(self, store):
        self._recorded(store)
        pairs = store.deltas_since(None)
        assert [day for day, _ in pairs] == list(self.BATCH_DAYS)
        assert [event.name for _, event in pairs] == [
            f"ns{index}.x.com" for index in range(len(self.BATCH_DAYS))
        ]

    def test_since_edge_is_exclusive(self, store):
        self._recorded(store)
        assert self._days(store, 1) == [2, 3, 3, 5]
        assert self._days(store, 5) == []

    def test_until_edge_is_inclusive(self, store):
        self._recorded(store)
        assert self._days(store, None, 3) == [1, 1, 2, 3, 3]
        assert self._days(store, None, 0) == []

    def test_both_edges(self, store):
        self._recorded(store)
        assert self._days(store, 1, 3) == [2, 3, 3]
        assert self._days(store, 2, 3) == [3, 3]
        assert self._days(store, 3, 3) == []
        assert self._days(store, 3, 4) == []


class TestBackendEquivalence:
    """Drive both backends with the same schedule; compare full state."""

    def _drive(self, db: ZoneDatabase) -> None:
        timeline = {
            0: {"a.biz": {"ns1.x.com"}, "b.biz": {"ns2.x.com"}},
            7: {"a.biz": {"ns1.x.com", "ns3.x.com"}},
            # Day 21 deliberately skipped: exercises gap bridging.
            28: {"a.biz": {"ns3.x.com"}, "c.biz": {"ns1.x.com"}},
        }
        for day, state in sorted(timeline.items()):
            db.ingest_snapshot(
                ZoneSnapshot(
                    day=day, tld="biz",
                    delegations={d: frozenset(ns) for d, ns in state.items()},
                )
            )
        db.finalize_pending()

    def _fingerprint(self, db: ZoneDatabase):
        return {
            "domains": sorted(db.all_domains()),
            "nameservers": sorted(db.all_nameservers()),
            "records": sorted(
                r.as_tuple()
                for domain in db.all_domains()
                for r in db.domain_records(domain)
            ),
            "reports": [
                (rep.day, rep.ingested, rep.gaps_bridged, rep.closed_after_gap)
                for rep in db.ingest_reports
            ],
        }

    @pytest.mark.parametrize("gap", [0, 30])
    def test_identical_state_after_same_schedule(self, tmp_path, gap):
        policy = IngestPolicy(gap_bridge_days=gap)
        memory_db = ZoneDatabase(["biz"], ingest_policy=policy)
        sqlite_db = ZoneDatabase(
            ["biz"], ingest_policy=policy,
            store=SqliteDelegationStore(tmp_path / "eq.sqlite"),
        )
        self._drive(memory_db)
        self._drive(sqlite_db)
        assert self._fingerprint(memory_db) == self._fingerprint(sqlite_db)


class TestSqlitePersistence:
    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "persist.sqlite"
        db = ZoneDatabase(["biz"], store=SqliteDelegationStore(path))
        db.set_delegation(0, "a.biz", ["ns1.x.com"])
        db.set_glue(0, "ns1.a.biz")
        db.advance(10)
        db.flush()
        db.close()

        reopened = ZoneDatabase(store=SqliteDelegationStore(path))
        assert reopened.covered_tlds == frozenset({"biz"})
        assert reopened.horizon == 10
        assert reopened.nameservers_of("a.biz", 5) == {"ns1.x.com"}
        assert reopened.glue_present("ns1.a.biz", 0)
