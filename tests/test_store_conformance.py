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

from repro.obs import runtime as obs
from repro.store.base import DOMAIN, GLUE, DelegationStore
from repro.store.changelog import GLUE_ADD, DeltaEvent
from repro.store.dataset import manifest_path, open_dataset, write_dataset
from repro.store.memory import MemoryDelegationStore
from repro.store.sqlite import SqliteDelegationStore
from repro.store.verify import verify_dataset
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


def _tuples(records):
    return [record.as_tuple() for record in records]


class TestRecordPasses:
    """One ordered pass yields exactly what the per-name queries return."""

    def _populate(self, store):
        store.open_pair("c.biz", "ns1.x.com", 0)
        store.open_pair("b.biz", "ns2.x.com", 0)
        store.open_pair("a.biz", "ns2.x.com", 0)
        store.open_pair("a.biz", "ns1.x.com", 1)
        store.close_pair("a.biz", "ns2.x.com", 2)
        store.open_pair("flash.biz", "ns3.x.com", 3)
        store.close_pair("flash.biz", "ns3.x.com", 3)  # annihilated
        store.open_pair("a.biz", "ns2.x.com", 4)

    def _per_name(self, store):
        return (
            [(ns, _tuples(store.ns_records(ns))) for ns in store.all_nameservers()],
            [(d, _tuples(store.domain_records(d))) for d in store.all_domains()],
        )

    def _passes(self, store):
        return (
            [(ns, _tuples(records)) for ns, records in store.iter_ns_records()],
            [(d, _tuples(records)) for d, records in store.iter_domain_records()],
        )

    def test_empty_store(self, store):
        assert list(store.iter_ns_records()) == []
        assert list(store.iter_domain_records()) == []

    def test_passes_match_per_name_queries(self, store):
        self._populate(store)
        by_ns, by_domain = self._passes(store)
        assert (by_ns, by_domain) == self._per_name(store)
        assert [ns for ns, _ in by_ns] == list(store.all_nameservers())
        assert "ns3.x.com" not in dict(by_ns)
        assert "flash.biz" not in dict(by_domain)

    def test_passes_after_reopen(self, tmp_path):
        path = tmp_path / "passes.sqlite"
        store = SqliteDelegationStore(path)
        self._populate(store)
        before = self._per_name(store)
        store.close()
        reopened = SqliteDelegationStore(path)
        assert self._passes(reopened) == self._per_name(reopened) == before
        reopened.close()

    def test_pass_counts_as_a_pass_not_a_point_query(self, tmp_path):
        store = SqliteDelegationStore(tmp_path / "metrics.sqlite")
        self._populate(store)
        passes = obs.counter("sqlite.record_passes")
        queries = obs.counter("sqlite.ns_records_queries")
        before = (passes.value, queries.value)
        assert len(list(store.iter_ns_records())) == 2
        assert (passes.value, queries.value) == (before[0] + 1, before[1])
        store.close()


class TestPartitions:
    def test_domains_in_tld(self, store):
        store.open_pair("a.biz", "ns1.x.com", 0)
        store.open_pair("b.com", "ns1.x.com", 0)
        store.open_pair("c.biz", "ns2.x.com", 0)
        assert sorted(store.domains_in_tld("biz")) == ["a.biz", "c.biz"]
        assert list(store.domains_in_tld("com")) == ["b.com"]
        assert list(store.domains_in_tld("org")) == []


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
        days = [day for day, _ in store.deltas_since(since, until)]
        # The counts and the newest day describe the same window.
        assert store.delta_stats(since, until) == (len(days), len(set(days)))
        assert store.last_batch_day(since, until) == (days[-1] if days else None)
        return days

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


class TestBulkLoad:
    """``write_dataset`` loads a table at a time; nothing may change."""

    def test_reopens_equal_to_source(self, tiny_bundle, tmp_path):
        source_db = tiny_bundle.world.zonedb
        source = source_db.store
        path = write_dataset(source_db, tmp_path / "dataset.sqlite")
        reopened = SqliteDelegationStore(path)
        try:
            assert set(reopened.all_nameservers()) == set(source.all_nameservers())
            assert set(reopened.all_domains()) == set(source.all_domains())
            # SQLite lists a name's records by (start, other name); the
            # memory store by opening order. The two agree once sorted.
            for ns in source.all_nameservers():
                expected = sorted(
                    _tuples(source.ns_records(ns)), key=lambda t: (t[2], t[0])
                )
                assert _tuples(reopened.ns_records(ns)) == expected, ns
            for domain in source.all_domains():
                expected = sorted(
                    _tuples(source.domain_records(domain)),
                    key=lambda t: (t[2], t[1]),
                )
                assert _tuples(reopened.domain_records(domain)) == expected
            for kind in (GLUE, DOMAIN):
                keys = list(source.presence_keys(kind))
                assert list(reopened.presence_keys(kind)) == keys
                for key in keys:
                    assert reopened.presence_intervals(
                        kind, key
                    ) == source.presence_intervals(kind, key), (kind, key)
            assert reopened.deltas_since(None) == source.deltas_since(None)
            assert reopened.delta_count() == len(source.deltas_since(None))
            facade = ZoneDatabase(store=reopened)
            assert facade.covered_tlds == source_db.covered_tlds
            assert facade.horizon == source_db.horizon
        finally:
            reopened.close()


    def test_write_dying_mid_load_keeps_the_old_dataset(
        self, tiny_bundle, tmp_path, monkeypatch
    ):
        source_db = tiny_bundle.world.zonedb
        path = write_dataset(source_db, tmp_path / "dataset.sqlite")
        old = (path.read_bytes(), manifest_path(path).read_bytes())
        all_deltas = source_db.deltas_since(None)

        class Killed(Exception):
            pass

        def dying(since, until=None):
            yield from all_deltas[:500]
            raise Killed

        monkeypatch.setattr(source_db.store, "deltas_since", dying)
        with pytest.raises(Killed):
            write_dataset(source_db, path)
        monkeypatch.undo()
        assert (path.read_bytes(), manifest_path(path).read_bytes()) == old
        reopened = open_dataset(path)
        assert reopened.deltas_since(None) == all_deltas
        assert reopened.domain_count() == source_db.domain_count()
        reopened.close()
        assert verify_dataset(path) == []
        # The next write clears what the dead writer left behind.
        leftover = path.with_name(path.name + ".tmp")
        assert leftover.exists()
        write_dataset(source_db, path)
        assert not leftover.exists()
        assert verify_dataset(path) == []


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

    def test_first_write_after_reopen_closes_old_intervals(self, tmp_path):
        """The write caches are built on first use; they must still see
        the intervals a previous process left open."""

        def history(db):
            db.set_delegation(0, "a.biz", ["ns1.x.com", "ns2.x.com"])
            db.set_delegation(0, "b.biz", ["ns1.x.com"])
            db.set_glue(0, "ns1.a.biz")
            db.advance(10)

        def first_writes(db):
            db.set_delegation(10, "a.biz", ["ns3.x.com"])
            db.remove_glue(12, "ns1.a.biz")

        def state(db):
            store = db.store
            return (
                [_tuples(store.domain_records(d)) for d in ("a.biz", "b.biz")],
                store.current_domains(),
                store.current_nameservers("a.biz"),
                store.presence_intervals(GLUE, "ns1.a.biz"),
                store.presence_open(GLUE, "ns1.a.biz"),
            )

        path = tmp_path / "reopen.sqlite"
        db = ZoneDatabase(["biz"], store=SqliteDelegationStore(path))
        history(db)
        db.close()
        reopened = ZoneDatabase(store=SqliteDelegationStore(path))
        first_writes(reopened)
        never_closed = ZoneDatabase(
            ["biz"], store=SqliteDelegationStore(tmp_path / "reference.sqlite")
        )
        history(never_closed)
        first_writes(never_closed)
        assert state(reopened) == state(never_closed)
        records, current, a_biz, glue, glue_open = state(reopened)
        assert records[0] == [
            ("a.biz", "ns1.x.com", 0, 10),
            ("a.biz", "ns2.x.com", 0, 10),
            ("a.biz", "ns3.x.com", 10, None),
        ]
        assert current == ["b.biz", "a.biz"]
        assert a_biz == {"ns3.x.com"}
        assert [(iv.start, iv.end) for iv in glue] == [(0, 12)]
        assert not glue_open
        reopened.close()
        never_closed.close()
