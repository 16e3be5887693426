"""Tests for the longitudinal zone database.

Every test here runs against both delegation-store backends (in-memory
and SQLite): the façade must behave identically no matter where the
intervals live.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnscore.errors import NameError_
from repro.simtime import Interval
from repro.store.sqlite import SqliteDelegationStore
from repro.zonedb.database import ZoneDatabase
from repro.zonedb.snapshot import ZoneSnapshot

BACKENDS = ("memory", "sqlite")


def _store_for(backend):
    return SqliteDelegationStore(":memory:") if backend == "sqlite" else None


@pytest.fixture(params=BACKENDS)
def make_db(request):
    def factory(covered_tlds=()):
        return ZoneDatabase(covered_tlds, store=_store_for(request.param))

    return factory


@pytest.fixture()
def db(make_db):
    database = make_db(["com", "biz"])
    database.set_delegation(0, "foo.com", ["ns1.x.net", "ns2.x.net"])
    database.set_glue(0, "ns1.foo.com")
    return database


class TestDelegationHistory:
    def test_first_seen(self, db):
        assert db.first_seen("ns1.x.net") == 0

    def test_unknown_ns(self, db):
        assert db.first_seen("ghost.net") is None

    def test_domains_of_ns(self, db):
        assert db.domains_of_ns("ns1.x.net") == {"foo.com"}

    def test_domains_of_ns_at_day(self, db):
        db.remove_delegation(10, "foo.com")
        assert db.domains_of_ns("ns1.x.net", 5) == {"foo.com"}
        assert db.domains_of_ns("ns1.x.net", 10) == frozenset()

    def test_nameservers_of(self, db):
        assert db.nameservers_of("foo.com", 3) == {"ns1.x.net", "ns2.x.net"}

    def test_set_delegation_diffs(self, db):
        db.set_delegation(5, "foo.com", ["ns1.x.net", "ns3.y.net"])
        assert db.nameservers_of("foo.com", 6) == {"ns1.x.net", "ns3.y.net"}
        # The replaced pair closed at day 5.
        records = {r.ns: r for r in db.domain_records("foo.com")}
        assert records["ns2.x.net"].end == 5
        assert records["ns1.x.net"].end is None

    def test_nameservers_removed_on(self, db):
        db.set_delegation(5, "foo.com", ["ns9.z.net"])
        assert db.nameservers_removed_on("foo.com", 5) == {
            "ns1.x.net", "ns2.x.net"
        }
        assert db.nameservers_removed_on("foo.com", 4) == frozenset()

    def test_same_day_add_remove_invisible(self, db):
        """Zero-length intervals don't exist at daily granularity."""
        db.set_delegation(7, "flash.com", ["ns1.flash.net"])
        db.remove_delegation(7, "flash.com")
        assert db.first_seen("ns1.flash.net") is None
        assert db.domain_records("flash.com") == []

    def test_empty_ns_set_removes(self, db):
        db.set_delegation(5, "foo.com", [])
        assert db.nameservers_of("foo.com", 6) == frozenset()

    def test_redundant_set_is_noop(self, db):
        db.set_delegation(5, "foo.com", ["ns2.x.net", "ns1.x.net"])
        records = db.domain_records("foo.com")
        assert len(records) == 2  # no new intervals opened

    def test_horizon_monotonic(self, db):
        db.advance(100)
        with pytest.raises(ValueError):
            db.advance(50)


class TestPresence:
    def test_domain_present(self, db):
        assert db.domain_present("foo.com", 0)
        db.remove_delegation(10, "foo.com")
        assert not db.domain_present("foo.com", 10)
        assert db.domain_present("foo.com", 9)

    def test_presence_intervals_reopen(self, db):
        db.remove_delegation(10, "foo.com")
        db.set_delegation(20, "foo.com", ["ns1.x.net"])
        intervals = db.domain_presence_intervals("foo.com")
        assert intervals == [Interval(0, 10), Interval(20, None)]

    def test_glue_present(self, db):
        assert db.glue_present("ns1.foo.com", 0)
        db.remove_glue(4, "ns1.foo.com")
        assert not db.glue_present("ns1.foo.com", 4)

    def test_glue_intervals(self, db):
        db.remove_glue(4, "ns1.foo.com")
        db.set_glue(9, "ns1.foo.com")
        assert db.glue_intervals("ns1.foo.com") == [Interval(0, 4), Interval(9, None)]

    def test_coverage(self, db):
        assert db.covers("anything.com")
        assert not db.covers("anything.org")

    def test_queries_canonicalize_their_names(self, db):
        assert db.glue_present("NS1.Foo.COM.", 0)
        assert db.covers("Anything.COM")
        assert db.domains_of_ns("NS1.X.Net") == {"foo.com"}
        for query in (
            lambda: db.glue_present("bad..name", 0),
            lambda: db.covers("bad..name"),
        ):
            with pytest.raises(NameError_, match="empty label in name: 'bad..name'"):
                query()


class TestSnapshots:
    def test_snapshot_at_reconstructs(self, db):
        db.set_delegation(5, "bar.com", ["ns3.y.net"])
        db.remove_delegation(8, "foo.com")
        snap = db.snapshot_at(6, "com")
        assert snap.delegations == {
            "foo.com": frozenset({"ns1.x.net", "ns2.x.net"}),
            "bar.com": frozenset({"ns3.y.net"}),
        }
        later = db.snapshot_at(9, "com")
        assert set(later.delegations) == {"bar.com"}

    def test_ingest_snapshot_equivalent_to_changes(self, make_db):
        """Snapshot-diff ingestion and the change API agree exactly."""
        by_changes = make_db(["com"])
        by_snapshots = make_db(["com"])
        timeline = {
            0: {"a.com": {"ns1.x.net"}, "b.com": {"ns2.x.net"}},
            1: {"a.com": {"ns1.x.net"}, "b.com": {"ns3.x.net"}},
            2: {"b.com": {"ns3.x.net"}},
            3: {"b.com": {"ns3.x.net"}, "c.com": {"ns1.x.net"}},
        }
        current: dict[str, set[str]] = {}
        for day, state in timeline.items():
            for domain in sorted(set(current) - set(state)):
                by_changes.remove_delegation(day, domain)
            for domain, ns in state.items():
                if current.get(domain) != ns:
                    by_changes.set_delegation(day, domain, ns)
            current = {d: set(ns) for d, ns in state.items()}
            by_snapshots.ingest_snapshot(
                ZoneSnapshot(
                    day=day, tld="com",
                    delegations={d: frozenset(ns) for d, ns in state.items()},
                )
            )
        for day in timeline:
            for domain in ("a.com", "b.com", "c.com"):
                assert by_changes.nameservers_of(domain, day) == \
                    by_snapshots.nameservers_of(domain, day)
        assert by_changes.first_seen("ns3.x.net") == by_snapshots.first_seen("ns3.x.net")

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["a.com", "b.com", "c.com", "d.com"]),
                st.sets(
                    st.sampled_from(["ns1.x.net", "ns2.x.net", "ns3.y.org"]),
                    min_size=1, max_size=2,
                ),
                max_size=4,
            ),
            min_size=1, max_size=8,
        )
    )
    def test_snapshot_roundtrip_property(self, states):
        """Any daily state sequence survives ingest + reconstruction."""
        # Backends are exercised inside the test body (not via fixture
        # params) so hypothesis reuses examples across both.
        for backend in BACKENDS:
            db = ZoneDatabase(["com"], store=_store_for(backend))
            for day, state in enumerate(states):
                db.ingest_snapshot(
                    ZoneSnapshot(
                        day=day, tld="com",
                        delegations={d: frozenset(ns) for d, ns in state.items()},
                    )
                )
            db.advance(len(states))
            for day, state in enumerate(states):
                reconstructed = db.snapshot_at(day, "com").delegations
                assert reconstructed == {
                    d: frozenset(ns) for d, ns in state.items()
                }


class TestCounts:
    def test_counts(self, db):
        assert db.domain_count() == 1
        assert db.nameserver_count() == 2
        assert set(db.all_domains()) == {"foo.com"}
        assert set(db.all_nameservers()) == {"ns1.x.net", "ns2.x.net"}

    def test_repr(self, db):
        assert "ZoneDatabase" in repr(db)
