"""Property test: a source read as of a batch day is the replayed replica.

Hypothesis generates delegation, glue and coverage histories and
records them through the zone-database write path in two orders:

* sorted by day, so every delta's effective day is its batch day and
  the stream never rewrites an earlier day;
* as generated, so writes land on days behind the horizon
  (``day < batch_day``) and the stream rewrites.

Over the in-memory database and the same history written as a SQLite
dataset, it asserts:

* for every batch day N of a stream that never rewrites,
  ``ZoneDatabase.as_of(N)`` reads exactly what a replica replayed
  through N reads: each nameserver's and each domain's records, each
  presence key's intervals and days, the nameserver count, the whole
  record pass and the covered TLDs;
* in both orders, a fresh ``advance_from(until=N)`` and a restore
  resumed to a later M give the replica fold's digest at M and the
  checkpoint bytes of a day-by-day ``engine.advance`` drain;
* the engine replays exactly when the stream rewrites.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.incremental import (
    IncrementalDetectionEngine,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.pipeline import DetectionPipeline
from repro.runner.execution import result_digest
from repro.store.base import DOMAIN, GLUE
from repro.store.dataset import DeltaView, open_dataset, write_dataset
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

_domains = st.sampled_from(
    [f"dom{index}.{tld}" for index in range(3) for tld in ("biz", "net")]
)
_nameservers = st.sampled_from(
    [
        "ns1.dom0.biz",  # under a delegated domain: presence decides
        "ns2.dom1.net",
        "ns1.host0.biz",
        "ns1.host1.net",
        "dropme123456.park.biz",  # pattern-idiom shaped
    ]
)

_ops = st.one_of(
    st.tuples(
        st.just("set"), _domains,
        st.frozensets(_nameservers, min_size=1, max_size=2),
    ),
    st.tuples(st.just("remove"), _domains, st.none()),
    st.tuples(st.just("glue-add"), _nameservers, st.none()),
    st.tuples(st.just("glue-remove"), _nameservers, st.none()),
    st.tuples(st.just("cover"), st.just("net"), st.none()),
)

_histories = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), _ops),
    min_size=1, max_size=20,
)


def _build(history, *, in_order: bool) -> ZoneDatabase:
    """Record ``history``: sorted by day, or in generation order."""
    zonedb = ZoneDatabase()
    zonedb.cover("biz")
    if in_order:
        history = sorted(history, key=lambda entry: entry[0])
    for day, (kind, name, nameservers) in history:
        if kind == "set":
            zonedb.set_delegation(day, name, sorted(nameservers))
        elif kind == "remove":
            zonedb.remove_delegation(day, name)
        elif kind == "glue-add":
            zonedb.set_glue(day, name)
        elif kind == "glue-remove":
            zonedb.remove_glue(day, name)
        else:
            zonedb.advance(max(zonedb.horizon, day))
            zonedb.cover(name)
    return zonedb


def _replica(source: ZoneDatabase, day: int) -> ZoneDatabase:
    """A fresh database replayed through batch day ``day``."""
    replica = ZoneDatabase()
    for _batch_day, event in source.deltas_since(None, day):
        replica.apply_delta(event)
    return replica


def _rewrites(source: ZoneDatabase) -> bool:
    return any(
        event.day != batch_day for batch_day, event in source.deltas_since(None)
    )


def _records(records) -> list[tuple]:
    return sorted(record.as_tuple() for record in records)


def _sources(zonedb: ZoneDatabase, scratch: str) -> list[ZoneDatabase]:
    """The database itself and the same history as a SQLite dataset."""
    dataset = write_dataset(zonedb, Path(scratch) / "dataset.sqlite")
    return [zonedb, open_dataset(dataset)]


def _assert_view_is_replica(source: ZoneDatabase, day: int) -> None:
    view, replica = source.as_of(day), _replica(source, day)
    assert view.covered_tlds == replica.covered_tlds, day
    assert view.nameserver_count() == replica.nameserver_count(), day
    nameservers = sorted(replica.all_nameservers())
    assert sorted(view.all_nameservers()) == nameservers, day
    assert sorted(
        (ns, _records(records)) for ns, records in view.iter_ns_records()
    ) == [(ns, _records(replica.ns_records(ns))) for ns in nameservers], day
    for ns in sorted(source.all_nameservers()):
        assert _records(view.ns_records(ns)) == _records(replica.ns_records(ns))
    for domain in sorted(source.all_domains()):
        assert _records(view.domain_records(domain)) == _records(
            replica.domain_records(domain)
        ), (day, domain)
    last = source.horizon + 2
    for kind, intervals, present in (
        (GLUE, "glue_intervals", "glue_present"),
        (DOMAIN, "domain_presence_intervals", "domain_present"),
    ):
        for key in sorted(source.store.presence_keys(kind)):
            assert getattr(view, intervals)(key) == getattr(replica, intervals)(
                key
            ), (day, kind, key)
            for probe in range(last):
                assert getattr(view, present)(key, probe) == getattr(
                    replica, present
                )(key, probe), (day, kind, key, probe)


@settings(max_examples=40, deadline=None)
@given(history=_histories)
def test_view_reads_equal_the_replayed_replica(history):
    zonedb = _build(history, in_order=True)
    assert not _rewrites(zonedb)
    with tempfile.TemporaryDirectory() as scratch:
        for source in _sources(zonedb, scratch):
            try:
                for day, _events in DeltaView(source).batches():
                    _assert_view_is_replica(source, day)
            finally:
                source.close()


@pytest.mark.parametrize("in_order", [True, False], ids=["sorted", "shuffled"])
@settings(max_examples=30, deadline=None)
@given(
    history=_histories,
    cuts=st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
)
def test_capped_fold_then_resume_equals_a_drain(in_order, history, cuts):
    zonedb = _build(history, in_order=in_order)
    rewrites = _rewrites(zonedb)
    whois = WhoisArchive()
    days = [day for day, _events in DeltaView(zonedb).batches()]
    first, second = sorted(cut % len(days) for cut in cuts)
    cut, later = days[first], days[second]
    with tempfile.TemporaryDirectory() as scratch:
        for source in _sources(zonedb, scratch):
            try:
                assert (source.store.scan_deltas() is None) == rewrites
                capped = IncrementalDetectionEngine(whois)
                capped.advance_from(source, until=cut)
                assert capped.watermark == cut
                resumed = IncrementalDetectionEngine(whois)
                resumed.restore(
                    source, load_engine_state(dump_engine_state(capped.state))
                )
                # Below the last batch day, restore reads the source as
                # of the watermark exactly when the stream never rewrites.
                assert resumed.direct == (cut == days[-1] or not rewrites)
                resumed.advance_from(source, until=later)
                assert resumed.watermark == later

                drained = IncrementalDetectionEngine(whois)
                for batch_day, events in DeltaView(source, until=later).batches():
                    drained.advance(batch_day, events)
                assert dump_engine_state(resumed.state) == dump_engine_state(
                    drained.state
                )
                replica = DetectionPipeline(_replica(source, later), whois).run()
                assert result_digest(resumed.result()) == result_digest(replica)
            finally:
                source.close()


def test_as_of_refuses_a_rewriting_stream():
    zonedb = ZoneDatabase()
    zonedb.set_delegation(5, "dom0.biz", ["ns1.host0.biz"])
    zonedb.set_delegation(3, "dom1.biz", ["ns1.host0.biz"])
    assert zonedb.store.scan_deltas() is None
    with pytest.raises(ValueError, match="rewrites earlier days"):
        zonedb.as_of(5)


def test_view_leaves_the_source_records_alone():
    zonedb = ZoneDatabase()
    zonedb.set_delegation(1, "dom0.biz", ["ns1.host0.biz"])
    zonedb.remove_delegation(4, "dom0.biz")
    (record,) = zonedb.ns_records("ns1.host0.biz")
    (cut,) = zonedb.as_of(2).ns_records("ns1.host0.biz")
    assert cut.as_tuple() == ("dom0.biz", "ns1.host0.biz", 1, None)
    assert record.as_tuple() == ("dom0.biz", "ns1.host0.biz", 1, 4)
    assert zonedb.as_of(0).ns_records("ns1.host0.biz") == []


def test_a_later_tld_cover_re_evaluates_earlier_nameservers():
    """Coverage is what a stream that never rewrites still changes after
    the fact: a nameserver first referenced under a TLD the data did not
    cover becomes assessable once the TLD is covered, so folding past
    the ``tld-cover`` must re-evaluate it."""
    zonedb = ZoneDatabase()
    zonedb.cover("biz")
    zonedb.set_delegation(1, "dom0.biz", ["ns1.gone.net"])
    zonedb.set_delegation(3, "dom1.biz", ["ns1.host0.biz"])
    zonedb.advance(5)
    zonedb.cover("net")
    zonedb.set_delegation(6, "dom2.biz", ["ns1.host0.biz"])
    whois = WhoisArchive()
    capped = IncrementalDetectionEngine(whois)
    capped.advance_from(zonedb, until=3)
    assert "ns1.gone.net" not in capped.state["candidates"]
    resumed = IncrementalDetectionEngine(whois)
    resumed.restore(zonedb, load_engine_state(dump_engine_state(capped.state)))
    assert resumed.advance_from(zonedb) == 2
    assert "ns1.gone.net" in resumed.state["candidates"]
    drained = IncrementalDetectionEngine(whois)
    for batch_day, events in DeltaView(zonedb).batches():
        drained.advance(batch_day, events)
    assert dump_engine_state(resumed.state) == dump_engine_state(drained.state)
