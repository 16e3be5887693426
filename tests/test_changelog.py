"""The delta vocabulary and the store's recorded delta log."""

from __future__ import annotations

import pytest

from repro.detection.incremental import IncrementalDetectionEngine
from repro.store.changelog import (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    DeltaEvent,
    group_batches,
)
from repro.store.dataset import DeltaView
from repro.store.sqlite import SqliteDelegationStore
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase


def _add(day: int, domain: str, ns: str) -> DeltaEvent:
    return DeltaEvent(kind=DELEGATION_ADD, day=day, name=domain, ns=ns)


def _replay_stored_row(tmp_path, kind: str, ns: str | None) -> None:
    """Store one raw delta row in a SQLite dataset, read it back, replay it."""
    path = tmp_path / "rows.sqlite"
    store = SqliteDelegationStore(path)
    store.record_delta(DeltaEvent(kind, 2, "a.biz", ns), 2)
    store.close()
    source = SqliteDelegationStore(path, read_only=True)
    try:
        ((_, event),) = source.deltas_since(None)
        ZoneDatabase().apply_delta(event)
    finally:
        source.close()


class TestDeltaEvent:
    """A delta is a plain row, checked where it is made (``_emit``) and
    when it is replayed."""

    def test_unknown_kind_rejected(self, tmp_path):
        zonedb = ZoneDatabase()
        with pytest.raises(ValueError, match="unknown delta kind"):
            zonedb._emit(DeltaEvent(kind="no-such-kind", day=0, name="a.biz"))
        assert zonedb.deltas_since(None) == []
        with pytest.raises(ValueError, match="unknown delta kind 'no-such-kind'"):
            _replay_stored_row(tmp_path, "no-such-kind", None)

    def test_pair_kinds_require_nameserver(self, tmp_path):
        zonedb = ZoneDatabase()
        with pytest.raises(ValueError, match="requires a nameserver"):
            zonedb._emit(DeltaEvent(kind=DELEGATION_REMOVE, day=0, name="a.biz"))
        assert zonedb.deltas_since(None) == []
        # A row with a NULL ns is read back unchecked; replay refuses it
        # with a ValueError, which ``python -O`` does not strip.
        with pytest.raises(
            ValueError, match="delegation-add delta for 'a.biz' has no nameserver"
        ):
            _replay_stored_row(tmp_path, DELEGATION_ADD, None)

    def test_engine_replay_names_the_bad_delta(self):
        """A stored pair row without its nameserver makes the stream one
        that rewrites: the fold that replays it refuses it by name."""
        source = ZoneDatabase()
        source.store.apply_delta(_add(2, "a.biz", "ns1.x.com"), 2)
        source.store.record_delta(DeltaEvent(DELEGATION_REMOVE, 4, "b.biz"), 4)
        engine = IncrementalDetectionEngine(WhoisArchive())
        assert engine.advance_from(source, until=2) == 1
        with pytest.raises(
            ValueError, match="delegation-remove delta for 'b.biz' has no nameserver"
        ):
            engine.advance_from(source)


class TestGroupBatches:
    def test_groups_by_batch_day(self):
        stream = [
            (1, _add(1, "a.biz", "ns1.x.com")),
            (1, _add(1, "b.biz", "ns1.x.com")),
            (4, _add(3, "c.biz", "ns2.x.com")),
        ]
        batches = group_batches(stream)
        assert [day for day, _ in batches] == [1, 4]
        assert [len(events) for _, events in batches] == [2, 1]

    def test_rejects_decreasing_batch_days(self):
        stream = [
            (4, _add(4, "a.biz", "ns1.x.com")),
            (1, _add(1, "b.biz", "ns1.x.com")),
        ]
        with pytest.raises(ValueError, match="out of order"):
            group_batches(stream)


class TestReplayQueries:
    """The store is the durable delta log: windows over its batch days."""

    def _log(self) -> ZoneDatabase:
        zonedb = ZoneDatabase()
        zonedb.store.record_delta(_add(1, "a.biz", "ns1.x.com"), 1)
        zonedb.store.record_delta(_add(3, "b.biz", "ns1.x.com"), 3)
        zonedb.store.record_delta(_add(3, "c.biz", "ns2.x.com"), 3)
        zonedb.store.record_delta(_add(6, "d.biz", "ns2.x.com"), 6)
        return zonedb

    def test_events_since_is_exclusive(self):
        log = self._log()
        assert len(log.deltas_since(None)) == 4
        assert [d for d, _ in log.deltas_since(1)] == [3, 3, 6]
        assert log.deltas_since(6) == []

    def test_batches_window_is_since_exclusive_until_inclusive(self):
        log = self._log()
        batches = DeltaView(log, since=1, until=3).batches()
        assert [day for day, _ in batches] == [3]
        assert len(batches[0][1]) == 2
        assert [day for day, _ in DeltaView(log).batches()] == [1, 3, 6]
        assert DeltaView(log, since=1, until=3).stats() == (2, 1)
        assert DeltaView(log).stats() == (4, 3)
        assert DeltaView(log, since=1, until=5).last_batch_day() == 3
        assert DeltaView(log, since=6).last_batch_day() is None
        assert DeltaView(log).last_batch_day() == 6
