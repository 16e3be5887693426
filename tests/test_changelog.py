"""The delta vocabulary and the store's recorded delta log."""

from __future__ import annotations

import pytest

from repro.store.changelog import (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    DOMAIN_APPEAR,
    GLUE_ADD,
    DeltaEvent,
    group_batches,
)
from repro.store.dataset import DeltaView
from repro.zonedb.database import ZoneDatabase


def _add(day: int, domain: str, ns: str) -> DeltaEvent:
    return DeltaEvent(kind=DELEGATION_ADD, day=day, name=domain, ns=ns)


class TestDeltaEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown delta kind"):
            DeltaEvent(kind="no-such-kind", day=0, name="a.biz")

    def test_pair_kinds_require_nameserver(self):
        with pytest.raises(ValueError, match="requires a nameserver"):
            DeltaEvent(kind=DELEGATION_REMOVE, day=0, name="a.biz")

    def test_payload_round_trip(self):
        for event in (
            _add(3, "a.biz", "ns1.x.com"),
            DeltaEvent(kind=GLUE_ADD, day=5, name="ns1.x.biz"),
            DeltaEvent(kind=DOMAIN_APPEAR, day=7, name="b.biz"),
        ):
            assert DeltaEvent.from_payload(event.to_payload()) == event


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
