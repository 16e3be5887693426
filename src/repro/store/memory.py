"""The in-memory delegation store (the seed structure, behind the protocol).

This is the structure the simulator's zone mirrors write into and the
structure every pre-refactor result was computed against, so its
iteration orders are preserved exactly: ``all_nameservers`` /
``all_domains`` yield first-seen (insertion) order, and record lists
keep open order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.simtime import Interval
from repro.store.base import (
    DOMAIN,
    GLUE,
    DelegationRecord,
    PresenceHistory,
    dispatch_delta,
)

if TYPE_CHECKING:
    from repro.store.changelog import DeltaEvent


class MemoryDelegationStore:
    """Dict-of-intervals backend; fast, volatile, insertion-ordered."""

    backend_name = "memory"

    def __init__(self) -> None:
        self._domain_recs: dict[str, list[DelegationRecord]] = {}
        self._ns_recs: dict[str, list[DelegationRecord]] = {}
        self._open: dict[tuple[str, str], DelegationRecord] = {}
        self._current: dict[str, set[str]] = {}
        self._presence: dict[str, PresenceHistory] = {
            GLUE: PresenceHistory(),
            DOMAIN: PresenceHistory(),
        }
        self._meta: dict[str, str] = {}
        self._deltas: list[tuple[int, "DeltaEvent"]] = []

    # -- pair intervals ----------------------------------------------------

    def open_pair(self, domain: str, ns: str, day: int) -> None:
        record = DelegationRecord(domain, ns, day)
        self._open[(domain, ns)] = record
        self._domain_recs.setdefault(domain, []).append(record)
        self._ns_recs.setdefault(ns, []).append(record)
        self._current.setdefault(domain, set()).add(ns)

    def close_pair(self, domain: str, ns: str, day: int) -> None:
        record = self._open.pop((domain, ns), None)
        if record is None:
            return
        current = self._current.get(domain)
        if current is not None:
            current.discard(ns)
            if not current:
                del self._current[domain]
        if day <= record.start:
            # Added and removed within one day: invisible to daily zone
            # snapshots, so it must not exist in the interval history.
            self._domain_recs[domain].remove(record)
            if not self._domain_recs[domain]:
                del self._domain_recs[domain]
            self._ns_recs[ns].remove(record)
            if not self._ns_recs[ns]:
                del self._ns_recs[ns]
            return
        record.end = day

    def add_record(self, domain: str, ns: str, start: int, end: int | None) -> None:
        record = DelegationRecord(domain, ns, start, end)
        self._domain_recs.setdefault(domain, []).append(record)
        self._ns_recs.setdefault(ns, []).append(record)
        if end is None:
            self._open[(domain, ns)] = record
            self._current.setdefault(domain, set()).add(ns)

    def current_nameservers(self, domain: str) -> frozenset[str]:
        return frozenset(self._current.get(domain, ()))

    def current_domains(self, suffix: str | None = None) -> list[str]:
        if suffix is None:
            return list(self._current)
        return [domain for domain in self._current if domain.endswith(suffix)]

    # -- pair queries ------------------------------------------------------

    def all_nameservers(self) -> Iterator[str]:
        return iter(self._ns_recs)

    def all_domains(self) -> Iterator[str]:
        return iter(self._domain_recs)

    def nameserver_count(self) -> int:
        return len(self._ns_recs)

    def domain_count(self) -> int:
        return len(self._domain_recs)

    def ns_records(self, ns: str) -> list[DelegationRecord]:
        return list(self._ns_recs.get(ns, ()))

    def domain_records(self, domain: str) -> list[DelegationRecord]:
        return list(self._domain_recs.get(domain, ()))

    def domains_in_tld(self, tld: str) -> list[str]:
        suffix = "." + tld
        return [domain for domain in self._domain_recs if domain.endswith(suffix)]

    def partitions(self) -> list[str]:
        return sorted({domain.rsplit(".", 1)[-1] for domain in self._domain_recs})

    # -- presence histories ------------------------------------------------

    def open_presence(self, kind: str, key: str, day: int) -> None:
        self._presence[kind].open(key, day)

    def close_presence(self, kind: str, key: str, day: int) -> None:
        self._presence[kind].close(key, day)

    def add_presence(self, kind: str, key: str, start: int, end: int | None) -> None:
        self._presence[kind].add(key, start, end)

    def presence_contains(self, kind: str, key: str, day: int) -> bool:
        return self._presence[kind].is_present(key, day)

    def presence_intervals(self, kind: str, key: str) -> list[Interval]:
        return self._presence[kind].intervals(key)

    def presence_keys(self, kind: str) -> Iterator[str]:
        return self._presence[kind].keys()

    def presence_open(self, kind: str, key: str) -> bool:
        return self._presence[kind].is_open(key)

    # -- delta tracking ----------------------------------------------------

    def apply_delta(self, event: "DeltaEvent", batch_day: int) -> None:
        self.record_delta(event, batch_day)
        dispatch_delta(self, event)

    def record_delta(self, event: "DeltaEvent", batch_day: int) -> None:
        self._deltas.append((batch_day, event))

    def deltas_since(
        self, day: int | None, until: int | None = None
    ) -> list[tuple[int, "DeltaEvent"]]:
        if day is None and until is None:
            return list(self._deltas)
        # Filter the stored pairs rather than rebuilding them: a fresh
        # tuple per delta triggers cyclic-GC passes over the caller's
        # whole heap, which costs far more than the copy itself.
        return [
            pair
            for pair in self._deltas
            if (day is None or pair[0] > day)
            and (until is None or pair[0] <= until)
        ]

    # -- metadata / lifecycle ----------------------------------------------

    def get_meta(self, key: str) -> str | None:
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    def flush(self) -> None:  # volatile: nothing to persist
        return None

    def close(self) -> None:
        return None
