"""The ``DelegationStore`` protocol and the record types backends share.

A delegation store holds exactly the DZDB reduction the paper's
methodology consumes: half-open ``[start, end)`` co-occurrence intervals
per (domain, nameserver) pair, plus presence histories for glue hosts
and delegated domains. The :class:`~repro.zonedb.database.ZoneDatabase`
façade owns all *semantics* (snapshot diffing, gap bridging, ingest
policies); backends own only storage and retrieval, so swapping the
in-memory structure for SQLite cannot change what the pipeline sees.

Presence histories are keyed by ``kind``: ``"glue"`` for glue-carrying
hosts, ``"domain"`` for in-zone domain presence.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.simtime import Interval
from repro.store.changelog import (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    DOMAIN_APPEAR,
    DOMAIN_EXPIRE,
    GLUE_ADD,
    GLUE_REMOVE,
    TLD_COVER,
    DeltaEvent,
    check_delta,
    pair_nameserver,
)

#: Presence-history kinds every backend must support.
GLUE = "glue"
DOMAIN = "domain"


class DelegationRecord:
    """One (domain, nameserver) co-occurrence interval.

    The in-memory backend shares one record object between its
    per-domain and per-nameserver indexes so closing the interval
    updates both views; other backends materialize equal-valued records
    per query. Identity therefore matters only inside a backend — never
    compare records by ``is`` across store calls.
    """

    __slots__ = ("domain", "ns", "start", "end")

    def __init__(self, domain: str, ns: str, start: int, end: int | None = None):
        self.domain = domain
        self.ns = ns
        self.start = start
        self.end = end

    @property
    def interval(self) -> Interval:
        """The record's interval view."""
        return Interval(self.start, self.end)

    def active_on(self, day: int) -> bool:
        """True if the pair was in the zone on ``day``."""
        return self.start <= day and (self.end is None or day < self.end)

    def as_tuple(self) -> tuple[str, str, int, int | None]:
        """Value view, for backend-independent comparisons."""
        return (self.domain, self.ns, self.start, self.end)

    def __repr__(self) -> str:
        return (
            f"DelegationRecord({self.domain!r} -> {self.ns!r}, "
            f"[{self.start}, {self.end}))"
        )


class PresenceHistory:
    """Open/close interval tracking for a set of keys (e.g. glue hosts).

    The shared in-memory implementation; the SQLite backend reproduces
    the same semantics in SQL. A key closed on the day it opened leaves
    no interval (invisible at daily zone-snapshot granularity).
    """

    __slots__ = ("_closed", "_open")

    def __init__(self) -> None:
        self._closed: dict[str, list[Interval]] = {}
        self._open: dict[str, int] = {}

    def open(self, key: str, day: int) -> None:
        if key not in self._open:
            self._open[key] = day

    def close(self, key: str, day: int) -> None:
        start = self._open.pop(key, None)
        if start is not None:
            if day > start:
                self._closed.setdefault(key, []).append(Interval(start, day))
            # zero-length presence (opened and closed the same day) vanishes

    def is_open(self, key: str) -> bool:
        """True if ``key`` has an interval still open."""
        return key in self._open

    def is_present(self, key: str, day: int) -> bool:
        start = self._open.get(key)
        if start is not None and start <= day:
            return True
        return any(iv.contains(day) for iv in self._closed.get(key, ()))

    def intervals(self, key: str) -> list[Interval]:
        result = list(self._closed.get(key, ()))
        start = self._open.get(key)
        if start is not None:
            result.append(Interval(start, None))
        return result

    def keys(self) -> Iterator[str]:
        seen = set(self._closed) | set(self._open)
        return iter(sorted(seen))


def records_as_of(
    records: Iterable[DelegationRecord], day: int
) -> list[DelegationRecord]:
    """``records`` as a store replayed through ``day`` holds them.

    On a delta stream that never rewrites an earlier day, that store
    lacks every record starting after ``day`` and has not yet closed any
    record ending after it. A cut record is a new object: the caller's
    records are never changed.
    """
    return [
        record
        if record.end is None or record.end <= day
        else DelegationRecord(record.domain, record.ns, record.start)
        for record in records
        if record.start <= day
    ]


def intervals_as_of(intervals: Iterable[Interval], day: int) -> list[Interval]:
    """Presence ``intervals`` cut at ``day`` the way :func:`records_as_of`
    cuts records."""
    return [
        interval
        if interval.end is None or interval.end <= day
        else Interval(interval.start, None)
        for interval in intervals
        if interval.start <= day
    ]


def scan_stream(
    deltas: Iterable[tuple[int, DeltaEvent]],
) -> list[tuple[int, str]] | None:
    """Each ``tld-cover`` delta's ``(batch_day, tld)``, or None if the
    stream rewrites.

    A stream rewrites when any delta's effective day is not its batch
    day (gap bridging closes intervals retroactively), or its kind is
    unknown, or a pair kind lacks its nameserver. A stream that does not
    can be read as of any batch day without replaying it (see
    :func:`records_as_of`).
    """
    covers: list[tuple[int, str]] = []
    for batch_day, event in deltas:
        if event.day != batch_day:
            return None
        try:
            check_delta(event)
        except ValueError:
            return None
        if event.kind == TLD_COVER:
            covers.append((batch_day, event.name))
    return covers


def dispatch_delta(store: "DelegationStore", event: "DeltaEvent") -> None:
    """Apply one delta event's mutation through the store primitives.

    The shared dispatcher both backends' ``apply_delta`` use, so a
    replayed event performs *exactly* the primitive call the original
    mutation did — which is what makes delta replay reproduce a store
    bit-for-bit. ``tld-cover`` events carry no store mutation (coverage
    is façade metadata) and fall through. An unknown kind, or a pair
    kind without a nameserver, raises ``ValueError``.
    """
    if event.kind == DELEGATION_ADD:
        store.open_pair(event.name, pair_nameserver(event), event.day)
    elif event.kind == DELEGATION_REMOVE:
        store.close_pair(event.name, pair_nameserver(event), event.day)
    elif event.kind == GLUE_ADD:
        store.open_presence(GLUE, event.name, event.day)
    elif event.kind == GLUE_REMOVE:
        store.close_presence(GLUE, event.name, event.day)
    elif event.kind == DOMAIN_APPEAR:
        store.open_presence(DOMAIN, event.name, event.day)
    elif event.kind == DOMAIN_EXPIRE:
        store.close_presence(DOMAIN, event.name, event.day)
    elif event.kind != TLD_COVER:
        raise ValueError(f"unknown delta kind {event.kind!r}")


@runtime_checkable
class DelegationStore(Protocol):
    """Storage contract between the zone-database façade and backends.

    All names are expected canonical (lower-case, no trailing dot): the
    façade canonicalizes before calling, so backends never validate.
    """

    #: Stable backend identifier ("memory", "sqlite", ...).
    backend_name: str

    # -- pair intervals ----------------------------------------------------

    def open_pair(self, domain: str, ns: str, day: int) -> None:
        """Open a new (domain, ns) interval starting on ``day``."""

    def close_pair(self, domain: str, ns: str, day: int) -> None:
        """Close the open (domain, ns) interval on ``day``.

        Closing on or before the open day annihilates the record: a pair
        added and removed within one day is invisible to daily zone
        snapshots and must not exist in the history. Closing a pair that
        is not open is a no-op.
        """

    def current_nameservers(self, domain: str) -> frozenset[str]:
        """NS names with an open interval for ``domain`` right now."""

    def current_domains(self, suffix: str | None = None) -> list[str]:
        """Domains with at least one open interval, optionally filtered
        to those ending in ``suffix`` (e.g. ``".com"``)."""

    # -- pair queries ------------------------------------------------------

    def all_nameservers(self, as_of: int | None = None) -> Iterator[str]:
        """Every NS name ever referenced by any delegation.

        With ``as_of``, only names with a record starting on or before
        that day (the same holds for :meth:`nameserver_count` and
        :meth:`iter_ns_records`, which also cut each record as
        :func:`records_as_of` does): the whole-table reads of a store
        viewed as of a batch day, answered by the backend itself.
        """

    def all_domains(self) -> Iterator[str]:
        """Every domain ever delegated in the data set."""

    def nameserver_count(self, as_of: int | None = None) -> int:
        """Number of distinct NS names ever seen (by ``as_of``)."""

    def domain_count(self) -> int:
        """Number of distinct domains ever seen."""

    def ns_records(self, ns: str) -> list[DelegationRecord]:
        """All interval records referencing nameserver ``ns``."""

    def domain_records(self, domain: str) -> list[DelegationRecord]:
        """All interval records for ``domain``."""

    def iter_ns_records(
        self, as_of: int | None = None
    ) -> Iterator[tuple[str, list[DelegationRecord]]]:
        """``(ns, ns_records(ns))`` for every nameserver, in
        ``all_nameservers()`` order, from one pass over the pairs.

        The whole-table read behind the candidate scan and the data-set
        statistics: one ordered scan instead of a query per name. Do not
        write to the store while a pass is open.
        """

    def iter_domain_records(self) -> Iterator[tuple[str, list[DelegationRecord]]]:
        """``(domain, domain_records(domain))`` for every domain, in
        ``all_domains()`` order, from one pass over the pairs."""

    def domains_in_tld(self, tld: str) -> list[str]:
        """Ever-seen domains whose TLD is ``tld`` (one partition)."""

    # -- presence histories ------------------------------------------------

    def open_presence(self, kind: str, key: str, day: int) -> None:
        """Open presence of ``key`` from ``day`` (no-op if already open)."""

    def close_presence(self, kind: str, key: str, day: int) -> None:
        """Close presence of ``key`` on ``day`` (same-day opens vanish)."""

    def presence_contains(self, kind: str, key: str, day: int) -> bool:
        """True if ``key`` was present on ``day``."""

    def presence_intervals(self, kind: str, key: str) -> list[Interval]:
        """Presence intervals for ``key``, in chronological order."""

    def presence_keys(self, kind: str) -> Iterator[str]:
        """Every key ever present, in sorted order."""

    def presence_open(self, kind: str, key: str) -> bool:
        """True if ``key`` currently has an open presence interval.

        The façade uses this to emit delta events only for *effective*
        mutations: daily glue re-assertion is a store no-op and must
        not flood the delta stream.
        """

    # -- delta tracking ----------------------------------------------------

    def apply_delta(self, event: "DeltaEvent", batch_day: int) -> None:
        """Apply one delta event and record it under ``batch_day``.

        The single write path incremental consumers rely on: the
        mutation and its record are inseparable, so ``deltas_since``
        reproduces exactly the mutations performed.
        """

    def record_delta(self, event: "DeltaEvent", batch_day: int) -> None:
        """Record a delta without applying it (the recording half of
        :meth:`apply_delta`)."""

    def deltas_since(
        self, day: int | None, until: int | None = None
    ) -> list[tuple[int, "DeltaEvent"]]:
        """Recorded (batch_day, event) pairs with ``day < batch_day <= until``.

        ``None`` leaves that side of the window open. Pairs come back in
        the order they were recorded; batch days are non-decreasing.
        """

    def delta_stats(
        self, day: int | None, until: int | None = None
    ) -> tuple[int, int]:
        """(deltas, distinct batch days) in the same window as
        :meth:`deltas_since`, counted without materialising events."""

    def last_batch_day(
        self, day: int | None = None, until: int | None = None
    ) -> int | None:
        """The newest batch day in the same window, or None if empty."""

    def scan_deltas(self) -> list[tuple[int, str]] | None:
        """:func:`scan_stream` over every recorded delta, in one pass."""

    # -- metadata / lifecycle ----------------------------------------------

    def get_meta(self, key: str) -> str | None:
        """Read one metadata string (None when absent)."""

    def set_meta(self, key: str, value: str) -> None:
        """Write one metadata string."""

    def flush(self) -> None:
        """Make all writes durable (no-op for volatile backends)."""

    def close(self) -> None:
        """Flush and release any underlying resources."""
