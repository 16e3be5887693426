"""The longitudinal zone database: interval histories of delegations.

DZDB reduces daily zone files to first-seen/last-seen intervals per
(domain, nameserver) pair plus glue presence. :class:`ZoneDatabase`
maintains exactly that, with two write paths:

* :meth:`ingest_snapshot` — diff a full daily snapshot against the
  previous state (how DZDB processes real zone files);
* the change-level API (:meth:`set_delegation`, :meth:`remove_delegation`,
  :meth:`set_glue`, :meth:`remove_glue`) — driven directly by the
  simulated registries' audit streams, equivalent to snapshot diffing but
  without materializing thousands of full snapshots.

All intervals are half-open ``[start, end)`` in day indices; an interval
with ``end is None`` is still open at the database horizon.

Storage is delegated to a pluggable :class:`~repro.store.base.DelegationStore`
backend (in-memory by default, SQLite for on-disk datasets); this class
owns all *semantics* — name canonicalization, snapshot diffing, ingest
policies, and DZDB-style gap bridging — so backends stay interchangeable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

from repro.dnscore.errors import NameError_
from repro.dnscore.names import Name
from repro.simtime import Interval
from repro.store.base import (
    DOMAIN,
    GLUE,
    DelegationRecord,
    DelegationStore,
    dispatch_delta,
)
from repro.store.changelog import (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    DOMAIN_APPEAR,
    DOMAIN_EXPIRE,
    GLUE_ADD,
    GLUE_REMOVE,
    TLD_COVER,
    ChangeLog,
    DeltaEvent,
)
from repro.store.memory import MemoryDelegationStore
from repro.zonedb.snapshot import ZoneSnapshot

__all__ = [
    "DelegationRecord",
    "FinalizeReport",
    "IngestError",
    "IngestPolicy",
    "IngestReport",
    "ZoneDatabase",
]


class IngestError(Exception):
    """Raised in strict mode when a snapshot cannot be ingested cleanly."""


@dataclass(frozen=True)
class IngestPolicy:
    """How :meth:`ZoneDatabase.ingest_snapshot` reacts to degraded input.

    ``gap_bridge_days`` is the DZDB-style bridging window: a delegation
    absent from snapshots for at most that many days keeps its interval
    open (missing zone-file days do not close and re-open histories).
    The default window of 0 reproduces strict day-level diffing exactly.
    In ``strict`` mode corrupt records and out-of-order snapshots raise
    :class:`IngestError` instead of being skipped and counted.
    """

    gap_bridge_days: int = 0
    strict: bool = False


@dataclass
class IngestReport:
    """What one :meth:`ZoneDatabase.ingest_snapshot` call actually did."""

    day: int
    tld: str
    #: False when the whole snapshot was rejected (see ``reason``).
    ingested: bool = True
    reason: str | None = None
    #: True when the same (tld, day) was already ingested.
    duplicate: bool = False
    #: Delegated domains carried by the snapshot.
    delegations: int = 0
    #: Records skipped because they could not be parsed.
    records_skipped: int = 0
    #: Mangled names detected among the skipped records.
    corrupt_records: int = 0
    #: Delegations whose absence gap was bridged (interval kept open).
    gaps_bridged: int = 0
    #: Delegations closed retroactively after exceeding the gap window.
    closed_after_gap: int = 0

    @property
    def corruption_detected(self) -> bool:
        """True if any record in the snapshot was mangled."""
        return self.corrupt_records > 0

    @property
    def clean(self) -> bool:
        """True if the snapshot ingested fully, with nothing degraded."""
        return (
            self.ingested
            and not self.duplicate
            and self.records_skipped == 0
            and self.gaps_bridged == 0
            and self.closed_after_gap == 0
        )


@dataclass
class FinalizeReport:
    """What one :meth:`ZoneDatabase.finalize_pending` call actually did.

    The IngestReport-style summary of the horizon sweep: how many
    pending gap-bridge verdicts were closed, which domains they were,
    and how many synthesized bridging deltas landed in the delta stream
    (incremental consumers fold these exactly like ingest-time deltas).
    """

    #: Delegations closed at the day they were first observed absent.
    closed: int = 0
    #: Delta events the synthesized closes emitted.
    deltas_emitted: int = 0
    #: The closed domains, in the (sorted) order they were processed.
    domains: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True if nothing was pending (the archive ended cleanly)."""
        return self.closed == 0


class ZoneDatabase:
    """Interval histories of delegations and glue across TLD zones.

    A façade: every interval lives in :attr:`store`, a
    :class:`~repro.store.base.DelegationStore` backend. The façade keeps
    only ingest bookkeeping (policy, reports, per-TLD last-ingest days,
    pending gap-bridge verdicts) that has meaning mid-ingest.

    Every mutation flows through one write path (:meth:`_emit`) as a
    typed :class:`~repro.store.changelog.DeltaEvent`: the store applies
    and records it, and an attached :class:`~repro.store.changelog.ChangeLog`
    mirrors it durably. Events are grouped under *batch days* — the day
    the mutation was performed, which can exceed its effective day when
    gap bridging rewrites history retroactively.
    """

    def __init__(
        self,
        covered_tlds: Iterable[str] = (),
        *,
        ingest_policy: IngestPolicy | None = None,
        store: DelegationStore | None = None,
        changelog: ChangeLog | None = None,
    ) -> None:
        self.store: DelegationStore = store if store is not None else MemoryDelegationStore()
        self.covered_tlds: set[str] = {Name(t).text for t in covered_tlds}
        self.horizon: int = 0
        self.ingest_policy = ingest_policy or IngestPolicy()
        self.ingest_reports: list[IngestReport] = []
        self._last_ingest_day: dict[str, int] = {}
        #: Domains absent from recent snapshots, awaiting the bridge
        #: window's verdict: domain -> first day observed absent.
        self._pending_close: dict[str, int] = {}
        #: Mirrors every emitted delta when attached.
        self.changelog: ChangeLog | None = changelog
        #: Explicit batch-day context (set during ingest/finalize so
        #: retroactive rewrites batch under the day that caused them).
        self._batch_day: int | None = None
        #: Batch days never decrease, even across unordered multi-TLD
        #: archives (sequence order is what replay preserves).
        self._batch_floor: int = 0
        #: Running count of emitted deltas (cheap finalize accounting).
        self._deltas_emitted: int = 0
        self._load_meta()

    # -- the delta write path -----------------------------------------------

    def attach_changelog(self, changelog: ChangeLog) -> None:
        """Mirror every subsequently emitted delta into ``changelog``."""
        self.changelog = changelog

    def _emit(self, event: DeltaEvent) -> None:
        """Apply one mutation and record it as a delta.

        The *only* mutation path: the store applies-and-records the
        event under the current batch day, and the attached change log
        (if any) mirrors it durably.
        """
        batch_day = self._batch_day if self._batch_day is not None else self.horizon
        batch_day = max(batch_day, self._batch_floor)
        self._batch_floor = batch_day
        self.store.apply_delta(event, batch_day)
        self._deltas_emitted += 1
        if self.changelog is not None:
            self.changelog.record(batch_day, event)

    def apply_delta(self, event: DeltaEvent) -> None:
        """Replay one recorded delta into this database (no re-emission).

        The incremental engine grows its own store by replaying a
        recorded delta stream; events mutate through the exact same
        primitives that produced them, so replay is bit-faithful.
        """
        self.horizon = max(self.horizon, event.day)
        if event.kind == TLD_COVER:
            self.covered_tlds.add(event.name)
            return
        dispatch_delta(self.store, event)

    def apply_deltas(self, events: Iterable[DeltaEvent]) -> int:
        """Replay a sequence of deltas; returns how many were applied."""
        count = 0
        for event in events:
            self.apply_delta(event)
            count += 1
        return count

    # -- write path ---------------------------------------------------------

    def cover(self, tld: str) -> None:
        """Declare that this database receives data for ``tld``."""
        tld_text = Name(tld).text
        if tld_text in self.covered_tlds:
            return
        self.covered_tlds.add(tld_text)
        self._emit(DeltaEvent(kind=TLD_COVER, day=self.horizon, name=tld_text))

    def covers(self, name: str) -> bool:
        """True if the TLD of ``name`` is inside the data set."""
        return Name(name).tld in self.covered_tlds

    def advance(self, day: int) -> None:
        """Move the observation horizon forward (no going back)."""
        if day < self.horizon:
            raise ValueError(f"horizon cannot move backwards: {day} < {self.horizon}")
        self.horizon = day

    def set_delegation(self, day: int, domain: str, nameservers: Iterable[str]) -> None:
        """Record that ``domain``'s NS set is ``nameservers`` from ``day`` on."""
        self.advance(max(self.horizon, day))
        domain_text = Name(domain).text
        new_set = frozenset(Name(ns).text for ns in nameservers)
        if not new_set:
            self.remove_delegation(day, domain_text)
            return
        old_set = self.store.current_nameservers(domain_text)
        if new_set == old_set:
            return
        for ns in sorted(old_set - new_set):
            self._emit(
                DeltaEvent(kind=DELEGATION_REMOVE, day=day, name=domain_text, ns=ns)
            )
        for ns in sorted(new_set - old_set):
            self._emit(
                DeltaEvent(kind=DELEGATION_ADD, day=day, name=domain_text, ns=ns)
            )
        if not self.store.presence_open(DOMAIN, domain_text):
            self._emit(DeltaEvent(kind=DOMAIN_APPEAR, day=day, name=domain_text))

    def remove_delegation(self, day: int, domain: str) -> None:
        """Record that ``domain`` left the zone on ``day``."""
        self.advance(max(self.horizon, day))
        domain_text = Name(domain).text
        for ns in sorted(self.store.current_nameservers(domain_text)):
            self._emit(
                DeltaEvent(kind=DELEGATION_REMOVE, day=day, name=domain_text, ns=ns)
            )
        if self.store.presence_open(DOMAIN, domain_text):
            self._emit(DeltaEvent(kind=DOMAIN_EXPIRE, day=day, name=domain_text))

    def set_glue(self, day: int, host: str) -> None:
        """Record that ``host`` has glue from ``day`` on."""
        self.advance(max(self.horizon, day))
        host_text = Name(host).text
        if not self.store.presence_open(GLUE, host_text):
            self._emit(DeltaEvent(kind=GLUE_ADD, day=day, name=host_text))

    def remove_glue(self, day: int, host: str) -> None:
        """Record that ``host`` lost its glue on ``day``."""
        self.advance(max(self.horizon, day))
        host_text = Name(host).text
        if self.store.presence_open(GLUE, host_text):
            self._emit(DeltaEvent(kind=GLUE_REMOVE, day=day, name=host_text))

    def ingest_snapshot(self, snapshot: ZoneSnapshot) -> IngestReport:
        """Diff one daily snapshot against current state (DZDB mode).

        Domains in the snapshot's TLD that are currently known but absent
        from the snapshot are closed; changed or new delegations are
        opened. Glue presence is diffed the same way.

        Degraded input is handled per :attr:`ingest_policy`: out-of-order
        snapshots are skipped (raised in strict mode), duplicates are
        re-diffed idempotently, corrupt records are skipped and counted,
        and — with a non-zero ``gap_bridge_days`` — a delegation absent
        for at most the window keeps its interval open instead of being
        closed and re-opened. The returned :class:`IngestReport` (also
        appended to :attr:`ingest_reports`) says exactly what happened.
        """
        policy = self.ingest_policy
        report = IngestReport(day=snapshot.day, tld=snapshot.tld)
        # Everything this ingest does — including retroactive gap-bridge
        # closes whose effective day is in the past — batches under the
        # snapshot day, so delta consumers see one batch per ingest.
        self._batch_day = max(snapshot.day, self._batch_floor)
        try:
            return self._ingest_snapshot_batched(snapshot, policy, report)
        finally:
            self._batch_day = None

    def _ingest_snapshot_batched(
        self, snapshot: ZoneSnapshot, policy: IngestPolicy, report: IngestReport
    ) -> IngestReport:
        self.cover(snapshot.tld)
        day = snapshot.day
        suffix = "." + snapshot.tld
        last = self._last_ingest_day.get(snapshot.tld)
        if last is not None:
            if day < last:
                if policy.strict:
                    raise IngestError(
                        f"out-of-order snapshot for {snapshot.tld!r}: "
                        f"day {day} after day {last}"
                    )
                report.ingested = False
                report.reason = "out-of-order"
                self.ingest_reports.append(report)
                return report
            if day == last:
                report.duplicate = True
        self._last_ingest_day[snapshot.tld] = day
        report.delegations = len(snapshot.delegations)
        bridge = policy.gap_bridge_days
        if bridge:
            # Close pending absences whose window lapsed without the
            # domain coming back (resurrected domains are handled below).
            for domain, absent_since in list(self._pending_close.items()):
                if not domain.endswith(suffix):
                    continue
                if domain in snapshot.delegations:
                    continue
                if day - absent_since > bridge:
                    self.remove_delegation(absent_since, domain)
                    del self._pending_close[domain]
                    report.closed_after_gap += 1
        for domain in self.store.current_domains(suffix):
            if domain not in snapshot.delegations:
                if bridge:
                    self._pending_close.setdefault(domain, day)
                else:
                    self.remove_delegation(day, domain)
        for domain, ns_set in snapshot.delegations.items():
            if bridge:
                absent_since = self._pending_close.pop(domain, None)
                if absent_since is not None:
                    if day - absent_since > bridge:
                        self.remove_delegation(absent_since, domain)
                        report.closed_after_gap += 1
                    else:
                        report.gaps_bridged += 1
            try:
                self.set_delegation(day, domain, ns_set)
            except NameError_:
                self._ingest_degraded_delegation(day, domain, ns_set, report)
        glue_now = {host for host, addrs in snapshot.glue.items() if addrs}
        for host in list(self.store.presence_keys(GLUE)):
            if host.endswith(suffix) and host not in glue_now:
                if self.store.presence_contains(GLUE, host, day):
                    self.remove_glue(day, host)
        for host in sorted(glue_now):
            try:
                self.set_glue(day, host)
            except NameError_:
                if policy.strict:
                    raise IngestError(
                        f"corrupt glue record {host!r} on day {day}"
                    ) from None
                report.corrupt_records += 1
                report.records_skipped += 1
        self.ingest_reports.append(report)
        return report

    def _ingest_degraded_delegation(
        self, day: int, domain: str, ns_set: Iterable[str], report: IngestReport
    ) -> None:
        """Salvage a delegation whose record set failed name validation.

        Zone-file corruption hits individual records (lines), so a bad NS
        target drops only that (domain, ns) pair; a mangled owner name
        makes the whole delegation unparseable — and the true domain, if
        previously known, shows up as absent through the normal diff.
        """
        if self.ingest_policy.strict:
            raise IngestError(
                f"corrupt delegation record for {domain!r} on day {day}"
            ) from None
        ns_list = list(ns_set)
        try:
            Name(domain)
        except NameError_:
            report.corrupt_records += 1
            report.records_skipped += max(1, len(ns_list))
            return
        valid = []
        for ns in ns_list:
            try:
                Name(ns)
            except NameError_:
                report.corrupt_records += 1
                report.records_skipped += 1
            else:
                valid.append(ns)
        if valid:
            self.set_delegation(day, domain, valid)

    def finalize_pending(self) -> FinalizeReport:
        """Close every delegation still awaiting its gap-bridge verdict.

        Call once after the last snapshot of an archive: domains that
        disappeared near the end of the data and never came back are
        closed at the day they were first observed absent (exactly what
        a bridging DZDB does at its horizon). The synthesized bridging
        closes are emitted as deltas batched under the horizon day, so
        incremental consumers see them like any other rewrite. Returns
        a :class:`FinalizeReport` summary.
        """
        report = FinalizeReport()
        emitted_before = self._deltas_emitted
        self._batch_day = max(self.horizon, self._batch_floor)
        try:
            for domain, absent_since in sorted(self._pending_close.items()):
                self.remove_delegation(absent_since, domain)
                report.closed += 1
                report.domains.append(domain)
            self._pending_close.clear()
        finally:
            self._batch_day = None
        report.deltas_emitted = self._deltas_emitted - emitted_before
        return report

    # -- metadata persistence ------------------------------------------------

    _META_KEY = "zonedb"

    def _load_meta(self) -> None:
        """Adopt persisted façade state from a pre-existing store."""
        raw = self.store.get_meta(self._META_KEY)
        if raw is None:
            return
        meta = json.loads(raw)
        self.covered_tlds.update(meta.get("covered_tlds", ()))
        self.horizon = max(self.horizon, int(meta.get("horizon", 0)))
        self._last_ingest_day.update(meta.get("last_ingest_day", {}))
        for entry in meta.get("ingest_reports", ()):
            self.ingest_reports.append(IngestReport(**entry))

    def flush(self) -> None:
        """Persist façade state into the store and make writes durable."""
        meta = {
            "covered_tlds": sorted(self.covered_tlds),
            "horizon": self.horizon,
            "last_ingest_day": dict(sorted(self._last_ingest_day.items())),
            "ingest_reports": [asdict(report) for report in self.ingest_reports],
        }
        self.store.set_meta(self._META_KEY, json.dumps(meta, sort_keys=True))
        self.store.flush()

    def close(self) -> None:
        """Flush and release the underlying store."""
        self.flush()
        self.store.close()

    # -- delta queries / watermarks -------------------------------------------

    _WATERMARK_PREFIX = "watermark:"

    def deltas_since(
        self, day: int | None, until: int | None = None
    ) -> list[tuple[int, DeltaEvent]]:
        """Recorded (batch_day, event) pairs with ``day < batch_day <= until``."""
        return self.store.deltas_since(day, until)

    def watermark(self, consumer: str) -> int | None:
        """The last batch day ``consumer`` committed against this store."""
        raw = self.store.get_meta(self._WATERMARK_PREFIX + consumer)
        return None if raw is None else int(raw)

    def commit_watermark(self, consumer: str, day: int) -> None:
        """Durably record that ``consumer`` processed through ``day``."""
        current = self.watermark(consumer)
        if current is not None and day < current:
            raise ValueError(
                f"watermark for {consumer!r} cannot move backwards: "
                f"{day} < {current}"
            )
        self.store.set_meta(self._WATERMARK_PREFIX + consumer, str(day))
        self.store.flush()

    # -- queries: nameservers -----------------------------------------------

    def all_nameservers(self) -> Iterator[str]:
        """Every NS name ever referenced by any delegation."""
        return iter(self.store.all_nameservers())

    def nameserver_count(self) -> int:
        """Number of distinct NS names ever seen."""
        return self.store.nameserver_count()

    def ns_records(self, ns: str) -> list[DelegationRecord]:
        """All (domain, ns) interval records for ``ns``."""
        return self.store.ns_records(Name(ns).text)

    def first_seen(self, ns: str) -> int | None:
        """The day ``ns`` was first referenced by any domain."""
        records = self.store.ns_records(Name(ns).text)
        if not records:
            return None
        return min(record.start for record in records)

    def domains_of_ns(self, ns: str, day: int | None = None) -> frozenset[str]:
        """Domains delegating to ``ns`` (ever, or on a specific day)."""
        records = self.store.ns_records(Name(ns).text)
        if day is None:
            return frozenset(record.domain for record in records)
        return frozenset(
            record.domain for record in records if record.active_on(day)
        )

    def ns_tlds(self, ns: str) -> frozenset[str]:
        """TLDs of the domains that ever delegated to ``ns``."""
        records = self.store.ns_records(Name(ns).text)
        return frozenset(Name(record.domain).tld for record in records)

    # -- queries: domains ----------------------------------------------------

    def all_domains(self) -> Iterator[str]:
        """Every domain ever delegated in the data set."""
        return iter(self.store.all_domains())

    def domain_count(self) -> int:
        """Number of distinct domains ever seen."""
        return self.store.domain_count()

    def domain_records(self, domain: str) -> list[DelegationRecord]:
        """All (domain, ns) interval records for ``domain``."""
        return self.store.domain_records(Name(domain).text)

    def nameservers_of(self, domain: str, day: int) -> frozenset[str]:
        """The NS set of ``domain`` on ``day``."""
        records = self.store.domain_records(Name(domain).text)
        return frozenset(record.ns for record in records if record.active_on(day))

    def nameservers_removed_on(self, domain: str, day: int) -> frozenset[str]:
        """NS targets whose interval for ``domain`` closed exactly on ``day``.

        These are the nameservers "last seen the day before" ``day`` — the
        join used by the original-nameserver matching step.
        """
        records = self.store.domain_records(Name(domain).text)
        return frozenset(record.ns for record in records if record.end == day)

    def domain_present(self, domain: str, day: int) -> bool:
        """True if ``domain`` was delegated in its zone on ``day``."""
        return self.store.presence_contains(DOMAIN, Name(domain).text, day)

    def domain_presence_intervals(self, domain: str) -> list[Interval]:
        """When ``domain`` was present in its zone, as intervals."""
        return self.store.presence_intervals(DOMAIN, Name(domain).text)

    def domain_ever_seen(self, domain: str) -> bool:
        """True if ``domain`` ever appeared in the data set."""
        return bool(self.store.domain_records(Name(domain).text))

    def tld_partitions(self) -> list[str]:
        """Sorted TLDs of ever-seen domains (dataset partition keys)."""
        return self.store.partitions()

    def domains_in_tld(self, tld: str) -> list[str]:
        """Ever-seen domains in one TLD partition."""
        return self.store.domains_in_tld(Name(tld).text)

    # -- queries: glue --------------------------------------------------------

    def glue_present(self, host: str, day: int) -> bool:
        """True if ``host`` had glue on ``day``."""
        return self.store.presence_contains(GLUE, Name(host).text, day)

    def glue_intervals(self, host: str) -> list[Interval]:
        """Glue presence intervals for ``host``."""
        return self.store.presence_intervals(GLUE, Name(host).text)

    # -- snapshot reconstruction ----------------------------------------------

    def snapshot_at(self, day: int, tld: str) -> ZoneSnapshot:
        """Reconstruct one TLD's snapshot for ``day`` from the intervals."""
        tld_text = Name(tld).text
        delegations: dict[str, frozenset[str]] = {}
        for domain in self.store.domains_in_tld(tld_text):
            active = frozenset(
                r.ns for r in self.store.domain_records(domain) if r.active_on(day)
            )
            if active:
                delegations[domain] = active
        # The database tracks glue *presence*, not addresses (DZDB-style),
        # so reconstructed snapshots carry a documentation placeholder.
        suffix = "." + tld_text
        glue = {
            host: frozenset({"192.0.2.0"})
            for host in self.store.presence_keys(GLUE)
            if host.endswith(suffix)
            and self.store.presence_contains(GLUE, host, day)
        }
        return ZoneSnapshot(day=day, tld=tld_text, delegations=delegations, glue=glue)

    def __repr__(self) -> str:
        return (
            f"ZoneDatabase(tlds={sorted(self.covered_tlds)}, "
            f"domains={self.domain_count()}, ns={self.nameserver_count()}, "
            f"horizon={self.horizon}, backend={self.store.backend_name!r})"
        )
