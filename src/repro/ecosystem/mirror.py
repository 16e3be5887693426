"""Zone mirror: turns registry audit events into zone-database history.

Every provisioning operation that changes what a registry would publish
in its TLD zone files is reflected into the :class:`ZoneDatabase` on the
day it happens. This is exactly equivalent to diffing daily zone-file
snapshots (the DZDB ingestion path — covered by tests that compare the
two), but avoids materializing thousands of full snapshots.
"""

from __future__ import annotations

from repro.ecosystem.ledger import LifecycleLedger
from repro.epp.errors import EppError
from repro.epp.objects import DomainStatus
from repro.epp.repository import EppRepository
from repro.zonedb.database import ZoneDatabase


class ZoneMirror:
    """Mirrors one EPP repository's zone-visible changes into a database.

    When given a :class:`LifecycleLedger` it also forwards every audit
    event there, so object lifecycles are recorded alongside the zone
    history without a second audit hook on the repository.
    """

    def __init__(
        self,
        repository: EppRepository,
        database: ZoneDatabase,
        *,
        ledger: LifecycleLedger | None = None,
    ) -> None:
        self.repository = repository
        self.database = database
        self.ledger = ledger
        self._glue_hosts: set[str] = set()
        # Sorted: each cover is a recorded delta, and a frozenset's
        # order would follow the interpreter's hash seed.
        for tld in sorted(repository.tlds):
            database.cover(tld)

    def __call__(self, day: int, operation: str, details: dict) -> None:
        """The audit-hook entry point."""
        if self.ledger is not None:
            self.ledger.record(day, operation, details, self.repository.operator)
        handler = getattr(self, "_on_" + operation.replace(":", "_"), None)
        if handler is not None:
            handler(day, details)

    # -- domain operations -------------------------------------------------

    def _refresh_domain(self, day: int, name: str) -> None:
        try:
            obj = self.repository.domain(name)
        except EppError:
            self.database.remove_delegation(day, name)
            return
        on_hold = (
            DomainStatus.CLIENT_HOLD in obj.statuses
            or DomainStatus.SERVER_HOLD in obj.statuses
        )
        if obj.nameservers and not on_hold:
            self.database.set_delegation(day, obj.name, obj.nameservers)
        else:
            self.database.remove_delegation(day, obj.name)

    def _on_domain_create(self, day: int, details: dict) -> None:
        self._refresh_domain(day, details["domain"])

    def _on_domain_update(self, day: int, details: dict) -> None:
        self._refresh_domain(day, details["domain"])

    def _on_domain_status(self, day: int, details: dict) -> None:
        self._refresh_domain(day, details["domain"])

    def _on_domain_delete(self, day: int, details: dict) -> None:
        self.database.remove_delegation(day, details["domain"])

    def _on_domain_purge(self, day: int, details: dict) -> None:
        self.database.remove_delegation(day, details["domain"])

    # -- host operations -----------------------------------------------------

    def _refresh_glue(self, day: int, host_name: str) -> None:
        try:
            obj = self.repository.host(host_name)
        except EppError:
            if host_name in self._glue_hosts:
                self._glue_hosts.discard(host_name)
                self.database.remove_glue(day, host_name)
            return
        has_glue = bool(obj.addresses) and not obj.external
        if has_glue and host_name not in self._glue_hosts:
            self._glue_hosts.add(host_name)
            self.database.set_glue(day, host_name)
        elif not has_glue and host_name in self._glue_hosts:
            self._glue_hosts.discard(host_name)
            self.database.remove_glue(day, host_name)

    def _on_host_create(self, day: int, details: dict) -> None:
        self._refresh_glue(day, details["host"])

    def _on_host_addr(self, day: int, details: dict) -> None:
        self._refresh_glue(day, details["host"])

    def _on_host_delete(self, day: int, details: dict) -> None:
        host = details["host"]
        if host in self._glue_hosts:
            self._glue_hosts.discard(host)
            self.database.remove_glue(day, host)

    def _on_host_rename(self, day: int, details: dict) -> None:
        old, new = details["old"], details["new"]
        if old in self._glue_hosts:
            self._glue_hosts.discard(old)
            self.database.remove_glue(day, old)
        self._refresh_glue(day, new)
        for domain in details.get("linked", ()):
            self._refresh_domain(day, domain)
