"""EPP domain and host objects (RFC 5731 / RFC 5732 object model).

A repository stores two object classes. *Domain objects* carry the
registration of a name directly below one of the repository's TLDs,
including its nameserver delegation (a list of host-object references or
external host names). *Host objects* represent nameservers; a host whose
name falls under a domain in the repository is **subordinate** to that
domain (its *superordinate*), while a host named under a foreign TLD is
**external** to the repository.

The linkage bookkeeping on these objects (``linked_domains`` on hosts,
``subordinate_hosts`` on domains) is what lets the repository enforce the
RFC deletion constraints that give rise to sacrificial nameservers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class DomainStatus(str, Enum):
    """Domain object statuses (the subset relevant to the lifecycle)."""

    OK = "ok"
    CLIENT_HOLD = "clientHold"
    SERVER_HOLD = "serverHold"
    PENDING_DELETE = "pendingDelete"
    CLIENT_DELETE_PROHIBITED = "clientDeleteProhibited"
    SERVER_DELETE_PROHIBITED = "serverDeleteProhibited"
    CLIENT_TRANSFER_PROHIBITED = "clientTransferProhibited"
    SERVER_TRANSFER_PROHIBITED = "serverTransferProhibited"


class HostStatus(str, Enum):
    """Host object statuses."""

    OK = "ok"
    LINKED = "linked"
    PENDING_DELETE = "pendingDelete"


@dataclass
class DomainObject:
    """A registered domain inside an EPP repository.

    ``nameservers`` holds the host *names* the domain delegates to. For
    hosts that exist as objects in the same repository these are object
    references (renaming the host object is visible through the domain
    automatically); the repository resolves names to objects at zone
    generation time, which models that reference semantics.

    Every name field holds canonical text: the repository checks names
    when a request arrives and builds objects from the checked text.
    """

    name: str
    sponsor: str
    created: int
    expires: int
    statuses: set[DomainStatus] = field(default_factory=lambda: {DomainStatus.OK})
    nameservers: list[str] = field(default_factory=list)
    registrant: str = ""
    #: Transfer authorization code (EPP authInfo); the gaining registrar
    #: must present it to take over sponsorship.
    auth_info: str = ""

    @property
    def is_deletable(self) -> bool:
        """True if no status flag forbids deletion."""
        return not (
            DomainStatus.CLIENT_DELETE_PROHIBITED in self.statuses
            or DomainStatus.SERVER_DELETE_PROHIBITED in self.statuses
        )

    def replace_nameserver(self, old: str, new: str) -> None:
        """Swap one NS target for another (canonical text), preserving order."""
        self.nameservers = [new if ns == old else ns for ns in self.nameservers]


@dataclass
class HostObject:
    """A nameserver host object inside an EPP repository.

    ``external`` marks hosts whose superordinate namespace lies outside
    the repository; such hosts carry no addresses in this repository and,
    per operational practice, cannot be further modified by the registrar
    (the property that makes sacrificial renames irreversible). Like
    :class:`DomainObject`, it holds canonical text.
    """

    name: str
    sponsor: str
    created: int
    addresses: set[str] = field(default_factory=set)
    superordinate: str | None = None
    external: bool = False
    linked_domains: set[str] = field(default_factory=set)
    statuses: set[HostStatus] = field(default_factory=lambda: {HostStatus.OK})

    @property
    def is_linked(self) -> bool:
        """True if at least one domain delegates to this host."""
        return bool(self.linked_domains)

    def link(self, domain: str) -> None:
        """Record that ``domain`` (canonical text) delegates to this host."""
        self.linked_domains.add(domain)
        self.statuses.add(HostStatus.LINKED)

    def unlink(self, domain: str) -> None:
        """Record that ``domain`` (canonical text) no longer delegates here."""
        self.linked_domains.discard(domain)
        if not self.linked_domains:
            self.statuses.discard(HostStatus.LINKED)
