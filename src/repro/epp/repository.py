"""The EPP object repository: provisioning rules and the rename loophole.

One :class:`EppRepository` backs all TLDs operated by a single registry
operator (e.g. the simulated Verisign repository backs .com, .net, .edu,
and .gov together). This shared-repository scoping is load-bearing for the
paper: a host-object rename performed to delete a .com domain silently
rewrites delegations of .edu/.gov domains in the *same* repository, while
domains in other repositories keep their (now dangling) references.

The repository enforces, per RFC 5731/5732:

* referential integrity — domains cannot be deleted while subordinate
  hosts exist; hosts cannot be deleted while linked to any domain;
* namespace authority — a host can only be created or renamed *into* an
  internal name if its superordinate domain object exists and is sponsored
  by the acting registrar; names under **external** TLDs are outside the
  repository's authority and pass unchecked (the loophole);
* irreversibility — a host subordinate to an external namespace can no
  longer be modified;
* registrar isolation — only an object's sponsoring registrar may mutate
  it.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.dnscore.names import Name
from repro.dnscore.zone import Zone
from repro.epp.errors import EppError, ResultCode
from repro.epp.objects import DomainObject, DomainStatus, HostObject

#: Signature of the optional audit hook: (day, operation, details dict).
AuditHook = Callable[[int, str, dict], None]


class EppRepository:
    """An EPP object repository authoritative for a set of TLDs."""

    def __init__(
        self,
        operator: str,
        tlds: Iterable[str],
        *,
        audit_hook: AuditHook | None = None,
    ) -> None:
        self.operator = operator
        self.tlds = frozenset(Name(t).text for t in tlds)
        for tld in self.tlds:
            if "." in tld:
                raise ValueError(f"repository namespace entries must be TLDs: {tld!r}")
        self._domains: dict[str, DomainObject] = {}
        self._hosts: dict[str, HostObject] = {}
        self._subordinates: dict[str, set[str]] = {}
        self._audit_hook = audit_hook

    # -- namespace helpers -------------------------------------------------

    def is_internal(self, name: str) -> bool:
        """True if ``name`` falls under a TLD this repository operates."""
        return Name(name).tld in self.tlds

    def superordinate_of(self, host_name: str) -> str:
        """The registered domain an internal host name sits under.

        TLD registries register names only at the second level, so the
        superordinate of ``ns1.foo.com`` is ``foo.com``.
        """
        name = Name(host_name)
        if not self.is_internal(name.text):
            raise EppError(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                f"{name.text} is external to repository {self.operator}",
            )
        if len(name.labels) < 2:
            raise EppError(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                f"{name.text} is a bare TLD",
            )
        return ".".join(name.labels[-2:])

    def set_audit_hook(self, hook: AuditHook | None) -> None:
        """Install (or clear) the audit hook after construction."""
        self._audit_hook = hook

    def _audit(self, day: int, operation: str, **details: object) -> None:
        if self._audit_hook is not None:
            self._audit_hook(day, operation, details)

    # -- queries -------------------------------------------------------------
    #
    # Objects are keyed by canonical text, so a hit on the name as given
    # proves it canonical; only a miss canonicalizes (and validates) it.

    def domain(self, name: str) -> DomainObject:
        """Fetch a domain object; raises 2303 if absent."""
        obj = self._domains.get(name)
        if obj is None:
            obj = self._domains.get(Name(name).text)
            if obj is None:
                raise EppError(ResultCode.OBJECT_DOES_NOT_EXIST, f"domain {name}")
        return obj

    def host(self, name: str) -> HostObject:
        """Fetch a host object; raises 2303 if absent."""
        obj = self._hosts.get(name)
        if obj is None:
            obj = self._hosts.get(Name(name).text)
            if obj is None:
                raise EppError(ResultCode.OBJECT_DOES_NOT_EXIST, f"host {name}")
        return obj

    def domain_exists(self, name: str) -> bool:
        """Availability check (EPP <check>)."""
        return name in self._domains or Name(name).text in self._domains

    def host_exists(self, name: str) -> bool:
        """Host object existence check."""
        return name in self._hosts or Name(name).text in self._hosts

    def subordinate_hosts(self, domain: str) -> frozenset[str]:
        """Host objects whose superordinate is ``domain``."""
        return frozenset(self._subordinates.get(Name(domain).text, ()))

    def all_domains(self) -> Iterable[DomainObject]:
        """Iterate every domain object (insertion order)."""
        return self._domains.values()

    def all_hosts(self) -> Iterable[HostObject]:
        """Iterate every host object (insertion order)."""
        return self._hosts.values()

    # -- domain commands -------------------------------------------------

    def create_domain(
        self,
        registrar: str,
        name: str,
        *,
        day: int,
        period_years: int = 1,
        nameservers: Iterable[str] = (),
        registrant: str = "",
    ) -> DomainObject:
        """EPP <domain:create>.

        Every nameserver must already exist as a host object in this
        repository (the host-object model used by gTLD registries).
        """
        parsed = Name(name)
        text = parsed.text
        if parsed.tld not in self.tlds:
            raise EppError(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                f"{text}: repository {self.operator} is not authoritative "
                f"for .{parsed.tld}",
            )
        if len(parsed.labels) != 2:
            raise EppError(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                f"{text}: only second-level registrations are accepted",
            )
        if text in self._domains:
            raise EppError(ResultCode.OBJECT_EXISTS, f"domain {text}")
        ns_list = [Name(ns).text for ns in nameservers]
        for ns in ns_list:
            if ns not in self._hosts:
                raise EppError(
                    ResultCode.ASSOCIATION_PROHIBITS_OPERATION,
                    f"nameserver host object {ns} does not exist",
                )
        obj = DomainObject(
            name=text,
            sponsor=registrar,
            created=day,
            expires=day + 365 * period_years,
            nameservers=ns_list,
            registrant=registrant,
        )
        self._domains[text] = obj
        for ns in ns_list:
            self._hosts[ns].link(text)
        self._audit(day, "domain:create", domain=text, registrar=registrar)
        return obj

    def delete_domain(self, registrar: str, name: str, *, day: int) -> None:
        """EPP <domain:delete>, enforcing RFC 5731's subordinate-host rule."""
        obj = self.domain(name)
        self._require_sponsor(obj.sponsor, registrar, f"domain {obj.name}")
        if not obj.is_deletable:
            raise EppError(
                ResultCode.STATUS_PROHIBITS_OPERATION,
                f"domain {obj.name} has a deleteProhibited status",
            )
        subs = self._subordinates.get(obj.name)
        if subs:
            raise EppError(
                ResultCode.ASSOCIATION_PROHIBITS_OPERATION,
                f"domain {obj.name} has subordinate hosts: {sorted(subs)}",
            )
        for ns in obj.nameservers:
            host = self._hosts.get(ns)
            if host is not None:
                host.unlink(obj.name)
        del self._domains[obj.name]
        self._audit(day, "domain:delete", domain=obj.name, registrar=registrar)

    def renew_domain(
        self, registrar: str, name: str, *, day: int, period_years: int = 1
    ) -> DomainObject:
        """EPP <domain:renew>."""
        obj = self.domain(name)
        self._require_sponsor(obj.sponsor, registrar, f"domain {obj.name}")
        obj.expires += 365 * period_years
        self._audit(day, "domain:renew", domain=obj.name, registrar=registrar)
        return obj

    def transfer_domain(
        self, gaining: str, name: str, auth_info: str, *, day: int
    ) -> DomainObject:
        """EPP <transfer op="request"> for a domain, simplified.

        The gaining registrar presents the domain's authInfo; on success
        sponsorship changes immediately (the losing registrar's pending
        approve/reject window is collapsed — sufficient for lifecycle
        modeling). Transfer-prohibited statuses block the request.
        """
        obj = self.domain(name)
        if obj.sponsor == gaining:
            raise EppError(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                f"domain {obj.name} is already sponsored by {gaining}",
            )
        if (
            DomainStatus.CLIENT_TRANSFER_PROHIBITED in obj.statuses
            or DomainStatus.SERVER_TRANSFER_PROHIBITED in obj.statuses
        ):
            raise EppError(
                ResultCode.STATUS_PROHIBITS_OPERATION,
                f"domain {obj.name} has a transferProhibited status",
            )
        if obj.auth_info and auth_info != obj.auth_info:
            raise EppError(
                ResultCode.AUTHORIZATION_ERROR,
                f"bad authInfo for domain {obj.name}",
            )
        losing = obj.sponsor
        obj.sponsor = gaining
        self._audit(
            day, "domain:transfer", domain=obj.name, gaining=gaining, losing=losing
        )
        return obj

    def update_domain_ns(
        self,
        registrar: str,
        name: str,
        *,
        day: int,
        add: Iterable[str] = (),
        remove: Iterable[str] = (),
    ) -> DomainObject:
        """EPP <domain:update> restricted to NS add/rem."""
        obj = self.domain(name)
        self._require_sponsor(obj.sponsor, registrar, f"domain {obj.name}")
        add_list = [Name(ns).text for ns in add]
        remove_list = [Name(ns).text for ns in remove]
        for ns in add_list:
            if ns not in self._hosts:
                raise EppError(
                    ResultCode.ASSOCIATION_PROHIBITS_OPERATION,
                    f"nameserver host object {ns} does not exist",
                )
        for ns in remove_list:
            if ns not in obj.nameservers:
                raise EppError(
                    ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                    f"{obj.name} does not delegate to {ns}",
                )
        for ns in remove_list:
            obj.nameservers.remove(ns)
            host = self._hosts.get(ns)
            if host is not None:
                host.unlink(obj.name)
        for ns in add_list:
            if ns not in obj.nameservers:
                obj.nameservers.append(ns)
                self._hosts[ns].link(obj.name)
        self._audit(
            day, "domain:update", domain=obj.name, registrar=registrar,
            add=add_list, remove=remove_list,
        )
        return obj

    def set_domain_status(
        self, registrar: str, name: str, *, day: int,
        add: Iterable[DomainStatus] = (), remove: Iterable[DomainStatus] = (),
    ) -> DomainObject:
        """EPP <domain:update> restricted to status changes."""
        obj = self.domain(name)
        self._require_sponsor(obj.sponsor, registrar, f"domain {obj.name}")
        for status in add:
            obj.statuses.add(status)
        for status in remove:
            obj.statuses.discard(status)
        self._audit(day, "domain:status", domain=obj.name, registrar=registrar)
        return obj

    # -- host commands ---------------------------------------------------

    def create_host(
        self,
        registrar: str,
        name: str,
        *,
        day: int,
        addresses: Iterable[str] = (),
    ) -> HostObject:
        """EPP <host:create>.

        Internal hosts require their superordinate domain to exist and be
        sponsored by the acting registrar, and must carry at least one glue
        address. External hosts (names under foreign TLDs) must not carry
        addresses; the repository has no authority over them.
        """
        text = Name(name).text
        if text in self._hosts:
            raise EppError(ResultCode.OBJECT_EXISTS, f"host {text}")
        addr_set = set(addresses)
        if self.is_internal(text):
            superordinate = self.superordinate_of(text)
            parent = self._domains.get(superordinate)
            if parent is None:
                raise EppError(
                    ResultCode.OBJECT_DOES_NOT_EXIST,
                    f"superordinate domain {superordinate} for host {text}",
                )
            self._require_sponsor(parent.sponsor, registrar, f"domain {superordinate}")
            obj = HostObject(
                name=text, sponsor=registrar, created=day,
                addresses=addr_set, superordinate=superordinate,
            )
            self._subordinates.setdefault(superordinate, set()).add(text)
        else:
            if addr_set:
                raise EppError(
                    ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                    f"external host {text} must not carry addresses",
                )
            obj = HostObject(
                name=text, sponsor=registrar, created=day, external=True,
            )
        self._hosts[text] = obj
        self._audit(day, "host:create", host=text, registrar=registrar)
        return obj

    def delete_host(self, registrar: str, name: str, *, day: int) -> None:
        """EPP <host:delete>, enforcing RFC 5732's linkage rule."""
        obj = self.host(name)
        self._require_sponsor(obj.sponsor, registrar, f"host {obj.name}")
        if obj.is_linked:
            raise EppError(
                ResultCode.ASSOCIATION_PROHIBITS_OPERATION,
                f"host {obj.name} is linked to {len(obj.linked_domains)} domain(s)",
            )
        self._detach_subordinate(obj)
        del self._hosts[obj.name]
        self._audit(day, "host:delete", host=obj.name, registrar=registrar)

    def rename_host(self, registrar: str, old: str, new: str, *, day: int) -> HostObject:
        """EPP <host:update> with a <host:chg><host:name> — the rename.

        This is the operation at the core of the paper. Renaming to an
        internal name is checked against the namespace (the new
        superordinate domain must exist and be sponsored by the acting
        registrar). Renaming to an **external** name is unchecked: the
        repository declares no authority over foreign namespaces. Every
        domain that referenced the host follows the rename automatically,
        because domains reference host *objects*.
        """
        obj = self.host(old)
        self._require_sponsor(obj.sponsor, registrar, f"host {obj.name}")
        if obj.external:
            raise EppError(
                ResultCode.STATUS_PROHIBITS_OPERATION,
                f"host {obj.name} is subordinate to an external namespace "
                "and can no longer be modified",
            )
        new_text = Name(new).text
        if new_text in self._hosts:
            raise EppError(ResultCode.OBJECT_EXISTS, f"host {new_text}")
        old_text = obj.name
        if self.is_internal(new_text):
            superordinate = self.superordinate_of(new_text)
            parent = self._domains.get(superordinate)
            if parent is None:
                raise EppError(
                    ResultCode.OBJECT_DOES_NOT_EXIST,
                    f"superordinate domain {superordinate} for host {new_text}",
                )
            self._require_sponsor(parent.sponsor, registrar, f"domain {superordinate}")
            self._detach_subordinate(obj)
            obj.superordinate = superordinate
            self._subordinates.setdefault(superordinate, set()).add(new_text)
        else:
            self._detach_subordinate(obj)
            obj.superordinate = None
            obj.external = True
            obj.addresses.clear()
        del self._hosts[old_text]
        obj.name = new_text
        self._hosts[new_text] = obj
        for domain_name in obj.linked_domains:
            self._domains[domain_name].replace_nameserver(old_text, new_text)
        self._audit(
            day, "host:rename", old=old_text, new=new_text, registrar=registrar,
            linked=sorted(obj.linked_domains),
        )
        return obj

    def set_host_addresses(
        self, registrar: str, name: str, addresses: Iterable[str], *, day: int
    ) -> HostObject:
        """EPP <host:update> changing glue addresses of an internal host."""
        obj = self.host(name)
        self._require_sponsor(obj.sponsor, registrar, f"host {obj.name}")
        if obj.external:
            raise EppError(
                ResultCode.STATUS_PROHIBITS_OPERATION,
                f"external host {obj.name} cannot carry addresses",
            )
        obj.addresses = set(addresses)
        self._audit(day, "host:addr", host=obj.name, registrar=registrar)
        return obj

    def purge_domain(self, name: str, *, day: int) -> list[str]:
        """Registry-level purge of an expired domain, bypassing RFC advice.

        RFC 5731's subordinate-host rule is a SHOULD NOT, and registry
        back-ends purging long-expired names have been observed to delete
        the domain object while leaving subordinate host objects orphaned
        (their superordinate dangling). This is how a sink domain like the
        real ``dummyns.com`` could lapse and be re-registered by a third
        party while its subordinate host objects kept absorbing
        delegations. Returns the orphaned host names.
        """
        obj = self.domain(name)
        orphans = sorted(self._subordinates.pop(obj.name, ()))
        for host_name in orphans:
            host = self._hosts[host_name]
            host.superordinate = None
        for ns in obj.nameservers:
            host = self._hosts.get(ns)
            if host is not None:
                host.unlink(obj.name)
        del self._domains[obj.name]
        self._audit(day, "domain:purge", domain=obj.name, orphans=orphans)
        return orphans

    # -- zone generation ---------------------------------------------------

    def zone_for(self, tld: str, *, serial: int = 1) -> Zone:
        """Publish the zone for one of this repository's TLDs.

        Domains on hold statuses are withheld from the zone, as real
        registries do. Glue is emitted for every in-bailiwick host object
        carrying addresses.
        """
        tld_text = Name(tld).text
        if tld_text not in self.tlds:
            raise EppError(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR,
                f"repository {self.operator} does not operate .{tld_text}",
            )
        zone = Zone(tld_text, serial=serial)
        for obj in self._domains.values():
            if Name(obj.name).tld != tld_text:
                continue
            if DomainStatus.CLIENT_HOLD in obj.statuses:
                continue
            if DomainStatus.SERVER_HOLD in obj.statuses:
                continue
            if obj.nameservers:
                zone.set_delegation(obj.name, obj.nameservers)
        for host in self._hosts.values():
            if host.external or not host.addresses:
                continue
            if Name(host.name).tld == tld_text:
                zone.set_glue(host.name, host.addresses)
        return zone

    # -- internals ---------------------------------------------------------

    def _require_sponsor(self, sponsor: str, registrar: str, what: str) -> None:
        if sponsor != registrar:
            raise EppError(
                ResultCode.AUTHORIZATION_ERROR,
                f"{what} is sponsored by {sponsor}, not {registrar}",
            )

    def _detach_subordinate(self, host: HostObject) -> None:
        if host.superordinate is not None:
            subs = self._subordinates.get(host.superordinate)
            if subs is not None:
                subs.discard(host.name)
                if not subs:
                    del self._subordinates[host.superordinate]

    def __repr__(self) -> str:
        return (
            f"EppRepository(operator={self.operator!r}, tlds={sorted(self.tlds)}, "
            f"domains={len(self._domains)}, hosts={len(self._hosts)})"
        )
