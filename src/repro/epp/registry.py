"""Registry operators: accreditation, restricted TLDs, zone publication.

A :class:`Registry` wraps one :class:`EppRepository` with the business
rules around it: which registrars are accredited to provision there,
which TLDs are *restricted* (no registrars — the registry itself manages
registrants directly, as EDUCAUSE does for .edu and CISA for .gov), and
daily zone publication.

The simulated default topology mirrors the paper's:

* ``sim-verisign`` operates .com, .net, .edu, .gov in one repository —
  so a rename driven by a .com deletion can rewrite .edu/.gov
  delegations;
* ``sim-afilias`` operates .org and .info in a second repository;
* ``sim-neustar`` operates .biz and .us in a third.

.biz living in a *different* repository from .com is exactly why
renaming unwanted Verisign-repository hosts into .biz works.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dnscore.names import Name
from repro.dnscore.zone import Zone
from repro.epp.commands import EppSession
from repro.epp.errors import EppError, ResultCode
from repro.epp.repository import AuditHook, EppRepository


@dataclass(frozen=True, slots=True)
class TldPolicy:
    """Per-TLD registration policy."""

    tld: str
    restricted: bool = False
    description: str = ""


class Registry:
    """A registry operator running one EPP repository."""

    def __init__(
        self,
        operator: str,
        tld_policies: list[TldPolicy],
        *,
        audit_hook: AuditHook | None = None,
    ) -> None:
        self.operator = operator
        self.policies = {Name(p.tld).text: p for p in tld_policies}
        self.repository = EppRepository(
            operator, self.policies.keys(), audit_hook=audit_hook
        )
        self._accredited: set[str] = set()
        self._serial = 0

    @property
    def tlds(self) -> frozenset[str]:
        """All TLDs this registry operates."""
        return self.repository.tlds

    def is_restricted(self, tld: str) -> bool:
        """True if the TLD does not use registrars."""
        policy = self.policies.get(tld)
        if policy is None:
            policy = self.policies[Name(tld).text]
        return policy.restricted

    # -- accreditation -----------------------------------------------------

    def accredit(self, registrar: str) -> None:
        """Grant a registrar provisioning access to this repository."""
        self._accredited.add(registrar)

    def is_accredited(self, registrar: str) -> bool:
        """True if ``registrar`` may open sessions here."""
        return registrar in self._accredited

    def session(self, registrar: str) -> EppSession:
        """Open an EPP session for an accredited registrar.

        The registry itself may always open a session under its own
        operator name — that is how restricted TLDs (.edu/.gov) are
        provisioned without registrars.
        """
        if registrar != self.operator and registrar not in self._accredited:
            raise EppError(
                ResultCode.AUTHORIZATION_ERROR,
                f"registrar {registrar} is not accredited at {self.operator}",
            )
        return EppSession(self.repository, registrar)

    def can_register(self, registrar: str, tld: str) -> bool:
        """True if ``registrar`` may create domains under ``tld`` here.

        Restricted TLDs accept registrations only from the registry
        operator itself.
        """
        policy = self.policies.get(Name(tld).text)
        if policy is None:
            return False
        if policy.restricted:
            return registrar == self.operator
        return registrar == self.operator or registrar in self._accredited

    # -- zone publication -------------------------------------------------

    def publish_zone(self, tld: str) -> Zone:
        """Publish today's zone file for one TLD (monotonic serials)."""
        self._serial += 1
        return self.repository.zone_for(tld, serial=self._serial)

    def publish_all(self) -> dict[str, Zone]:
        """Publish zones for every TLD this registry operates."""
        return {tld: self.publish_zone(tld) for tld in sorted(self.tlds)}

    def __repr__(self) -> str:
        return f"Registry(operator={self.operator!r}, tlds={sorted(self.tlds)})"


@dataclass
class RegistryRoster:
    """The full set of registries in a simulated ecosystem."""

    #: Registries join only through :meth:`add`, which keeps the index.
    registries: list[Registry] = field(default_factory=list, init=False)
    #: Operated TLD -> its registry.
    _by_tld: dict[str, Registry] = field(default_factory=dict, init=False, repr=False)

    def add(self, registry: Registry) -> None:
        """Add a registry; TLD sets must not overlap."""
        for existing in self.registries:
            overlap = existing.tlds & registry.tlds
            if overlap:
                raise ValueError(
                    f"TLDs {sorted(overlap)} already operated by {existing.operator}"
                )
        self.registries.append(registry)
        for tld in registry.tlds:
            self._by_tld[tld] = registry

    def registry_for(self, tld_or_name: str) -> Registry:
        """The registry operating the TLD of ``tld_or_name``.

        The index is keyed by canonical TLD, so a hit on the last label
        as given needs no parse; only a miss canonicalizes the name. This
        is a lookup, not a check: the EPP command that follows validates
        the whole name.
        """
        registry = self._by_tld.get(tld_or_name.rpartition(".")[2])
        if registry is None:
            tld = Name(tld_or_name).tld
            registry = self._by_tld.get(tld)
            if registry is None:
                raise KeyError(f"no registry operates .{tld}")
        return registry

    def operates(self, tld_or_name: str) -> bool:
        """True if some registry in the roster operates that TLD."""
        try:
            self.registry_for(tld_or_name)
        except KeyError:
            return False
        return True

    def all_tlds(self) -> frozenset[str]:
        """Union of all operated TLDs."""
        tlds: set[str] = set()
        for registry in self.registries:
            tlds |= registry.tlds
        return frozenset(tlds)

    def same_repository(self, name_a: str, name_b: str) -> bool:
        """True if two names' TLDs live in the same EPP repository."""
        try:
            return self.registry_for(name_a) is self.registry_for(name_b)
        except KeyError:
            return False


def default_roster(audit_hook: AuditHook | None = None) -> RegistryRoster:
    """The paper-shaped registry topology (see module docstring)."""
    roster = RegistryRoster()
    roster.add(
        Registry(
            "sim-verisign",
            [
                TldPolicy("com", description="legacy gTLD"),
                TldPolicy("net", description="legacy gTLD"),
                TldPolicy("edu", restricted=True, description="EDUCAUSE-managed"),
                TldPolicy("gov", restricted=True, description="CISA-managed"),
            ],
            audit_hook=audit_hook,
        )
    )
    roster.add(
        Registry(
            "sim-afilias",
            [
                TldPolicy("org", description="legacy gTLD"),
                TldPolicy("info", description="legacy gTLD"),
            ],
            audit_hook=audit_hook,
        )
    )
    roster.add(
        Registry(
            "sim-neustar",
            [
                TldPolicy("biz", description="legacy gTLD"),
                TldPolicy("us", description="ccTLD"),
            ],
            audit_hook=audit_hook,
        )
    )
    return roster
