"""The world engine: executes the scenario and produces the data sets.

:class:`World` wires together registries (with zone mirrors), registrar
agents, the WHOIS archive, hijacker actors, and the planned population,
then interprets the event queue day by day. Its outputs are exactly what
the paper's methodology consumes — a longitudinal zone database and a
WHOIS archive — plus a ground-truth event log used only for validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import simtime
from repro.dnscore.names import Name
from repro.dnscore.psl import default_psl
from repro.ecosystem.config import ScenarioConfig, default_scenario
from repro.ecosystem.events import (
    Event,
    EventLog,
    EventQueue,
    FixRecord,
    HijackRecord,
    RenameRecord,
    SinkEventRecord,
)
from repro.ecosystem.hijacker import HijackerActor
from repro.ecosystem.ledger import LifecycleLedger
from repro.ecosystem.lifecycle import (
    schedule_plan,
    schedule_registrar_policy,
    schedule_remediation,
)
from repro.ecosystem.mirror import ZoneMirror
from repro.ecosystem.population import (
    SAFE_PROVIDERS,
    ClientPlan,
    Plan,
    PopulationPlanner,
)
from repro.epp.registry import RegistryRoster, default_roster
from repro.faults.rng import stable_hash
from repro.registrar.registrar import IdiomSchedule, Registrar
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase


@dataclass
class SacrificialGroup:
    """All sacrificial nameserver names sharing one registered domain.

    Hijackers operate on registered domains: one registration takes over
    every nameserver name under it (relevant for idioms like
    PLEASEDROPTHISHOST that put several renamed hosts under one name).
    """

    registered_domain: str
    created_day: int
    registrar: str
    idiom_id: str
    ns_names: set[str] = field(default_factory=set)
    offers_made: bool = False


@dataclass
class WorldResult:
    """Everything a run produces."""

    config: ScenarioConfig
    plan: Plan
    roster: RegistryRoster
    registrars: dict[str, Registrar]
    zonedb: ZoneDatabase
    whois: WhoisArchive
    log: EventLog
    groups: dict[str, SacrificialGroup]
    ledger: LifecycleLedger = field(default_factory=LifecycleLedger)


class World:
    """Builds and runs one simulated ecosystem."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed + 7)
        self.psl = default_psl()
        self.zonedb = ZoneDatabase()
        self.whois = WhoisArchive()
        self.log = EventLog()
        self.queue = EventQueue()
        self.groups: dict[str, SacrificialGroup] = {}
        self.roster = default_roster()
        self.ledger = LifecycleLedger()
        self._mirrors: list[ZoneMirror] = []
        for registry in self.roster.registries:
            mirror = ZoneMirror(registry.repository, self.zonedb, ledger=self.ledger)
            registry.repository.set_audit_hook(mirror)
            self._mirrors.append(mirror)
        self.registrars = self._build_registrars()
        self.hijackers = self._build_hijackers()
        self._safe_ns_names = {
            f"ns{i}.{provider}" for provider, _owner in SAFE_PROVIDERS for i in (1, 2)
        }
        self._remediation_targets: dict[str, list[RenameRecord]] = {}
        self.plan = PopulationPlanner(config).build()
        self._built = False
        self._ran = False

    # -- construction ----------------------------------------------------

    def _build_registrars(self) -> dict[str, Registrar]:
        registrars: dict[str, Registrar] = {}
        for index, spec in enumerate(self.config.registrars):
            schedule = IdiomSchedule()
            for effective_date, idiom in spec.idiom_schedule:
                schedule.add(simtime.to_day(effective_date), idiom)
            registrar = Registrar(
                spec.ident,
                spec.display_name,
                seed=self.config.seed * 1000 + index,
                schedule=schedule,
                default_ns_domain=spec.default_ns_domain,
                psl=self.psl,
            )
            registrar.accredit_at(self.roster.registries)
            registrars[spec.ident] = registrar
        return registrars

    def _build_hijackers(self) -> list[HijackerActor]:
        return [
            HijackerActor(spec, random.Random(self.config.seed * 77 + i))
            for i, spec in enumerate(self.config.hijackers)
        ]

    def build(self) -> None:
        """Provision base infrastructure and queue the whole schedule."""
        if self._built:
            return
        self._built = True
        day = self.config.start_day
        self._provision_safe_providers(day)
        self._provision_hijacker_infrastructure(day)
        schedule_plan(self.queue, self.plan, self.config)
        schedule_registrar_policy(self.queue, self.config)
        schedule_remediation(self.queue, self.config)

    def _provision_safe_providers(self, day: int) -> None:
        for index, (provider, owner) in enumerate(SAFE_PROVIDERS):
            registrar = self.registrars[owner]
            self._register_domain(
                owner, provider, day=day, nameservers=[], period_years=30
            )
            hosts = {
                f"ns{i}.{provider}": [f"198.51.{index}.{i}"] for i in (1, 2)
            }
            registrar.create_subordinate_hosts(self.roster, provider, hosts, day=day)
            # The provider delegates to itself (self-hosted glue).
            registrar.update_nameservers(
                self.roster, provider, day=day, add=sorted(hosts)
            )

    def _provision_hijacker_infrastructure(self, day: int) -> None:
        bulkreg = self.registrars["bulkreg"]
        for actor in self.hijackers:
            ns_domain = actor.spec.ns_domain
            if not self.roster.operates(ns_domain):
                continue  # foreign TLD (e.g. .nl): external everywhere
            if self.roster.registry_for(ns_domain).repository.domain_exists(ns_domain):
                continue
            self._register_domain(
                "bulkreg", ns_domain, day=day, nameservers=[], period_years=30
            )
            hosts = {
                host: [f"203.0.{113 + i}.{self.rng.randrange(1, 250)}"]
                for i, host in enumerate(actor.spec.ns_hosts())
            }
            bulkreg.create_subordinate_hosts(self.roster, ns_domain, hosts, day=day)
            bulkreg.update_nameservers(
                self.roster, ns_domain, day=day, add=sorted(hosts)
            )

    # -- generic provisioning helpers ------------------------------------------

    def _is_restricted(self, domain: str) -> bool:
        registry = self.roster.registry_for(domain)
        return registry.is_restricted(Name(domain).tld)

    def _register_domain(
        self,
        registrar_ident: str,
        domain: str,
        *,
        day: int,
        nameservers: list[str],
        period_years: int,
        registrant: str = "",
    ) -> bool:
        """Register a domain via registrar or registry, recording WHOIS."""
        registry = self.roster.registry_for(domain)
        if self._is_restricted(domain) or registrar_ident == registry.operator:
            session = registry.session(registry.operator)
            for ns in nameservers:
                if not registry.repository.host_exists(ns) and not (
                    registry.repository.is_internal(ns)
                ):
                    session.host_create(ns, day=day)
            result = session.domain_create(
                domain,
                day=day,
                period_years=period_years,
                nameservers=nameservers,
                registrant=registrant,
            )
            sponsor = registry.operator
        else:
            registrar = self.registrars[registrar_ident]
            result = registrar.register_domain(
                self.roster,
                domain,
                day=day,
                nameservers=nameservers,
                period_years=period_years,
                registrant=registrant,
            )
            sponsor = registrar_ident
        if result.ok:
            self.whois.record_registration(
                domain,
                sponsor,
                day=day,
                period_years=period_years,
                registrant=registrant,
            )
            return True
        return False

    def _delete_domain(self, registrar_ident: str, domain: str, *, day: int) -> bool:
        """Delete a domain (machinery path for registrars), log renames."""
        registry = self.roster.registry_for(domain)
        if self._is_restricted(domain) or registrar_ident == registry.operator:
            session = registry.session(registry.operator)
            result = session.domain_delete(domain, day=day)
            if result.ok:
                self.whois.record_deletion(domain, day=day)
            return result.ok
        registrar = self.registrars[registrar_ident]
        outcome = registrar.delete_domain(self.roster, domain, day=day)
        if outcome.deleted:
            self.whois.record_deletion(domain, day=day)
        idiom = registrar.current_idiom(day)
        new_groups: list[SacrificialGroup] = []
        for rename in outcome.renames:
            record = RenameRecord(
                day=day,
                old_name=rename.old_name,
                new_name=rename.new_name,
                registrar=registrar_ident,
                repository=registry.operator,
                idiom_id=idiom.idiom_id,
                hijackable=idiom.hijackable,
                linked_domains=rename.linked_domains,
                accidental=self._is_accidental_context,
            )
            self.log.renames.append(record)
            if idiom.hijackable:
                group = self._track_group(record)
                if group is not None and not group.offers_made:
                    new_groups.append(group)
        if not self._is_accidental_context:
            for group in new_groups:
                self._offer_to_hijackers(day, group)
        return outcome.deleted

    _is_accidental_context: bool = False

    def _track_group(self, record: RenameRecord) -> SacrificialGroup | None:
        registered = self.psl.registered_domain(record.new_name)
        if registered is None:
            return None
        group = self.groups.get(registered)
        if group is None:
            group = SacrificialGroup(
                registered_domain=registered,
                created_day=record.day,
                registrar=record.registrar,
                idiom_id=record.idiom_id,
            )
            self.groups[registered] = group
        group.ns_names.add(record.new_name)
        return group

    def _group_value(self, group: SacrificialGroup, day: int) -> int:
        domains: set[str] = set()
        for ns in group.ns_names:
            domains |= self.zonedb.domains_of_ns(ns, day)
        return len(domains)

    def _offer_to_hijackers(self, day: int, group: SacrificialGroup) -> None:
        group.offers_made = True
        tld = Name(group.registered_domain).tld
        if not self.roster.operates(group.registered_domain):
            return  # nobody can register this TLD in the simulated world
        registry = self.roster.registry_for(group.registered_domain)
        if registry.is_restricted(tld):
            return
        if registry.repository.domain_exists(group.registered_domain):
            return  # accidental collision with an existing registration
        value = self._group_value(group, day)
        for actor in self.hijackers:
            delay = actor.consider(day, value)
            if delay is not None:
                self.queue.push_new(
                    day + delay,
                    "hijacker_register",
                    hijacker=actor.ident,
                    registered_domain=group.registered_domain,
                )

    def _sponsor_of(self, domain: str) -> str | None:
        registry = self.roster.registry_for(domain)
        if not registry.repository.domain_exists(domain):
            return None
        return registry.repository.domain(domain).sponsor

    def _current_nameservers(self, domain: str) -> list[str] | None:
        registry = self.roster.registry_for(domain)
        if not registry.repository.domain_exists(domain):
            return None
        return list(registry.repository.domain(domain).nameservers)

    def _set_nameservers(
        self, registrar_ident: str, domain: str, desired: list[str], *, day: int
    ) -> bool:
        current = self._current_nameservers(domain)
        if current is None:
            return False
        add = [ns for ns in desired if ns not in current]
        remove = [ns for ns in current if ns not in desired]
        if not add and not remove:
            return False
        registry = self.roster.registry_for(domain)
        if self._is_restricted(domain) or registrar_ident == registry.operator:
            session = registry.session(registry.operator)
            for ns in add:
                if not registry.repository.host_exists(ns) and not (
                    registry.repository.is_internal(ns)
                ):
                    session.host_create(ns, day=day)
            result = session.domain_update_ns(domain, day=day, add=add, remove=remove)
            return result.ok
        registrar = self.registrars[registrar_ident]
        result = registrar.update_nameservers(
            self.roster, domain, day=day, add=add, remove=remove
        )
        return result.ok

    # -- run loop -----------------------------------------------------------

    def run(self) -> WorldResult:
        """Execute every queued event and return the result bundle."""
        self.build()
        if self._ran:
            return self.result()
        self._ran = True
        handlers = {
            "hoster_birth": self._on_hoster_birth,
            "hoster_suspend": self._on_hoster_suspend,
            "hoster_purge": self._on_hoster_purge,
            "client_birth": self._on_client_birth,
            "client_transfer": self._on_client_transfer,
            "client_fix": self._on_client_fix,
            "client_expire": self._on_client_expire,
            "safe_birth": self._on_safe_birth,
            "typo_birth": self._on_typo_birth,
            "typo_fix": self._on_typo_fix,
            "test_start": self._on_test_start,
            "test_end": self._on_test_end,
            "namecheap_setup": self._on_namecheap_setup,
            "namecheap_delete": self._on_namecheap_delete,
            "namecheap_recover": self._on_namecheap_recover,
            "provision_sinks": self._on_provision_sinks,
            "sink_abandon": self._on_sink_abandon,
            "sink_purge": self._on_sink_purge,
            "sink_seize": self._on_sink_seize,
            "hijacker_register": self._on_hijacker_register,
            "hijack_renewal": self._on_hijack_renewal,
            "registrar_remediation": self._on_registrar_remediation,
            "markmonitor_remediation": self._on_markmonitor_remediation,
        }
        while self.queue:
            event = self.queue.pop()
            if event.day >= self.config.end_day:
                continue
            handlers[event.kind](event)
        self.zonedb.advance(self.config.end_day)
        return self.result()

    def result(self) -> WorldResult:
        """The run's output bundle."""
        return WorldResult(
            config=self.config,
            plan=self.plan,
            roster=self.roster,
            registrars=self.registrars,
            zonedb=self.zonedb,
            whois=self.whois,
            log=self.log,
            groups=self.groups,
            ledger=self.ledger,
        )

    # -- plan entity handlers ---------------------------------------------------

    def _on_hoster_birth(self, event: Event) -> None:
        hoster = event.payload["hoster"]
        day = event.day
        period = max(1, -(-(hoster.death_day - hoster.birth_day) // 365))
        if not self._register_domain(
            hoster.registrar, hoster.domain, day=day,
            nameservers=[], period_years=period,
            registrant=f"hoster-{hoster.domain}",
        ):
            return
        registrar = self.registrars[hoster.registrar]
        hosts = {
            host: [f"192.0.2.{(stable_hash(host) % 250) + 1}"]
            for host in hoster.ns_hosts
        }
        registrar.create_subordinate_hosts(self.roster, hoster.domain, hosts, day=day)
        registrar.update_nameservers(
            self.roster, hoster.domain, day=day, add=list(hoster.ns_hosts)
        )

    def _on_hoster_suspend(self, event: Event) -> None:
        """Redemption phase: the expired domain drops out of the zone."""
        hoster = event.payload["hoster"]
        registry = self.roster.registry_for(hoster.domain)
        if not registry.repository.domain_exists(hoster.domain):
            return
        from repro.epp.objects import DomainStatus
        sponsor = registry.repository.domain(hoster.domain).sponsor
        registry.repository.set_domain_status(
            sponsor, hoster.domain, day=event.day, add=[DomainStatus.CLIENT_HOLD]
        )

    def _on_hoster_purge(self, event: Event) -> None:
        """End of pending-delete: the rename machinery fires."""
        hoster = event.payload["hoster"]
        self._delete_domain(hoster.registrar, hoster.domain, day=event.day)

    def _on_client_birth(self, event: Event) -> None:
        client: ClientPlan = event.payload["client"]
        years = 10
        if client.expiry_day is not None:
            years = max(1, -(-(client.expiry_day - client.birth_day) // 365))
        self._register_domain(
            client.registrar, client.domain, day=event.day,
            nameservers=list(client.ns_refs), period_years=years,
            registrant=f"registrant-{client.domain}",
        )

    def _on_client_transfer(self, event: Event) -> None:
        client: ClientPlan = event.payload["client"]
        day = event.day
        registry = self.roster.registry_for(client.domain)
        if not registry.repository.domain_exists(client.domain):
            return
        obj = registry.repository.domain(client.domain)
        gaining = self.registrars[client.transfer_to]
        session = gaining.session_for(registry)
        result = session.domain_transfer(client.domain, obj.auth_info, day=day)
        if result.ok:
            self.whois.record_transfer(client.domain, client.transfer_to, day=day)

    def _on_client_fix(self, event: Event) -> None:
        client: ClientPlan = event.payload["client"]
        reason = event.payload.get("reason", "organic")
        current = self._current_nameservers(client.domain)
        if current is None:
            return
        if reason == "namecheap":
            desired = list(client.ns_refs)
        else:
            keep = [ns for ns in current if ns in self._safe_ns_names]
            if keep:
                desired = keep
            else:
                provider, _owner = self.rng.choice(SAFE_PROVIDERS)
                desired = [f"ns1.{provider}", f"ns2.{provider}"]
        removed = tuple(ns for ns in current if ns not in desired)
        added = tuple(ns for ns in desired if ns not in current)
        sponsor = self._sponsor_of(client.domain) or client.registrar
        if self._set_nameservers(sponsor, client.domain, desired, day=event.day):
            self.log.fixes.append(
                FixRecord(
                    day=event.day, domain=client.domain,
                    removed=removed, added=added, reason=reason,
                )
            )

    def _on_client_expire(self, event: Event) -> None:
        client: ClientPlan = event.payload["client"]
        registry = self.roster.registry_for(client.domain)
        if not registry.repository.domain_exists(client.domain):
            return
        sponsor = self._sponsor_of(client.domain) or client.registrar
        self._delete_domain(sponsor, client.domain, day=event.day)

    def _on_safe_birth(self, event: Event) -> None:
        safe = event.payload["safe"]
        self._register_domain(
            safe.registrar, safe.domain, day=event.day,
            nameservers=list(safe.ns_refs), period_years=10,
            registrant=f"registrant-{safe.domain}",
        )

    def _on_typo_birth(self, event: Event) -> None:
        typo = event.payload["typo"]
        nameservers = list(typo.typo_ns) + list(typo.good_ns[:1])
        self._register_domain(
            typo.registrar, typo.domain, day=event.day,
            nameservers=nameservers, period_years=10,
            registrant=f"registrant-{typo.domain}",
        )

    def _on_typo_fix(self, event: Event) -> None:
        typo = event.payload["typo"]
        self._set_nameservers(
            typo.registrar, typo.domain, list(typo.good_ns), day=event.day
        )

    def _on_test_start(self, event: Event) -> None:
        test = event.payload["test"]
        registry = self.roster.registry_for(test.domain)
        session = registry.session(test.registry_operator)
        for ns in test.ns_names:
            superordinate = self.psl.registered_domain(ns)
            if superordinate and not registry.repository.domain_exists(superordinate):
                session.domain_create(superordinate, day=event.day, period_years=1)
            if not registry.repository.host_exists(ns):
                session.host_create(ns, day=event.day)
        session.domain_create(
            test.domain, day=event.day, period_years=1, nameservers=list(test.ns_names)
        )

    def _on_test_end(self, event: Event) -> None:
        test = event.payload["test"]
        registry = self.roster.registry_for(test.domain)
        session = registry.session(test.registry_operator)
        session.domain_delete(test.domain, day=event.day)
        for ns in test.ns_names:
            session.host_delete(ns, day=event.day)
            superordinate = self.psl.registered_domain(ns)
            if superordinate and registry.repository.domain_exists(superordinate):
                session.domain_delete(superordinate, day=event.day)

    # -- Namecheap accident ------------------------------------------------------

    def _on_namecheap_setup(self, event: Event) -> None:
        nc = event.payload["plan"]
        day = event.day
        self._register_domain(
            nc.sponsor, nc.ns_domain, day=day, nameservers=[], period_years=30,
            registrant="Namecheap Inc.",
        )
        registrar = self.registrars[nc.sponsor]
        hosts = {
            host: [f"198.54.{i % 250}.{(i * 7) % 250 + 1}"]
            for i, host in enumerate(nc.host_names)
        }
        registrar.create_subordinate_hosts(self.roster, nc.ns_domain, hosts, day=day)
        registrar.update_nameservers(
            self.roster, nc.ns_domain, day=day, add=list(nc.host_names[:2])
        )

    def _on_namecheap_delete(self, event: Event) -> None:
        nc = event.payload["plan"]
        # The accidental deletion request: Enom's machinery runs exactly the
        # normal rename-then-delete sequence. The event is excluded from
        # hijacker offers to match the observed history (§4: the exposure
        # was repaired within days and the paper excludes it from analysis).
        self._is_accidental_context = True
        try:
            self._delete_domain(nc.sponsor, nc.ns_domain, day=event.day)
        finally:
            self._is_accidental_context = False

    def _on_namecheap_recover(self, event: Event) -> None:
        nc = event.payload["plan"]
        day = event.day
        self._register_domain(
            "namecheap", nc.ns_domain, day=day, nameservers=[], period_years=30,
            registrant="Namecheap Inc.",
        )
        registrar = self.registrars["namecheap"]
        hosts = {
            host: [f"198.54.{i % 250}.{(i * 7) % 250 + 1}"]
            for i, host in enumerate(nc.host_names)
        }
        registrar.create_subordinate_hosts(self.roster, nc.ns_domain, hosts, day=day)
        registrar.update_nameservers(
            self.roster, nc.ns_domain, day=day, add=list(nc.host_names[:2])
        )

    # -- registrar policy ----------------------------------------------------

    def _on_provision_sinks(self, event: Event) -> None:
        registrar = self.registrars[event.payload["registrar"]]
        day = event.day
        for effective, idiom in registrar.schedule.history():
            if effective > day:
                continue
            for sink in idiom.sink_domains_needed():
                if not self.roster.operates(sink):
                    continue
                registry = self.roster.registry_for(sink)
                if registry.repository.domain_exists(sink):
                    continue
                if self._register_domain(
                    registrar.ident, sink, day=day, nameservers=[],
                    period_years=30, registrant=registrar.display_name,
                ):
                    self.log.sink_events.append(
                        SinkEventRecord(
                            day=day, domain=sink,
                            registrar=registrar.ident, action="registered",
                        )
                    )

    def _on_sink_abandon(self, event: Event) -> None:
        registrar = event.payload["registrar"]
        sink = event.payload["sink"]
        self.log.sink_events.append(
            SinkEventRecord(
                day=event.day, domain=sink, registrar=registrar, action="abandoned"
            )
        )
        self.queue.push_new(
            event.day + 45, "sink_purge", registrar=registrar, sink=sink
        )

    def _on_sink_purge(self, event: Event) -> None:
        sink = event.payload["sink"]
        registry = self.roster.registry_for(sink)
        if not registry.repository.domain_exists(sink):
            return
        registry.repository.purge_domain(sink, day=event.day)
        self.whois.record_deletion(sink, day=event.day)
        self.queue.push_new(
            event.day + 20, "sink_seize", sink=sink, registrar=event.payload["registrar"]
        )

    def _on_sink_seize(self, event: Event) -> None:
        sink = event.payload["sink"]
        day = event.day
        registry = self.roster.registry_for(sink)
        if registry.repository.domain_exists(sink):
            return
        squatter_ns = ["ns1.parkingpad.net", "ns2.parkingpad.net"]
        if self._register_domain(
            "bulkreg", sink, day=day, nameservers=squatter_ns,
            period_years=5, registrant="sinksquatter",
        ):
            self.log.sink_events.append(
                SinkEventRecord(
                    day=day, domain=sink, registrar="bulkreg", action="seized"
                )
            )
            victims: set[str] = set()
            for ns in self.zonedb.all_nameservers():
                if Name(ns).is_strict_subdomain_of(sink):
                    victims |= self.zonedb.domains_of_ns(ns, day)
            self.log.hijacks.append(
                HijackRecord(
                    day=day, domain=sink, hijacker="sinksquatter",
                    nameservers=tuple(squatter_ns),
                    value_at_registration=len(victims),
                )
            )

    # -- hijackers ------------------------------------------------------------

    def _on_hijacker_register(self, event: Event) -> None:
        ident = event.payload["hijacker"]
        registered_domain = event.payload["registered_domain"]
        day = event.day
        actor = next(a for a in self.hijackers if a.ident == ident)
        group = self.groups.get(registered_domain)
        if group is None:
            return
        registry = self.roster.registry_for(registered_domain)
        if registry.repository.domain_exists(registered_domain):
            return  # someone (possibly another hijacker) got there first
        value = self._group_value(group, day)
        if value < actor.spec.min_value or not actor.has_capacity(day):
            return
        ns_hosts = list(actor.spec.ns_hosts())
        if self._register_domain(
            "bulkreg", registered_domain, day=day,
            nameservers=ns_hosts, period_years=1, registrant=actor.ident,
        ):
            actor.record_registration(day, registered_domain)
            self.log.hijacks.append(
                HijackRecord(
                    day=day, domain=registered_domain, hijacker=actor.ident,
                    nameservers=tuple(ns_hosts), value_at_registration=value,
                )
            )
            self.queue.push_new(
                day + 365, "hijack_renewal",
                hijacker=ident, registered_domain=registered_domain, anniversary=1,
            )

    def _on_hijack_renewal(self, event: Event) -> None:
        ident = event.payload["hijacker"]
        registered_domain = event.payload["registered_domain"]
        anniversary = event.payload["anniversary"]
        day = event.day
        actor = next(a for a in self.hijackers if a.ident == ident)
        registry = self.roster.registry_for(registered_domain)
        if not registry.repository.domain_exists(registered_domain):
            return
        group = self.groups.get(registered_domain)
        value = self._group_value(group, day) if group else 0
        if actor.decide_renewal(anniversary, value):
            self.registrars["bulkreg"].renew_domain(
                self.roster, registered_domain, day=day
            )
            self.whois.record_renewal(registered_domain, day=day)
            self.queue.push_new(
                day + 365, "hijack_renewal",
                hijacker=ident, registered_domain=registered_domain,
                anniversary=anniversary + 1,
            )
        else:
            self._delete_domain("bulkreg", registered_domain, day=day)

    # -- remediation --------------------------------------------------------------

    def _remediation_list(self, registrar_ident: str) -> list[RenameRecord]:
        # A remediating registrar fixes the delegations of every domain it
        # currently sponsors, regardless of which registrar's rename
        # created the sacrificial name ("domains for which they are the
        # current registrar", §7.1) — sponsorship is checked per domain
        # when the batch runs.
        cached = self._remediation_targets.get(registrar_ident)
        if cached is None:
            cached = [
                record
                for record in self.log.renames
                if record.hijackable and not record.accidental
            ]
            self._remediation_targets[registrar_ident] = cached
        return cached

    def _on_registrar_remediation(self, event: Event) -> None:
        """A registrar re-renames its hijackable names to the new idiom.

        Only delegations of domains the registrar itself sponsors can be
        touched (EPP isolation), and already-registered (hijacked)
        sacrificial domains are left alone — matching GoDaddy's observed
        behaviour in Table 5.
        """
        ident = event.payload["registrar"]
        batch, batches = event.payload["batch"], event.payload["batches"]
        registrar = self.registrars[ident]
        day = event.day
        idiom = registrar.current_idiom(day)
        if idiom.hijackable:
            return  # remediation presumes the new idiom is already adopted
        targets = self._remediation_list(ident)
        for index, record in enumerate(targets):
            if index % batches != batch:
                continue
            registered = self.psl.registered_domain(record.new_name)
            if registered is None:
                continue
            if self.roster.operates(registered):
                sink_registry = self.roster.registry_for(registered)
                if sink_registry.repository.domain_exists(registered):
                    continue  # hijacked (or collided): cannot safely re-point
            for domain in sorted(self.zonedb.domains_of_ns(record.new_name, day)):
                registry = self.roster.registry_for(domain)
                if not registry.repository.domain_exists(domain):
                    continue
                if registry.repository.domain(domain).sponsor != ident:
                    continue
                replacement = idiom.rename(record.new_name, registrar.rng, psl=self.psl)
                if self._set_nameservers(
                    ident, domain,
                    [ns for ns in self._current_nameservers(domain) or []
                     if ns != record.new_name] + [replacement],
                    day=day,
                ):
                    self.log.fixes.append(
                        FixRecord(
                            day=day, domain=domain,
                            removed=(record.new_name,), added=(replacement,),
                            reason="notification",
                        )
                    )
                    # The replacement is itself a (non-hijackable)
                    # sacrificial name: record it so ground truth matches
                    # what the zone data shows (Table 6 counts these).
                    self.log.renames.append(
                        RenameRecord(
                            day=day,
                            old_name=record.new_name,
                            new_name=replacement,
                            registrar=ident,
                            repository=self.roster.registry_for(domain).operator,
                            idiom_id=idiom.idiom_id,
                            hijackable=False,
                            linked_domains=(domain,),
                            remediation=True,
                        )
                    )

    def _on_markmonitor_remediation(self, event: Event) -> None:
        day = event.day
        for hoster in self.plan.hosters:
            for client in hoster.clients:
                if not client.brand:
                    continue
                current = self._current_nameservers(client.domain)
                if current is None:
                    continue
                bad = [ns for ns in current if ns not in self._safe_ns_names]
                if not bad:
                    continue
                provider, _owner = self.rng.choice(SAFE_PROVIDERS)
                desired = [f"ns1.{provider}", f"ns2.{provider}"]
                if self._set_nameservers(client.registrar, client.domain, desired, day=day):
                    self.log.fixes.append(
                        FixRecord(
                            day=day, domain=client.domain,
                            removed=tuple(bad), added=tuple(desired),
                            reason="markmonitor",
                        )
                    )


def build_world(config: ScenarioConfig | None = None) -> World:
    """Construct (but do not run) a world for the given scenario."""
    world = World(config or default_scenario())
    world.build()
    return world


def run_default_world(
    seed: int = 2021, scale: float = 1.0, *, use_cache: bool = True
) -> WorldResult:
    """Run the canonical scenario (optionally scaled), with caching.

    Tests and every benchmark share the same world through the
    process-wide content-addressed artifact cache (keyed by the scenario
    digest, bounded LRU), so the expensive simulation runs once per
    process per configuration.
    """
    from repro.store.artifacts import ArtifactKey, default_cache, scenario_digest

    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    key = ArtifactKey.build("world", scenario_digest(config))
    cache = default_cache()
    if use_cache:
        cached = cache.get(key)
        if cached is not None:
            return cached
    result = World(config).run()
    if use_cache:
        cache.put(key, result)
    return result
