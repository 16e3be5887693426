"""Integration tests for the world engine (ground-truth invariants)."""

import pytest

from repro import simtime
from repro.dnscore.names import Name
from repro.detection.repository_check import DEFAULT_TLD_REPOSITORIES


@pytest.fixture(scope="module")
def world(tiny_bundle):
    return tiny_bundle.world


class TestRenameGroundTruth:
    def test_renames_happened(self, world):
        assert len(world.log.renames) > 50

    def test_rename_targets_leave_source_namespace(self, world):
        """Every sacrificial rename changes the registered domain."""
        for record in world.log.renames:
            assert Name(record.old_name).tld != Name(record.new_name).tld or \
                record.new_name.split(".", 1)[1] != record.old_name.split(".", 1)[1]

    def test_renamed_hosts_have_linked_domains(self, world):
        for record in world.log.renames:
            if not record.remediation:
                assert record.linked_domains

    def test_linked_domains_same_repository(self, world):
        """EPP scoping: a rename only rewrites same-repository domains."""
        for record in world.log.renames:
            repos = {
                DEFAULT_TLD_REPOSITORIES[Name(d).tld]
                for d in record.linked_domains
            }
            assert len(repos) == 1

    def test_rename_day_within_timeline(self, world):
        for record in world.log.renames:
            assert 0 <= record.day < world.config.end_day

    def test_hijackable_flag_matches_idiom(self, world):
        hijackable_ids = {
            "PLEASEDROPTHISHOST", "DROPTHISHOST", "DELETED-DROP",
            "123.BIZ", "XXXXX.BIZ",
        }
        for record in world.log.renames:
            assert record.hijackable == (record.idiom_id in hijackable_ids)

    def test_rewritten_delegation_visible_in_zonedb(self, world):
        checked = 0
        for record in world.log.renames[:50]:
            for domain in record.linked_domains:
                if world.zonedb.first_seen(record.new_name) is not None:
                    assert record.new_name in {
                        r.ns for r in world.zonedb.domain_records(domain)
                    }
                    checked += 1
        assert checked > 0

    def test_idiom_switch_respected(self, world):
        """GoDaddy renames before/after March 2015 use different idioms."""
        switch = simtime.to_day(simtime.to_date(0).replace(year=2015, month=3))
        godaddy = [
            r for r in world.log.renames
            if r.registrar == "godaddy" and not r.remediation
        ]
        for record in godaddy:
            if record.day < switch:
                assert record.idiom_id == "PLEASEDROPTHISHOST"
            elif record.day < world.config.notification_day:
                assert record.idiom_id == "DROPTHISHOST"


class TestHijackGroundTruth:
    def test_hijacks_happened(self, world):
        assert world.log.hijacks

    def test_hijack_day_after_group_creation(self, world):
        for hijack in world.log.hijacks:
            if hijack.hijacker == "sinksquatter":
                continue
            group = world.groups[hijack.domain]
            assert hijack.day > group.created_day

    def test_hijack_registered_in_whois(self, world):
        for hijack in world.log.hijacks:
            assert world.whois.ever_registered(hijack.domain)

    def test_hijacked_domain_value_positive(self, world):
        non_sink = [
            h for h in world.log.hijacks if h.hijacker != "sinksquatter"
        ]
        assert all(h.value_at_registration >= 1 for h in non_sink)

    def test_accidental_renames_never_offered(self, world):
        from repro.dnscore.psl import default_psl
        psl = default_psl()
        accidental_groups = set()
        for record in world.log.renames:
            if record.accidental:
                accidental_groups.add(psl.registered_domain(record.new_name))
        hijacked = {h.domain for h in world.log.hijacks}
        assert not (accidental_groups & hijacked)


class TestSinkLifecycle:
    def test_sinks_registered(self, world):
        registered = {
            e.domain for e in world.log.sink_events if e.action == "registered"
        }
        assert "dummyns.com" in registered
        assert "lamedelegation.org" in registered

    def test_dummyns_abandoned_and_seized(self, world):
        actions = {
            e.action for e in world.log.sink_events if e.domain == "dummyns.com"
        }
        assert "abandoned" in actions
        assert "seized" in actions

    def test_seizure_recorded_as_hijack(self, world):
        assert any(
            h.domain == "dummyns.com" and h.hijacker == "sinksquatter"
            for h in world.log.hijacks
        )

    def test_sink_whois_shows_reregistration(self, world):
        history = world.whois.history("dummyns.com")
        assert len(history) == 2
        assert history[0].registrar == "internetbs"
        assert history[1].registrar == "bulkreg"


class TestNamecheapEvent:
    def test_accidental_renames_logged(self, world):
        accidental = [r for r in world.log.renames if r.accidental]
        assert len(accidental) == world.config.namecheap.host_count

    def test_mass_exposure_then_recovery(self, world):
        nc = world.plan.namecheap
        accidental = [r for r in world.log.renames if r.accidental]
        exposed = set()
        for record in accidental:
            exposed.update(record.linked_domains)
        assert len(exposed) > world.config.namecheap.client_count * 0.9
        # Three days later most have fixed their delegation.
        sacrificial = {r.new_name for r in accidental}
        still = sum(
            1 for domain in exposed
            if world.zonedb.nameservers_of(domain, nc.day + 4) & sacrificial
        )
        assert still < len(exposed) * 0.1

    def test_ns_domain_reregistered(self, world):
        nc = world.plan.namecheap
        history = world.whois.history(nc.ns_domain)
        assert [h.registrar for h in history] == ["enom", "namecheap"]


class TestRemediation:
    def test_notification_fixes_logged(self, default_bundle):
        # Eligible GoDaddy re-rename targets (sponsored + still delegated
        # + unregistered) are not guaranteed to exist at 1:1000 scale, so
        # this asserts on the full-scale world.
        reasons = {f.reason for f in default_bundle.world.log.fixes}
        assert "notification" in reasons

    def test_organic_fixes_logged(self, world):
        assert "organic" in {f.reason for f in world.log.fixes}

    def test_remediation_renames_non_hijackable(self, world):
        for record in world.log.renames:
            if record.remediation:
                assert not record.hijackable
                assert record.day >= world.config.notification_day

    def test_post_notification_idioms_in_use(self, world):
        late_ids = {
            r.idiom_id for r in world.log.renames
            if r.day > world.config.notification_day + 90 and not r.remediation
        }
        assert "EMPTY.AS112.ARPA" in late_ids


class TestDeterminism:
    def test_same_seed_same_world(self):
        from repro.ecosystem.config import tiny_scenario
        from repro.ecosystem.world import World
        a = World(tiny_scenario(seed=5)).run()
        b = World(tiny_scenario(seed=5)).run()
        assert [r.new_name for r in a.log.renames] == [
            r.new_name for r in b.log.renames
        ]
        assert [h.domain for h in a.log.hijacks] == [
            h.domain for h in b.log.hijacks
        ]

    def test_no_machinery_errors_in_tiny_world(self, world):
        # Every hoster whose purge fell inside the timeline must have
        # completed its deletion cleanly; failures would show up as
        # domains left behind in repositories.
        from repro.ecosystem.population import PURGE_DELAY
        for hoster in world.plan.hosters:
            if hoster.death_day + PURGE_DELAY >= world.config.end_day:
                continue  # still in the grace pipeline at data end
            registry = world.roster.registry_for(hoster.domain)
            assert not registry.repository.domain_exists(hoster.domain), hoster.domain


class TestCollectorPause:
    """The simulator pauses cyclic collection: its heap has no cycles."""

    @pytest.mark.parametrize("seed", [2021, 8085])
    def test_run_leaves_no_cyclic_garbage(self, seed):
        import gc

        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.world import World

        gc.collect()
        gc.disable()
        try:
            result = World(default_scenario(seed).scaled(0.05)).run()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert result.log.renames

    @pytest.mark.parametrize("enabled", [True, False])
    def test_pause_restores_the_callers_state(self, enabled, monkeypatch):
        import gc

        from repro.ecosystem import world as world_module
        from repro.ecosystem.config import tiny_scenario

        def fail(*_args):
            assert not gc.isenabled()
            raise RuntimeError("failed while paused")

        def set_collector(on: bool) -> None:
            if on:
                gc.enable()
            else:
                gc.disable()

        was_enabled = gc.isenabled()
        set_collector(enabled)
        try:
            with world_module.collector_paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
            world_module.World(tiny_scenario(seed=5)).run()
            assert gc.isenabled() is enabled

            world = world_module.World(tiny_scenario(seed=5))
            monkeypatch.setattr(world, "_on_client_birth", fail)
            with pytest.raises(RuntimeError, match="failed while paused"):
                world.run()
            assert gc.isenabled() is enabled

            monkeypatch.setattr(world_module.PopulationPlanner, "build", fail)
            with pytest.raises(RuntimeError, match="failed while paused"):
                world_module.World(tiny_scenario(seed=5))
            assert gc.isenabled() is enabled
        finally:
            set_collector(was_enabled)


class TestSimulatorSpans:
    def test_traced_run_reports_its_phases(self, tmp_path):
        from repro.ecosystem.config import tiny_scenario
        from repro.ecosystem.world import World
        from repro.obs import runtime as obs
        from repro.obs.tracer import Tracer, read_trace

        tracer = Tracer(tmp_path / "trace.jsonl", "run-world")
        with obs.observing(tracer):
            result = World(tiny_scenario(seed=5)).run()
        tracer.close()
        spans = {
            record.payload["name"]: record.payload
            for record in read_trace(tmp_path / "trace.jsonl")
            if record.type == "span-end"
        }
        assert sorted(spans) == ["world.build", "world.events", "world.plan"]
        plan = result.plan
        assert spans["world.plan"]["hosters"] == len(plan.hosters)
        assert spans["world.plan"]["clients"] == plan.client_count()
        events = spans["world.events"]
        assert events["renames"] == len(result.log.renames)
        assert events["events"] > 0
        assert spans["world.build"]["deltas"] + events["deltas"] + len(
            result.zonedb.covered_tlds
        ) == len(result.zonedb.deltas_since(None))
