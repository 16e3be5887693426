"""Failure injection: broken idioms, exhausted retries, hostile inputs.

Production deletion machinery must degrade cleanly when an idiom
misbehaves: errors become recorded outcomes, never crashes, and the
repository is left in a consistent state (verified by re-running the
same invariants the stateful suite uses).
"""

import random

import pytest

from repro.epp.errors import ResultCode
from repro.epp.registry import Registry, TldPolicy
from repro.registrar.idioms import RenamingIdiom
from repro.registrar.policy import DeletionMachinery


class StuckIdiom(RenamingIdiom):
    """Always produces the same name — every retry collides."""

    idiom_id = "STUCK"
    hijackable = True

    def rename(self, host, rng, *, attempt=0, psl=None):
        return "always-the-same.biz"


class MalformedIdiom(RenamingIdiom):
    """Produces a syntactically invalid name (label too long)."""

    idiom_id = "MALFORMED"
    hijackable = True

    def rename(self, host, rng, *, attempt=0, psl=None):
        return ("x" * 80) + ".biz"


class InternalGhostIdiom(RenamingIdiom):
    """Targets an internal namespace whose superordinate doesn't exist."""

    idiom_id = "GHOST"
    hijackable = True

    def rename(self, host, rng, *, attempt=0, psl=None):
        return f"ns{attempt}.never-registered.com"


@pytest.fixture()
def registry():
    reg = Registry("sim-verisign", [TldPolicy("com")])
    reg.accredit("regA")
    reg.accredit("regB")
    return reg


@pytest.fixture()
def hoster_session(registry):
    a = registry.session("regA")
    b = registry.session("regB")
    a.domain_create("foo.com", day=0)
    a.host_create("ns1.foo.com", day=0, addresses=["192.0.2.1"])
    a.domain_update_ns("foo.com", day=0, add=["ns1.foo.com"])
    b.domain_create("victim.com", day=1, nameservers=["ns1.foo.com"])
    return a


def assert_repository_consistent(repo):
    """The link/subordinate invariants must survive any failure."""
    referencing: dict[str, set[str]] = {}
    for domain in repo.all_domains():
        for ns in domain.nameservers:
            referencing.setdefault(ns, set()).add(domain.name)
    for host in repo.all_hosts():
        assert host.linked_domains == referencing.get(host.name, set())


class TestStuckIdiom:
    def test_first_rename_succeeds_then_collides(self, registry, hoster_session):
        machinery = DeletionMachinery(random.Random(1))
        outcome = machinery.delete_domain(
            hoster_session, "foo.com", StuckIdiom(), day=5
        )
        # First deletion renames to the fixed name and succeeds.
        assert outcome.deleted
        # A second hoster with the same idiom must exhaust retries.
        a = hoster_session
        a.domain_create("bar2.com", day=6)
        a.host_create("ns1.bar2.com", day=6, addresses=["192.0.2.2"])
        registry.session("regB").domain_create(
            "victim2.com", day=6, nameservers=["ns1.bar2.com"]
        )
        outcome2 = machinery.delete_domain(a, "bar2.com", StuckIdiom(), day=7)
        assert not outcome2.deleted
        assert any("exhausted" in e for e in outcome2.errors)
        assert_repository_consistent(registry.repository)

    def test_victim_unchanged_after_exhaustion(self, registry, hoster_session):
        machinery = DeletionMachinery(random.Random(1))
        machinery.delete_domain(hoster_session, "foo.com", StuckIdiom(), day=5)
        a = hoster_session
        a.domain_create("bar2.com", day=6)
        a.host_create("ns1.bar2.com", day=6, addresses=["192.0.2.2"])
        registry.session("regB").domain_create(
            "victim2.com", day=6, nameservers=["ns1.bar2.com"]
        )
        machinery.delete_domain(a, "bar2.com", StuckIdiom(), day=7)
        assert registry.repository.domain("victim2.com").nameservers == [
            "ns1.bar2.com"
        ]


class TestMalformedIdiom:
    def test_no_crash_and_error_recorded(self, registry, hoster_session):
        machinery = DeletionMachinery(random.Random(1))
        outcome = machinery.delete_domain(
            hoster_session, "foo.com", MalformedIdiom(), day=5
        )
        assert not outcome.deleted
        assert outcome.errors
        assert_repository_consistent(registry.repository)

    def test_malformed_surfaces_as_policy_error(self, registry, hoster_session):
        result = hoster_session.host_rename(
            "ns1.foo.com", ("y" * 90) + ".biz", day=5
        )
        assert not result.ok
        assert result.code is ResultCode.PARAMETER_VALUE_POLICY_ERROR


class TestInternalGhostIdiom:
    def test_nonexistent_superordinate_fails_cleanly(self, registry, hoster_session):
        machinery = DeletionMachinery(random.Random(1))
        outcome = machinery.delete_domain(
            hoster_session, "foo.com", InternalGhostIdiom(), day=5
        )
        assert not outcome.deleted
        assert any("2303" in e or "does not exist" in e.lower()
                   for e in outcome.errors)
        assert_repository_consistent(registry.repository)


class TestHostileInputs:
    def test_create_domain_with_garbage_name(self, registry):
        session = registry.session("regA")
        result = session.domain_create("..", day=0)
        assert not result.ok
        assert result.code is ResultCode.PARAMETER_VALUE_POLICY_ERROR

    def test_update_with_garbage_ns(self, registry):
        session = registry.session("regA")
        session.domain_create("ok.com", day=0)
        result = session.domain_update_ns("ok.com", day=1, add=["bad..name"])
        assert not result.ok

    def test_session_keeps_working_after_a_failed_command(self, registry):
        session = registry.session("regA")
        failed = session.domain_create("..", day=0)
        created = session.domain_create("ok.com", day=0)
        assert not failed.ok
        assert failed.code is ResultCode.PARAMETER_VALUE_POLICY_ERROR
        assert created.ok
        assert session.domain_info("ok.com").data.sponsor == "regA"
