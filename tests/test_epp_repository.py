"""Tests for the EPP repository: RFC 5731/5732 rules and the loophole."""

import pytest

from repro.dnscore.errors import NameError_
from repro.epp.errors import EppError, ResultCode
from repro.epp.objects import DomainStatus
from repro.epp.repository import EppRepository


@pytest.fixture()
def repo():
    return EppRepository("sim-verisign", ["com", "net", "edu", "gov"])


@pytest.fixture()
def populated(repo):
    repo.create_domain("regA", "foo.com", day=0, period_years=2)
    repo.create_host("regA", "ns1.foo.com", day=0, addresses=["192.0.2.1"])
    repo.create_host("regA", "ns2.foo.com", day=0, addresses=["192.0.2.2"])
    repo.create_domain("regB", "bar.com", day=1, nameservers=["ns2.foo.com"])
    return repo


def code_of(excinfo) -> ResultCode:
    return excinfo.value.code


class TestNamespace:
    def test_internal_detection(self, repo):
        assert repo.is_internal("ns1.foo.com")
        assert repo.is_internal("x.y.net")
        assert not repo.is_internal("x.foo.biz")

    def test_superordinate_is_second_level(self, repo):
        assert repo.superordinate_of("ns1.sub.foo.com") == "foo.com"

    def test_superordinate_rejects_external(self, repo):
        with pytest.raises(EppError) as err:
            repo.superordinate_of("ns1.foo.biz")
        assert code_of(err) is ResultCode.PARAMETER_VALUE_POLICY_ERROR

    def test_superordinate_rejects_bare_tld(self, repo):
        with pytest.raises(EppError):
            repo.superordinate_of("com")

    def test_rejects_non_tld_namespace(self):
        with pytest.raises(ValueError):
            EppRepository("x", ["co.uk"])


class TestLookup:
    """Canonical input hits directly; any other spelling is canonicalized."""

    def test_other_spellings_found(self, populated):
        assert populated.domain("FOO.com.").name == "foo.com"
        assert populated.host(" NS1.Foo.COM ").name == "ns1.foo.com"
        assert populated.domain_exists("Bar.Com")
        assert populated.host_exists("ns2.FOO.com.")

    def test_absent_names_not_found(self, populated):
        assert not populated.domain_exists("Baz.com")
        assert not populated.host_exists("ns3.foo.com")
        with pytest.raises(EppError) as err:
            populated.host("NS3.foo.com")
        assert code_of(err) is ResultCode.OBJECT_DOES_NOT_EXIST

    def test_invalid_names_still_rejected(self, populated):
        with pytest.raises(NameError_):
            populated.domain_exists("foo..com")
        with pytest.raises(NameError_):
            populated.domain("-foo.com")


class TestDomainCreate:
    def test_create_ok(self, repo):
        obj = repo.create_domain("regA", "foo.com", day=5, period_years=3)
        assert obj.created == 5
        assert obj.expires == 5 + 3 * 365
        assert obj.sponsor == "regA"

    def test_wrong_tld_rejected(self, repo):
        with pytest.raises(EppError) as err:
            repo.create_domain("regA", "foo.org", day=0)
        assert code_of(err) is ResultCode.PARAMETER_VALUE_POLICY_ERROR

    def test_third_level_rejected(self, repo):
        with pytest.raises(EppError) as err:
            repo.create_domain("regA", "a.foo.com", day=0)
        assert code_of(err) is ResultCode.PARAMETER_VALUE_POLICY_ERROR

    def test_duplicate_rejected(self, repo):
        repo.create_domain("regA", "foo.com", day=0)
        with pytest.raises(EppError) as err:
            repo.create_domain("regB", "foo.com", day=1)
        assert code_of(err) is ResultCode.OBJECT_EXISTS

    def test_nameservers_must_be_host_objects(self, repo):
        with pytest.raises(EppError) as err:
            repo.create_domain("regA", "foo.com", day=0, nameservers=["ns1.x.com"])
        assert code_of(err) is ResultCode.ASSOCIATION_PROHIBITS_OPERATION

    def test_create_links_hosts(self, populated):
        assert populated.host("ns2.foo.com").linked_domains == {"bar.com"}


class TestDomainDelete:
    def test_delete_blocked_by_subordinate_hosts(self, populated):
        """RFC 5731 §3.2.2: the rule that forces the rename workaround."""
        with pytest.raises(EppError) as err:
            populated.delete_domain("regA", "foo.com", day=10)
        assert code_of(err) is ResultCode.ASSOCIATION_PROHIBITS_OPERATION

    def test_delete_ok_without_subordinates(self, repo):
        repo.create_domain("regA", "solo.com", day=0)
        repo.delete_domain("regA", "solo.com", day=1)
        assert not repo.domain_exists("solo.com")

    def test_delete_requires_sponsor(self, populated):
        with pytest.raises(EppError) as err:
            populated.delete_domain("regB", "foo.com", day=10)
        assert code_of(err) is ResultCode.AUTHORIZATION_ERROR

    def test_delete_unlinks_nameservers(self, populated):
        populated.delete_domain("regB", "bar.com", day=10)
        assert populated.host("ns2.foo.com").linked_domains == set()

    def test_delete_prohibited_status(self, repo):
        repo.create_domain("regA", "locked.com", day=0)
        repo.set_domain_status(
            "regA", "locked.com", day=0,
            add=[DomainStatus.CLIENT_DELETE_PROHIBITED],
        )
        with pytest.raises(EppError) as err:
            repo.delete_domain("regA", "locked.com", day=1)
        assert code_of(err) is ResultCode.STATUS_PROHIBITS_OPERATION

    def test_delete_missing_domain(self, repo):
        with pytest.raises(EppError) as err:
            repo.delete_domain("regA", "ghost.com", day=0)
        assert code_of(err) is ResultCode.OBJECT_DOES_NOT_EXIST


class TestHostCreate:
    def test_internal_requires_superordinate(self, repo):
        with pytest.raises(EppError) as err:
            repo.create_host("regA", "ns1.ghost.com", day=0, addresses=["192.0.2.1"])
        assert code_of(err) is ResultCode.OBJECT_DOES_NOT_EXIST

    def test_internal_requires_superordinate_sponsor(self, populated):
        with pytest.raises(EppError) as err:
            populated.create_host(
                "regB", "ns3.foo.com", day=0, addresses=["192.0.2.3"]
            )
        assert code_of(err) is ResultCode.AUTHORIZATION_ERROR

    def test_external_host_allowed_unchecked(self, repo):
        obj = repo.create_host("regA", "ns1.whatever.biz", day=0)
        assert obj.external
        assert obj.superordinate is None

    def test_external_host_rejects_addresses(self, repo):
        with pytest.raises(EppError) as err:
            repo.create_host(
                "regA", "ns1.whatever.biz", day=0, addresses=["192.0.2.9"]
            )
        assert code_of(err) is ResultCode.PARAMETER_VALUE_POLICY_ERROR

    def test_duplicate_host_rejected(self, populated):
        with pytest.raises(EppError) as err:
            populated.create_host(
                "regA", "ns1.foo.com", day=2, addresses=["192.0.2.9"]
            )
        assert code_of(err) is ResultCode.OBJECT_EXISTS

    def test_subordinate_tracking(self, populated):
        assert populated.subordinate_hosts("foo.com") == {
            "ns1.foo.com", "ns2.foo.com"
        }


class TestHostDelete:
    def test_linked_host_cannot_be_deleted(self, populated):
        """RFC 5732 §3.2.2: the other half of the constraint pair."""
        with pytest.raises(EppError) as err:
            populated.delete_host("regA", "ns2.foo.com", day=10)
        assert code_of(err) is ResultCode.ASSOCIATION_PROHIBITS_OPERATION

    def test_unlinked_host_deleted(self, populated):
        populated.delete_host("regA", "ns1.foo.com", day=10)
        assert not populated.host_exists("ns1.foo.com")
        assert populated.subordinate_hosts("foo.com") == {"ns2.foo.com"}

    def test_delete_requires_sponsor(self, populated):
        with pytest.raises(EppError) as err:
            populated.delete_host("regB", "ns1.foo.com", day=10)
        assert code_of(err) is ResultCode.AUTHORIZATION_ERROR


class TestHostRename:
    """The core of the paper: host renames and the external loophole."""

    def test_rename_to_external_always_allowed(self, populated):
        obj = populated.rename_host(
            "regA", "ns2.foo.com", "dropthishost-1234.biz", day=10
        )
        assert obj.external
        assert obj.name == "dropthishost-1234.biz"

    def test_rename_clears_addresses_for_external(self, populated):
        obj = populated.rename_host("regA", "ns2.foo.com", "x.biz", day=10)
        assert obj.addresses == set()

    def test_rename_updates_referring_domains(self, populated):
        """The silent delegation rewrite that creates the hijack risk."""
        populated.rename_host("regA", "ns2.foo.com", "x-random.biz", day=10)
        assert populated.domain("bar.com").nameservers == ["x-random.biz"]

    def test_rename_detaches_subordinate(self, populated):
        populated.rename_host("regA", "ns2.foo.com", "x.biz", day=10)
        assert populated.subordinate_hosts("foo.com") == {"ns1.foo.com"}

    def test_rename_enables_domain_delete(self, populated):
        populated.delete_host("regA", "ns1.foo.com", day=10)
        populated.rename_host("regA", "ns2.foo.com", "x.biz", day=10)
        populated.delete_domain("regA", "foo.com", day=10)
        assert not populated.domain_exists("foo.com")

    def test_rename_to_internal_requires_superordinate(self, populated):
        with pytest.raises(EppError) as err:
            populated.rename_host("regA", "ns2.foo.com", "ns1.ghost.com", day=10)
        assert code_of(err) is ResultCode.OBJECT_DOES_NOT_EXIST

    def test_rename_to_internal_sink_ok(self, populated):
        populated.create_domain("regA", "sink.com", day=5)
        obj = populated.rename_host("regA", "ns2.foo.com", "x.sink.com", day=10)
        assert not obj.external
        assert obj.superordinate == "sink.com"
        assert populated.subordinate_hosts("sink.com") == {"x.sink.com"}

    def test_rename_to_other_registrars_domain_rejected(self, populated):
        populated.create_domain("regB", "bsink.com", day=5)
        with pytest.raises(EppError) as err:
            populated.rename_host("regA", "ns2.foo.com", "x.bsink.com", day=10)
        assert code_of(err) is ResultCode.AUTHORIZATION_ERROR

    def test_external_host_cannot_be_renamed_again(self, populated):
        """Once external, the rename is irreversible (§2.4)."""
        populated.rename_host("regA", "ns2.foo.com", "x.biz", day=10)
        with pytest.raises(EppError) as err:
            populated.rename_host("regA", "x.biz", "y.biz", day=11)
        assert code_of(err) is ResultCode.STATUS_PROHIBITS_OPERATION

    def test_rename_collision_with_existing_host(self, populated):
        populated.create_host("regA", "taken.biz", day=5)
        with pytest.raises(EppError) as err:
            populated.rename_host("regA", "ns2.foo.com", "taken.biz", day=10)
        assert code_of(err) is ResultCode.OBJECT_EXISTS

    def test_rename_requires_sponsor(self, populated):
        with pytest.raises(EppError) as err:
            populated.rename_host("regB", "ns2.foo.com", "x.biz", day=10)
        assert code_of(err) is ResultCode.AUTHORIZATION_ERROR

    def test_rename_preserves_linkage(self, populated):
        obj = populated.rename_host("regA", "ns2.foo.com", "x.biz", day=10)
        assert obj.linked_domains == {"bar.com"}


class TestDomainUpdate:
    def test_add_and_remove_ns(self, populated):
        populated.update_domain_ns(
            "regB", "bar.com", day=5,
            add=["ns1.foo.com"], remove=["ns2.foo.com"],
        )
        assert populated.domain("bar.com").nameservers == ["ns1.foo.com"]
        assert populated.host("ns1.foo.com").linked_domains == {"bar.com"}
        assert populated.host("ns2.foo.com").linked_domains == set()

    def test_update_requires_sponsor(self, populated):
        """EPP isolation: registrar A cannot touch registrar B's domain."""
        with pytest.raises(EppError) as err:
            populated.update_domain_ns(
                "regA", "bar.com", day=5, remove=["ns2.foo.com"]
            )
        assert code_of(err) is ResultCode.AUTHORIZATION_ERROR

    def test_add_missing_host_rejected(self, populated):
        with pytest.raises(EppError) as err:
            populated.update_domain_ns(
                "regB", "bar.com", day=5, add=["ns1.ghost.net"]
            )
        assert code_of(err) is ResultCode.ASSOCIATION_PROHIBITS_OPERATION

    def test_remove_nondelegated_rejected(self, populated):
        with pytest.raises(EppError) as err:
            populated.update_domain_ns(
                "regB", "bar.com", day=5, remove=["ns1.foo.com"]
            )
        assert code_of(err) is ResultCode.PARAMETER_VALUE_POLICY_ERROR

    def test_renew(self, populated):
        before = populated.domain("foo.com").expires
        populated.renew_domain("regA", "foo.com", day=5, period_years=2)
        assert populated.domain("foo.com").expires == before + 730


class TestPurge:
    def test_purge_orphans_subordinates(self, populated):
        """Registry purge bypasses the SHOULD NOT and orphans hosts."""
        orphans = populated.purge_domain("foo.com", day=20)
        assert orphans == ["ns1.foo.com", "ns2.foo.com"]
        assert not populated.domain_exists("foo.com")
        assert populated.host("ns2.foo.com").superordinate is None
        # The orphaned host still carries its delegations.
        assert populated.host("ns2.foo.com").linked_domains == {"bar.com"}


class TestZoneGeneration:
    def test_delegations_published(self, populated):
        zone = populated.zone_for("com")
        assert zone.nameservers_of("bar.com") == {"ns2.foo.com"}

    def test_glue_published_for_internal_hosts(self, populated):
        zone = populated.zone_for("com")
        assert zone.glue_of("ns1.foo.com") == {"192.0.2.1"}

    def test_domains_without_ns_not_published(self, populated):
        assert "foo.com" not in populated.zone_for("com")

    def test_hold_status_withheld(self, populated):
        populated.set_domain_status(
            "regB", "bar.com", day=5, add=[DomainStatus.SERVER_HOLD]
        )
        assert "bar.com" not in populated.zone_for("com")

    def test_wrong_tld_rejected(self, populated):
        with pytest.raises(EppError):
            populated.zone_for("org")

    def test_audit_hook_fires(self):
        events = []
        repo = EppRepository(
            "x", ["com"], audit_hook=lambda d, op, det: events.append(op)
        )
        repo.create_domain("regA", "foo.com", day=0)
        assert events == ["domain:create"]
