"""Tests for the EPP session/command façade."""

import pytest

from repro.epp.errors import ResultCode
from repro.epp.commands import EppSession
from repro.epp.repository import EppRepository


@pytest.fixture()
def session():
    repo = EppRepository("sim-verisign", ["com", "net"])
    return EppSession(repo, "regA")


class TestResults:
    def test_success_result(self, session):
        result = session.domain_create("foo.com", day=0)
        assert result.ok
        assert result.code is ResultCode.OK
        assert result.message == "Command completed successfully"

    def test_error_result_not_exception(self, session):
        result = session.domain_delete("ghost.com", day=0)
        assert not result.ok
        assert result.code is ResultCode.OBJECT_DOES_NOT_EXIST
        assert "ghost.com" in result.detail

    def test_check_available(self, session):
        assert session.domain_check("foo.com").data is True
        session.domain_create("foo.com", day=0)
        assert session.domain_check("foo.com").data is False

    def test_info_returns_object(self, session):
        session.domain_create("foo.com", day=3)
        result = session.domain_info("foo.com")
        assert result.ok
        assert result.data.created == 3

    def test_host_info(self, session):
        session.domain_create("foo.com", day=0)
        session.host_create("ns1.foo.com", day=0, addresses=["192.0.2.1"])
        assert session.host_info("ns1.foo.com").data.superordinate == "foo.com"


class TestSessionIdentity:
    def test_sponsor_is_bound(self, session):
        """A session cannot act as another registrar."""
        session.domain_create("foo.com", day=0)
        other = EppSession(session.repository, "regB")
        result = other.domain_delete("foo.com", day=1)
        assert result.code is ResultCode.AUTHORIZATION_ERROR


class TestHostCommands:
    def test_rename_flow(self, session):
        session.domain_create("foo.com", day=0)
        session.host_create("ns1.foo.com", day=0, addresses=["192.0.2.1"])
        session.domain_create("bar.com", day=0, nameservers=["ns1.foo.com"])
        rename = session.host_rename("ns1.foo.com", "x.biz", day=1)
        assert rename.ok
        assert session.repository.domain("bar.com").nameservers == ["x.biz"]

    def test_set_addresses(self, session):
        session.domain_create("foo.com", day=0)
        session.host_create("ns1.foo.com", day=0, addresses=["192.0.2.1"])
        result = session.host_set_addresses("ns1.foo.com", ["192.0.2.9"], day=1)
        assert result.ok
        assert session.repository.host("ns1.foo.com").addresses == {"192.0.2.9"}

    def test_renew(self, session):
        session.domain_create("foo.com", day=0, period_years=1)
        result = session.domain_renew("foo.com", day=10, period_years=1)
        assert result.ok
        assert session.repository.domain("foo.com").expires == 730

    def test_update_ns(self, session):
        session.domain_create("foo.com", day=0)
        session.host_create("ns1.foo.com", day=0, addresses=["192.0.2.1"])
        session.domain_create("bar.com", day=0)
        result = session.domain_update_ns("bar.com", day=1, add=["ns1.foo.com"])
        assert result.ok
        assert session.repository.domain("bar.com").nameservers == ["ns1.foo.com"]
