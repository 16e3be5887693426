"""Tests for the WHOIS history archive."""

import json

import pytest

from repro.dnscore.errors import NameError_
from repro.whois.archive import REDACTED, WhoisArchive


@pytest.fixture()
def archive():
    whois = WhoisArchive()
    whois.record_registration(
        "foo.com", "godaddy", day=0, period_years=2, registrant="Alice"
    )
    return whois


class TestEpochs:
    def test_registration_recorded(self, archive):
        record = archive.current("foo.com", 10)
        assert record is not None
        assert record.registrar == "godaddy"
        assert record.expires == 730

    def test_renewal_extends(self, archive):
        archive.record_renewal("foo.com", day=100, period_years=1)
        assert archive.current("foo.com", 100).expires == 730 + 365

    def test_deletion_closes_epoch(self, archive):
        archive.record_deletion("foo.com", day=50)
        assert archive.current("foo.com", 50) is None
        assert archive.current("foo.com", 49) is not None

    def test_reregistration_opens_new_epoch(self, archive):
        archive.record_deletion("foo.com", day=50)
        archive.record_registration("foo.com", "enom", day=80)
        assert archive.registrar_at("foo.com", 85) == "enom"
        assert archive.registrar_at("foo.com", 40) == "godaddy"
        assert len(archive.history("foo.com")) == 2

    def test_renewal_of_unregistered_is_noop(self, archive):
        archive.record_deletion("foo.com", day=50)
        archive.record_renewal("foo.com", day=60)
        assert archive.current("foo.com", 60) is None

    def test_deletion_of_unknown_is_noop(self):
        WhoisArchive().record_deletion("ghost.com", day=5)


class TestQueries:
    def test_registrar_at_unregistered(self, archive):
        assert archive.registrar_at("ghost.com", 10) is None

    def test_ever_registered(self, archive):
        assert archive.ever_registered("foo.com")
        assert not archive.ever_registered("ghost.com")

    def test_first_registration_after(self, archive):
        archive.record_deletion("foo.com", day=50)
        archive.record_registration("foo.com", "hijacker-reg", day=90)
        found = archive.first_registration_after("foo.com", 60)
        assert found is not None and found.created == 90

    def test_first_registration_after_none(self, archive):
        assert archive.first_registration_after("foo.com", 1) is None

    def test_first_registration_boundary_inclusive(self, archive):
        found = archive.first_registration_after("foo.com", 0)
        assert found is not None and found.created == 0

    def test_len_counts_epochs(self, archive):
        archive.record_deletion("foo.com", day=50)
        archive.record_registration("foo.com", "enom", day=80)
        assert len(archive) == 2

    def test_domains_iterates(self, archive):
        assert list(archive.domains()) == ["foo.com"]

    def test_names_normalized(self, archive):
        assert archive.registrar_at("FOO.COM", 10) == "godaddy"


class TestRedaction:
    def test_redaction_applies(self):
        whois = WhoisArchive(redact_registrants=True)
        whois.record_registration("a.com", "enom", day=0, registrant="Bob")
        assert whois.current("a.com", 0).registrant == REDACTED

    def test_registrar_survives_redaction(self):
        """GDPR hides registrants, not sponsoring registrars (§6.2)."""
        whois = WhoisArchive(redact_registrants=True)
        whois.record_registration("a.com", "enom", day=0, registrant="Bob")
        assert whois.registrar_at("a.com", 0) == "enom"

    def test_empty_registrant_not_redacted(self):
        whois = WhoisArchive(redact_registrants=True)
        whois.record_registration("a.com", "enom", day=0)
        assert whois.current("a.com", 0).registrant == ""


class TestLoad:
    """What :meth:`WhoisArchive.load` accepts, refuses and normalises."""

    LINE = (
        '{"created": 5, "deleted": null, "domain": "foo.com", "expires": 370, '
        '"registrant": "Alice", "registrar": "enom", "transfers": [[9, "godaddy"]]}'
    )

    def _load(self, tmp_path, *lines: str) -> WhoisArchive:
        path = tmp_path / "whois.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return WhoisArchive.load(path)

    def _line(self, **changes) -> str:
        data = json.loads(self.LINE)
        for key, value in changes.items():
            if value is _ABSENT:
                del data[key]
            else:
                data[key] = value
        return json.dumps(data)

    def test_round_trip_keeps_every_field(self, tmp_path):
        (record,) = self._load(tmp_path, self.LINE).history("foo.com")
        assert (record.domain, record.registrar) == ("foo.com", "enom")
        assert (record.created, record.expires, record.deleted) == (5, 370, None)
        assert record.registrant == "Alice"
        assert record.transfers == [(9, "godaddy")]

    def test_line_that_is_not_json(self, tmp_path):
        with pytest.raises(ValueError):
            self._load(tmp_path, self.LINE, "{not json")

    def test_line_holding_two_objects(self, tmp_path):
        with pytest.raises(ValueError):
            self._load(tmp_path, self.LINE + " " + self.LINE)

    @pytest.mark.parametrize(
        "key", ["domain", "registrar", "created", "expires", "deleted"]
    )
    def test_missing_required_field(self, tmp_path, key):
        with pytest.raises(KeyError):
            self._load(tmp_path, self._line(**{key: _ABSENT}))

    def test_invalid_domain(self, tmp_path):
        with pytest.raises(NameError_):
            self._load(tmp_path, self._line(domain="bad..name.com"))

    def test_domain_is_canonicalised(self, tmp_path):
        archive = self._load(tmp_path, self._line(domain="EXAMPLE.COM."))
        assert list(archive.domains()) == ["example.com"]
        assert archive.history("example.com")[0].domain == "example.com"

    def test_blank_lines_are_skipped(self, tmp_path):
        archive = self._load(tmp_path, "", self.LINE, "   ", "")
        assert len(archive) == 1

    def test_absent_registrant_and_transfers_default(self, tmp_path):
        line = self._line(registrant=_ABSENT, transfers=_ABSENT)
        (record,) = self._load(tmp_path, line).history("foo.com")
        assert record.registrant == ""
        assert record.transfers == []

    def test_transfers_are_tuples(self, tmp_path):
        (record,) = self._load(tmp_path, self.LINE).history("foo.com")
        assert all(type(transfer) is tuple for transfer in record.transfers)

    def test_dump_of_a_load_is_byte_identical(self, tmp_path):
        whois = WhoisArchive()
        whois.record_registration("b.com", "enom", day=3, registrant="Bob")
        whois.record_transfer("b.com", "godaddy", day=7)
        whois.record_deletion("b.com", day=9)
        whois.record_registration("a.org", "bulkreg", day=1)
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        whois.dump(first)
        WhoisArchive.load(first).dump(second)
        assert first.read_bytes() == second.read_bytes()


_ABSENT = object()
