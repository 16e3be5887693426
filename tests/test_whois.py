"""Tests for the WHOIS history archive."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.errors import NameError_
from repro.whois.archive import REDACTED, WhoisArchive, WhoisRecord


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

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(LINE[:-12], id="truncated"),
            pytest.param(
                LINE.replace('"created": 5', '"created": 05'), id="leading-zero"
            ),
            pytest.param(
                LINE.replace("foo.com", 'fo\\"o.com'), id="escaped-quote-in-domain"
            ),
            pytest.param(
                LINE.replace("foo.com", ".".join(["a" * 63] * 3 + ["b" * 62])),
                id="254-character-domain",
            ),
        ],
    )
    def test_one_bad_line_amid_dump_lines(self, tmp_path, bad):
        """Load refuses the file, naming the line, however dump-like the
        lines around it are."""
        whois = WhoisArchive()
        for index in range(4):
            whois.record_registration(f"d{index}.com", "enom", day=index)
        good = list(whois.to_json_lines())
        with pytest.raises((ValueError, NameError_), match="^line 3: "):
            self._load(tmp_path, *good[:2], bad, *good[2:])

    def test_bytes_that_are_not_utf8(self, tmp_path):
        line = self.LINE.encode()
        path = tmp_path / "whois.jsonl"
        path.write_bytes(line + b"\n" + line.replace(b"Alice", b"Al\xefce") + b"\n")
        with pytest.raises(ValueError, match="^line 2: not UTF-8"):
            WhoisArchive.load(path)

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("created", "5"),
            ("created", True),
            ("created", 5.5),
            ("expires", None),
            ("deleted", "7"),
            ("deleted", False),
            ("registrar", 5),
            ("registrant", None),
            ("transfers", "ab"),
            ("transfers", [[9]]),
            ("transfers", [[9, "godaddy", 1]]),
            ("transfers", [["9", "godaddy"]]),
            ("transfers", [[9, None]]),
            ("domain", 5),
        ],
    )
    def test_wrongly_typed_field(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"^line 2: field '{key}' "):
            self._load(tmp_path, self.LINE, self._line(**{key: value}))

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_line_separator_inside_a_string(self, tmp_path, separator):
        """JSON allows these unescaped in a string: they do not end a
        line, so the line after it keeps its number."""
        data = json.loads(self.LINE)
        data["registrant"] = f"Al{separator}ice"
        line = json.dumps(data, ensure_ascii=False)
        archive = self._load(tmp_path, line, self._line(domain="bar.com"))
        (record,) = archive.history("foo.com")
        assert record.registrant == f"Al{separator}ice"
        with pytest.raises(KeyError, match="line 2: missing field 'expires'"):
            self._load(tmp_path, line, self._line(expires=_ABSENT))

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "whois.jsonl"
        path.write_bytes(f"{self.LINE}\r\n{self._line(domain='bar.com')}\r\n".encode())
        assert sorted(WhoisArchive.load(path).domains()) == ["bar.com", "foo.com"]

    def test_missing_field_names_the_line(self, tmp_path):
        with pytest.raises(KeyError, match="line 2: missing field 'expires'"):
            self._load(tmp_path, self.LINE, self._line(expires=_ABSENT))

    def test_registration_after_load_follows_the_file_epochs(self, tmp_path):
        archive = self._load(tmp_path, self._line(deleted=100))
        archive.record_registration("foo.com", "bulkreg", day=200)
        epochs = [(r.created, r.registrar) for r in archive.history("foo.com")]
        assert epochs == [(5, "enom"), (200, "bulkreg")]


_ABSENT = object()


# -- deferred decode against an eager reference ------------------------------

_REGISTRARS = ["enom", "godaddy", "name.com", "Nämé Reg", 'bulk "reg"']
_REGISTRANTS = [
    "", "Alice", "Zoë Müller", "株式会社", REDACTED, "tab\there", "a\\b"
]


@st.composite
def _archives(draw):
    """An archive built through the recording API: a few domains, each
    with consecutive epochs, transfers and deletions."""
    archive = WhoisArchive(redact_registrants=draw(st.booleans()))
    names = draw(
        st.lists(
            st.from_regex(r"[a-z0-9]{1,6}\.(com|net|org)", fullmatch=True),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    for name in names:
        day = draw(st.integers(0, 50))
        for _ in range(draw(st.integers(1, 3))):
            archive.record_registration(
                name,
                draw(st.sampled_from(_REGISTRARS)),
                day=day,
                period_years=draw(st.integers(1, 3)),
                registrant=draw(st.sampled_from(_REGISTRANTS)),
            )
            for _ in range(draw(st.integers(0, 2))):
                day += draw(st.integers(1, 60))
                gaining = draw(st.sampled_from(_REGISTRARS))
                archive.record_transfer(name, gaining, day=day)
            if not draw(st.integers(0, 3)):
                break  # the epoch stays live
            day += draw(st.integers(1, 400))
            archive.record_deletion(name, day=day)
            day += draw(st.integers(0, 30))
    return archive


def _reencode(line: str, form: str) -> str:
    """``line`` written in a form :meth:`WhoisArchive.dump` never writes
    (or, for ``"dump"``, as it is)."""
    data = json.loads(line)
    if form == "compact":
        return json.dumps(data, separators=(",", ":"), sort_keys=True)
    if form == "unsorted":
        return json.dumps(dict(reversed(list(data.items()))))
    if form == "upper":
        data["domain"] = data["domain"].upper() + "."
        return json.dumps(data, sort_keys=True)
    if form == "sparse":
        for key, default in (("registrant", ""), ("transfers", [])):
            if data[key] == default:
                del data[key]
        return json.dumps(data, sort_keys=True)
    return line


def _eager(text: str) -> WhoisArchive:
    """The archive ``text`` holds, every line decoded at once."""
    reference = WhoisArchive()
    for line in text.splitlines():
        if line.strip():
            data = json.loads(line)
            record = WhoisRecord(
                data["domain"],
                data["registrar"],
                data["created"],
                data["expires"],
                data["deleted"],
                data.get("registrant", ""),
                [tuple(pair) for pair in data.get("transfers", ())],
            )
            reference._records.setdefault(record.domain, []).append(record)
    return reference


class TestDeferredDecode:
    """:meth:`WhoisArchive.load` keeps dump-form lines undecoded until a
    query touches their domain; every answer must still be the one an
    eager decode of the same file gives."""

    FORMS = ["dump", "compact", "unsorted", "upper", "sparse", "blank"]

    @settings(max_examples=40, deadline=None)
    @given(archive=_archives(), data=st.data())
    def test_queries_answer_as_an_eager_decode(self, archive, data):
        lines = list(archive.to_json_lines())
        dumped = "\n".join(lines) + "\n"
        # Interleave the domains' lines, keeping each domain's in order.
        by_domain: dict[str, list[str]] = {}
        for line in lines:
            by_domain.setdefault(json.loads(line)["domain"], []).append(line)
        mixed = []
        for slot in data.draw(st.permutations(lines)):
            line = by_domain[json.loads(slot)["domain"]].pop(0)
            form = data.draw(st.sampled_from(self.FORMS))
            if form == "blank":
                mixed.append(data.draw(st.sampled_from(["", "   "])))
            mixed.append(_reencode(line, form))
        with tempfile.TemporaryDirectory() as workdir:
            for text in (dumped, "\n".join(mixed) + "\n"):
                path = Path(workdir) / "whois.jsonl"
                path.write_text(text, encoding="utf-8")
                loaded = WhoisArchive.load(path)
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                assert loaded.sha256() == digest
                first_lines = dict.fromkeys(
                    json.loads(line)["domain"].rstrip(".").lower()
                    for line in text.splitlines()
                    if line.strip()
                )
                self._check(loaded, _eager(text), list(first_lines), data)
                loaded.dump(path)
                assert path.read_text(encoding="utf-8") == dumped

    def _check(self, loaded, reference, names, data):
        """``names``: the file's domains in the order of their first line."""
        assert len(loaded) == len(reference)
        assert list(loaded.domains()) == names
        touched = data.draw(st.lists(st.sampled_from(names), unique=True))
        for name in touched:
            self._same_answers(loaded, reference, name)
        assert list(loaded.domains()) == names
        assert list(loaded.to_json_lines()) == list(reference.to_json_lines())
        for name in names:
            self._same_answers(loaded, reference, name)
        assert not loaded.ever_registered("ghost.example")
        assert len(loaded) == len(reference)
        assert loaded == reference

    def _same_answers(self, loaded, reference, name):
        days = {
            day + offset
            for record in reference.history(name)
            for day in (
                record.created,
                record.expires,
                record.deleted or 0,
                *(transfer_day for transfer_day, _ in record.transfers),
            )
            for offset in (-1, 0, 1)
        }
        for day in sorted(days):
            assert loaded.registrar_at(name, day) == reference.registrar_at(name, day)
            assert loaded.current(name.upper(), day) == reference.current(name, day)
            assert loaded.last_registrar_before(
                name, day
            ) == reference.last_registrar_before(name, day)
            assert loaded.first_registration_after(
                name, day
            ) == reference.first_registration_after(name, day)
        assert loaded.history(name + ".") == reference.history(name)
        assert loaded.ever_registered(name)
