"""Historical WHOIS records, as the methodology consumes them.

The paper uses DomainTools WHOIS history for exactly two joins: the
registrar sponsoring a nameserver's domain at the time it was renamed
(to attribute renaming idioms to registrars, §3.2.3), and registration
events for sacrificial nameserver domains (to identify hijacks and
hijackers, §5/§6). :class:`WhoisArchive` stores per-domain registration
epochs supporting both, including the privacy-era reality that registrant
identity is frequently proxy/GDPR-redacted while sponsoring registrar and
dates remain visible.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, cast

from repro.dnscore.errors import NameError_
from repro.dnscore.names import _LAX_NAME, MAX_NAME_LENGTH, canonical_text

#: The registrant string WHOIS shows when privacy/GDPR redaction applies.
REDACTED = "REDACTED FOR PRIVACY"

# One line as :meth:`WhoisArchive.dump` writes it: sorted keys with the
# default separators; a canonical domain (``canonical_text``'s pattern,
# at most ``MAX_NAME_LENGTH`` characters); strings holding no quote, no
# backslash and no character below U+0020; integers of at most 18
# digits, far inside the length Python refuses to parse. :func:`_decode`
# cannot fail on such a line, and decodes it to the domain captured.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_STR = r'"[^"\\\x00-\x1f]*"'
_DUMP_LINE = re.compile(
    rf'\{{"created": {_INT}, "deleted": (?:{_INT}|null), '
    rf'"domain": "(?=[a-z0-9_.-]{{1,{MAX_NAME_LENGTH}}}")({_LAX_NAME.pattern})", '
    rf'"expires": {_INT}, "registrant": {_STR}, "registrar": {_STR}, '
    rf'"transfers": \[(?:\[{_INT}, {_STR}\](?:, \[{_INT}, {_STR}\])*)?\]\}}'
)


@dataclass
class WhoisRecord:
    """One registration epoch of a domain.

    ``deleted`` is ``None`` while the registration is live. ``registrant``
    may be :data:`REDACTED`.
    """

    domain: str
    registrar: str
    created: int
    expires: int
    deleted: int | None = None
    registrant: str = ""
    #: Sponsorship changes within this epoch: (day, gaining registrar).
    transfers: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.domain = canonical_text(self.domain)

    def active_on(self, day: int) -> bool:
        """True if this epoch covers ``day``."""
        return self.created <= day and (self.deleted is None or day < self.deleted)

    def registrar_on(self, day: int) -> str:
        """The sponsoring registrar on ``day``, honouring transfers."""
        current = self.registrar
        for transfer_day, gaining in self.transfers:
            if transfer_day <= day:
                current = gaining
            else:
                break
        return current


@dataclass(eq=False)
class WhoisArchive:
    """Append-only registration history per registered domain.

    A domain's epochs are kept in the order they were recorded or read.
    An archive :meth:`load` read keeps each line in the form :meth:`dump`
    writes as text until a query first touches its domain.
    """

    redact_registrants: bool = False
    #: Each domain's epochs; a ``str`` is a dump-form line not yet decoded.
    _records: dict[str, list[WhoisRecord | str]] = field(default_factory=dict)
    #: Domains whose epochs still hold an undecoded line.
    _undecoded: set[str] = field(default_factory=set, init=False, repr=False)
    #: SHA-256 of the file :meth:`load` read the archive from.
    _loaded_sha256: str | None = field(default=None, init=False, repr=False)

    def record_registration(
        self,
        domain: str,
        registrar: str,
        *,
        day: int,
        period_years: int = 1,
        registrant: str = "",
    ) -> WhoisRecord:
        """Open a new registration epoch."""
        if self.redact_registrants and registrant:
            registrant = REDACTED
        record = WhoisRecord(
            domain=domain,
            registrar=registrar,
            created=day,
            expires=day + 365 * period_years,
            registrant=registrant,
        )
        # Decode the domain's read epochs first; the new one follows them.
        self._epochs(record.domain)
        self._records.setdefault(record.domain, []).append(record)
        return record

    def record_renewal(self, domain: str, *, day: int, period_years: int = 1) -> None:
        """Extend the live epoch of ``domain``; no-op if none is live."""
        record = self.current(domain, day)
        if record is not None:
            record.expires += 365 * period_years

    def record_deletion(self, domain: str, *, day: int) -> None:
        """Close the live epoch of ``domain``; no-op if none is live."""
        record = self.current(domain, day)
        if record is not None:
            record.deleted = day

    def record_transfer(self, domain: str, gaining: str, *, day: int) -> None:
        """Record a sponsorship transfer within the live epoch."""
        record = self.current(domain, day)
        if record is not None:
            record.transfers.append((day, gaining))
            record.transfers.sort()

    # -- queries ---------------------------------------------------------

    def _epochs(self, domain: str) -> list[WhoisRecord]:
        """The epochs of canonical ``domain``, decoding its undecoded
        lines on first touch (a fresh empty list for an unknown domain)."""
        epochs = self._records.get(domain, [])
        if domain in self._undecoded:
            self._undecoded.remove(domain)
            epochs[:] = [
                _decode(epoch) if isinstance(epoch, str) else epoch
                for epoch in epochs
            ]
        return cast("list[WhoisRecord]", epochs)

    def history(self, domain: str) -> list[WhoisRecord]:
        """All registration epochs for ``domain``, oldest first."""
        return list(self._epochs(canonical_text(domain)))

    def current(self, domain: str, day: int) -> WhoisRecord | None:
        """The epoch covering ``day``, or None."""
        for record in reversed(self._epochs(canonical_text(domain))):
            if record.active_on(day):
                return record
        return None

    def registrar_at(self, domain: str, day: int) -> str | None:
        """The sponsoring registrar of ``domain`` on ``day``, if registered."""
        record = self.current(domain, day)
        return record.registrar_on(day) if record else None

    def last_registrar_before(self, domain: str, day: int) -> str | None:
        """The registrar of the most recent epoch starting before ``day``.

        Used for rename attribution when the zone data is coarser than
        daily (sampled snapshots quantize the rename day past the epoch's
        deletion): the renaming registrar is whoever last sponsored the
        nameserver's domain.
        """
        best: WhoisRecord | None = None
        for record in self._epochs(canonical_text(domain)):
            if record.created < day:
                best = record
        return best.registrar_on(day - 1) if best else None

    def ever_registered(self, domain: str) -> bool:
        """True if the archive has any epoch for ``domain``."""
        return canonical_text(domain) in self._records

    def first_registration_after(self, domain: str, day: int) -> WhoisRecord | None:
        """The first epoch created on or after ``day``.

        This is the join used to decide whether (and when) a sacrificial
        nameserver domain was registered after its creation — i.e. whether
        its delegated domains were hijacked.
        """
        for record in self._epochs(canonical_text(domain)):
            if record.created >= day:
                return record
        return None

    def domains(self) -> Iterator[str]:
        """Every domain with at least one epoch, in the order of its first."""
        return iter(self._records)

    def __len__(self) -> int:
        return sum(len(records) for records in self._records.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WhoisArchive):
            return NotImplemented
        return (self.redact_registrants, self._all_epochs()) == (
            other.redact_registrants,
            other._all_epochs(),
        )

    def _all_epochs(self) -> dict[str, list[WhoisRecord]]:
        return {domain: self._epochs(domain) for domain in self._records}

    # -- serialization ------------------------------------------------------

    def to_json_lines(self) -> Iterator[str]:
        """Serialize as JSON lines (one registration epoch per line)."""
        for domain in sorted(self._records):
            for record in self._epochs(domain):
                yield json.dumps(
                    {
                        "domain": record.domain,
                        "registrar": record.registrar,
                        "created": record.created,
                        "expires": record.expires,
                        "deleted": record.deleted,
                        "registrant": record.registrant,
                        "transfers": record.transfers,
                    },
                    sort_keys=True,
                )

    def _dump_bytes(self) -> bytes:
        return ("\n".join(self.to_json_lines()) + "\n").encode("utf-8")

    def dump(self, path) -> int:
        """Write the archive to a JSON-lines file; returns epoch count."""
        Path(path).write_bytes(self._dump_bytes())
        return len(self)

    def sha256(self) -> str:
        """SHA-256 of the archive's input: the bytes of the file
        :meth:`load` read, or, for an archive built in memory, the bytes
        :meth:`dump` would write now (the same value for a file
        :meth:`dump` wrote)."""
        if self._loaded_sha256 is not None:
            return self._loaded_sha256
        return hashlib.sha256(self._dump_bytes()).hexdigest()

    @classmethod
    def load(cls, path) -> "WhoisArchive":
        """Read a JSON-lines archive, checking every line.

        Lines end at ``\\n`` only (one ``\\r`` before it is dropped), so a
        string may hold any other line separator JSON allows unescaped.
        A line in the form :meth:`dump` writes (``_DUMP_LINE``) is kept
        as text until a query first touches its domain. Any other
        non-blank line is decoded here, and a line that does not decode
        raises, naming its line number: ``ValueError`` for one that is
        not UTF-8, not one JSON object or has a wrongly typed field,
        ``KeyError`` for a missing required field and
        :class:`~repro.dnscore.errors.NameError_` for an invalid domain.
        """
        data = Path(path).read_bytes()
        archive = cls()
        archive._loaded_sha256 = hashlib.sha256(data).hexdigest()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as error:
            number = data.count(b"\n", 0, error.start) + 1
            raise ValueError(f"line {number}: not UTF-8 text") from None
        records, undecoded = archive._records, archive._undecoded
        for number, line in enumerate(text.split("\n"), 1):
            line = line.removesuffix("\r")
            match = _DUMP_LINE.fullmatch(line)
            epoch: WhoisRecord | str
            if match is not None:
                epoch, domain = line, match[1]
                undecoded.add(domain)
            elif line.strip():
                epoch = _decode_line(line, number)
                domain = epoch.domain
            else:
                continue
            records.setdefault(domain, []).append(epoch)
        return archive


def _decode_line(line: str, number: int) -> WhoisRecord:
    """:func:`_decode` of the file's line ``number``; an error names it."""
    try:
        return _decode(line)
    except KeyError as error:
        raise KeyError(f"line {number}: missing field {error}") from None
    except NameError_ as error:
        raise NameError_(f"line {number}: {error}") from None
    except ValueError as error:
        raise ValueError(f"line {number}: {error}") from None


def _decode(line: str) -> WhoisRecord:
    """The epoch one archive line holds, with every field checked.

    ``created`` and ``expires`` are integers, ``deleted`` an integer or
    null, ``registrar`` and the optional ``registrant`` strings, and the
    optional ``transfers`` a list of ``[day, registrar]`` pairs.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"not JSON: {error.msg}: column {error.colno}") from None
    if type(data) is not dict:
        raise ValueError("not a JSON object")
    return WhoisRecord(
        _typed("domain", data["domain"], str),
        _typed("registrar", data["registrar"], str),
        _typed("created", data["created"], int),
        _typed("expires", data["expires"], int),
        _typed("deleted", data["deleted"], int, type(None)),
        _typed("registrant", data.get("registrant", ""), str),
        _transfers(data.get("transfers", [])),
    )


def _transfers(value: Any) -> list[tuple[int, str]]:
    """The ``transfers`` field as ``(day, gaining registrar)`` tuples."""
    for pair in _typed("transfers", value, list):
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is str
        ):
            raise ValueError(
                f"field 'transfers' holds {json.dumps(pair)}, not a "
                "[day, registrar] pair"
            )
    return [(day, registrar) for day, registrar in value]


#: What :func:`_typed` calls each type a field may have.
_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", type(None): "null"}


def _typed(key: str, value: Any, *types: type) -> Any:
    """``value`` of field ``key``, if its type is one of ``types`` exactly
    (so ``true`` is not an integer)."""
    if type(value) in types:
        return value
    expected = " or ".join(_JSON_TYPES[kind] for kind in types)
    raise ValueError(f"field {key!r} is {json.dumps(value)}, not {expected}")
