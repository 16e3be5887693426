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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.dnscore.names import Name, canonical_text

#: The registrant string WHOIS shows when privacy/GDPR redaction applies.
REDACTED = "REDACTED FOR PRIVACY"


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


@dataclass
class WhoisArchive:
    """Append-only registration history per registered domain."""

    redact_registrants: bool = False
    _records: dict[str, list[WhoisRecord]] = field(default_factory=dict)
    #: SHA-256 of the file :meth:`load` read the archive from.
    _loaded_sha256: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def history(self, domain: str) -> list[WhoisRecord]:
        """All registration epochs for ``domain``, oldest first."""
        return list(self._records.get(Name(domain).text, ()))

    def current(self, domain: str, day: int) -> WhoisRecord | None:
        """The epoch covering ``day``, or None."""
        for record in reversed(self.history(domain)):
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
        for record in self.history(domain):
            if record.created < day:
                best = record
        return best.registrar_on(day - 1) if best else None

    def ever_registered(self, domain: str) -> bool:
        """True if the archive has any epoch for ``domain``."""
        return Name(domain).text in self._records

    def first_registration_after(self, domain: str, day: int) -> WhoisRecord | None:
        """The first epoch created on or after ``day``.

        This is the join used to decide whether (and when) a sacrificial
        nameserver domain was registered after its creation — i.e. whether
        its delegated domains were hijacked.
        """
        for record in self.history(domain):
            if record.created >= day:
                return record
        return None

    def domains(self) -> Iterator[str]:
        """Every domain with at least one epoch."""
        return iter(self._records)

    def __len__(self) -> int:
        return sum(len(records) for records in self._records.values())

    # -- serialization ------------------------------------------------------

    def to_json_lines(self) -> Iterator[str]:
        """Serialize as JSON lines (one registration epoch per line)."""
        for domain in sorted(self._records):
            for record in self._records[domain]:
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
        """Read an archive previously written by :meth:`dump`."""
        data = Path(path).read_bytes()
        archive = cls()
        archive._loaded_sha256 = hashlib.sha256(data).hexdigest()
        records = archive._records
        for line in data.decode("utf-8").splitlines():
            if not line.strip():
                continue
            data = json.loads(line)
            record = WhoisRecord(
                data["domain"],
                data["registrar"],
                data["created"],
                data["expires"],
                data["deleted"],
                data.get("registrant", ""),
                [tuple(t) for t in data.get("transfers", ())],
            )
            records.setdefault(record.domain, []).append(record)
        return archive
