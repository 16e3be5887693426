"""Original-nameserver matching (§3.2.3).

Some idioms derive the sacrificial name from the nameserver being renamed
(``ns2.internetemc.com`` → ``ns2.internetemc1aj2kdy.biz``). To recover
the original, the matcher looks at each domain that delegated to the
candidate on its first day and asks which of that domain's nameservers
was *last seen the day before* — i.e. whose delegation interval closed
exactly when the candidate's opened. If the original's registered-domain
label is a prefix-substring of the candidate's, the candidate is a
rename of that nameserver.

The sponsoring registrar of the original nameserver's domain at rename
time (from the WHOIS archive) then attributes the idiom to a registrar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnscore.names import Name
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.detection.candidates import CandidateNameserver
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

#: Minimum original-SLD length for a substring match to be considered
#: meaningful; tiny labels would match almost anything.
MIN_SLD_LENGTH = 3


@dataclass(frozen=True, slots=True)
class MatchResult:
    """A candidate matched to the nameserver it replaced."""

    candidate: str
    first_seen: int
    original_ns: str
    original_domain: str
    witness_domain: str
    registrar: str | None

    @property
    def sld_suffix(self) -> str:
        """What the idiom appended to the original SLD (may be empty)."""
        original_sld = self.original_domain.split(".", 1)[0]
        candidate_sld = Name(self.candidate).labels[-2]
        return candidate_sld[len(original_sld):]


class OriginalNameserverMatcher:
    """Runs the history join, one candidate at a time."""

    def __init__(
        self,
        zonedb: ZoneDatabase,
        whois: WhoisArchive,
        *,
        psl: PublicSuffixList | None = None,
    ) -> None:
        self.zonedb = zonedb
        self.whois = whois
        self.psl = psl or default_psl()
        # PSL suffix walks are pure per name but the join re-asks them for
        # every (candidate, witness, previous_ns) triple; the same handful
        # of nameserver names recur across candidates, so memoize.
        self._registered: dict[str, str | None] = {}

    def _registered_domain(self, name: str) -> str | None:
        try:
            return self._registered[name]
        except KeyError:
            registered = self.psl.registered_domain(name)
            self._registered[name] = registered
            return registered

    def match(self, candidate: CandidateNameserver) -> MatchResult | None:
        """Find the original nameserver for one candidate, if any."""
        candidate_registered = self._registered_domain(candidate.name)
        if candidate_registered is None:
            return None
        candidate_sld = candidate_registered.split(".", 1)[0]
        day = candidate.first_seen
        for domain in candidate.referencing_domains:
            for previous_ns in sorted(self.zonedb.nameservers_removed_on(domain, day)):
                original_domain = self._registered_domain(previous_ns)
                if original_domain is None:
                    continue
                original_sld = original_domain.split(".", 1)[0]
                if len(original_sld) < MIN_SLD_LENGTH:
                    continue
                if not candidate_sld.startswith(original_sld):
                    continue
                registrar = self.whois.registrar_at(original_domain, day - 1)
                if registrar is None:
                    # Coarser-than-daily zone data can quantize the rename
                    # day past the original domain's deletion; fall back to
                    # its last sponsor before the rename.
                    registrar = self.whois.last_registrar_before(
                        original_domain, day
                    )
                return MatchResult(
                    candidate=candidate.name,
                    first_seen=day,
                    original_ns=previous_ns,
                    original_domain=original_domain,
                    witness_domain=domain,
                    registrar=registrar,
                )
        return None
