"""The single-repository property filter (§3.2.3).

Host-object renaming is scoped to one EPP repository, so the domains
delegated to a true sacrificial nameserver cannot span repositories
operated by different registries. Which registry operates which TLD is
public knowledge (IANA registry agreements), encoded here as a
:class:`RepositoryMap`.

The filter eliminates candidates that violate the property — in the
paper, 11,403 candidates — before the expensive history-matching step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.dnscore.names import canonical_text
from repro.detection.candidates import CandidateNameserver
from repro.zonedb.database import ZoneDatabase

#: TLD → repository operator, mirroring the simulated world's topology
#: (and, structurally, the real one: Verisign runs .com/.net and the
#: back-ends for .edu/.gov; .biz is operated elsewhere).
DEFAULT_TLD_REPOSITORIES: dict[str, str] = {
    "com": "sim-verisign",
    "net": "sim-verisign",
    "edu": "sim-verisign",
    "gov": "sim-verisign",
    "org": "sim-afilias",
    "info": "sim-afilias",
    "biz": "sim-neustar",
    "us": "sim-neustar",
}


@dataclass(frozen=True)
class RepositoryMap:
    """Public TLD-to-registry-operator knowledge."""

    tld_to_operator: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_TLD_REPOSITORIES)
    )

    def operator_of(self, name: str) -> str | None:
        """The repository operator for a name's TLD, if known."""
        return self.tld_to_operator.get(_tld(name))

    def repositories_of(self, names: Iterable[str]) -> set[str]:
        """Distinct known repository operators across names' TLDs."""
        operators = set()
        for name in names:
            operator = self.operator_of(name)
            if operator is not None:
                operators.add(operator)
        return operators


@dataclass
class SingleRepositoryFilter:
    """Eliminates candidates violating the single-repository property."""

    zonedb: ZoneDatabase
    repo_map: RepositoryMap = field(default_factory=RepositoryMap)

    def violates(self, candidate: CandidateNameserver) -> bool:
        """True if the candidate cannot be a sacrificial nameserver, judged
        by :meth:`violated_by` over every domain that ever delegated to it."""
        return self.violated_by(
            candidate.name, self.zonedb.domains_of_ns(candidate.name)
        )

    def violated_by(self, name: str, domains: Iterable[str]) -> bool:
        """True if a nameserver ``name`` that ``domains`` delegated to
        cannot be a sacrificial nameserver.

        Two violations (per the paper): the delegated domains span more
        than one known repository, or the candidate's own TLD equals the
        TLD of every delegated domain (a rename must move the host into a
        namespace the repository treats as external, and within one
        repository the observed idioms always change the TLD).
        """
        domain_tlds = {_tld(domain) for domain in domains}
        if not domain_tlds:
            return False
        # Operators are per TLD, so the distinct TLDs name them all.
        if len(self.repo_map.repositories_of(domain_tlds)) > 1:
            return True
        # Same-TLD "renames" are indistinguishable from ordinary
        # misconfiguration *unless* the name sits under a registered
        # sink domain, which the idiom classifiers handle separately.
        return domain_tlds == {_tld(name)}


def _tld(name: str) -> str:
    """The rightmost label of ``name``, canonicalized."""
    return canonical_text(name).rpartition(".")[2]
