"""Candidate-set construction (§3.2.1).

The candidate set contains every nameserver that was unresolvable at the
moment it was first referenced by any domain in the zone files. In the
paper this narrows ~20M nameservers to 312,328 candidates; in a simulated
world it narrows thousands to the sacrificial names plus the typo and
test-nameserver noise that later stages must eliminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.detection.resolvability import ResolvabilityAnalyzer
from repro.zonedb.database import DelegationRecord, ZoneDatabase


@dataclass(frozen=True, slots=True)
class CandidateNameserver:
    """One unresolvable-at-first-reference nameserver."""

    name: str
    first_seen: int
    referencing_domains: tuple[str, ...]

    @property
    def reference_count(self) -> int:
        """Number of domains delegating to the candidate at first sight."""
        return len(self.referencing_domains)


def scan_ns_records(
    zonedb: ZoneDatabase, nameservers: Iterable[str] | None = None
) -> Iterator[tuple[str, list[DelegationRecord]]]:
    """Each nameserver with its delegation records: every name from one
    ordered pass over the store, or each of ``nameservers`` from one
    query."""
    if nameservers is None:
        return zonedb.iter_ns_records()
    return ((ns, zonedb.ns_records(ns)) for ns in nameservers)


def first_reference(
    ns: str, records: list[DelegationRecord], analyzer: ResolvabilityAnalyzer
) -> tuple[int, CandidateNameserver | None]:
    """The §3.2.1 criterion over one name's (non-empty) records.

    Returns the day a domain first delegated to ``ns`` and, when ``ns``
    was unresolvable that day, its candidate with the domains delegating
    to it then. A name resolvable then, or outside the data set's TLDs,
    is no candidate.
    """
    first_seen = min(record.start for record in records)
    if analyzer.is_resolvable(ns, first_seen) is not False:
        return first_seen, None
    referencing = tuple(sorted({r.domain for r in records if r.active_on(first_seen)}))
    return first_seen, CandidateNameserver(ns, first_seen, referencing)


def build_candidate_set(
    zonedb: ZoneDatabase,
    analyzer: ResolvabilityAnalyzer | None = None,
    *,
    nameservers: Iterable[str] | None = None,
) -> list[CandidateNameserver]:
    """Scan every nameserver in the data set for the candidate criterion.

    Candidates are returned in (first_seen, name) order so downstream
    stages are deterministic. Pass ``nameservers`` to restrict the scan
    to a subset. Each name's records are read once
    (:func:`scan_ns_records`) and checked by :func:`first_reference`.
    """
    analyzer = analyzer or ResolvabilityAnalyzer(zonedb)
    candidates: list[CandidateNameserver] = []
    for ns, records in scan_ns_records(zonedb, nameservers):
        if records:  # else never referenced
            _first_seen, candidate = first_reference(ns, records, analyzer)
            if candidate is not None:
                candidates.append(candidate)
    candidates.sort(key=lambda c: (c.first_seen, c.name))
    return candidates
