"""Candidate-set construction (§3.2.1).

The candidate set contains every nameserver that was unresolvable at the
moment it was first referenced by any domain in the zone files. In the
paper this narrows ~20M nameservers to 312,328 candidates; in a simulated
world it narrows thousands to the sacrificial names plus the typo and
test-nameserver noise that later stages must eliminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.detection.resolvability import ResolvabilityAnalyzer
from repro.zonedb.database import ZoneDatabase


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


def build_candidate_set(
    zonedb: ZoneDatabase,
    analyzer: ResolvabilityAnalyzer | None = None,
    *,
    nameservers: Iterable[str] | None = None,
) -> list[CandidateNameserver]:
    """Scan every nameserver in the data set for the candidate criterion.

    Candidates are returned in (first_seen, name) order so downstream
    stages are deterministic. Pass ``nameservers`` to restrict the scan
    to a subset (the incremental engine re-checks one dirty nameserver
    at a time). Each name's records are read once — in one pass over
    the store for a full scan — and give both its first reference and
    the domains delegating to it then.
    """
    analyzer = analyzer or ResolvabilityAnalyzer(zonedb)
    if nameservers is None:
        scanned = zonedb.iter_ns_records()
    else:
        scanned = ((ns, zonedb.ns_records(ns)) for ns in nameservers)
    candidates: list[CandidateNameserver] = []
    for ns, records in scanned:
        if not records:
            continue  # never referenced
        first_seen = min(record.start for record in records)
        if analyzer.is_resolvable(ns, first_seen) is not False:
            continue  # resolvable then, or unassessable
        referencing = tuple(
            sorted({r.domain for r in records if r.active_on(first_seen)})
        )
        candidates.append(
            CandidateNameserver(
                name=ns, first_seen=first_seen, referencing_domains=referencing
            )
        )
    candidates.sort(key=lambda c: (c.first_seen, c.name))
    return candidates
