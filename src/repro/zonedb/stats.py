"""Data-set characterization statistics.

The paper characterizes its corpus before analyzing it ("1250 zones …
530.4M domains and 20.8M nameservers"). This module computes the same
style of overview from a :class:`~repro.zonedb.database.ZoneDatabase`:
per-TLD domain counts, nameserver reuse, delegation churn, and
longitudinal coverage — the sanity numbers a measurement paper reports
in its data-set section.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.dnscore.names import Name
from repro.zonedb.database import ZoneDatabase


@dataclass(frozen=True)
class DatasetStats:
    """The corpus overview."""

    covered_tlds: tuple[str, ...]
    total_domains: int
    total_nameservers: int
    observation_days: int
    domains_per_tld: dict[str, int] = field(default_factory=dict)
    delegation_records: int = 0
    median_domains_per_ns: float = 0.0
    max_domains_per_ns: int = 0
    multi_ns_domain_fraction: float = 0.0

    def rows(self) -> list[tuple[str, object]]:
        """Render-ready (label, value) rows."""
        rows: list[tuple[str, object]] = [
            ("zones covered", len(self.covered_tlds)),
            ("observation window (days)", self.observation_days),
            ("distinct domains", self.total_domains),
            ("distinct nameservers", self.total_nameservers),
            ("delegation interval records", self.delegation_records),
            ("median domains per nameserver", self.median_domains_per_ns),
            ("max domains per nameserver", self.max_domains_per_ns),
            ("domains with >1 nameserver (ever)",
             f"{self.multi_ns_domain_fraction:.1%}"),
        ]
        for tld in sorted(self.domains_per_tld, key=self.domains_per_tld.get,
                          reverse=True):
            rows.append((f"  .{tld} domains", self.domains_per_tld[tld]))
        return rows


def dataset_stats(zonedb: ZoneDatabase) -> DatasetStats:
    """Compute the overview for one database, in one pass over its
    domains and one over its nameservers."""
    per_tld: Counter[str] = Counter()
    delegation_records = 0
    multi_ns = 0
    total_domains = 0
    for domain, records in zonedb.iter_domain_records():
        total_domains += 1
        per_tld[Name(domain).tld] += 1
        delegation_records += len(records)
        if len({record.ns for record in records}) > 1:
            multi_ns += 1
    ns_loads = sorted(
        len({record.domain for record in records})
        for _, records in zonedb.iter_ns_records()
    )
    median = float(ns_loads[len(ns_loads) // 2]) if ns_loads else 0.0
    return DatasetStats(
        covered_tlds=tuple(sorted(zonedb.covered_tlds)),
        total_domains=total_domains,
        total_nameservers=zonedb.nameserver_count(),
        observation_days=zonedb.horizon,
        domains_per_tld=dict(per_tld),
        delegation_records=delegation_records,
        median_domains_per_ns=median,
        max_domains_per_ns=ns_loads[-1] if ns_loads else 0,
        multi_ns_domain_fraction=(multi_ns / total_domains) if total_domains else 0.0,
    )
