"""The end-to-end detection pipeline (§3.2).

Runs the full methodology against a zone database and WHOIS archive:

1. candidate-set construction (unresolvable at first reference);
2. substring pattern mining (recorded for inspection — the "discovery"
   half of §3.2.2);
3. test-nameserver removal;
4. pattern-classifier sweep over the **entire** nameserver population
   (the paper's final sets come from matching confirmed idioms against
   the whole longitudinal data set, which is how resolvable accidents
   like PLEASEDROPTHISHOST collisions are still counted);
5. single-repository filtering of the remaining candidates;
6. original-nameserver history matching with WHOIS registrar
   attribution.

The output is the final classified set of sacrificial nameservers plus a
stage-by-stage funnel (the §3 numbers: 20M → 312,328 → −28,614 test →
−11,403 single-repo → 202,624 sacrificial).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dnscore.psl import PublicSuffixList
from repro.detection.candidates import CandidateNameserver
from repro.detection.idioms import IdiomClassifier
from repro.detection.matching import MatchResult
from repro.detection.repository_check import RepositoryMap
from repro.detection.substrings import SubstringPattern
from repro.detection.testns import TestNameserverFilter
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

#: Minimum substring support for the §3.2.2 mining stage.
MINE_MIN_SUPPORT = 4


@dataclass(frozen=True, slots=True)
class SacrificialNameserver:
    """One detected sacrificial nameserver."""

    name: str
    created_day: int
    idiom_id: str
    hijackable: bool
    registrar: str | None
    registered_domain: str | None
    source: str  # "pattern" or "match"
    original_ns: str | None = None
    original_domain: str | None = None
    collision: bool = False  # name landed on an already-registered domain


@dataclass
class PipelineFunnel:
    """Stage-by-stage counts (the paper's §3 numbers, at sim scale)."""

    total_nameservers: int = 0
    candidates: int = 0
    test_removed: int = 0
    pattern_classified: int = 0
    single_repo_removed: int = 0
    history_matched: int = 0
    match_classified: int = 0
    sacrificial_total: int = 0

    def rows(self) -> list[tuple[str, int]]:
        """Ordered (label, count) pairs for reporting."""
        return [
            ("nameservers in zone data", self.total_nameservers),
            ("unresolvable at first reference (candidates)", self.candidates),
            ("removed as registry test nameservers", self.test_removed),
            ("classified by confirmed patterns", self.pattern_classified),
            ("eliminated by single-repository property", self.single_repo_removed),
            ("matched to original nameserver", self.history_matched),
            ("classified from history match", self.match_classified),
            ("final sacrificial nameservers", self.sacrificial_total),
        ]


@dataclass(frozen=True)
class CoverageAnnotations:
    """How degraded the pipeline's input data was.

    Summarized from the zone database's ingest reports. Pristine input
    — or change-level ingestion, which produces no reports — yields
    full confidence. Attached to every :class:`PipelineResult` so
    downstream consumers can qualify the §3 numbers.
    """

    snapshots_ingested: int = 0
    snapshots_rejected: int = 0
    duplicate_snapshots: int = 0
    records_total: int = 0
    corrupt_records: int = 0
    gaps_bridged: int = 0
    closed_after_gap: int = 0

    @property
    def degraded(self) -> bool:
        """True if the input showed any sign of degradation."""
        return bool(
            self.snapshots_rejected
            or self.duplicate_snapshots
            or self.corrupt_records
            or self.gaps_bridged
            or self.closed_after_gap
        )

    @property
    def confidence(self) -> float:
        """Heuristic confidence in the output, in [0, 1].

        Penalized by the fraction of snapshots rejected outright (data
        definitely lost) and of records that arrived corrupted
        (individual pairs possibly missed). Bridged gaps are repairs,
        not losses, and carry no penalty; duplicates are idempotent.
        """
        score = 1.0
        total_snapshots = self.snapshots_ingested + self.snapshots_rejected
        if total_snapshots:
            score -= self.snapshots_rejected / total_snapshots
        if self.records_total:
            score -= self.corrupt_records / self.records_total
        return max(0.0, score)

    @classmethod
    def from_reports(cls, reports) -> "CoverageAnnotations":
        """Fold a list of :class:`~repro.zonedb.database.IngestReport`."""
        return cls(
            snapshots_ingested=sum(1 for r in reports if r.ingested),
            snapshots_rejected=sum(1 for r in reports if not r.ingested),
            duplicate_snapshots=sum(1 for r in reports if r.duplicate),
            records_total=sum(r.delegations for r in reports if r.ingested),
            corrupt_records=sum(r.corrupt_records for r in reports),
            gaps_bridged=sum(r.gaps_bridged for r in reports),
            closed_after_gap=sum(r.closed_after_gap for r in reports),
        )


@dataclass
class PipelineResult:
    """Everything the pipeline produces."""

    sacrificial: list[SacrificialNameserver]
    funnel: PipelineFunnel
    mined_patterns: list[SubstringPattern]
    matches: list[MatchResult]
    candidates: list[CandidateNameserver] = field(repr=False, default_factory=list)
    #: Input-quality annotations (pristine input ⇒ full confidence).
    coverage: CoverageAnnotations = field(default_factory=CoverageAnnotations)

    def by_name(self) -> dict[str, SacrificialNameserver]:
        """Index the final set by nameserver name."""
        return {entry.name: entry for entry in self.sacrificial}

    def hijackable(self) -> list[SacrificialNameserver]:
        """The hijackable subset (random-name idioms, no collision)."""
        return [s for s in self.sacrificial if s.hijackable and not s.collision]


class DetectionPipeline:
    """The §3 methodology over one zone database, in one pass.

    :meth:`run` folds a fresh
    :class:`~repro.detection.incremental.IncrementalDetectionEngine`
    once, directly over ``zonedb``
    (:meth:`~repro.detection.incremental.IncrementalDetectionEngine.fold`):
    every nameserver is evaluated, each of :attr:`STAGES` runs once
    under its own span, and the result carries coverage annotations
    from the database's ingest reports. Durable, resumable runs go
    through :func:`~repro.runner.execution.run_incremental_detection`,
    which folds the same way.
    """

    #: Ordered stages of one run (the span names).
    STAGES = (
        "candidates",
        "mine",
        "test-filter",
        "pattern-sweep",
        "single-repo",
        "match",
    )

    def __init__(
        self,
        zonedb: ZoneDatabase,
        whois: WhoisArchive,
        *,
        psl: PublicSuffixList | None = None,
        classifiers: list[IdiomClassifier] | None = None,
        test_filter: TestNameserverFilter | None = None,
        repo_map: RepositoryMap | None = None,
        mine_patterns: bool = True,
    ) -> None:
        self.zonedb = zonedb
        self.whois = whois
        self.options = {
            "psl": psl,
            "classifiers": classifiers,
            "test_filter": test_filter,
            "repo_map": repo_map,
            "mine_patterns": mine_patterns,
        }

    def run(self) -> PipelineResult:
        """Fold every nameserver once; return the result."""
        # Imported here, not at module top: the incremental module builds
        # on this module's result types, so the dependency runs one way
        # at import time.
        from repro.detection.incremental import IncrementalDetectionEngine

        engine = IncrementalDetectionEngine(self.whois, **self.options)
        engine.fold(self.zonedb)
        result = engine.result()
        result.coverage = CoverageAnnotations.from_reports(
            self.zonedb.ingest_reports
        )
        return result
