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

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.dnscore.psl import PublicSuffixList
from repro.detection.candidates import CandidateNameserver
from repro.detection.idioms import IdiomClassifier
from repro.detection.matching import MatchResult
from repro.detection.repository_check import RepositoryMap
from repro.detection.substrings import SubstringPattern
from repro.detection.testns import TestNameserverFilter
from repro.obs import profiling
from repro.obs import runtime as obs
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

if TYPE_CHECKING:
    from repro.detection.incremental import StageContext

#: Minimum substring support for the §3.2.2 mining stage.
MINE_MIN_SUPPORT = 4

#: Funnel fields each stage populates — mirrored into stage spans and
#: the obs funnel counters when the stage completes.
_STAGE_FUNNEL_FIELDS = {
    "candidates": ("total_nameservers", "candidates"),
    "mine": (),
    "test-filter": ("test_removed",),
    "pattern-sweep": ("pattern_classified",),
    "single-repo": ("single_repo_removed",),
    "match": ("history_matched", "match_classified"),
}


def _run_stage_observed(
    name: str,
    stage: "Callable[[StageContext, dict[str, Any]], None]",
    context: "StageContext",
    state: dict[str, Any],
) -> None:
    """Run one stage under a span, a duration histogram, and profiling.

    The span's content attributes are the funnel counts the stage
    produced — pure functions of the run's inputs, so a re-run after a
    crash emits an identical span-end; the duration lands only in the
    histogram and the span's telemetry field.
    """
    with obs.span(name) as span, obs.timed(
        f"pipeline.stage.{name}.duration_s"
    ), profiling.profile_stage(name):
        stage(context, state)
        counts = {
            field_name: getattr(state["funnel"], field_name)
            for field_name in _STAGE_FUNNEL_FIELDS.get(name, ())
        }
        span.set(**counts)
    obs.counter(f"pipeline.stage_runs.{name}").inc()
    for field_name, value in counts.items():
        obs.counter(f"pipeline.funnel.{field_name}").inc(value)


def dump_pipeline_state(state: dict[str, Any]) -> bytes:
    """Serialize a checkpointable stage state deterministically.

    The ``done`` set is normalized to a sorted list before pickling so
    equal states produce identical bytes regardless of process hash
    seed — checkpoint files are content-addressed by these bytes.
    """
    normalized = dict(state)
    normalized["done"] = sorted(state.get("done", ()))
    return pickle.dumps(normalized)


def load_pipeline_state(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`dump_pipeline_state`."""
    state: dict[str, Any] = pickle.loads(data)
    state["done"] = set(state.get("done", ()))
    return state


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
    """Configurable end-to-end runner for the §3 methodology.

    :meth:`run` is one in-process pass over :attr:`STAGES`: each stage's
    body is the ``run_batch`` of its
    :class:`~repro.detection.incremental.IncrementalStage` operator, so
    the batch and incremental schedules share one code path. Durable,
    resumable runs go through
    :func:`~repro.runner.execution.run_supervised_detection`, which
    checkpoints the stage state from the ``after_stage`` hook.
    """

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
        # Imported here, not at module top: the incremental module builds
        # on this module's result types, so the dependency runs one way
        # at import time and closes into a pair only at construction.
        from repro.detection.incremental import StageContext, build_stages

        self.context = StageContext.build(
            zonedb,
            whois,
            psl=psl,
            classifiers=classifiers,
            test_filter=test_filter,
            repo_map=repo_map,
            mine_patterns=mine_patterns,
        )
        #: Stage operators by name; batch runs execute their
        #: ``run_batch`` bodies, the incremental engine their ``advance``.
        self.ops = {stage.name: stage for stage in build_stages()}

    #: Ordered stages of one run (the checkpoint and span names).
    STAGES = (
        "candidates",
        "mine",
        "test-filter",
        "pattern-sweep",
        "single-repo",
        "match",
    )

    @staticmethod
    def new_state() -> dict[str, Any]:
        """A fresh stage state (nothing done yet)."""
        return {"done": set(), "funnel": PipelineFunnel()}

    def run(
        self,
        state: dict[str, Any] | None = None,
        *,
        after_stage: "Callable[[str, dict[str, Any]], None] | None" = None,
    ) -> PipelineResult:
        """Execute every stage not yet in ``state["done"]``; return the result.

        ``state`` defaults to :meth:`new_state`; a state restored from a
        checkpoint resumes after its last completed stage.
        ``after_stage(name, state)`` runs after each stage completes —
        the supervised runner checkpoints (and chaos-kills) there.
        """
        if state is None:
            state = self.new_state()
        for name in self.STAGES:
            if name in state["done"]:
                continue
            _run_stage_observed(name, self.ops[name].run_batch, self.context, state)
            state["done"].add(name)
            if after_stage is not None:
                after_stage(name, state)
        return self._finalize(state)

    def _finalize(self, state: dict[str, Any]) -> PipelineResult:
        funnel = state["funnel"]
        final = sorted(
            state["sacrificial"].values(), key=lambda s: (s.created_day, s.name)
        )
        funnel.sacrificial_total = len(final)
        return PipelineResult(
            sacrificial=final,
            funnel=funnel,
            mined_patterns=state["mined"],
            matches=state["matches"],
            candidates=state["candidates"],
            coverage=CoverageAnnotations.from_reports(
                self.context.zonedb.ingest_reports
            ),
        )
