"""Detection's six stages as operators over standing state.

Each §3.2 stage is an :class:`IncrementalStage` with one body: it
re-evaluates a set of *dirty* nameservers against a zone database and
updates the stage's standing keys in the engine state.
:class:`IncrementalDetectionEngine` runs those bodies once per call,
against a source database read as of one batch day:

* **a fresh engine** marks every nameserver dirty and runs each stage
  once (:meth:`IncrementalDetectionEngine.fold`). This is the batch
  :class:`~repro.detection.pipeline.DetectionPipeline` and the first
  invocation of a run; one capped at an earlier batch day is a *capped*
  fold;
* **an engine past a watermark** (after a capped fold or a
  :meth:`~IncrementalDetectionEngine.restore`) re-evaluates the union
  of the new days' dirty sets once, against the source as of the last
  new batch day (:meth:`IncrementalDetectionEngine.advance_from`).

The store a fold reads as of batch day N is the source itself when N is
its last batch day; else the source's
:meth:`~repro.zonedb.database.ZoneDatabase.as_of` view when its delta
stream never rewrites an earlier day; else (gap bridging closes
intervals retroactively) a replica the engine fills with the recorded
deltas through N and extends as its watermark moves.

The contract is that every way of folding agrees: after advancing
through batch day N, :meth:`IncrementalDetectionEngine.result` is
bit-identical (same :func:`~repro.runner.execution.result_fingerprint`)
to a fold of a zone database holding the history through day N, and
the dumped states are equal, however the days were grouped into calls.
Two properties make this hold:

* every evaluation sees the day-N store bit for bit: a replica replays
  the stream through the exact store primitives that produced it, and
  on a stream that never rewrites, the source read as of day N equals
  that replica;
* every stage verdict for a nameserver is a pure function of store
  state reachable from that nameserver, so a conservative *dirty set*
  (derived below) bounds what the deltas of several days can change.

Dirty-set derivation, per event kind, read from the store as of the
fold's day (:func:`_dirty_in_view`):

* delegation add/remove on ``(domain, ns)`` — dirties ``ns`` (its
  first-seen day, referencing domains, repository spread and candidate
  verdict can change) and every nameserver with a record on ``domain``
  (their ``nameservers_removed_on`` joins run through it);
* glue add/remove on ``host`` — dirties ``host`` (resolvability);
* domain appear/expire on ``domain`` — dirties every nameserver whose
  registered domain is ``domain`` (resolvability and collision checks
  read its presence);
* tld-cover on ``tld`` — dirties every nameserver under ``tld``
  (coverage flips resolvability verdicts from unknown to assessable).

Shared evaluator logic (collision checks, pattern/match classification)
lives in :class:`StageContext`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.detection.candidates import CandidateNameserver, build_candidate_set
from repro.detection.idioms import (
    IdiomClass,
    IdiomClassifier,
    classify_match,
    known_classifiers,
)
from repro.detection.matching import MatchResult, OriginalNameserverMatcher
from repro.detection.pipeline import (
    MINE_MIN_SUPPORT,
    CoverageAnnotations,
    PipelineFunnel,
    PipelineResult,
    SacrificialNameserver,
)
from repro.detection.repository_check import RepositoryMap, SingleRepositoryFilter
from repro.detection.resolvability import ResolvabilityAnalyzer
from repro.detection.substrings import SubstringCounter
from repro.detection.testns import TestNameserverFilter
from repro.obs import profiling
from repro.obs import runtime as obs
from repro.store.atomic import canonical_json
from repro.store.changelog import (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    DOMAIN_APPEAR,
    DOMAIN_EXPIRE,
    GLUE_ADD,
    GLUE_REMOVE,
    TLD_COVER,
    DeltaEvent,
    pair_nameserver,
)
from repro.store.dataset import DeltaView
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

#: Format tag carried by serialized engine state.
ENGINE_STATE_FORMAT = "riskybiz-engine-state/3"

#: Watermark key for the engine as a whole (stages use their own names).
ENGINE_WATERMARK = "engine"

def commit_watermark(state: dict[str, Any], stage: str, day: int) -> None:
    """Commit a stage (or engine) watermark — the *only* sanctioned write.

    Watermarks are the durability contract of the incremental plane: a
    consumer that has committed day N promises its standing state folds
    every batch through N. They never move backwards, and every update
    must come through here.
    """
    current = state["watermarks"].get(stage)
    if current is not None and day < current:
        raise ValueError(
            f"watermark for {stage!r} cannot move backwards: {day} < {current}"
        )
    state["watermarks"][stage] = day


@dataclass(frozen=True)
class StageContext:
    """Everything a stage evaluator needs: the zone database it reads,
    WHOIS, and the configured classifiers and filters."""

    zonedb: ZoneDatabase
    whois: WhoisArchive
    psl: PublicSuffixList
    classifiers: list[IdiomClassifier]
    test_filter: TestNameserverFilter
    repo_filter: SingleRepositoryFilter
    matcher: OriginalNameserverMatcher
    analyzer: ResolvabilityAnalyzer
    mine_patterns: bool = True

    @classmethod
    def build(
        cls,
        zonedb: ZoneDatabase,
        whois: WhoisArchive,
        *,
        psl: PublicSuffixList | None = None,
        classifiers: list[IdiomClassifier] | None = None,
        test_filter: TestNameserverFilter | None = None,
        repo_map: RepositoryMap | None = None,
        mine_patterns: bool = True,
    ) -> "StageContext":
        psl = psl or default_psl()
        return cls(
            zonedb=zonedb,
            whois=whois,
            psl=psl,
            classifiers=classifiers or known_classifiers(),
            test_filter=test_filter or TestNameserverFilter(),
            repo_filter=SingleRepositoryFilter(zonedb, repo_map or RepositoryMap()),
            matcher=OriginalNameserverMatcher(zonedb, whois, psl=psl),
            analyzer=ResolvabilityAnalyzer(zonedb, psl=psl),
            mine_patterns=mine_patterns,
        )

    def was_registered_before(self, registered_domain: str, day: int) -> bool:
        """Collision check: did the domain exist before the rename?"""
        record = self.whois.current(registered_domain, day)
        if record is not None and record.created < day:
            return True
        return self.zonedb.domain_present(registered_domain, max(0, day - 1))

    def classify_pattern(
        self, name: str, classifier: IdiomClassifier, first_seen: int
    ) -> SacrificialNameserver:
        """A sacrificial-nameserver entry for one pattern classifier hit."""
        registered = self.psl.registered_domain(name)
        collision = False
        if classifier.klass is IdiomClass.RANDOM and registered is not None:
            collision = self.was_registered_before(registered, first_seen)
        return SacrificialNameserver(
            name=name,
            created_day=first_seen,
            idiom_id=classifier.idiom_id,
            hijackable=classifier.hijackable,
            registrar=classifier.registrar_hint,
            registered_domain=registered,
            source="pattern",
            collision=collision,
        )

    def classify_match(self, match: MatchResult) -> SacrificialNameserver | None:
        """A sacrificial-nameserver entry for one history match, if idiomatic."""
        idiom_id = classify_match(match)
        if idiom_id is None:
            return None
        registered = self.psl.registered_domain(match.candidate)
        collision = False
        if registered is not None:
            collision = self.was_registered_before(registered, match.first_seen)
        return SacrificialNameserver(
            name=match.candidate,
            created_day=match.first_seen,
            idiom_id=idiom_id,
            hijackable=True,
            registrar=match.registrar,
            registered_domain=registered,
            source="match",
            original_ns=match.original_ns,
            original_domain=match.original_domain,
            collision=collision,
        )


@dataclass
class AdvanceNotes:
    """Per-batch scratchpad threaded through the stage operators.

    ``dirty`` is the conservative re-evaluation set for the batch;
    ``everything`` says it is every nameserver in the database (a
    direct fold). The candidates operator records which verdicts
    appeared/disappeared so downstream operators (miner, test filter)
    adjust incrementally instead of re-deriving the change themselves.
    """

    batch_day: int
    dirty: tuple[str, ...]
    everything: bool = False
    candidates_added: list[str] = field(default_factory=list)
    candidates_removed: list[str] = field(default_factory=list)


class IncrementalStage:
    """One detection stage: standing keys plus one evaluation body.

    ``advance`` re-evaluates the batch's dirty nameservers into the
    stage's standing keys in the engine state. Each stage carries its
    own watermark in ``state["watermarks"]``, committed through
    :func:`commit_watermark` after a successful advance. ``funnel``
    names the funnel fields the stage reports and the standing key
    whose size each one is.
    """

    name = ""
    funnel: tuple[tuple[str, str], ...] = ()

    def init_state(self, state: dict[str, Any]) -> None:
        """Install this stage's standing keys into a fresh engine state."""

    def advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        watermark = state["watermarks"].get(self.name)
        if watermark is not None and notes.batch_day <= watermark:
            raise ValueError(
                f"stage {self.name!r} already advanced through "
                f"{watermark}; got batch day {notes.batch_day}"
            )
        self._advance(context, state, notes)
        commit_watermark(state, self.name, notes.batch_day)

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        raise NotImplementedError


class CandidatesStage(IncrementalStage):
    """§3.2.1: unresolvable-at-first-reference candidate verdicts."""

    name = "candidates"
    funnel = (("candidates", "candidates"),)

    def init_state(self, state: dict[str, Any]) -> None:
        state["candidates"] = {}

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        # One ordered pass over the store when everything is dirty;
        # otherwise each dirty name's records are fetched once.
        fresh = build_candidate_set(
            context.zonedb,
            context.analyzer,
            nameservers=None if notes.everything else notes.dirty,
        )
        found = {candidate.name: candidate for candidate in fresh}
        verdicts: dict[str, CandidateNameserver] = state["candidates"]
        for ns in notes.dirty:
            new = found.get(ns)
            old = verdicts.get(ns)
            if new is None:
                if old is not None:
                    del verdicts[ns]
                    notes.candidates_removed.append(ns)
            else:
                verdicts[ns] = new
                if old is None:
                    notes.candidates_added.append(ns)


class MineStage(IncrementalStage):
    """§3.2.2: the candidate name multiset substring mining selects from."""

    name = "mine"

    def init_state(self, state: dict[str, Any]) -> None:
        state["mine_counter"] = SubstringCounter()

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        if not context.mine_patterns:
            return
        counter: SubstringCounter = state["mine_counter"]
        for name in notes.candidates_removed:
            counter.discard(name)
        for name in notes.candidates_added:
            counter.add(name)


class TestFilterStage(IncrementalStage):
    """§3.2.2: drop registry test nameservers from the candidate set."""

    name = "test-filter"
    funnel = (("test_removed", "test_removed"),)

    def init_state(self, state: dict[str, Any]) -> None:
        state["test_removed"] = set()

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        removed: set[str] = state["test_removed"]
        for name in notes.candidates_removed:
            removed.discard(name)
        for name in notes.candidates_added:
            if context.test_filter.is_test_nameserver(name):
                removed.add(name)


class PatternSweepStage(IncrementalStage):
    """§3.2.2: confirmed-pattern sweep over the nameserver population."""

    name = "pattern-sweep"
    funnel = (("pattern_classified", "pattern"),)

    def init_state(self, state: dict[str, Any]) -> None:
        state["pattern"] = {}

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        entries: dict[str, SacrificialNameserver] = state["pattern"]
        for ns in notes.dirty:
            entry: SacrificialNameserver | None = None
            if not context.test_filter.is_test_nameserver(ns):
                for classifier in context.classifiers:
                    if classifier.matches_name(ns):
                        # None once every record of ``ns`` is gone.
                        first_seen = context.zonedb.first_seen(ns)
                        if first_seen is not None:
                            entry = context.classify_pattern(
                                ns, classifier, first_seen
                            )
                        break
            if entry is None:
                entries.pop(ns, None)
            else:
                entries[ns] = entry


def _survivor(state: dict[str, Any], ns: str) -> CandidateNameserver | None:
    """``ns``'s candidate, if the test filter and pattern sweep kept it."""
    if ns in state["test_removed"] or ns in state["pattern"]:
        return None
    return state["candidates"].get(ns)


class SingleRepoStage(IncrementalStage):
    """§3.2.3: the single-repository property filter."""

    name = "single-repo"
    funnel = (("single_repo_removed", "single_repo"),)

    def init_state(self, state: dict[str, Any]) -> None:
        state["single_repo"] = set()

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        violations: set[str] = state["single_repo"]
        for ns in notes.dirty:
            candidate = _survivor(state, ns)
            if candidate is not None and context.repo_filter.violates(candidate):
                violations.add(ns)
            else:
                violations.discard(ns)


class MatchStage(IncrementalStage):
    """§3.2.3: original-nameserver history matching + classification."""

    name = "match"
    funnel = (
        ("history_matched", "match_results"),
        ("match_classified", "match_entries"),
    )

    def init_state(self, state: dict[str, Any]) -> None:
        state["match_results"] = {}
        state["match_entries"] = {}

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        results: dict[str, MatchResult] = state["match_results"]
        entries: dict[str, SacrificialNameserver] = state["match_entries"]
        for ns in notes.dirty:
            candidate = _survivor(state, ns)
            match = (
                None
                if candidate is None or ns in state["single_repo"]
                else context.matcher.match(candidate)
            )
            entry = None if match is None else context.classify_match(match)
            if match is None:
                results.pop(ns, None)
            else:
                results[ns] = match
            if entry is None:
                entries.pop(ns, None)
            else:
                entries[ns] = entry


def build_stages() -> tuple[IncrementalStage, ...]:
    """The six stage operators, in pipeline execution order."""
    return (
        CandidatesStage(),
        MineStage(),
        TestFilterStage(),
        PatternSweepStage(),
        SingleRepoStage(),
        MatchStage(),
    )


def new_engine_state() -> dict[str, Any]:
    """A fresh engine state with every stage's standing keys installed."""
    state: dict[str, Any] = {"watermarks": {}}
    for stage in build_stages():
        stage.init_state(state)
    return state


def _run_stage_observed(
    stage: IncrementalStage,
    context: StageContext,
    state: dict[str, Any],
    notes: AdvanceNotes,
) -> None:
    """Run one stage of a fold under a span, a duration histogram, and profiling.

    The span's content attributes are the stage's funnel counts — the
    sizes of its standing sets, pure functions of the run's inputs, so
    a re-run after a crash emits an identical span-end; the duration
    lands only in the histogram and the span's telemetry field.
    """
    with obs.span(stage.name) as span, obs.timed(
        f"pipeline.stage.{stage.name}.duration_s"
    ), profiling.profile_stage(stage.name):
        stage.advance(context, state, notes)
        counts = {field_name: len(state[key]) for field_name, key in stage.funnel}
        if stage.name == "candidates":
            counts["total_nameservers"] = len(notes.dirty)
        span.set(**counts)
    obs.counter(f"pipeline.stage_runs.{stage.name}").inc()
    for field_name, value in counts.items():
        obs.counter(f"pipeline.funnel.{field_name}").inc(value)


def _extend(
    replica: ZoneDatabase,
    pairs: list[tuple[int, DeltaEvent]],
    day: int,
    *,
    restore: bool = False,
) -> None:
    """Replay recorded ``(batch_day, event)`` pairs into ``replica``,
    through batch day ``day``, under one ``delta.apply`` span."""
    marks = {"restore": True} if restore else {}
    with obs.span("delta.apply", day=day, count=len(pairs), **marks):
        for _batch_day, event in pairs:
            replica.apply_delta(event)


def _dirty_in_view(context: StageContext, events: Iterable[DeltaEvent]) -> set[str]:
    """The dirty set of deltas folded at once, per the module's
    derivation, read from the store ``context`` evaluates.

    Each pair delta's nameserver and every nameserver with a record on
    its domain, each glue host, and every nameserver whose registered
    domain appeared or expired, or whose TLD became covered. Those are
    found by their names' suffixes; the PSL then confirms only the names
    a registered-domain suffix matched.
    """
    dirty: set[str] = set()
    domains: set[str] = set()
    registered: set[str] = set()
    tlds: set[str] = set()
    for event in events:
        if event.kind in (DELEGATION_ADD, DELEGATION_REMOVE):
            dirty.add(pair_nameserver(event))
            domains.add(event.name)
        elif event.kind in (GLUE_ADD, GLUE_REMOVE):
            dirty.add(event.name)
        elif event.kind in (DOMAIN_APPEAR, DOMAIN_EXPIRE):
            registered.add(event.name)
        elif event.kind == TLD_COVER:
            tlds.add(event.name)
    for domain in sorted(domains):
        dirty.update(record.ns for record in context.zonedb.domain_records(domain))
    if registered or tlds:
        for ns in context.zonedb.all_nameservers():
            labels = ns.split(".")
            if labels[-1] in tlds or (
                any(
                    ".".join(labels[index:]) in registered
                    for index in range(len(labels) - 1)
                )
                and context.psl.registered_domain(ns) in registered
            ):
                dirty.add(ns)
    return dirty


class IncrementalDetectionEngine:
    """Folds the delta history into standing detection state.

    :meth:`advance_from` folds a source past the engine watermark, once
    per call; :meth:`fold` folds a whole source at once; :meth:`result`
    reconstructs the :class:`~repro.detection.pipeline.PipelineResult`.
    A source the engine evaluates must not change while it does.

    ``covered_tlds`` must name any TLDs the source database was
    *constructed* covering (coverage declared after construction flows
    through ``tld-cover`` deltas and needs no special handling).
    """

    #: Accepted for compatibility and ignored: the engine keeps its
    #: progress in its own state, never in the source dataset.
    CONSUMER = "incremental-engine"

    def __init__(
        self,
        whois: WhoisArchive,
        *,
        covered_tlds: Iterable[str] = (),
        psl: PublicSuffixList | None = None,
        classifiers: list[IdiomClassifier] | None = None,
        test_filter: TestNameserverFilter | None = None,
        repo_map: RepositoryMap | None = None,
        mine_patterns: bool = True,
    ) -> None:
        self._options: dict[str, Any] = {
            "psl": psl,
            "classifiers": classifiers,
            "test_filter": test_filter,
            "repo_map": repo_map,
            "mine_patterns": mine_patterns,
        }
        self.whois = whois
        self.covered_tlds = tuple(covered_tlds)
        #: The store the stages last read; None until a fold or a restore.
        self.zonedb: ZoneDatabase | None = None
        #: The source the engine reads as of its watermark, and how it
        #: reads it as of a later batch day: through ``as_of`` with the
        #: source's ``tld-cover`` scan, or, when its stream rewrites, by
        #: extending the replica. No source once the engine reads one at
        #: its last batch day: that engine cannot advance.
        self._source: ZoneDatabase | None = None
        self._covers: list[tuple[int, str]] | None = None
        self._replica: ZoneDatabase | None = None
        self.stages = build_stages()
        self.state = new_engine_state()
        #: (counter revision, selected patterns) fold memo.
        self._mine_memo: tuple[int, list[Any]] | None = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def watermark(self) -> int | None:
        """The last batch day fully folded into the standing state."""
        return self.state["watermarks"].get(ENGINE_WATERMARK)

    def _evaluate(self, zonedb: ZoneDatabase) -> StageContext:
        """Evaluate ``zonedb`` from now on; returns the stages' context."""
        self.zonedb = zonedb
        return StageContext.build(zonedb, self.whois, **self._options)

    def _read(
        self, source: ZoneDatabase, day: int, *, restore: bool = False
    ) -> ZoneDatabase:
        """``source`` as of batch day ``day``, and read it so from now on.

        One scan of the delta stream picks the store: the source's
        :meth:`~ZoneDatabase.as_of` view when the stream never rewrites
        an earlier day, otherwise a new replica filled with the deltas
        through ``day`` (``restore`` marks the fill's span).
        """
        self._source = source
        self._covers = source.store.scan_deltas()
        if self._covers is not None:
            return source.as_of(day, self.covered_tlds, covers=self._covers)
        self._replica = ZoneDatabase(self.covered_tlds)
        _extend(self._replica, source.deltas_since(None, day), day, restore=restore)
        return self._replica

    # -- advancing -----------------------------------------------------------

    def fold(
        self,
        source: ZoneDatabase,
        *,
        boundary: Callable[[str], None] | None = None,
    ) -> int:
        """Fold all of ``source`` at once; returns the batch day folded.

        Only valid on a fresh engine. Every nameserver is dirty and each
        stage runs once, under its own span, reading ``source`` directly.
        The standing state equals that of any sequence of folds through
        the source's last batch day (a source without a recorded delta
        stream folds at its horizon). The engine then evaluates
        ``source`` and cannot advance further; restore its dumped state
        into a fresh engine to continue. ``boundary("stage:<name>")``
        runs after each stage completes.
        """
        if self.watermark is not None:
            raise ValueError("a direct fold requires a fresh engine")
        day = DeltaView(source).last_batch_day()
        if day is None:
            day = source.horizon
        self._fold_everything(source, day, boundary)
        return day

    def _fold_everything(
        self,
        zonedb: ZoneDatabase,
        day: int,
        boundary: Callable[[str], None] | None,
    ) -> None:
        """Run each stage once over every nameserver of ``zonedb``, and
        commit ``day``."""
        context = self._evaluate(zonedb)
        notes = AdvanceNotes(
            batch_day=day,
            dirty=tuple(sorted(zonedb.all_nameservers())),
            everything=True,
        )
        for stage in self.stages:
            _run_stage_observed(stage, context, self.state, notes)
            if boundary is not None:
                boundary(f"stage:{stage.name}")
        commit_watermark(self.state, ENGINE_WATERMARK, day)

    def advance_from(
        self,
        source: ZoneDatabase,
        *,
        until: int | None = None,
        boundary: Callable[[str], None] | None = None,
    ) -> int:
        """Fold every batch past the engine watermark from ``source``, once.

        * A fresh engine whose horizon (``until``) reaches the source's
          last batch day folds the source directly (:meth:`fold`);
        * a fresh engine with a lower ``until`` folds the source as of
          the last batch day by ``until`` the same way, every nameserver
          dirty and one candidate pass (a *capped* fold);
        * an engine reading ``source`` as of its watermark (after a
          capped fold or a :meth:`restore`) reads the deltas past it,
          unions their dirty sets, and re-evaluates that union once
          against the source as of the last new batch day, under one
          ``engine.advance`` span. Every verdict is a pure function of
          the store as of that day and the dirty sets are conservative,
          so the state equals that of one fold per day.

        ``boundary(label)`` runs after each stage of a full or capped
        fold (``stage:<name>``) and after the fold (``day:<batch
        day>``). Returns the number of day batches folded.
        """
        if self.watermark is not None:
            return self._fold_days(source, until, boundary)
        day = DeltaView(source, until=until).last_batch_day()
        if day is None:
            return 0
        if day == DeltaView(source).last_batch_day():
            self.fold(source, boundary=boundary)
        else:
            self._fold_everything(self._read(source, day), day, boundary)
        if boundary is not None:
            boundary(f"day:{day}")
        return DeltaView(source, until=day).stats()[1]

    def _fold_days(
        self,
        source: ZoneDatabase,
        until: int | None,
        boundary: Callable[[str], None] | None,
    ) -> int:
        """Fold the source's batches in ``(watermark, until]`` at once."""
        pairs = source.deltas_since(self.watermark, until)
        if not pairs:
            return 0
        if source is not self._source:
            raise ValueError(
                "engine does not read this source as of its watermark and "
                "cannot advance; restore its state into a fresh engine"
            )
        day = pairs[-1][0]
        days = len({batch_day for batch_day, _event in pairs})
        events = [event for _batch_day, event in pairs]
        with obs.span("engine.advance", day=day) as span:
            if self._replica is None:
                zonedb = source.as_of(day, self.covered_tlds, covers=self._covers)
            else:
                zonedb = self._replica
                _extend(zonedb, pairs, day)
            context = self._evaluate(zonedb)
            dirty = _dirty_in_view(context, events)
            notes = AdvanceNotes(batch_day=day, dirty=tuple(sorted(dirty)))
            for stage in self.stages:
                stage.advance(context, self.state, notes)
            commit_watermark(self.state, ENGINE_WATERMARK, day)
            span.set(days=days, deltas=len(events), dirty=len(dirty))
        obs.counter("detect.incremental.days").inc(days)
        obs.counter("detect.incremental.deltas_applied").inc(len(events))
        if boundary is not None:
            boundary(f"day:{day}")
        return days

    # -- the fold ------------------------------------------------------------

    def result(self) -> PipelineResult:
        """The :class:`PipelineResult` for the current state.

        Reconstructs every ordering the §3 pipeline defines: candidates
        in (first_seen, name) order, matches in surviving-candidate
        order, the final set sorted by (created_day, name). Every count
        is taken over the surviving candidates, so verdicts a state
        holds for candidates an earlier stage removed never leak in.
        Coverage annotations are empty; callers attach the source's
        (result fingerprints exclude coverage).
        """
        state = self.state
        funnel = PipelineFunnel()
        funnel.total_nameservers = (
            0 if self.zonedb is None else self.zonedb.nameserver_count()
        )
        everyone = sorted(
            state["candidates"].values(), key=lambda c: (c.first_seen, c.name)
        )
        funnel.candidates = len(everyone)
        mined: list[Any] = []
        if self._options["mine_patterns"]:
            counter: SubstringCounter = state["mine_counter"]
            # Selection is a pure function of the name multiset; memoize
            # on the counter revision so days without candidate churn
            # (the common case) skip the count and the selection. The
            # memo is per-instance scratch, deliberately left out of
            # dump_engine_state.
            if self._mine_memo is None or self._mine_memo[0] != counter.revision:
                with obs.span("mine.select", names=len(counter.names)):
                    self._mine_memo = (
                        counter.revision,
                        counter.select(min_support=MINE_MIN_SUPPORT),
                    )
            mined = list(self._mine_memo[1])
        kept = [c for c in everyone if c.name not in state["test_removed"]]
        funnel.test_removed = len(everyone) - len(kept)
        pattern: dict[str, SacrificialNameserver] = state["pattern"]
        funnel.pattern_classified = len(pattern)
        sacrificial: dict[str, SacrificialNameserver] = dict(pattern)
        remaining = [c for c in kept if c.name not in pattern]
        survivors = [c for c in remaining if c.name not in state["single_repo"]]
        funnel.single_repo_removed = len(remaining) - len(survivors)
        matches = [
            state["match_results"][c.name]
            for c in survivors
            if c.name in state["match_results"]
        ]
        funnel.history_matched = len(matches)
        for match in matches:
            entry = state["match_entries"].get(match.candidate)
            if entry is not None and entry.name not in sacrificial:
                sacrificial[entry.name] = entry
        funnel.match_classified = len(sacrificial) - funnel.pattern_classified
        final = sorted(
            sacrificial.values(), key=lambda s: (s.created_day, s.name)
        )
        funnel.sacrificial_total = len(final)
        return PipelineResult(
            sacrificial=final,
            funnel=funnel,
            mined_patterns=mined,
            matches=matches,
            candidates=kept,
            coverage=CoverageAnnotations(),
        )

    # -- serialization / resume ----------------------------------------------

    def restore(self, source: ZoneDatabase, state: dict[str, Any]) -> int | None:
        """Adopt a loaded state; returns the restored watermark.

        Only valid on a fresh engine; ``state`` comes from
        :func:`load_engine_state`. A state whose watermark is the
        source's last batch day evaluates ``source`` directly, as a
        :meth:`fold` does. Below it, the engine reads the source as of
        the watermark from now on, as a capped fold leaves it: through
        :meth:`ZoneDatabase.as_of`, reading no delta, or, when the
        stream rewrites, through a replica filled with the deltas up to
        the watermark (replay is deterministic, so the replica is
        bit-identical to the store the state was dumped against). The
        standing verdicts are installed as-is.
        """
        if self.watermark is not None:
            raise ValueError("restore requires a fresh engine")
        watermark = state["watermarks"].get(ENGINE_WATERMARK)
        if watermark is not None:
            if watermark == DeltaView(source).last_batch_day():
                self.zonedb = source
            else:
                self.zonedb = self._read(source, watermark, restore=True)
        self.state = state
        return watermark


# -- the checkpoint codec ----------------------------------------------------

#: Each standing record type's fields, with the JSON type every value
#: must have. ``str?`` admits null; ``[str]`` is an array of strings,
#: rebuilt as a tuple.
_RECORD_FIELDS: dict[type, tuple[tuple[str, str], ...]] = {
    CandidateNameserver: (
        ("name", "str"),
        ("first_seen", "int"),
        ("referencing_domains", "[str]"),
    ),
    SacrificialNameserver: (
        ("name", "str"),
        ("created_day", "int"),
        ("idiom_id", "str"),
        ("hijackable", "bool"),
        ("registrar", "str?"),
        ("registered_domain", "str?"),
        ("source", "str"),
        ("original_ns", "str?"),
        ("original_domain", "str?"),
        ("collision", "bool"),
    ),
    MatchResult: (
        ("candidate", "str"),
        ("first_seen", "int"),
        ("original_ns", "str"),
        ("original_domain", "str"),
        ("witness_domain", "str"),
        ("registrar", "str?"),
    ),
}

#: The record maps of the state: key, record type, and the field that
#: names the nameserver each record is keyed by.
_RECORD_MAPS: tuple[tuple[str, type, str], ...] = (
    ("candidates", CandidateNameserver, "name"),
    ("pattern", SacrificialNameserver, "name"),
    ("match_results", MatchResult, "candidate"),
    ("match_entries", SacrificialNameserver, "name"),
)

#: The name sets of the state.
_NAME_SETS = ("test_removed", "single_repo")

#: Every top-level key of a document.
_DOCUMENT_KEYS = frozenset(
    ("format", "watermarks", "mine_lengths", "mine_names")
    + tuple(key for key, _cls, _field in _RECORD_MAPS)
    + _NAME_SETS
)

#: Stands in for a record field the document lacks.
_MISSING = object()

#: Whether a parsed JSON value has each field type (``bool`` is not an
#: ``int`` here, nor an ``int`` a ``float``).
_IS_KIND: dict[str, Callable[[Any], bool]] = {
    "str": lambda value: type(value) is str,
    "int": lambda value: type(value) is int,
    "bool": lambda value: type(value) is bool,
    "str?": lambda value: value is None or type(value) is str,
    "[str]": lambda value: type(value) is list
    and all(type(item) is str for item in value),
}


def _checked(value: Any, kind: str, where: str) -> Any:
    """``value`` if it has field type ``kind``; ``ValueError`` otherwise."""
    if not _IS_KIND[kind](value):
        raise ValueError(f"malformed engine state: {where} is not {kind}")
    return value


def _encode_record(record: Any) -> dict[str, Any]:
    fields = _RECORD_FIELDS[type(record)]
    return {name: getattr(record, name) for name, _kind in fields}


def _decode_record(document: Any, cls: type, key: str, index: int) -> Any:
    """Record ``index`` of the state's ``key`` array, type-checked."""
    fields = _RECORD_FIELDS[cls]
    if type(document) is not dict or len(document) != len(fields):
        raise ValueError(
            f"malformed engine state: {key}[{index}] is not a "
            f"{cls.__name__} record"
        )
    values: dict[str, Any] = {}
    for name, kind in fields:
        value = document.get(name, _MISSING)
        if not _IS_KIND[kind](value):
            raise ValueError(
                f"malformed engine state: {key}[{index}].{name} is not {kind}"
            )
        values[name] = tuple(value) if kind == "[str]" else value
    return cls(**values)


def _sorted_names(value: Any, where: str) -> list[str]:
    """A strictly increasing list of strings (sorted, no duplicates)."""
    names: list[str] = _checked(value, "[str]", where)
    if names != sorted(set(names)):
        raise ValueError(f"malformed engine state: {where} is not sorted and unique")
    return names


def dump_engine_state(state: dict[str, Any]) -> bytes:
    """Serialize a standing engine state as canonical JSON.

    Key-sorted and compact, every unordered container written in sorted
    order, so equal states produce identical bytes regardless of fold
    order, process hash seed or object identity — engine checkpoints
    are content-addressed by these bytes. Each record map is an array
    of named-field records sorted by nameserver. The miner's state is
    its name multiset; substring supports are counted when patterns are
    selected. The schema is documented in ``docs/ARCHITECTURE.md``.
    """
    counter: SubstringCounter = state["mine_counter"]
    document: dict[str, Any] = {
        "format": ENGINE_STATE_FORMAT,
        "watermarks": state["watermarks"],
        "mine_lengths": [counter.min_length, counter.max_length],
        "mine_names": sorted(counter.names.items()),
    }
    for key, _cls, _field in _RECORD_MAPS:
        records = state[key]
        document[key] = [_encode_record(records[ns]) for ns in sorted(records)]
    for key in _NAME_SETS:
        document[key] = sorted(state[key])
    return canonical_json(document).encode("utf-8")


def load_engine_state(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`dump_engine_state`.

    Anything that is not a ``riskybiz-engine-state/3`` document of the
    exact schema — another format or encoding (the older binary
    checkpoints included), a missing key, a value of the wrong type —
    raises :class:`ValueError`. Only plain JSON is ever parsed, so no
    checkpoint can run code when loaded.
    """
    try:
        document = json.loads(data)
    except (ValueError, RecursionError) as error:  # also UnicodeDecodeError
        raise ValueError(f"not an engine state: not JSON ({error})") from None
    found = document.get("format") if type(document) is dict else None
    if found != ENGINE_STATE_FORMAT:
        raise ValueError(f"not an engine state (format {found!r})")
    if set(document) != _DOCUMENT_KEYS:
        raise ValueError(
            "malformed engine state: keys "
            f"{sorted(set(document) ^ _DOCUMENT_KEYS)} missing or unexpected"
        )
    watermarks = document["watermarks"]
    if type(watermarks) is not dict:
        raise ValueError("malformed engine state: watermarks is not an object")
    for stage, day in watermarks.items():
        _checked(day, "int", f"watermarks.{stage}")
    lengths = document["mine_lengths"]
    if type(lengths) is not list or len(lengths) != 2:
        raise ValueError("malformed engine state: mine_lengths is not a pair")
    counter = SubstringCounter(
        min_length=_checked(lengths[0], "int", "mine_lengths[0]"),
        max_length=_checked(lengths[1], "int", "mine_lengths[1]"),
    )
    pairs = document["mine_names"]
    if type(pairs) is not list or not all(
        type(pair) is list and len(pair) == 2 for pair in pairs
    ):
        raise ValueError("malformed engine state: mine_names is not an array of pairs")
    names = _sorted_names([pair[0] for pair in pairs], "mine_names")
    for index, (name, pair) in enumerate(zip(names, pairs)):
        count = _checked(pair[1], "int", f"mine_names[{index}][1]")
        if count < 1:
            raise ValueError(
                f"malformed engine state: mine_names[{index}][1] is not positive"
            )
        counter.names[name] = count
    state: dict[str, Any] = {
        "watermarks": dict(watermarks),
        "mine_counter": counter,
    }
    for key, cls, name_field in _RECORD_MAPS:
        rows = document[key]
        if type(rows) is not list:
            raise ValueError(f"malformed engine state: {key} is not an array")
        records = [
            _decode_record(row, cls, key, index) for index, row in enumerate(rows)
        ]
        names = [getattr(record, name_field) for record in records]
        _sorted_names(names, f"{key} names")
        state[key] = dict(zip(names, records))
    for key in _NAME_SETS:
        state[key] = set(_sorted_names(document[key], key))
    return state
