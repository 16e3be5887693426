"""Supervised detection runs: journaled, checkpointed, resumable.

This module ties the journal to the detection pipeline. One *supervised
run* lives in a run directory::

    <run_dir>/journal.jsonl                     append-only run journal
    <run_dir>/checkpoints/pipeline-state.pkl    the stage state
    <run_dir>/result.pkl + result.json          result + manifest

Durability protocol, per stage::

    run stage  →  atomic checkpoint write  →  journal stage-complete

so every crash window converges on resume:

* killed before the checkpoint write — the stage's work is in memory
  only; the checkpoint still describes the previous stage; redo it;
* killed between checkpoint and journal append — the checkpoint is
  *ahead* of the journal; resume reconciles by journaling the stages
  the checkpoint proves complete (flagged ``reconciled``);
* a torn journal append — the fragment fails verification and is
  dropped on reopen, identical to the previous window.

The checkpoint and the result are content-verified on resume: a file
whose SHA-256 does not match what the journal recorded is quarantined
and its work recomputed — the journal never lies about what durably
exists. Run IDs are deterministic digests of the run's inputs, so
``--resume`` can also detect an input switcheroo.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.detection.incremental import (
    ENGINE_WATERMARK,
    IncrementalDetectionEngine,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.pipeline import (
    DetectionPipeline,
    PipelineResult,
    dump_pipeline_state,
    load_pipeline_state,
)
from repro.obs import profiling
from repro.obs import runtime as obs
from repro.obs.tracer import Tracer
from repro.runner.journal import RunJournal
from repro.runner.supervisor import RunFailed
from repro.store.artifacts import content_digest
from repro.store.atomic import (
    atomic_write_bytes,
    load_checked_json,
    quarantine,
    write_checked_json,
)
from repro.store.dataset import SCENARIO_DIGEST_KEY, DeltaView

if TYPE_CHECKING:
    from repro.faults.process import ChaosMonkey
    from repro.whois.archive import WhoisArchive
    from repro.zonedb.database import ZoneDatabase

#: Format tag carried by the result manifest sidecar.
RESULT_FORMAT = "riskybiz-run-result/1"

#: Filenames inside a run directory.
JOURNAL_NAME = "journal.jsonl"
RESULT_NAME = "result.pkl"
RESULT_MANIFEST_NAME = "result.json"
CHECKPOINT_DIR_NAME = "checkpoints"
TRACE_NAME = "trace.jsonl"
METRICS_NAME = "metrics.json"
PIPELINE_CHECKPOINT_NAME = "pipeline-state.pkl"
ENGINE_CHECKPOINT_NAME = "engine-state.pkl"
ENGINE_STORE_NAME = "engine-store.sqlite"


def compute_run_id(fingerprint: dict[str, Any]) -> str:
    """Deterministic run ID for a run-input fingerprint.

    Same dataset + same options ⇒ same ID, so a resume against changed
    inputs is caught as an ID mismatch instead of producing a franken-run.
    """
    return "run-" + content_digest(fingerprint)[:12]


def result_fingerprint(result: PipelineResult) -> dict[str, Any]:
    """A canonical, JSON-able fingerprint of a pipeline result.

    Semantic (field values), not representational (pickle bytes), so it
    is stable across processes, hash seeds, and pickle protocols. Two
    results fingerprint equal iff every output the paper reports from
    them is equal.
    """
    return {
        "funnel": asdict(result.funnel),
        "sacrificial": [asdict(entry) for entry in result.sacrificial],
        "matches": [asdict(match) for match in result.matches],
        "candidates": [
            [c.name, c.first_seen, list(c.referencing_domains)]
            for c in result.candidates
        ],
        "mined": [[p.substring, p.support] for p in result.mined_patterns],
    }


def result_digest(result: PipelineResult) -> str:
    """SHA-256 digest of :func:`result_fingerprint`."""
    return content_digest(result_fingerprint(result))


def state_digest(state: dict[str, Any]) -> str:
    """Semantic digest of a batch run's checkpointable stage state.

    Journaled at every stage boundary; like :func:`result_fingerprint`
    it digests field values, not pickle bytes, so digests agree between
    the process that wrote a checkpoint and the one that resumes it.
    """
    fingerprint: dict[str, Any] = {
        "done": sorted(state.get("done", ())),
        "funnel": asdict(state["funnel"]),
    }
    for key in ("candidates", "remaining"):
        if key in state:
            fingerprint[key] = [
                [c.name, c.first_seen, list(c.referencing_domains)]
                for c in state[key]
            ]
    if "mined" in state:
        fingerprint["mined"] = [[p.substring, p.support] for p in state["mined"]]
    if "sacrificial" in state:
        fingerprint["sacrificial"] = {
            name: asdict(entry) for name, entry in state["sacrificial"].items()
        }
    if "matches" in state:
        fingerprint["matches"] = [asdict(match) for match in state["matches"]]
    return content_digest(fingerprint)


@dataclass
class SupervisedResult:
    """What a supervised run produced, plus how it got there."""

    run_id: str
    result: PipelineResult
    result_digest: str
    run_dir: Path
    journal_path: Path
    resumed: bool = False


def _boundary(chaos: "ChaosMonkey | None", site: str, label: str) -> None:
    """Hit a chaos boundary if a monkey is riding along."""
    if chaos is None:
        return
    if site == "worker":
        chaos.worker_boundary(label)
    else:
        chaos.supervisor_boundary(label)


def _note_pipeline_reset(reason: str) -> None:
    """Mirror a journaled pipeline-reset into metrics and the trace."""
    obs.counter("runner.pipeline_resets").inc()
    obs.trace_event("runner.pipeline-reset", reason=reason)


def _load_partial_state(journal: RunJournal, path: Path) -> dict[str, Any]:
    """The resumable stage state of an unfinished batch run, reconciled.

    Source of truth is the checkpoint file (it is written before the
    journal entry); the journal is cross-checked against it:

    * checkpoint ahead of journal — journal the proven stages
      (``reconciled``) and continue from the checkpoint;
    * checkpoint behind the journal, unreadable, missing while the
      journal claims progress, or hashing differently from what the
      journal recorded for the same stage — the durable artifact is
      gone or lying; quarantine it, journal a ``pipeline-reset``, and
      start over (stages are deterministic, so redoing is always safe).
    """
    journaled = journal.completed_stages()
    stages = {str(record.payload["stage"]) for record in journaled}
    if not path.exists():
        if journaled:
            journal.append("pipeline-reset", reason="checkpoint-missing")
            _note_pipeline_reset("checkpoint-missing")
        return DetectionPipeline.new_state()
    try:
        data = path.read_bytes()
        state = load_pipeline_state(data)
    except Exception:
        quarantine(path)
        journal.append("pipeline-reset", reason="checkpoint-unreadable")
        _note_pipeline_reset("checkpoint-unreadable")
        return DetectionPipeline.new_state()
    done = state["done"]
    sha256 = hashlib.sha256(data).hexdigest()
    reason = None
    if not stages <= done:
        reason = "checkpoint-behind-journal"
    elif (
        journaled
        and done == stages
        and sha256 != journaled[-1].payload.get("checkpoint_sha256")
    ):
        reason = "checkpoint-mismatch"
    if reason is not None:
        quarantine(path)
        journal.append("pipeline-reset", reason=reason)
        _note_pipeline_reset(reason)
        return DetectionPipeline.new_state()
    for stage in DetectionPipeline.STAGES:
        if stage in done and stage not in stages:
            journal.append(
                "stage-complete",
                stage=stage,
                state_digest=state_digest(state),
                checkpoint_sha256=sha256,
                reconciled=True,
            )
    return state


def _load_completed_result(
    run_dir: Path, payload: dict[str, Any]
) -> PipelineResult | None:
    """The durably-journaled result, verified, or None.

    None means the result artifact was missing or failed verification;
    the corrupt files are quarantined and the caller rebuilds the
    result from its (independently verified) checkpoint.
    """
    result_path = run_dir / RESULT_NAME
    manifest_path = run_dir / RESULT_MANIFEST_NAME
    if not result_path.exists():
        return None
    data = result_path.read_bytes()
    if hashlib.sha256(data).hexdigest() != payload.get("result_sha256"):
        quarantine(result_path)
        if manifest_path.exists():
            quarantine(manifest_path)
        return None
    try:
        result: PipelineResult = pickle.loads(data)
    except Exception:
        quarantine(result_path)
        return None
    if result_digest(result) != payload.get("result_digest"):
        quarantine(result_path)
        return None
    if manifest_path.exists() and load_checked_json(manifest_path) is None:
        # Manifest corrupt (now quarantined): rewrite it from the
        # verified result rather than leaving the run dir inconsistent.
        _write_result_manifest(run_dir, payload["run_id"], data, result)
    return result


def _write_result_manifest(
    run_dir: Path, run_id: str, data: bytes, result: PipelineResult
) -> dict[str, Any]:
    manifest = {
        "format": RESULT_FORMAT,
        "run_id": run_id,
        "result": RESULT_NAME,
        "result_sha256": hashlib.sha256(data).hexdigest(),
        "result_digest": result_digest(result),
        "sacrificial_total": result.funnel.sacrificial_total,
    }
    write_checked_json(run_dir / RESULT_MANIFEST_NAME, manifest)
    return manifest


def _write_metrics_snapshot(run_dir: Path) -> Path:
    """Write the global metrics registry as ``metrics.json`` (atomic)."""
    snapshot = obs.metrics().snapshot()
    path = run_dir / METRICS_NAME
    atomic_write_bytes(
        path,
        (json.dumps(snapshot, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    return path


# -- the run directory -------------------------------------------------------


@dataclass(frozen=True)
class _OpenRun:
    """A run directory whose journal is open and whose inputs checked out."""

    run_id: str
    run_dir: Path
    journal: RunJournal
    journal_path: Path
    checkpoint_dir: Path
    resumed: bool
    tracer: Tracer | None


@contextmanager
def _open_run(
    run_dir: str | Path,
    zonedb: "ZoneDatabase",
    *,
    inputs: dict[str, Any],
    resume: str | None,
    chaos: "ChaosMonkey | None",
    trace: bool,
    profile: bool,
) -> Iterator[_OpenRun]:
    """Create or reopen a run directory's journal, with telemetry on.

    ``inputs`` are the run's options: with the dataset's scenario digest
    they fingerprint the run ID, and they are journaled once as the
    ``run-config`` record. A fresh run needs a directory without a
    journal; a resume needs ``resume`` to name the journal's run ID and
    the inputs to fingerprint to it — anything else raises
    :class:`~repro.runner.supervisor.RunFailed`. Tracing and profiling
    stay installed for the body of the ``with`` block.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    journal_path = run_dir / JOURNAL_NAME
    checkpoint_dir = run_dir / CHECKPOINT_DIR_NAME
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    run_id = compute_run_id(
        {"scenario_digest": zonedb.store.get_meta(SCENARIO_DIGEST_KEY), **inputs}
    )

    resumed = journal_path.exists()
    if resumed:
        if resume is None:
            raise RunFailed(
                f"{run_dir} already holds a journal; pass resume=<run-id> "
                "(or point at a fresh run directory)"
            )
        journal = RunJournal.open(journal_path)
        if journal.run_id != resume:
            raise RunFailed(
                f"journal belongs to {journal.run_id}, not {resume}"
            )
        if journal.run_id != run_id:
            raise RunFailed(
                f"run inputs changed: journal is {journal.run_id}, these "
                f"inputs fingerprint to {run_id}"
            )
    else:
        if resume is not None:
            raise RunFailed(f"nothing to resume in {run_dir}")
        journal = RunJournal.create(journal_path, run_id)
    if chaos is not None:
        journal.torn_writer = chaos.torn_write
    if journal.last("run-config") is None:
        journal.append("run-config", **inputs)

    tracer = (
        Tracer.open_or_create(run_dir / TRACE_NAME, run_id) if trace else None
    )
    if trace or profile:
        # The snapshot written at run end must cover exactly this run,
        # not whatever the process-global registry accumulated before.
        obs.reset_metrics()
    if profile:
        profiling.enable()
    try:
        with obs.observing(tracer):
            yield _OpenRun(
                run_id=run_id,
                run_dir=run_dir,
                journal=journal,
                journal_path=journal_path,
                checkpoint_dir=checkpoint_dir,
                resumed=resumed,
                tracer=tracer,
            )
    finally:
        if profile:
            profiling.disable()
        if tracer is not None:
            tracer.close()


# -- the supervised run ------------------------------------------------------


def run_supervised_detection(
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    *,
    run_dir: str | Path,
    mine_patterns: bool = True,
    options: dict[str, Any] | None = None,
    chaos: "ChaosMonkey | None" = None,
    resume: str | None = None,
    trace: bool = False,
    profile: bool = False,
) -> SupervisedResult:
    """Run the detection pipeline journaled in ``run_dir``, resumably.

    Fresh run: ``run_dir`` must hold no journal; one is created under a
    deterministic run ID. Resume: pass ``resume=<run-id>`` (from the
    journal, or ``riskybiz detect``'s output); the journal is replayed
    and exactly the stages that did not durably complete are re-executed
    — finishing a run twice returns the recorded result without running
    anything. A stage that raises propagates: the stages are
    deterministic, so retrying in place would only repeat the failure.

    ``chaos`` arms the execution-plane fault injectors at every stage
    and journal-append boundary (see :mod:`repro.faults.process`).

    ``trace`` emits a span/event trace to ``<run_dir>/trace.jsonl`` and a
    metrics snapshot to ``<run_dir>/metrics.json`` (deterministic span
    IDs; wall durations confined to telemetry-only fields — see
    :mod:`repro.obs.tracer`). ``profile`` additionally records per-stage
    durations and ``tracemalloc`` peaks into the metrics snapshot.
    """
    inputs = {"mine_patterns": mine_patterns, "options": dict(options or {})}
    with _open_run(
        run_dir,
        zonedb,
        inputs=inputs,
        resume=resume,
        chaos=chaos,
        trace=trace,
        profile=profile,
    ) as run:
        return _execute_supervised(
            run, zonedb, whois, mine_patterns=mine_patterns, chaos=chaos
        )


def _execute_supervised(
    run: _OpenRun,
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    *,
    mine_patterns: bool,
    chaos: "ChaosMonkey | None",
) -> SupervisedResult:
    """The journal-driven execution body of :func:`run_supervised_detection`.

    Runs with the run's tracer (possibly None) installed as the active
    one; every span and event below no-ops when tracing is off. The
    outermost ``run`` span closes only when the run completes, so a kill
    anywhere inside leaves a start-without-end — the same shape the
    journal's crash windows have.
    """
    journal = run.journal
    with obs.span("run") as run_span:
        complete_record = journal.run_complete
        if complete_record is not None:
            replayed = _load_completed_result(run.run_dir, complete_record.payload)
            if replayed is not None:
                digest = str(complete_record.payload["result_digest"])
                run_span.set(result_digest=digest)
                if run.tracer is not None:
                    _write_metrics_snapshot(run.run_dir)
                return SupervisedResult(
                    run_id=run.run_id,
                    result=replayed,
                    result_digest=digest,
                    run_dir=run.run_dir,
                    journal_path=run.journal_path,
                    resumed=True,
                )

        path = run.checkpoint_dir / PIPELINE_CHECKPOINT_NAME
        state = _load_partial_state(journal, path)

        def after_stage(stage: str, st: dict[str, Any]) -> None:
            _boundary(chaos, "worker", f"stage:{stage}")
            data = dump_pipeline_state(st)
            atomic_write_bytes(path, data)
            _boundary(chaos, "supervisor", f"stage-complete:{stage}")
            journal.append(
                "stage-complete",
                stage=stage,
                state_digest=state_digest(st),
                checkpoint_sha256=hashlib.sha256(data).hexdigest(),
            )

        pipeline = DetectionPipeline(zonedb, whois, mine_patterns=mine_patterns)
        result = pipeline.run(state, after_stage=after_stage)
        data = pickle.dumps(result)
        atomic_write_bytes(run.run_dir / RESULT_NAME, data)
        manifest = _write_result_manifest(run.run_dir, run.run_id, data, result)
        _boundary(chaos, "supervisor", "run-complete")
        journal.append(
            "run-complete",
            run_id=run.run_id,
            result_sha256=manifest["result_sha256"],
            result_digest=manifest["result_digest"],
        )
        run_span.set(result_digest=str(manifest["result_digest"]))
        if run.tracer is not None:
            _write_metrics_snapshot(run.run_dir)
        return SupervisedResult(
            run_id=run.run_id,
            result=result,
            result_digest=str(manifest["result_digest"]),
            run_dir=run.run_dir,
            journal_path=run.journal_path,
            resumed=run.resumed,
        )


# -- the incremental run -----------------------------------------------------


@dataclass
class IncrementalRunResult:
    """What an incremental run produced, plus how far it advanced."""

    run_id: str
    result: PipelineResult
    result_digest: str
    run_dir: Path
    journal_path: Path
    #: The engine watermark after draining (last folded batch day).
    watermark: int | None
    #: Day batches folded by *this* invocation (0 when already current).
    days_advanced: int = 0
    #: Delta events applied by this invocation.
    deltas_applied: int = 0
    resumed: bool = False
    #: The watermark adopted from the durable checkpoint on resume.
    restored_watermark: int | None = None


def _note_engine_reset(reason: str) -> None:
    """Mirror a journaled engine-reset into metrics and the trace."""
    obs.counter("runner.engine_resets").inc()
    obs.trace_event("runner.engine-reset", reason=reason)


def _restore_engine(
    journal: RunJournal,
    engine: IncrementalDetectionEngine,
    zonedb: "ZoneDatabase",
    path: Path,
) -> int | None:
    """Adopt the durable engine checkpoint, reconciled with the journal.

    The checkpoint is written before its ``day-advanced`` record, so it
    is the source of truth and the journal is cross-checked against it:

    * checkpoint ahead of the journal (crash in the append window) —
      journal the drain the checkpoint proves folded (``reconciled``);
    * checkpoint behind the journal, unreadable, or missing while the
      journal claims days, or hashing differently from what the journal
      recorded for the same day — the durable artifact is gone or
      lying; quarantine it, journal an ``engine-reset``, and refold the
      whole stream (advancing is deterministic, so redoing is safe).

    Returns the restored watermark (None when starting from scratch).
    The engine is only mutated once the checkpoint has fully verified,
    so every reset path leaves it fresh.
    """
    drain = journal.last_drain
    journaled: dict[str, Any] = {} if drain is None else drain.payload
    journaled_day = journaled.get("day")
    if not path.exists():
        if journaled_day is not None:
            journal.append("engine-reset", reason="checkpoint-missing")
            _note_engine_reset("checkpoint-missing")
        return None
    try:
        data = path.read_bytes()
        state = load_engine_state(data)
    except Exception:
        quarantine(path)
        journal.append("engine-reset", reason="checkpoint-unreadable")
        _note_engine_reset("checkpoint-unreadable")
        return None
    watermark = state["watermarks"].get(ENGINE_WATERMARK)
    sha256 = hashlib.sha256(data).hexdigest()
    if journaled_day is not None:
        if watermark is None or watermark < journaled_day:
            quarantine(path)
            journal.append("engine-reset", reason="checkpoint-behind-journal")
            _note_engine_reset("checkpoint-behind-journal")
            return None
        if watermark == journaled_day and sha256 != journaled.get(
            "checkpoint_sha256"
        ):
            quarantine(path)
            journal.append("engine-reset", reason="checkpoint-mismatch")
            _note_engine_reset("checkpoint-mismatch")
            return None
    elif watermark is None:
        return None
    engine.restore(zonedb, state)
    if journaled_day is None or watermark > journaled_day:
        journal.append(
            "day-advanced",
            day=watermark,
            checkpoint_sha256=sha256,
            reconciled=True,
        )
    return watermark


def run_incremental_detection(
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    *,
    run_dir: str | Path,
    until: int | None = None,
    backend: str = "memory",
    mine_patterns: bool = True,
    options: dict[str, Any] | None = None,
    chaos: "ChaosMonkey | None" = None,
    resume: str | None = None,
    consumer: str | None = None,
    trace: bool = False,
    profile: bool = False,
) -> IncrementalRunResult:
    """Advance an incremental detection run to the end of the delta stream.

    Instead of re-running the batch pipeline, an
    :class:`~repro.detection.incremental.IncrementalDetectionEngine`
    folds every recorded day batch past its watermark into standing
    state, then makes the whole drain durable at once::

        fold each new day  →  atomic engine checkpoint
                           →  journal day-advanced  →  commit watermark

    so a crash mid-drain resumes at the previous durable drain and
    refolds the lost days (folding is deterministic, so the refold is
    bit-identical). The run directory holds one engine checkpoint
    (``checkpoints/engine-state.pkl``) that always describes the
    journal's newest ``day-advanced`` record — the same
    checkpoint-ahead reconciliation the batch runner uses.

    Unlike a batch run, an incremental run is durable *across*
    invocations: call again (with ``resume=<run-id>``) after the source
    dataset grows and exactly the new days are folded. ``until`` caps
    the horizon without entering the run fingerprint, so one standing
    run can advance day by day. With ``consumer`` set, the source
    store's per-consumer watermark is committed after each durable
    drain.

    The produced result is bit-identical (same result digest) to a
    fresh batch run over the same history — that invariant is what the
    ``incremental-equivalence`` CI job asserts on both backends.
    """
    inputs = {
        "mode": "incremental",
        "backend": backend,
        "mine_patterns": mine_patterns,
        "options": dict(options or {}),
    }
    with _open_run(
        run_dir,
        zonedb,
        inputs=inputs,
        resume=resume,
        chaos=chaos,
        trace=trace,
        profile=profile,
    ) as run:
        return _execute_incremental(
            run,
            zonedb,
            whois,
            until=until,
            backend=backend,
            mine_patterns=mine_patterns,
            chaos=chaos,
            consumer=consumer,
        )


def _execute_incremental(
    run: _OpenRun,
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    *,
    until: int | None,
    backend: str,
    mine_patterns: bool,
    chaos: "ChaosMonkey | None",
    consumer: str | None,
) -> IncrementalRunResult:
    """The journal-driven drain loop of :func:`run_incremental_detection`."""
    journal = run.journal
    engine_path = run.checkpoint_dir / ENGINE_CHECKPOINT_NAME
    with obs.span("run", mode="incremental") as run_span:
        store_path: Path | None = None
        if backend == "sqlite":
            # The private store is rebuilt by deterministic replay; only
            # the engine-state checkpoint is a durable artifact. A stale
            # store from an earlier invocation must not be replayed into.
            store_path = run.run_dir / ENGINE_STORE_NAME
            for leftover in (
                store_path,
                store_path.with_name(store_path.name + "-wal"),
                store_path.with_name(store_path.name + "-shm"),
            ):
                leftover.unlink(missing_ok=True)
        engine = IncrementalDetectionEngine(
            whois,
            backend=backend,
            store_path=store_path,
            mine_patterns=mine_patterns,
        )
        restored = (
            _restore_engine(journal, engine, zonedb, engine_path)
            if run.resumed
            else None
        )
        batches = DeltaView(zonedb, since=engine.watermark, until=until).batches()
        days = len(batches)
        deltas = 0
        for batch_day, events in batches:
            deltas += engine.advance(batch_day, events)
            _boundary(chaos, "worker", f"day:{batch_day}")
        if batches:
            watermark = batches[-1][0]
            data = dump_engine_state(engine)
            atomic_write_bytes(engine_path, data)
            _boundary(chaos, "supervisor", f"day-advanced:{watermark}")
            journal.append(
                "day-advanced",
                day=watermark,
                deltas_applied=deltas,
                checkpoint_sha256=hashlib.sha256(data).hexdigest(),
            )
            # The source-side watermark is shared by consumer *name*, so
            # a fresh run directory refolding already-consumed days must
            # not drag it backwards — only ever advance it.
            if consumer is not None:
                source_mark = zonedb.watermark(consumer)
                if source_mark is None or watermark > source_mark:
                    zonedb.commit_watermark(consumer, watermark)
        else:
            complete = journal.run_complete
            if (
                complete is not None
                and complete.payload.get("watermark") == engine.watermark
            ):
                replayed = _load_completed_result(run.run_dir, complete.payload)
                if replayed is not None:
                    digest = str(complete.payload["result_digest"])
                    run_span.set(result_digest=digest, days=0)
                    if run.tracer is not None:
                        _write_metrics_snapshot(run.run_dir)
                    return IncrementalRunResult(
                        run_id=run.run_id,
                        result=replayed,
                        result_digest=digest,
                        run_dir=run.run_dir,
                        journal_path=run.journal_path,
                        watermark=engine.watermark,
                        resumed=True,
                        restored_watermark=restored,
                    )
        result = engine.result()
        data = pickle.dumps(result)
        atomic_write_bytes(run.run_dir / RESULT_NAME, data)
        manifest = _write_result_manifest(run.run_dir, run.run_id, data, result)
        _boundary(chaos, "supervisor", "run-complete")
        journal.append(
            "run-complete",
            run_id=run.run_id,
            watermark=engine.watermark,
            days_advanced=days,
            result_sha256=manifest["result_sha256"],
            result_digest=manifest["result_digest"],
        )
        run_span.set(
            result_digest=str(manifest["result_digest"]), days=days
        )
        if run.tracer is not None:
            _write_metrics_snapshot(run.run_dir)
        return IncrementalRunResult(
            run_id=run.run_id,
            result=result,
            result_digest=str(manifest["result_digest"]),
            run_dir=run.run_dir,
            journal_path=run.journal_path,
            watermark=engine.watermark,
            days_advanced=days,
            deltas_applied=deltas,
            resumed=run.resumed,
            restored_watermark=restored,
        )
