"""Journaled detection runs: checkpointed, resumable, durable.

One *run* lives in a run directory::

    <run_dir>/journal.jsonl                     append-only run journal
    <run_dir>/checkpoints/engine-state.json     the engine checkpoint
    <run_dir>/result.json                       the result digest

Every invocation (``riskybiz advance``) folds the source dataset into
an :class:`~repro.detection.incremental.IncrementalDetectionEngine`
once: the first folds the whole dataset, or the dataset as of the last
batch day by ``--until``; later ones restore the checkpoint
and fold exactly the day batches recorded past its watermark, reading
the dataset as of the newest of them. None of them re-reads history,
except where one scan finds that the dataset's delta stream rewrites
earlier days: there the engine reads a replica it fills up to the
watermark, once per invocation. The durability protocol, per
invocation::

    fold  →  atomic engine checkpoint  →  journal day-advanced
          →  result  →  result.json  →  journal run-complete

so every crash window converges on resume:

* killed before the checkpoint write — the fold is in memory only; the
  checkpoint still describes the previous drain; refold;
* killed between checkpoint and journal append — the checkpoint is
  *ahead* of the journal; resume reconciles by journaling the drain the
  checkpoint proves (flagged ``reconciled``);
* a torn journal append — the fragment fails verification and is
  dropped on reopen, identical to the previous window.

The checkpoint is content-verified on resume: a file whose SHA-256
does not match what the journal recorded is quarantined, an
``engine-reset`` is journaled, and the fold is redone — the journal
never lies about what durably exists. The result is never stored: every
invocation recomputes it from the engine, and an invocation with
nothing to fold checks it against the journaled digest. Run IDs are
deterministic digests of the run's inputs, so a resume can also
detect an input switcheroo; the WHOIS archive's SHA-256 is journaled
beside them, and a resume with another archive is refused. The source
dataset is only ever read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.detection.incremental import (
    ENGINE_WATERMARK,
    IncrementalDetectionEngine,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.pipeline import CoverageAnnotations, PipelineResult
from repro.obs import profiling
from repro.obs import runtime as obs
from repro.obs.tracer import Tracer
from repro.runner.journal import RunJournal
from repro.store.atomic import (
    atomic_write_bytes,
    content_digest,
    fsync_directory,
    load_checked_json,
    quarantine,
    write_checked_json,
)
from repro.store.dataset import SCENARIO_DIGEST_KEY, DeltaView

if TYPE_CHECKING:
    from repro.faults.process import ChaosMonkey
    from repro.whois.archive import WhoisArchive
    from repro.zonedb.database import ZoneDatabase

#: Format tag carried by ``result.json``.
RESULT_FORMAT = "riskybiz-run-result/2"

#: Filenames inside a run directory.
JOURNAL_NAME = "journal.jsonl"
RESULT_MANIFEST_NAME = "result.json"
CHECKPOINT_DIR_NAME = "checkpoints"
TRACE_NAME = "trace.jsonl"
METRICS_NAME = "metrics.json"
ENGINE_CHECKPOINT_NAME = "engine-state.json"

#: Files older versions left in a run directory, relative to it: the
#: pickled engine checkpoint and result. Nothing reads them; opening a
#: run deletes them.
STALE_NAMES = (f"{CHECKPOINT_DIR_NAME}/engine-state.pkl", "result.pkl")


class RunFailed(Exception):
    """A run could not proceed: a refused run directory or resume, or a
    finished run whose recomputed result disagrees with its journal."""


def compute_run_id(fingerprint: dict[str, Any]) -> str:
    """Deterministic run ID for a run-input fingerprint.

    Same dataset + same options ⇒ same ID, so a resume against changed
    inputs is caught as an ID mismatch instead of producing a franken-run.
    """
    return "run-" + content_digest(fingerprint)[:12]


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


def _field_values(record: Any) -> dict[str, Any]:
    """A dataclass record's fields by name, read directly: they hold
    only str, int, bool, None and tuples of str, so nothing needs the
    deep copy ``dataclasses.asdict`` makes."""
    return {name: getattr(record, name) for name in _field_names(type(record))}


def result_fingerprint(result: PipelineResult) -> dict[str, Any]:
    """A canonical, JSON-able fingerprint of a pipeline result.

    Semantic (field values), not representational (object layout), so
    it is stable across processes and hash seeds. Two results
    fingerprint equal iff every output the paper reports from them is
    equal.
    """
    return {
        "funnel": _field_values(result.funnel),
        "sacrificial": [_field_values(entry) for entry in result.sacrificial],
        "matches": [_field_values(match) for match in result.matches],
        "candidates": [
            [c.name, c.first_seen, list(c.referencing_domains)]
            for c in result.candidates
        ],
        "mined": [[p.substring, p.support] for p in result.mined_patterns],
    }


def result_digest(result: PipelineResult) -> str:
    """SHA-256 digest of :func:`result_fingerprint`."""
    return content_digest(result_fingerprint(result))


def _manifest_matches(path: Path, manifest: dict[str, Any]) -> bool:
    """Does ``path`` verify and hold exactly ``manifest``?

    A file that fails its checksum is quarantined.
    """
    return path.exists() and load_checked_json(path) == manifest


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


@contextmanager
def _open_run(
    run_dir: str | Path,
    zonedb: "ZoneDatabase",
    *,
    inputs: dict[str, Any],
    whois_sha256: str,
    resume: str | None,
    chaos: "ChaosMonkey | None",
    trace: bool,
    profile: bool,
) -> Iterator[_OpenRun]:
    """Create or reopen a run directory's journal, with telemetry on.

    ``inputs`` are the run's options: with the dataset's scenario digest
    they fingerprint the run ID, and they are journaled once, with
    ``whois_sha256`` (:meth:`WhoisArchive.sha256`), as the
    ``run-config`` record. A fresh run needs a directory without a
    journal; a resume needs ``resume`` to name the journal's run ID, the
    inputs to fingerprint to it and the journaled WHOIS digest, if any,
    to be ``whois_sha256`` — anything else raises :class:`RunFailed`
    before a byte of the run directory changes (a torn journal tail
    included). A run journaled before WHOIS digests were recorded
    journals the one it resumes with. Files an older version left
    (:data:`STALE_NAMES`) are then deleted unread, and so is an older
    invocation's ``metrics.json``. Tracing and profiling stay installed
    for the body of the ``with`` block.
    """
    run_dir = Path(run_dir)
    journal_path = run_dir / JOURNAL_NAME
    checkpoint_dir = run_dir / CHECKPOINT_DIR_NAME
    run_id = compute_run_id(
        {"scenario_digest": zonedb.store.get_meta(SCENARIO_DIGEST_KEY), **inputs}
    )

    def admit(journal: RunJournal) -> None:
        if journal.run_id != resume:
            raise RunFailed(
                f"journal belongs to {journal.run_id}, not {resume}"
            )
        if journal.run_id != run_id:
            raise RunFailed(
                f"run inputs changed: journal is {journal.run_id}, these "
                f"inputs fingerprint to {run_id}"
            )
        config = journal.last("run-config")
        journaled = None if config is None else config.payload.get("whois_sha256")
        if journaled is not None and journaled != whois_sha256:
            raise RunFailed(
                f"WHOIS input changed: run {run_id} is journaled with WHOIS "
                f"sha256 {journaled}, this invocation's is {whois_sha256}"
            )
        # Decode the other records the resume reads, so one that fails
        # its checksum refuses it here, before a byte changes.
        journal.last_drain, journal.run_complete

    resumed = journal_path.exists()
    if resumed:
        if resume is None:
            raise RunFailed(
                f"{run_dir} already holds a journal; pass resume=<run-id> "
                "(or point at a fresh run directory)"
            )
        journal = RunJournal.open(journal_path, admit=admit)
    else:
        if resume is not None:
            raise RunFailed(f"nothing to resume in {run_dir}")
        run_dir.mkdir(parents=True, exist_ok=True)
        journal = RunJournal.create(journal_path, run_id)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    # metrics.json, when present, describes the newest invocation: a
    # traced or profiled one writes its own as it completes.
    for name in (*STALE_NAMES, METRICS_NAME):
        stale = run_dir / name
        try:
            stale.unlink()
        except FileNotFoundError:
            continue
        fsync_directory(stale.parent)
    if chaos is not None:
        journal.torn_writer = chaos.torn_write
    config = journal.last("run-config")
    if config is None or config.payload.get("whois_sha256") is None:
        if config is not None:
            print(
                f"note: run {run_id} journaled no WHOIS digest; recording "
                f"{whois_sha256}, so a resume with other WHOIS data is refused",
                file=sys.stderr,
            )
        journal.append("run-config", **inputs, whois_sha256=whois_sha256)

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
            )
    finally:
        if profile:
            profiling.disable()
        if tracer is not None:
            tracer.close()


# -- the run -----------------------------------------------------------------


@dataclass
class IncrementalRunResult:
    """What a run invocation produced, plus how far it advanced."""

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
    mine_patterns: bool = True,
    chaos: "ChaosMonkey | None" = None,
    resume: str | None = None,
    consumer: str | None = None,
    trace: bool = False,
    profile: bool = False,
) -> IncrementalRunResult:
    """Advance a journaled detection run to ``until`` (default: the end).

    Fresh run: ``run_dir`` must hold no journal; one is created under a
    deterministic run ID, and a fresh engine folds ``zonedb`` in one
    pass, as of the last batch day by ``until``. Resume: pass
    ``resume=<run-id>`` (from the journal, or the CLI's output); the
    durable engine checkpoint is restored and exactly the day batches
    past its watermark are folded, at once, against ``zonedb`` as of
    the newest of them — a run that is already current folds nothing,
    recomputes its result from the checkpoint and raises
    :class:`RunFailed` unless it has the journaled digest. On a dataset
    whose delta stream rewrites earlier days, the dataset as of a batch
    day is a replica the engine fills up to the watermark and extends
    (see
    :meth:`~repro.detection.incremental.IncrementalDetectionEngine.advance_from`).
    ``until`` caps the horizon without entering the run fingerprint, so
    one standing run can advance day by day. Each invocation writes one
    engine checkpoint for everything it folded (see the module docstring
    for the crash windows). ``consumer`` is accepted for compatibility
    and ignored: ``zonedb`` is only read. ``whois`` must be the archive
    the run started with: its :meth:`~repro.whois.archive.WhoisArchive.sha256`
    is journaled in ``run-config``, and a resume with another archive
    raises :class:`RunFailed` naming both digests.

    ``chaos`` arms the execution-plane fault injectors at every stage,
    day and journal-append boundary (see :mod:`repro.faults.process`).
    ``trace`` emits a span/event trace to ``<run_dir>/trace.jsonl``
    (deterministic span IDs; wall durations confined to telemetry-only
    fields — see :mod:`repro.obs.tracer`). ``profile`` records per-stage
    durations and ``tracemalloc`` peaks. Either writes this invocation's
    metrics snapshot to ``<run_dir>/metrics.json``; every invocation
    first deletes the snapshot an older one wrote.

    The result is bit-identical (same result digest) to
    :class:`~repro.detection.pipeline.DetectionPipeline` over the same
    history — the invariant the ``incremental-equivalence`` CI job
    asserts.
    """
    # "backend" and the empty "options" stay in the fingerprint so
    # standing run IDs survive.
    inputs = {
        "mode": "incremental",
        "backend": "memory",
        "mine_patterns": mine_patterns,
        "options": {},
    }
    with _open_run(
        run_dir,
        zonedb,
        inputs=inputs,
        whois_sha256=whois.sha256(),
        resume=resume,
        chaos=chaos,
        trace=trace,
        profile=profile,
    ) as run, obs.span("run", mode="incremental") as run_span:
        # The outermost span closes only when the invocation completes,
        # so a kill anywhere inside leaves a start-without-end — the
        # same shape the journal's crash windows have.
        journal = run.journal
        engine_path = run.checkpoint_dir / ENGINE_CHECKPOINT_NAME
        engine = IncrementalDetectionEngine(whois, mine_patterns=mine_patterns)
        restored = (
            _restore_engine(journal, engine, zonedb, engine_path)
            if run.resumed
            else None
        )
        deltas, days = DeltaView(
            zonedb, since=engine.watermark, until=until
        ).stats()
        engine.advance_from(
            zonedb,
            until=until,
            boundary=None if chaos is None else chaos.worker_boundary,
        )
        if days:
            data = dump_engine_state(engine.state)
            atomic_write_bytes(engine_path, data)
            if chaos is not None:
                chaos.supervisor_boundary(f"day-advanced:{engine.watermark}")
            journal.append(
                "day-advanced",
                day=engine.watermark,
                deltas_applied=deltas,
                checkpoint_sha256=hashlib.sha256(data).hexdigest(),
            )
        # With nothing folded, a run journaled complete at this
        # watermark must recompute the digest it journaled.
        complete = journal.run_complete
        recorded = None
        if (
            not days
            and complete is not None
            and complete.payload.get("watermark") == engine.watermark
        ):
            recorded = complete.payload.get("result_digest")
        manifest_path = run.run_dir / RESULT_MANIFEST_NAME
        with obs.span("result") as result_span:
            result = engine.result()
            result.coverage = CoverageAnnotations.from_reports(zonedb.ingest_reports)
            digest = result_digest(result)
            total = result.funnel.sacrificial_total
            result_span.set(result_digest=digest, sacrificial_total=total)
            if recorded is not None and digest != recorded:
                raise RunFailed(
                    f"run {run.run_id} is journaled complete at watermark "
                    f"{engine.watermark} with result digest {recorded}, but "
                    f"its checkpoint recomputes to {digest}"
                )
            manifest = {
                "format": RESULT_FORMAT,
                "run_id": run.run_id,
                "result_digest": digest,
                "sacrificial_total": total,
            }
            if recorded is None or not _manifest_matches(manifest_path, manifest):
                write_checked_json(manifest_path, manifest)
        if recorded is None:
            if chaos is not None:
                chaos.supervisor_boundary("run-complete")
            journal.append(
                "run-complete",
                run_id=run.run_id,
                watermark=engine.watermark,
                days_advanced=days,
                result_digest=digest,
            )
        run_span.set(result_digest=digest, watermark=engine.watermark)
        if trace or profile:
            _write_metrics_snapshot(run.run_dir)
        return IncrementalRunResult(
            run_id=run.run_id,
            result=result,
            result_digest=digest,
            run_dir=run.run_dir,
            journal_path=run.journal_path,
            watermark=engine.watermark,
            days_advanced=days,
            deltas_applied=deltas,
            resumed=run.resumed,
            restored_watermark=restored,
        )
