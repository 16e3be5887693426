"""End-to-end data verification: the engine behind ``riskybiz verify-data``.

Walks the three kinds of durable state the tool chain writes — datasets
(SQLite file + checksummed manifest), artifact caches (pickles +
checksummed manifests), and run directories (journal + checkpoint +
result) — recomputing every recorded SHA-256 and reporting what
does not verify. Verification is read-only: nothing is quarantined or
rewritten here (the loaders do that lazily); this module only *reports*,
so it is safe to run against live data.

Each finding is an :class:`Issue` with a machine-usable kind and a
human-readable detail; an empty list means everything verified.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.store.atomic import (
    IntegrityError,
    QUARANTINE_SUFFIX,
    TMP_SUFFIX,
    file_sha256,
    verify_checked_json,
)

if TYPE_CHECKING:
    from repro.runner.journal import JournalRecord

#: Issue kinds, for tests and tooling (values double as report labels).
MISSING = "missing"
CHECKSUM_MISMATCH = "checksum-mismatch"
HASH_MISMATCH = "hash-mismatch"
ORPHANED = "orphaned"
CORRUPT = "corrupt"
QUARANTINED = "quarantined"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True, slots=True)
class Issue:
    """One verification finding."""

    kind: str
    path: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.path}: {self.detail}"


def _quarantine_issues(directory: Path) -> list[Issue]:
    """Report quarantined files lying around (evidence of past corruption)."""
    if not directory.is_dir():
        return []
    return [
        Issue(QUARANTINED, str(path), "quarantined file present (past corruption)")
        for path in sorted(directory.glob(f"*{QUARANTINE_SUFFIX}*"))
    ]


# -- datasets ----------------------------------------------------------------


def verify_dataset(dataset_path: str | Path) -> list[Issue]:
    """Verify one SQLite dataset against its checksummed manifest.

    Checks, in order: manifest presence and content checksum, the
    recorded ``dataset_sha256`` against the file's actual bytes,
    SQLite's own ``PRAGMA integrity_check``, and the manifest's
    domain/nameserver counts against the store's.
    """
    from repro.store.dataset import manifest_path
    from repro.store.sqlite import SqliteDelegationStore

    target = Path(dataset_path)
    issues: list[Issue] = []
    if not target.exists():
        return [Issue(MISSING, str(target), "dataset file does not exist")]
    sidecar = manifest_path(target)
    manifest = None
    if not sidecar.exists():
        issues.append(Issue(MISSING, str(sidecar), "manifest sidecar missing"))
    else:
        try:
            manifest = verify_checked_json(sidecar)
        except IntegrityError as error:
            issues.append(Issue(CHECKSUM_MISMATCH, str(sidecar), str(error)))
    # Hash before opening: connecting must not perturb the verified bytes.
    actual = file_sha256(target)
    if manifest is not None:
        recorded = manifest.get("dataset_sha256")
        if recorded is not None and recorded != actual:
            issues.append(
                Issue(
                    HASH_MISMATCH,
                    str(target),
                    f"dataset bytes hash {actual[:12]}…, manifest says "
                    f"{str(recorded)[:12]}…",
                )
            )
    store = SqliteDelegationStore(target)
    try:
        for problem in store.integrity_check():
            issues.append(Issue(CORRUPT, str(target), f"sqlite: {problem}"))
        if manifest is not None:
            counts = {
                "domains": store.domain_count(),
                "nameservers": store.nameserver_count(),
            }
            for key, actual_count in counts.items():
                recorded_count = manifest.get(key)
                if recorded_count is not None and recorded_count != actual_count:
                    issues.append(
                        Issue(
                            INCONSISTENT,
                            str(target),
                            f"{key}: store has {actual_count}, manifest "
                            f"says {recorded_count}",
                        )
                    )
    finally:
        store.close()
    issues.extend(_quarantine_issues(target.parent))
    return issues


# -- artifact caches ---------------------------------------------------------


def artifact_entry_count(root: str | Path) -> int:
    """Number of (non-quarantined) artifact manifests under ``root``.

    The same filter :func:`verify_artifact_dir` scans with, exposed so
    callers can summarize the cache ("N entries checked") without
    re-verifying it.
    """
    directory = Path(root)
    if not directory.is_dir():
        return 0
    return sum(
        1
        for path in directory.glob("*.json")
        if QUARANTINE_SUFFIX not in path.name
        and not path.name.endswith(TMP_SUFFIX)
        and not path.name.endswith(".manifest.json")
    )


def verify_artifact_dir(root: str | Path) -> list[Issue]:
    """Verify every entry of an on-disk artifact cache directory.

    Each ``<stem>.json`` manifest must checksum-verify and point at an
    existing ``<stem>.pkl`` whose bytes hash to its ``artifact_sha256``;
    pickles without a manifest are reported as orphans.
    """
    directory = Path(root)
    issues: list[Issue] = []
    if not directory.is_dir():
        return [Issue(MISSING, str(directory), "artifact directory does not exist")]
    manifests = sorted(
        path
        for path in directory.glob("*.json")
        if QUARANTINE_SUFFIX not in path.name
        and not path.name.endswith(TMP_SUFFIX)
        and not path.name.endswith(".manifest.json")  # dataset sidecars
    )
    claimed: set[str] = set()
    for sidecar in manifests:
        try:
            manifest = verify_checked_json(sidecar)
        except IntegrityError as error:
            issues.append(Issue(CHECKSUM_MISMATCH, str(sidecar), str(error)))
            continue
        artifact_name = manifest.get("artifact")
        if not isinstance(artifact_name, str):
            issues.append(
                Issue(INCONSISTENT, str(sidecar), "manifest names no artifact")
            )
            continue
        claimed.add(artifact_name)
        artifact = directory / artifact_name
        if not artifact.exists():
            issues.append(
                Issue(ORPHANED, str(sidecar), f"artifact {artifact_name} missing")
            )
            continue
        recorded = manifest.get("artifact_sha256")
        if recorded is not None:
            actual = file_sha256(artifact)
            if actual != recorded:
                issues.append(
                    Issue(
                        HASH_MISMATCH,
                        str(artifact),
                        f"bytes hash {actual[:12]}…, manifest says "
                        f"{str(recorded)[:12]}…",
                    )
                )
    for pkl in sorted(directory.glob("*.pkl")):
        if QUARANTINE_SUFFIX in pkl.name or pkl.name.endswith(TMP_SUFFIX):
            continue
        if pkl.name not in claimed:
            issues.append(
                Issue(ORPHANED, str(pkl), "artifact has no manifest sidecar")
            )
    issues.extend(_quarantine_issues(directory))
    return issues


# -- run directories ---------------------------------------------------------


def _verify_checkpoint(
    path: Path,
    record: "JournalRecord | None",
    load: "Callable[[bytes], object]",
) -> list[Issue]:
    """Check one checkpoint against the journal record that hashed it.

    ``record`` is the newest record describing the checkpoint (None:
    nothing durable to check); ``load`` is the loader that must accept
    the bytes.
    """
    if record is None:
        return []
    if not path.exists():
        return [
            Issue(
                MISSING,
                str(path),
                f"{record.type} record {record.seq} journaled but the "
                "checkpoint is missing",
            )
        ]
    data = path.read_bytes()
    actual = hashlib.sha256(data).hexdigest()
    recorded = record.payload.get("checkpoint_sha256")
    if recorded is not None and actual != recorded:
        return [
            Issue(
                HASH_MISMATCH,
                str(path),
                f"bytes hash {actual[:12]}…, journal says {str(recorded)[:12]}…",
            )
        ]
    try:
        load(data)
    except Exception as error:
        return [Issue(CORRUPT, str(path), f"unreadable checkpoint: {error}")]
    return []


def verify_run_dir(run_dir: str | Path) -> list[Issue]:
    """Verify a run directory: journal, checkpoints, result.

    Replays the journal (reporting corruption rather than raising),
    recomputes the SHA-256 the journal recorded for each checkpoint —
    a batch run's stage state against its newest ``stage-complete``, an
    incremental run's engine against its newest drain, both counted
    from the last reset — and, when the run durably completed, verifies
    the result's bytes and manifest.
    """
    from repro.detection.incremental import load_engine_state
    from repro.detection.pipeline import load_pipeline_state
    from repro.runner.execution import (
        CHECKPOINT_DIR_NAME,
        ENGINE_CHECKPOINT_NAME,
        JOURNAL_NAME,
        PIPELINE_CHECKPOINT_NAME,
        RESULT_MANIFEST_NAME,
        RESULT_NAME,
    )
    from repro.runner.journal import JournalCorruption, RunJournal

    directory = Path(run_dir)
    issues: list[Issue] = []
    journal_path = directory / JOURNAL_NAME
    if not journal_path.exists():
        return [Issue(MISSING, str(journal_path), "run journal does not exist")]
    try:
        journal = RunJournal.open(journal_path)
    except JournalCorruption as error:
        return [Issue(CORRUPT, str(journal_path), str(error))]

    checkpoint_dir = directory / CHECKPOINT_DIR_NAME
    stages = journal.completed_stages()
    issues.extend(
        _verify_checkpoint(
            checkpoint_dir / PIPELINE_CHECKPOINT_NAME,
            stages[-1] if stages else None,
            load_pipeline_state,
        )
    )
    issues.extend(
        _verify_checkpoint(
            checkpoint_dir / ENGINE_CHECKPOINT_NAME,
            journal.last_drain,
            load_engine_state,
        )
    )

    complete = journal.run_complete
    if complete is not None:
        result_path = directory / RESULT_NAME
        if not result_path.exists():
            issues.append(
                Issue(
                    MISSING,
                    str(result_path),
                    "run journaled complete but result file missing",
                )
            )
        else:
            actual = hashlib.sha256(result_path.read_bytes()).hexdigest()
            recorded = complete.payload.get("result_sha256")
            if recorded is not None and actual != recorded:
                issues.append(
                    Issue(
                        HASH_MISMATCH,
                        str(result_path),
                        f"bytes hash {actual[:12]}…, journal says "
                        f"{str(recorded)[:12]}…",
                    )
                )
        manifest_file = directory / RESULT_MANIFEST_NAME
        if manifest_file.exists():
            try:
                manifest = verify_checked_json(manifest_file)
            except IntegrityError as error:
                issues.append(
                    Issue(CHECKSUM_MISMATCH, str(manifest_file), str(error))
                )
            else:
                if manifest.get("result_digest") != complete.payload.get(
                    "result_digest"
                ):
                    issues.append(
                        Issue(
                            INCONSISTENT,
                            str(manifest_file),
                            "manifest result_digest disagrees with journal",
                        )
                    )
    issues.extend(_quarantine_issues(directory))
    issues.extend(_quarantine_issues(checkpoint_dir))
    return issues


def render_issues(issues: list[Issue]) -> str:
    """Human-readable report (one line per issue, or an all-clear)."""
    if not issues:
        return "verify-data: all checks passed"
    lines = [f"verify-data: {len(issues)} issue(s)"]
    lines.extend(f"  {issue}" for issue in issues)
    return "\n".join(lines)


def issues_as_json(issues: list[Issue]) -> str:
    """The findings as a JSON document (for tooling/CI)."""
    return json.dumps(
        [
            {"kind": issue.kind, "path": issue.path, "detail": issue.detail}
            for issue in issues
        ],
        indent=2,
        sort_keys=True,
    )
