"""End-to-end data verification: the engine behind ``riskybiz verify-data``.

Walks the two kinds of durable state the tool chain writes — datasets
(SQLite file + checksummed manifest) and run directories (journal +
engine checkpoint + result digest) — recomputing every recorded
SHA-256, checking the engine checkpoint against its schema, and
reporting what does not verify. Verification is read-only: nothing is
quarantined or rewritten here (the loaders do that lazily); this module
only *reports*, so it is safe to run against live data.

Each finding is an :class:`Issue` with a machine-usable kind and a
human-readable detail; an empty list means everything verified.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.store.atomic import (
    IntegrityError,
    QUARANTINE_SUFFIX,
    file_sha256,
    verify_checked_json,
)

if TYPE_CHECKING:
    from repro.runner.journal import JournalRecord

#: Issue kinds, for tests and tooling (values double as report labels).
MISSING = "missing"
CHECKSUM_MISMATCH = "checksum-mismatch"
HASH_MISMATCH = "hash-mismatch"
CORRUPT = "corrupt"
QUARANTINED = "quarantined"
INCONSISTENT = "inconsistent"
STALE = "stale"


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
    domain, nameserver and delta counts against the store's.
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
                "deltas": store.delta_count(),
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


# -- run directories ---------------------------------------------------------


def _verify_checkpoint(path: Path, record: "JournalRecord | None") -> list[Issue]:
    """Check the engine checkpoint against the drain record that hashed it.

    ``record`` is the newest ``day-advanced`` record since the last
    ``engine-reset`` (None: nothing durable to check).
    """
    from repro.detection.incremental import load_engine_state

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
        load_engine_state(data)
    except Exception as error:
        return [Issue(CORRUPT, str(path), f"unreadable checkpoint: {error}")]
    return []


def _verify_result(
    path: Path, record: "JournalRecord", *, current: bool
) -> list[Issue]:
    """Check ``result.json`` against the ``run-complete`` record.

    Only a ``current`` record vouches for the file's digest. Once a
    drain or reset is journaled after it, an invocation may have written
    the next result and been killed before journaling it, so only the
    file's checksum is checked; the next invocation completes the run.
    """
    if not path.exists():
        return [
            Issue(
                MISSING,
                str(path),
                f"{record.type} record {record.seq} journaled but the "
                "result file is missing",
            )
        ]
    try:
        manifest = verify_checked_json(path)
    except IntegrityError as error:
        return [Issue(CHECKSUM_MISMATCH, str(path), str(error))]
    if current and manifest.get("result_digest") != record.payload.get(
        "result_digest"
    ):
        return [
            Issue(INCONSISTENT, str(path), "result_digest disagrees with the journal")
        ]
    return []


def verify_run_dir(run_dir: str | Path) -> list[Issue]:
    """Verify a run directory: journal, engine checkpoint, result.

    Replays the journal (reporting corruption rather than raising),
    recomputes the SHA-256 the journal recorded for the engine
    checkpoint — against its newest drain since the last reset — and
    checks it against the engine-state schema; when the run durably
    completed, verifies ``result.json`` against the journaled digest
    (only its checksum once a later drain or reset is journaled). A
    pickle an older version left is reported ``stale``.
    """
    from repro.runner.execution import (
        CHECKPOINT_DIR_NAME,
        ENGINE_CHECKPOINT_NAME,
        JOURNAL_NAME,
        RESULT_MANIFEST_NAME,
        STALE_NAMES,
    )
    from repro.runner.journal import JournalCorruption, read_journal

    directory = Path(run_dir)
    issues: list[Issue] = []
    journal_path = directory / JOURNAL_NAME
    if not journal_path.exists():
        return [Issue(MISSING, str(journal_path), "run journal does not exist")]
    try:
        journal = read_journal(journal_path)
        # Decodes every record: one the chain vouches for that fails its
        # checksum is reported here, not raised by a query below.
        records = journal.records
    except JournalCorruption as error:
        return [Issue(CORRUPT, str(journal_path), str(error))]

    checkpoint_dir = directory / CHECKPOINT_DIR_NAME
    issues.extend(
        _verify_checkpoint(
            checkpoint_dir / ENGINE_CHECKPOINT_NAME, journal.last_drain
        )
    )

    complete = journal.run_complete
    if complete is not None:
        current = not any(
            record.seq > complete.seq
            and record.type in ("day-advanced", "engine-reset")
            for record in records
        )
        issues.extend(
            _verify_result(
                directory / RESULT_MANIFEST_NAME, complete, current=current
            )
        )
    issues.extend(
        Issue(STALE, str(directory / name), "left by an older version; never read")
        for name in STALE_NAMES
        if (directory / name).exists()
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
