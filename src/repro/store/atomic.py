"""Crash-safe file writes and checksummed JSON manifests.

Every on-disk manifest, checkpoint, and journal in the reproduction is
written through this module, so a process killed mid-write can never
leave a half-written file where the pipeline will later read it. The
invariant is the classic one:

    write to a temp file in the same directory → fsync the file →
    atomically rename over the target → fsync the directory.

After :func:`atomic_write_bytes` returns, the target durably holds the
complete new contents; if the process dies at any earlier point, the
target still holds the complete previous contents (or is still absent).
Stray ``*.tmp`` files from killed writers are harmless and are never
read by any loader.

JSON manifests additionally carry a ``checksum`` field — the SHA-256 of
the canonical encoding of the rest of the document — so silent disk
corruption (or a torn write that somehow survived) is *detected* on
load, not consumed. :func:`load_checked_json` quarantines a corrupt
manifest by renaming it aside, leaving the caller free to recompute.

Append-only logs (the run journal, a run's trace) cannot temp-rename;
:func:`truncate_file` is their recovery step, cutting a torn tail off
in place.

Lint rule ``DET008`` statically enforces that storage-layer code routes
its writes through here.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

#: Suffix appended to the target name for in-flight temp files.
TMP_SUFFIX = ".tmp"

#: Suffix given to quarantined (corrupt) files.
QUARANTINE_SUFFIX = ".corrupt"

#: Manifest key holding the document's own integrity checksum.
CHECKSUM_KEY = "checksum"


class IntegrityError(Exception):
    """A checksummed file failed verification."""


def canonical_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON encoding.

    Logically equal payloads digest identically regardless of
    construction order. Run IDs, result digests, scenario digests,
    manifest checksums and journal record checksums are all this.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes (streamed)."""
    digest = hashlib.sha256()
    with open(Path(path), "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table (makes renames durable)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs can be unsupported
        pass
    finally:
        os.close(fd)


def truncate_file(path: str | Path, length: int) -> None:
    """Durably cut ``path`` to its first ``length`` bytes, in place.

    How an append-only log drops a torn tail: the bytes it keeps are
    never rewritten, so a process killed at any point leaves either the
    whole file or the cut one, and reopening recovers the same records
    from both.
    """
    fd = os.open(path, os.O_WRONLY)
    try:
        os.ftruncate(fd, length)
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Durably replace ``path``'s contents with ``data``.

    The temp file lives in the target's directory so the final rename
    is atomic (same filesystem). Returns the target path.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + TMP_SUFFIX)
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    fsync_directory(target.parent)
    return target


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Durably replace ``path``'s contents with ``text``."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str | Path, payload: Any) -> Path:
    """Durably write ``payload`` as pretty-printed, sorted JSON."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def write_checked_json(path: str | Path, payload: dict[str, Any]) -> Path:
    """Atomically write a manifest with an embedded content checksum.

    The ``checksum`` field covers every *other* field's canonical
    encoding; :func:`load_checked_json` recomputes and compares it.
    """
    body = {key: value for key, value in payload.items() if key != CHECKSUM_KEY}
    document = dict(body)
    document[CHECKSUM_KEY] = content_digest(body)
    return atomic_write_json(path, document)


def quarantine(path: str | Path) -> Path:
    """Move a corrupt file aside (``<name>.corrupt``, numbered on clash).

    Returns the quarantine path. The original name becomes free for a
    recomputed replacement.
    """
    source = Path(path)
    candidate = source.with_name(source.name + QUARANTINE_SUFFIX)
    counter = 1
    while candidate.exists():
        candidate = source.with_name(f"{source.name}{QUARANTINE_SUFFIX}.{counter}")
        counter += 1
    os.replace(source, candidate)
    fsync_directory(source.parent)
    return candidate


def verify_checked_json(path: str | Path) -> dict[str, Any]:
    """Load a checksummed manifest, raising :class:`IntegrityError`.

    Raises on unparseable JSON, a missing ``checksum`` field, or a
    checksum mismatch. Does not quarantine — see
    :func:`load_checked_json` for the quarantining loader.
    """
    target = Path(path)
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise IntegrityError(f"{target}: unparseable manifest: {error}") from None
    if not isinstance(document, dict):
        raise IntegrityError(f"{target}: manifest is not a JSON object")
    recorded = document.get(CHECKSUM_KEY)
    if not isinstance(recorded, str):
        raise IntegrityError(f"{target}: manifest has no checksum field")
    body = {k: v for k, v in document.items() if k != CHECKSUM_KEY}
    actual = content_digest(body)
    if actual != recorded:
        raise IntegrityError(
            f"{target}: checksum mismatch (recorded {recorded[:12]}…, "
            f"actual {actual[:12]}…)"
        )
    return body


def load_checked_json(path: str | Path) -> dict[str, Any] | None:
    """Load a checksummed manifest, quarantining it on corruption.

    Returns the verified body (without the ``checksum`` field), or
    ``None`` when the file failed verification and was moved aside —
    the caller should recompute and rewrite.
    """
    target = Path(path)
    try:
        return verify_checked_json(target)
    except IntegrityError:
        quarantine(target)
        return None
