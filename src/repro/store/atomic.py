"""Crash-safe file writes and checksummed JSON manifests.

Every on-disk manifest, checkpoint, and journal in the reproduction is
written through this module, so a process killed mid-write can never
leave a half-written file where the pipeline will later read it. The
invariant is the classic one:

    write to a temp file in the same directory → fsync the file →
    atomically rename over the target → fsync the directory.

:func:`publish` is the one implementation of that order: the caller
fills the temp it yields, and the block's clean exit does the rest.
After it (or :func:`atomic_write_bytes`, which writes through it)
returns, the target durably holds the complete new contents; if the
process dies at any earlier point, the target still holds the complete
previous contents (or is still absent). Stray ``*.tmp`` files from
killed writers are harmless and are never read by any loader.

JSON manifests additionally carry a ``checksum`` field — the SHA-256 of
the canonical encoding of the rest of the document — so silent disk
corruption (or a torn write that somehow survived) is *detected* on
load, not consumed. :func:`load_checked_json` quarantines a corrupt
manifest by renaming it aside, leaving the caller free to recompute.

Append-only logs (the run journal, a run's trace) cannot temp-rename.
They are checksummed JSONL, one record per line: each line is encoded
by :func:`encode_checked_line` and read back by
:func:`read_checked_lines`, which tells a torn tail from damage, and
:func:`truncate_file` is their recovery step, cutting a torn tail off
in place. A line appended through :meth:`CheckedLines.encode` (the
journal's) also carries ``prev``, the SHA-256 of every byte before it,
so a read checks the bytes before the newest line with one hash and
decodes only the lines it is asked for.

Lint rules ``DET008`` and ``DET016`` statically enforce that
storage-layer code routes its writes, and the package its renames,
through here.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Generic, Iterator, TypeVar

#: Suffix appended to the target name for in-flight temp files.
TMP_SUFFIX = ".tmp"

#: Suffix given to quarantined (corrupt) files.
QUARANTINE_SUFFIX = ".corrupt"

#: Manifest key holding the document's own integrity checksum.
CHECKSUM_KEY = "checksum"

#: Log record key chaining a line to the bytes before it: their
#: SHA-256 hex digest, inside the line's checksummed body.
PREV_KEY = "prev"

#: What precedes the value of ``type``, the last key of every line
#: :func:`encode_checked_line` writes (its keys are sorted).
_TYPE_KEY = b', "type": "'


#: A log's record type, built from one verified line's fields.
Record = TypeVar("Record")


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


def encode_checked_line(
    body: dict[str, Any], telemetry: dict[str, Any] | None = None
) -> bytes:
    """One checksummed JSONL line: ``body`` with the SHA-256 of its
    canonical encoding, plus a ``telemetry`` field outside the checksum
    when one is given. Keys are sorted, so ``type`` is the last one."""
    document = dict(body)
    document[CHECKSUM_KEY] = content_digest(body)
    if telemetry:
        document["telemetry"] = telemetry
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def parse_checked_line(
    line: bytes, record: Callable[..., Record]
) -> tuple[Record, Any] | None:
    """The verified record on one line (without its newline) and the
    ``prev`` it carries (None if it carries none), or None.

    ``record`` is called with the line's ``seq``, ``run_id``, ``type``
    and ``payload``, and with its ``telemetry`` only when the line has
    one, so a record type without that field refuses such a line.
    """
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    recorded = document.pop(CHECKSUM_KEY, None)
    extra = {}
    if "telemetry" in document:
        telemetry = document.pop("telemetry")
        extra["telemetry"] = telemetry if isinstance(telemetry, dict) else {}
    if not isinstance(recorded, str) or content_digest(document) != recorded:
        return None
    try:
        found = record(
            seq=int(document["seq"]),
            run_id=str(document["run_id"]),
            type=str(document["type"]),
            payload=dict(document["payload"]),
            **extra,
        )
    except (KeyError, TypeError, ValueError):
        return None
    return found, document.get(PREV_KEY)


class CheckedLines(Generic[Record]):
    """The verified lines of one checksummed JSONL log, each decoded
    when first read, and the SHA-256 of every verified byte, which
    :meth:`encode` writes into the next line as its ``prev``.
    :func:`read_checked_lines` reads one.
    """

    def __init__(
        self,
        path: Path,
        record: Callable[..., Record],
        damaged: Callable[[str], Exception],
        noun: str,
    ) -> None:
        self._path = path
        self._lines: list[bytes] = []  # each without its newline
        self._chain = hashlib.sha256()
        self._record = record
        self._damaged = damaged
        self._noun = noun
        self._decoded: list[Record | None] = []

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index: int) -> Record:
        index = range(len(self))[index]
        found = self._decoded[index]
        if found is None:
            parsed = self._parse(self._lines[index], index)
            if parsed is None:  # forged: the chain vouches for other bytes
                raise self._damage(index, _FAILED)
            found = self._decoded[index] = parsed[0]
        return found

    def __iter__(self) -> Iterator[Record]:
        return (self[index] for index in range(len(self)))

    def newest(self, types: tuple[str, ...]) -> int:
        """The index of the newest record whose ``type`` is one of
        ``types``, or -1. A line whose type :func:`_type_at_end` reads is
        not decoded to find it, and once a type is read, a line with the
        same ending is passed over by that ending alone."""
        wanted = {kind.encode("utf-8") for kind in types}
        passed: tuple[bytes, ...] = ()  # the endings of other types
        for index in range(len(self._lines) - 1, -1, -1):
            line = self._lines[index]
            if line.endswith(passed):
                continue
            kind = _type_at_end(line)
            if kind is None:
                found: Any = self[index]
                if found.type in types:
                    return index
            elif kind in wanted:
                return index
            else:
                passed += (_TYPE_KEY + kind + b'"}',)
        return -1

    def encode(self, body: dict[str, Any]) -> bytes:
        """``body`` as the next line, carrying ``prev``."""
        return encode_checked_line({**body, PREV_KEY: self._chain.hexdigest()})

    def append(self, line: bytes, found: Record) -> None:
        """Take ``line`` (with its newline), durably written after the
        verified bytes, as the record ``found``."""
        self._lines.append(line[:-1])
        self._decoded.append(found)
        self._chain.update(line)

    def _damage(self, index: int, reason: str) -> Exception:
        """The error naming record ``index`` of a damaged log."""
        return self._damaged(
            f"{self._path}: record {index} {reason} — {self._noun} damaged, "
            "not torn"
        )

    def _parse(self, line: bytes, index: int) -> tuple[Record, Any] | None:
        """:func:`parse_checked_line` of ``line``, if it verifies as
        record ``index``."""
        parsed: Any = parse_checked_line(line, self._record)
        return parsed if parsed is not None and parsed[0].seq == index else None

    def _adopt(self, lines: list[bytes], data: bytes, end: int) -> int | None:
        """Keep ``lines`` unwalked if the last one verifies and its
        ``prev`` hashes every byte before it; returns their length, or
        None. Only that line is decoded. ``end`` is where the lines end."""
        newest = len(lines) - 1
        parsed = self._parse(lines[newest], newest) if lines else None
        if parsed is None or parsed[1] is None:
            return None
        start = end - len(lines[newest]) - 1
        view = memoryview(data)
        chain = hashlib.sha256(view[:start])
        if chain.hexdigest() != parsed[1]:
            return None
        chain.update(view[start:end])
        self._lines, self._chain = lines, chain
        self._decoded = [None] * newest + [parsed[0]]
        return end

    def _walk(self, lines: list[bytes], torn: bool) -> int:
        """Verify ``lines`` in order; returns the kept lines' length.
        The final line is a torn tail when it fails its checksum or its
        ``seq`` and ``torn`` allows it. A line failing with lines after
        it is named first, as before lines carried ``prev``; failing
        that, the first line after line 0 whose ``prev`` does not hash
        the bytes before it, the final line too, names the record before
        it."""
        verified, changed = 0, None
        for index, line in enumerate(lines):
            parsed: Any = parse_checked_line(line, self._record)
            found, prev = parsed or (None, None)
            in_seq = found is not None and found.seq == index
            if not (in_seq or torn and index == len(lines) - 1):
                raise self._damage(index, _FAILED)
            chained = prev in (None, self._chain.hexdigest())
            if index and changed is None and not chained:
                changed = index
            if not in_seq:
                break  # the final record is the torn tail
            self._lines.append(line)
            self._decoded.append(found)
            self._chain.update(line)
            self._chain.update(b"\n")
            verified += len(line) + 1
        if changed is not None:
            raise self._damage(
                changed - 1,
                f"was changed: record {changed}'s prev is not the SHA-256 of "
                "the bytes before it",
            )
        return verified


def _type_at_end(line: bytes) -> bytes | None:
    """The ``type`` of the JSON object on ``line`` when the line ends
    ``, "type": "<text>"}`` and the text holds no quote or backslash, as
    every line :func:`encode_checked_line` writes does for a type that
    JSON writes without escapes (``type`` is its last key); None
    otherwise. Exact on any JSON object: its last member is a top-level
    ``type`` and the last of a key's values is the one a decoder keeps."""
    if not line.endswith(b'"}'):
        return None
    start = line.rfind(_TYPE_KEY)
    kind = line[start + len(_TYPE_KEY) : -2]
    if start < 0 or b'"' in kind or b"\\" in kind:
        return None
    return kind


#: Why a line that fails its checksum or its ``seq`` before the tail
#: is damage.
_FAILED = "failed verification with valid records after it"


def read_checked_lines(
    target: Path,
    record: Callable[..., Record],
    damaged: Callable[[str], Exception],
    noun: str,
) -> tuple[CheckedLines[Record], int, int]:
    """A checksummed JSONL log's verified lines, their length in bytes,
    and the file's length. Reads only: the file is left as it is.

    A final line that fails verification (its checksum or its
    ``seq``), or one without its newline, is a torn tail: an append
    that never finished, left out. A line that fails with lines after
    it means the log was damaged after the fact, and raises ``damaged``
    with a message naming the record and ``noun``. Failing that, so
    does a line whose checksum verifies but whose ``prev`` is not the
    SHA-256 of every byte before it, the final line too, in sequence or
    not: a torn append never leaves such a line, so the message names
    the record just before it, which changed after the line was
    appended.

    When the final complete line verifies and its ``prev`` hashes every
    byte before it, those bytes are what an earlier read verified or an
    appender wrote, so only that line is decoded here and the others
    when first read. Any other log is verified line by line.
    """
    log = CheckedLines(target, record, damaged, noun)
    data = target.read_bytes()
    # Whatever follows the last newline is an append that never
    # finished: empty on an intact log.
    *lines, fragment = data.split(b"\n")
    verified = log._adopt(lines, data, len(data) - len(fragment))
    if verified is None:
        verified = log._walk(lines, torn=not fragment)
    return log, verified, len(data)


@contextmanager
def publish(path: str | Path) -> Iterator[Path]:
    """Durably replace ``path`` with the file the block writes.

    Yields the temp beside ``path`` (same directory, so the rename is
    atomic) for the block to fill and close. On a clean exit the temp
    is fsynced, renamed over ``path`` with ``os.replace``, and the
    directory fsynced, in that order. If the block raises, ``path``
    keeps its previous contents and the temp is left for the next write
    to overwrite.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + TMP_SUFFIX)
    yield temp
    fd = os.open(temp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(temp, target)
    fsync_directory(target.parent)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Durably replace ``path``'s contents with ``data``; returns the
    target path."""
    with publish(path) as temp:
        with open(temp, "wb") as handle:
            handle.write(data)
    return Path(path)


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
