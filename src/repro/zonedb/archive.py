"""On-disk zone archive: directories of daily master-file snapshots.

Mirrors how raw zone file collections are laid out (one file per TLD per
day) so the ingestion pipeline can be exercised end-to-end from text
files, exactly as DZDB ingests CZDS drops:

    archive_root/
        com/
            0000120.zone      # day index, zero padded
        biz/
            0000120.zone
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

from repro.dnscore.errors import DnsError
from repro.dnscore.names import Name
from repro.zonedb.database import IngestPolicy, ZoneDatabase
from repro.zonedb.snapshot import ZoneSnapshot

_DAY_WIDTH = 7


def _canonical_or_raw(text: str) -> str:
    """Canonicalize a name, passing invalid ones through untouched.

    Archive parsing must not crash on a corrupt record: invalid names are
    preserved verbatim so ingestion can skip and *count* them (or raise,
    under a strict policy) instead of the parser dying mid-file.
    """
    try:
        return Name(text).text
    except DnsError:
        return text.strip().rstrip(".")


def _parse_snapshot(day: int, tld: str, text: str) -> ZoneSnapshot:
    """Parse one zone file's text into a snapshot, tolerating corruption."""
    delegations: dict[str, set[str]] = {}
    glue: dict[str, set[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(";") or line.startswith("$ORIGIN"):
            continue
        parts = line.split(None, 4)
        if len(parts) != 5 or parts[2].upper() != "IN":
            continue
        owner, _ttl, _klass, rtype, rdata = parts
        owner = _canonical_or_raw(owner)
        if rtype.upper() == "NS" and owner != tld:
            delegations.setdefault(owner, set()).add(_canonical_or_raw(rdata))
        elif rtype.upper() == "A":
            glue.setdefault(owner, set()).add(rdata.strip())
    return ZoneSnapshot(
        day=day,
        tld=tld,
        delegations={d: frozenset(ns) for d, ns in delegations.items()},
        glue={h: frozenset(a) for h, a in glue.items()},
    )


def snapshot_path(root: str | Path, tld: str, day: int) -> Path:
    """The archive path for one TLD/day snapshot."""
    return Path(root) / tld / f"{day:0{_DAY_WIDTH}d}.zone"


def write_archive(root: str | Path, snapshots: list[ZoneSnapshot]) -> list[Path]:
    """Write snapshots as master-file text; returns the paths written."""
    paths = []
    for snapshot in snapshots:
        path = snapshot_path(root, snapshot.tld, snapshot.day)
        path.parent.mkdir(parents=True, exist_ok=True)
        zone = snapshot.to_zone()
        path.write_text(zone.to_text(), encoding="ascii")
        paths.append(path)
    return paths


def iter_archive(root: str | Path) -> Iterator[ZoneSnapshot]:
    """Stream snapshots from an archive in (day, tld) order."""
    root_path = Path(root)
    entries: list[tuple[int, str, Path]] = []
    if not root_path.exists():
        return
    for tld_dir in sorted(root_path.iterdir()):
        if not tld_dir.is_dir():
            continue
        for zone_file in sorted(tld_dir.glob("*.zone")):
            day = int(zone_file.stem)
            entries.append((day, tld_dir.name, zone_file))
    entries.sort()
    for day, tld, path in entries:
        yield _parse_snapshot(day, tld, path.read_text(encoding="ascii"))


def read_archive(
    root: str | Path,
    *,
    ingest_policy: IngestPolicy | None = None,
) -> ZoneDatabase:
    """Build an in-memory :class:`ZoneDatabase` by ingesting a whole
    archive.

    Pass an :class:`IngestPolicy` to bridge snapshot-day gaps or to fail
    fast on degraded input; pending gap-bridge decisions are finalized
    once the archive is exhausted.
    """
    database = ZoneDatabase(ingest_policy=ingest_policy)
    for snapshot in iter_archive(root):
        database.ingest_snapshot(snapshot)
    database.finalize_pending()
    return database


def archive_size_bytes(root: str | Path) -> int:
    """Total bytes of zone text in an archive (for reporting)."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if filename.endswith(".zone"):
                total += (Path(dirpath) / filename).stat().st_size
    return total
