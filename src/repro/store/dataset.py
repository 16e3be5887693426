"""On-disk datasets, their manifests, and windowed delta views.

A *dataset* is one SQLite delegation store plus a JSON manifest sidecar
that records the scenario digest it was produced from — so a later
``riskybiz detect`` run can verify it is analyzing the simulate output
it thinks it is (and ``riskybiz lint`` can flag manifests that lost
their digest).

A :class:`DeltaView` is what the incremental detection engine consumes:
a dataset's recorded delta stream, windowed by batch day and grouped
into per-day batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.store.atomic import (
    file_sha256,
    load_checked_json,
    publish,
    write_checked_json,
)
from repro.store.base import DOMAIN, GLUE
from repro.store.changelog import DeltaEvent, group_batches
from repro.store.sqlite import SqliteDelegationStore, write_tables

if TYPE_CHECKING:
    from repro.zonedb.database import ZoneDatabase

#: Format tag carried by dataset manifest sidecars.
DATASET_FORMAT = "riskybiz-dataset/1"

#: Store metadata key holding the producing scenario's digest.
SCENARIO_DIGEST_KEY = "scenario_digest"


@dataclass(frozen=True)
class DeltaView:
    """A windowed, batched view over a dataset's recorded delta stream.

    The incremental engine consumes history through this: per-day
    batches of :class:`~repro.store.changelog.DeltaEvent`, restricted
    to batch days in ``(since, until]``. ``since`` is a consumer
    watermark — ``None`` means "from the beginning"; ``until=None``
    runs to the end of the recorded stream.
    """

    zonedb: "ZoneDatabase"
    since: int | None = None
    until: int | None = None

    def deltas(self) -> list[tuple[int, DeltaEvent]]:
        """The raw (batch_day, event) pairs inside the window."""
        return self.zonedb.store.deltas_since(self.since, self.until)

    def batches(self) -> list[tuple[int, list[DeltaEvent]]]:
        """Per-day event batches inside the window, in day order."""
        return group_batches(self.deltas())

    def stats(self) -> tuple[int, int]:
        """(deltas, batch days) inside the window, counted by the store."""
        return self.zonedb.store.delta_stats(self.since, self.until)

    def last_batch_day(self) -> int | None:
        """The final batch day inside the window, if any."""
        return self.zonedb.store.last_batch_day(self.since, self.until)


def manifest_path(dataset_path: str | Path) -> Path:
    """The manifest sidecar path for a dataset file."""
    path = Path(dataset_path)
    return path.with_name(path.name + ".manifest.json")


def _wal_sidecars(path: Path) -> tuple[Path, Path]:
    """The ``-wal``/``-shm`` files SQLite keeps beside a WAL database."""
    return (
        path.with_name(path.name + "-wal"),
        path.with_name(path.name + "-shm"),
    )


def write_dataset(
    zonedb: "ZoneDatabase",
    path: str | Path,
    *,
    scenario_digest: str | None = None,
) -> Path:
    """Persist a zone database as an on-disk SQLite dataset.

    Streams every delegation interval, presence history and recorded
    delta into a new SQLite file, a table at a time, carries the façade
    state (covered TLDs, horizon, ingest reports) across, stamps the
    producing scenario's digest, and writes the manifest sidecar.
    Returns ``path``.

    The file is built in the temp of :func:`~repro.store.atomic.publish`,
    so a writer killed mid-load leaves the previous dataset whole; the
    next write removes its leftover.
    """
    target_path = Path(path)
    source = zonedb.store
    # The façade's flush() serializes its state into its own store's
    # metadata; the dataset carries that serialization across.
    zonedb.flush()
    meta: list[tuple[str, str]] = []
    facade_meta = source.get_meta(zonedb._META_KEY)
    if facade_meta is not None:
        meta.append((zonedb._META_KEY, facade_meta))
    if scenario_digest is not None:
        meta.append((SCENARIO_DIGEST_KEY, scenario_digest))
    with publish(target_path) as temp:
        for leftover in (temp, *_wal_sidecars(temp)):
            leftover.unlink(missing_ok=True)
        rows = write_tables(
            temp,
            pairs=(
                record.as_tuple()
                for _, records in source.iter_domain_records()
                for record in records
            ),
            presence=(
                (kind, key, interval.start, interval.end)
                for kind in (GLUE, DOMAIN)
                for key in source.presence_keys(kind)
                for interval in source.presence_intervals(kind, key)
            ),
            # The delta stream lets incremental consumers replay the
            # dataset's history (record-only: the intervals are above).
            deltas=(
                (batch_day, event.kind, event.day, event.name, event.ns)
                for batch_day, event in source.deltas_since(None)
            ),
            meta=meta,
        )
        # Nothing of the previous dataset may outlive the replace: its
        # manifest would vouch for the wrong bytes, and a stale WAL
        # would be replayed into the new file on its first open.
        for stale in (manifest_path(target_path), *_wal_sidecars(target_path)):
            stale.unlink(missing_ok=True)
    manifest = {
        "format": DATASET_FORMAT,
        "backend": SqliteDelegationStore.backend_name,
        "dataset": target_path.name,
        "scenario_digest": scenario_digest,
        "domains": zonedb.domain_count(),
        "nameservers": zonedb.nameserver_count(),
        "horizon": zonedb.horizon,
        "tlds": sorted(zonedb.covered_tlds),
        "deltas": rows["deltas"],
        "dataset_sha256": file_sha256(target_path),
    }
    write_checked_json(manifest_path(target_path), manifest)
    return target_path


def rebuild_manifest(dataset_path: str | Path) -> dict[str, Any]:
    """Recompute a dataset's manifest from the dataset itself.

    Used when the manifest sidecar is missing or failed its checksum
    (the corrupt file has already been quarantined): everything in the
    manifest is derivable from the store, so integrity failures of the
    *sidecar* never invalidate the dataset. Writes the fresh manifest
    and returns its payload.
    """
    from repro.zonedb.database import ZoneDatabase

    target_path = Path(dataset_path)
    store = SqliteDelegationStore(target_path)
    try:
        zonedb = ZoneDatabase(store=store)
        manifest = {
            "format": DATASET_FORMAT,
            "backend": store.backend_name,
            "dataset": target_path.name,
            "scenario_digest": store.get_meta(SCENARIO_DIGEST_KEY),
            "domains": zonedb.domain_count(),
            "nameservers": zonedb.nameserver_count(),
            "horizon": zonedb.horizon,
            "tlds": sorted(zonedb.covered_tlds),
            "deltas": store.delta_count(),
        }
    finally:
        store.close()
    manifest["dataset_sha256"] = file_sha256(target_path)
    write_checked_json(manifest_path(target_path), manifest)
    return manifest


def load_manifest(dataset_path: str | Path) -> dict[str, Any]:
    """The verified manifest for a dataset, recomputed if corrupt.

    A manifest that fails its content checksum is quarantined
    (``*.corrupt``) and rebuilt from the dataset; a missing manifest is
    simply rebuilt. The returned payload always verifies.
    """
    sidecar = manifest_path(dataset_path)
    if sidecar.exists():
        body = load_checked_json(sidecar)
        if body is not None:
            return body
    return rebuild_manifest(dataset_path)


def open_dataset(path: str | Path) -> "ZoneDatabase":
    """Open an on-disk dataset, read-only, as a zone database.

    The manifest sidecar is verified against its embedded checksum
    before the dataset is trusted; a corrupt sidecar is quarantined and
    recomputed from the store (deep dataset-content verification is
    ``riskybiz verify-data``'s job — opening only guards the cheap
    invariants). The store connects read-only, so a stray write fails
    loudly instead of changing the bytes the manifest vouches for.
    """
    from repro.zonedb.database import ZoneDatabase

    dataset_path = Path(path)
    if not dataset_path.exists():
        raise FileNotFoundError(f"no dataset at {dataset_path}")
    if manifest_path(dataset_path).exists():
        load_manifest(dataset_path)  # verify; quarantine-and-recompute
    store = SqliteDelegationStore(dataset_path, read_only=True)
    return ZoneDatabase(store=store)
