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
    write_checked_json,
)
from repro.store.base import DOMAIN, GLUE
from repro.store.changelog import DeltaEvent, group_batches
from repro.store.sqlite import SqliteDelegationStore

if TYPE_CHECKING:
    from repro.zonedb.database import IngestPolicy, ZoneDatabase

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

    def last_batch_day(self) -> int | None:
        """The final batch day inside the window, if any."""
        deltas = self.deltas()
        return deltas[-1][0] if deltas else None


def manifest_path(dataset_path: str | Path) -> Path:
    """The manifest sidecar path for a dataset file."""
    path = Path(dataset_path)
    return path.with_name(path.name + ".manifest.json")


def write_dataset(
    zonedb: "ZoneDatabase",
    path: str | Path,
    *,
    scenario_digest: str | None = None,
) -> Path:
    """Persist a zone database as an on-disk SQLite dataset.

    Copies every delegation interval and presence history into a fresh
    SQLite store at ``path``, carries the façade state (covered TLDs,
    horizon, ingest reports) across, stamps the producing scenario's
    digest, and writes the manifest sidecar. Returns ``path``.
    """
    target_path = Path(path)
    target_path.parent.mkdir(parents=True, exist_ok=True)
    if target_path.exists():
        target_path.unlink()
    source = zonedb.store
    target = SqliteDelegationStore(target_path)
    for domain in source.all_domains():
        for record in source.domain_records(domain):
            target.add_record(record.domain, record.ns, record.start, record.end)
    for kind in (GLUE, DOMAIN):
        for key in source.presence_keys(kind):
            for interval in source.presence_intervals(kind, key):
                target.add_presence(kind, key, interval.start, interval.end)
    # Carry the delta stream across so incremental consumers can replay
    # the dataset's history (record-only: the intervals are copied above).
    delta_count = 0
    for batch_day, event in source.deltas_since(None):
        target.record_delta(event, batch_day)
        delta_count += 1
    # The façade's flush() serializes its state into its own store's
    # metadata; route that serialization into the target store.
    zonedb.flush()
    facade_meta = source.get_meta(zonedb._META_KEY)
    if facade_meta is not None:
        target.set_meta(zonedb._META_KEY, facade_meta)
    if scenario_digest is not None:
        target.set_meta(SCENARIO_DIGEST_KEY, scenario_digest)
    manifest = {
        "format": DATASET_FORMAT,
        "backend": target.backend_name,
        "dataset": target_path.name,
        "scenario_digest": scenario_digest,
        "domains": zonedb.domain_count(),
        "nameservers": zonedb.nameserver_count(),
        "horizon": zonedb.horizon,
        "tlds": sorted(zonedb.covered_tlds),
        "deltas": delta_count,
    }
    target.close()
    # Hash after close: the WAL is truncated into the main file, so the
    # digest covers the complete, self-contained dataset bytes.
    manifest["dataset_sha256"] = file_sha256(target_path)
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
            "deltas": len(store.deltas_since(None)),
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


def open_dataset(
    path: str | Path, *, ingest_policy: "IngestPolicy | None" = None
) -> "ZoneDatabase":
    """Open an on-disk dataset as a zone database (SQLite backend).

    The manifest sidecar is verified against its embedded checksum
    before the dataset is trusted; a corrupt sidecar is quarantined and
    recomputed from the store (deep dataset-content verification is
    ``riskybiz verify-data``'s job — opening only guards the cheap
    invariants).
    """
    from repro.zonedb.database import ZoneDatabase

    dataset_path = Path(path)
    if not dataset_path.exists():
        raise FileNotFoundError(f"no dataset at {dataset_path}")
    if manifest_path(dataset_path).exists():
        load_manifest(dataset_path)  # verify; quarantine-and-recompute
    store = SqliteDelegationStore(dataset_path)
    return ZoneDatabase(store=store, ingest_policy=ingest_policy)
