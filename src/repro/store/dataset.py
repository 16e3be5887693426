"""On-disk datasets, their manifests, and sharded views over them.

A *dataset* is one SQLite delegation store plus a JSON manifest sidecar
that records the scenario digest it was produced from — so a later
``riskybiz detect`` run can verify it is analyzing the simulate output
it thinks it is (and ``riskybiz lint`` can flag manifests that lost
their digest).

A :class:`DatasetView` is what the detection pipeline's stages consume:
a zone database + WHOIS archive scoped to one :class:`ShardSpec` — a
deterministic per-nameserver partition assigned via
:func:`~repro.faults.rng.stable_hash`, so shard membership is stable
across processes and runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.store.atomic import (
    file_sha256,
    load_checked_json,
    write_checked_json,
)
from repro.store.base import DOMAIN, GLUE
from repro.store.changelog import DeltaEvent, group_batches
from repro.store.sqlite import SqliteDelegationStore

if TYPE_CHECKING:
    from repro.whois.archive import WhoisArchive
    from repro.zonedb.database import IngestPolicy, ZoneDatabase

#: Format tag carried by dataset manifest sidecars.
DATASET_FORMAT = "riskybiz-dataset/1"

#: Store metadata key holding the producing scenario's digest.
SCENARIO_DIGEST_KEY = "scenario_digest"


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One deterministic nameserver shard out of ``count``.

    Assignment is ``stable_hash(ns) % count == index``: process-stable,
    backend-independent, and a true partition (every nameserver belongs
    to exactly one shard).
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} outside [0, {self.count})"
            )

    def owns(self, ns: str) -> bool:
        """True if ``ns`` belongs to this shard."""
        # Imported lazily: repro.faults pulls in the resolver stack, which
        # itself imports the zonedb façade built on this package.
        from repro.faults.rng import stable_hash

        return stable_hash(ns) % self.count == self.index

    @classmethod
    def partition(cls, count: int) -> tuple["ShardSpec", ...]:
        """All shards of a ``count``-way partition, in index order."""
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        return tuple(cls(index, count) for index in range(count))


@dataclass(frozen=True)
class DatasetView:
    """The slice of a dataset one pipeline stage run consumes.

    With ``shard is None`` the view is the whole dataset; otherwise
    nameserver iteration (and the population count) is restricted to the
    shard. Domain-side and WHOIS lookups are never shard-filtered: a
    shard owns *nameservers*, but classifying one may require the full
    delegation history of any domain that referenced it.
    """

    zonedb: "ZoneDatabase"
    whois: "WhoisArchive"
    shard: ShardSpec | None = None

    def nameservers(self) -> Iterator[str]:
        """Nameservers in this view, in the backend's iteration order."""
        if self.shard is None:
            yield from self.zonedb.all_nameservers()
            return
        for ns in self.zonedb.all_nameservers():
            if self.shard.owns(ns):
                yield ns

    def nameserver_count(self) -> int:
        """Number of nameservers in this view (shard population)."""
        if self.shard is None:
            return self.zonedb.nameserver_count()
        return sum(1 for _ in self.nameservers())

    def scenario_digest(self) -> str | None:
        """Digest of the scenario this dataset was produced from."""
        return self.zonedb.store.get_meta(SCENARIO_DIGEST_KEY)


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
