"""The storage layer: pluggable delegation stores and durable files.

This package is the persistence spine of the reproduction. Everything
above it — the zone-database façade, the detection pipeline, the
analyses — consumes interval data through the
:class:`~repro.store.base.DelegationStore` protocol, so the same code
runs against the in-memory structure the simulator writes into
(:class:`~repro.store.memory.MemoryDelegationStore`) or an on-disk
SQLite dataset (:class:`~repro.store.sqlite.SqliteDelegationStore`)
produced by an earlier ``riskybiz simulate`` run.

Layering (see ``docs/ARCHITECTURE.md``)::

    ecosystem (simulate)  →  store  ←  detection (detect)  ←  analysis

* :mod:`repro.store.base` — the protocol plus the shared record types;
* :mod:`repro.store.memory` — dict-of-intervals backend (the seed
  implementation, moved behind the interface);
* :mod:`repro.store.sqlite` — SQLite-backed on-disk backend;
* :mod:`repro.store.changelog` — the typed delta events every
  mutation is recorded as, and their grouping into batch days;
* :mod:`repro.store.dataset` — dataset files + manifests, and the
  :class:`~repro.store.dataset.DeltaView` the incremental detection
  engine consumes;
* :mod:`repro.store.artifacts` — the content-addressed in-memory
  artifact memo (digest-keyed, bounded LRU);
* :mod:`repro.store.atomic` — crash-safe writes (temp → fsync →
  rename, in the one ``publish``), the canonical-JSON content digest,
  and checksummed JSON manifests; every manifest, checkpoint, dataset
  and journal write routes through it (lint rules ``DET008`` and
  ``DET016``);
* :mod:`repro.store.verify` — the read-only integrity walker behind
  ``riskybiz verify-data``.
"""

from repro.store.artifacts import (
    ArtifactCache,
    ArtifactKey,
    default_cache,
    scenario_digest,
)
from repro.store.atomic import (
    IntegrityError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    content_digest,
    file_sha256,
    load_checked_json,
    quarantine,
    verify_checked_json,
    write_checked_json,
)
from repro.store.base import DelegationRecord, DelegationStore, PresenceHistory
from repro.store.changelog import DELTA_KINDS, DeltaEvent, group_batches
from repro.store.dataset import (
    DATASET_FORMAT,
    DeltaView,
    load_manifest,
    open_dataset,
    rebuild_manifest,
    write_dataset,
)
from repro.store.memory import MemoryDelegationStore
from repro.store.sqlite import SqliteDelegationStore
from repro.store.verify import Issue, verify_dataset, verify_run_dir

__all__ = [
    "ArtifactCache",
    "ArtifactKey",
    "DATASET_FORMAT",
    "DELTA_KINDS",
    "DelegationRecord",
    "DelegationStore",
    "DeltaEvent",
    "DeltaView",
    "IntegrityError",
    "Issue",
    "group_batches",
    "MemoryDelegationStore",
    "PresenceHistory",
    "SqliteDelegationStore",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "content_digest",
    "default_cache",
    "file_sha256",
    "load_checked_json",
    "load_manifest",
    "open_dataset",
    "quarantine",
    "rebuild_manifest",
    "scenario_digest",
    "verify_checked_json",
    "verify_dataset",
    "verify_run_dir",
    "write_checked_json",
    "write_dataset",
]
