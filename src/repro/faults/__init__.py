"""Deterministic fault injection for the observational data plane.

The paper's methodology ran on messy inputs: CAIDA-DZDB has missing
zone-file days and truncated snapshots, WHOIS coverage is partial, and
live nameservers time out or answer slowly (§3). This package models
exactly that degradation, reproducibly:

* :class:`~repro.faults.config.FaultConfig` — every fault rate, the
  ingestion gap-bridging window, and the resolver retry policy, in one
  seedable, JSON-serializable value;
* :class:`~repro.faults.injectors.SnapshotFaultInjector` — dropped,
  duplicated, out-of-order, truncated, and record-corrupted daily zone
  snapshots;
* :class:`~repro.faults.injectors.WhoisFaultInjector` — WHOIS coverage
  gaps and stale (never-refreshed) records;
* :class:`~repro.faults.injectors.FlakyBehavior` — nameservers that
  time out, SERVFAIL, or answer slowly, for exercising the resolver's
  retry/timeout model;
* :func:`~repro.faults.apply.degrade_world` — turn one simulated
  world's pristine observables into the degraded data sets a real
  measurement team would have collected;
* :class:`~repro.faults.process.ChaosMonkey` — the *execution*-plane
  injectors: killing a run at stage boundaries and at journal-append
  boundaries, and tearing journal writes mid-record, all within a
  seeded kill budget.

Every injector draws from its own named RNG stream derived from
``FaultConfig.seed``, so enabling one fault class never perturbs
another — and never perturbs the base world, which is built before any
injector runs.
"""

from repro.faults.config import FaultConfig, RetryPolicy
from repro.faults.rng import FaultStreams, stream_rng
from repro.faults.injectors import (
    FlakyBehavior,
    SnapshotFaultInjector,
    SnapshotFaultLog,
    WhoisFaultInjector,
    WhoisFaultLog,
)
from repro.faults.apply import DegradedObservables, degrade_world, snapshot_stream
from repro.faults.process import ChaosKill, ChaosMonkey, ProcessChaosConfig

__all__ = [
    "FaultConfig",
    "RetryPolicy",
    "FaultStreams",
    "stream_rng",
    "FlakyBehavior",
    "SnapshotFaultInjector",
    "SnapshotFaultLog",
    "WhoisFaultInjector",
    "WhoisFaultLog",
    "DegradedObservables",
    "degrade_world",
    "snapshot_stream",
    "ChaosKill",
    "ChaosMonkey",
    "ProcessChaosConfig",
]
