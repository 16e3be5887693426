"""Determinism guarantees: same seed, same world — faults or no faults.

Two claims are pinned down here:

1. Running the same scenario twice produces byte-identical observables
   (zone archives, WHOIS dumps, interval histories, dataset files), in
   one interpreter or in two with different hash seeds.
2. Fault injection operates strictly on the world's *outputs*, drawing
   from its own named RNG streams — so enabling faults (or changing one
   fault class's rate) never perturbs the base world, and never
   perturbs the draws of another fault class.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

from repro.ecosystem.config import default_scenario
from repro.ecosystem.world import World
from repro.faults import (
    FaultConfig,
    SnapshotFaultInjector,
    degrade_world,
    snapshot_stream,
    stream_rng,
)

SCALE = 0.05


def _build(faults: FaultConfig | None = None):
    config = default_scenario(2021).scaled(SCALE)
    if faults is not None:
        config = replace(config, faults=faults)
    return World(config).run()


def _fingerprint(result) -> str:
    """A byte-level digest of every observable a run produces."""
    digest = hashlib.sha256()
    for line in result.whois.to_json_lines():
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    records = sorted(
        (r.domain, r.ns, r.start, -1 if r.end is None else r.end)
        for domain in result.zonedb.all_domains()
        for r in result.zonedb.domain_records(domain)
    )
    digest.update(repr(records).encode("utf-8"))
    for tld in sorted(result.zonedb.covered_tlds):
        snapshot = result.zonedb.snapshot_at(result.config.end_day - 1, tld)
        digest.update(snapshot.to_zone().to_text().encode("ascii"))
    return digest.hexdigest()


#: Simulates the scenario at ``argv[2]`` and writes its dataset to ``argv[1]``.
_WRITE_DATASET = """
import sys
from repro.ecosystem.config import default_scenario
from repro.ecosystem.world import World
from repro.store.dataset import write_dataset

world = World(default_scenario(2021).scaled(float(sys.argv[2]))).run()
write_dataset(world.zonedb, sys.argv[1])
"""


def test_dataset_bytes_ignore_the_hash_seed(tmp_path):
    """Nothing that reaches a dataset may iterate a set or frozenset."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    written = []
    for hash_seed in ("1", "2"):
        path = tmp_path / f"hashseed-{hash_seed}" / "dataset.sqlite"
        subprocess.run(
            [sys.executable, "-c", _WRITE_DATASET, str(path), str(SCALE)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            check=True,
        )
        manifest = path.with_name(path.name + ".manifest.json")
        written.append((path.read_bytes(), manifest.read_bytes()))
    assert written[0] == written[1]


@pytest.fixture(scope="module")
def pristine():
    return _build()


def test_same_seed_is_byte_identical(pristine):
    assert _fingerprint(_build()) == _fingerprint(pristine)


def test_enabling_faults_never_perturbs_the_base_world(pristine):
    faulted = _build(FaultConfig.uniform(0.25, seed=99))
    assert _fingerprint(faulted) == _fingerprint(pristine)


def test_degrading_does_not_mutate_the_world(pristine):
    before = _fingerprint(pristine)
    degrade_world(pristine, FaultConfig.uniform(0.2, seed=7), every=30)
    assert _fingerprint(pristine) == before


def test_degradation_is_deterministic(pristine):
    config = FaultConfig.uniform(0.15, seed=11)
    first = degrade_world(pristine, config, every=30)
    second = degrade_world(pristine, config, every=30)
    assert first.snapshot_log == second.snapshot_log
    assert first.whois_log == second.whois_log
    first_records = sorted(
        (r.domain, r.ns, r.start, r.end)
        for d in first.zonedb.all_domains()
        for r in first.zonedb.domain_records(d)
    )
    second_records = sorted(
        (r.domain, r.ns, r.start, r.end)
        for d in second.zonedb.all_domains()
        for r in second.zonedb.domain_records(d)
    )
    assert first_records == second_records
    assert list(first.whois.to_json_lines()) == list(second.whois.to_json_lines())


def test_fault_classes_draw_from_independent_streams(pristine):
    """Raising the WHOIS rates must not reshuffle snapshot faults."""
    snapshots = snapshot_stream(
        pristine.zonedb, every=30, end_day=pristine.config.end_day
    )
    base = FaultConfig(seed=5, snapshot_drop_rate=0.2, snapshot_truncate_rate=0.1)
    with_whois = replace(base, whois_gap_rate=0.5, whois_stale_rate=0.5)
    first = SnapshotFaultInjector(base)
    first.degrade(snapshots)
    second = SnapshotFaultInjector(with_whois)
    second.degrade(snapshots)
    assert first.log == second.log


def test_named_streams_are_stable_and_independent():
    solo = stream_rng(42, "snapshot.drop")
    reference = [solo.random() for _ in range(5)]
    # Interleaving draws from other streams cannot shift this stream.
    alpha = stream_rng(42, "snapshot.drop")
    beta = stream_rng(42, "whois.gap")
    interleaved = []
    for _ in range(5):
        beta.random()
        interleaved.append(alpha.random())
    assert interleaved == reference
    # Distinct names and distinct seeds give distinct streams.
    assert stream_rng(42, "whois.gap").random() != reference[0]
    assert stream_rng(43, "snapshot.drop").random() != reference[0]


def test_zone_archive_bytes_are_reproducible(pristine, tmp_path):
    from repro.zonedb.archive import write_archive

    days = [0, pristine.config.end_day - 1]
    snapshots = [
        pristine.zonedb.snapshot_at(day, tld)
        for day in days
        for tld in sorted(pristine.zonedb.covered_tlds)
    ]
    first = write_archive(tmp_path / "a", snapshots)
    second = write_archive(tmp_path / "b", snapshots)
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]

    whois_a = tmp_path / "a.jsonl"
    whois_b = tmp_path / "b.jsonl"
    pristine.whois.dump(whois_a)
    pristine.whois.dump(whois_b)
    assert whois_a.read_bytes() == whois_b.read_bytes()
