"""Atomic writes, checksummed manifests, and self-verifying disk state."""

from __future__ import annotations

import json
import os

import pytest

from repro.store.atomic import (
    IntegrityError,
    QUARANTINE_SUFFIX,
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    content_digest,
    file_sha256,
    load_checked_json,
    quarantine,
    verify_checked_json,
    write_checked_json,
)


class TestAtomicWrite:
    def test_writes_contents(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "file.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "file.bin"
        atomic_write_bytes(target, b"deep")
        assert target.read_bytes() == b"deep"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "file.bin", b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_json_is_sorted_and_newline_terminated(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"b": 2, "a": 1})
        text = target.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


class TestChecksummedJson:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "manifest.json"
        write_checked_json(target, {"kind": "dataset", "count": 3})
        assert verify_checked_json(target) == {"kind": "dataset", "count": 3}

    def test_checksum_covers_canonical_body(self, tmp_path):
        target = tmp_path / "manifest.json"
        write_checked_json(target, {"kind": "dataset"})
        document = json.loads(target.read_text())
        assert document["checksum"] == content_digest({"kind": "dataset"})

    def test_tampered_field_detected(self, tmp_path):
        target = tmp_path / "manifest.json"
        write_checked_json(target, {"count": 3})
        document = json.loads(target.read_text())
        document["count"] = 4
        target.write_text(json.dumps(document))
        with pytest.raises(IntegrityError):
            verify_checked_json(target)

    def test_truncated_file_detected(self, tmp_path):
        target = tmp_path / "manifest.json"
        write_checked_json(target, {"count": 3})
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(IntegrityError):
            verify_checked_json(target)

    def test_missing_checksum_detected(self, tmp_path):
        target = tmp_path / "manifest.json"
        target.write_text('{"count": 3}')
        with pytest.raises(IntegrityError):
            verify_checked_json(target)

    def test_load_quarantines_corrupt(self, tmp_path):
        target = tmp_path / "manifest.json"
        target.write_text("{not json")
        assert load_checked_json(target) is None
        assert not target.exists()
        assert (tmp_path / ("manifest.json" + QUARANTINE_SUFFIX)).exists()

    def test_load_returns_verified_body(self, tmp_path):
        target = tmp_path / "manifest.json"
        write_checked_json(target, {"kind": "x"})
        assert load_checked_json(target) == {"kind": "x"}

    def test_quarantine_numbers_clashes(self, tmp_path):
        for _ in range(3):
            target = tmp_path / "f.json"
            target.write_text("junk")
            quarantine(target)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["f.json.corrupt", "f.json.corrupt.1", "f.json.corrupt.2"]

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_file_sha256_streams(self, tmp_path):
        target = tmp_path / "big.bin"
        target.write_bytes(os.urandom(3 * (1 << 20)))
        import hashlib

        assert file_sha256(target) == hashlib.sha256(target.read_bytes()).hexdigest()


class TestDatasetManifestIntegrity:
    """Dataset manifests verify on open and self-heal from corruption."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory, tiny_bundle):
        from repro.store.dataset import write_dataset

        path = tmp_path_factory.mktemp("ds") / "dataset.sqlite"
        write_dataset(
            tiny_bundle.world.zonedb, path, scenario_digest="ab" * 32
        )
        return path

    def test_manifest_records_dataset_hash(self, dataset):
        from repro.store.dataset import load_manifest

        manifest = load_manifest(dataset)
        assert manifest["dataset_sha256"] == file_sha256(dataset)

    def test_corrupt_manifest_quarantined_and_rebuilt(self, dataset):
        from repro.store.dataset import load_manifest, manifest_path, open_dataset

        sidecar = manifest_path(dataset)
        original = load_manifest(dataset)
        sidecar.write_text(sidecar.read_text().replace('"domains"', '"d0mains"'))
        zonedb = open_dataset(dataset)
        try:
            rebuilt = load_manifest(dataset)
        finally:
            zonedb.store.close()
        assert rebuilt == original
        quarantined = list(sidecar.parent.glob("*" + QUARANTINE_SUFFIX + "*"))
        assert quarantined
        for stray in quarantined:  # leave the fixture clean for other tests
            stray.unlink()

    def test_missing_manifest_rebuilt(self, dataset):
        from repro.store.dataset import load_manifest, manifest_path

        sidecar = manifest_path(dataset)
        original = load_manifest(dataset)
        sidecar.unlink()
        assert load_manifest(dataset) == original
        assert sidecar.exists()
