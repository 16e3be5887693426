"""Atomic writes, checksummed manifests, and self-verifying disk state."""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import pytest

from repro.store.atomic import (
    IntegrityError,
    QUARANTINE_SUFFIX,
    TMP_SUFFIX,
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    content_digest,
    file_sha256,
    load_checked_json,
    publish,
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


@contextmanager
def recorded_syncs(monkeypatch: Any) -> Iterator[list[tuple[Any, ...]]]:
    """Record every ``os.fsync`` and ``os.replace``, in call order.

    An fsync is ``("fsync", inode, data)``: the inode synced and, for a
    regular file, its bytes at that moment, read back through the
    descriptor (``publish`` syncs through a read-only one), else None.
    A replace is ``("replace", source, target)``.
    """
    calls: list[tuple[Any, ...]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd: int) -> None:
        info = os.fstat(fd)
        data = None
        if stat.S_ISREG(info.st_mode):
            data = os.pread(fd, info.st_size + 1, 0)
        calls.append(("fsync", info.st_ino, data))
        real_fsync(fd)

    def replace(source: Any, target: Any) -> None:
        calls.append(("replace", Path(source), Path(target)))
        real_replace(source, target)

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", fsync)
        patch.setattr(os, "replace", replace)
        yield calls


def assert_published(calls: list[tuple[Any, ...]], target: Path) -> None:
    """``target`` was published in order: its temp's last write, an
    fsync of the temp, ``os.replace(temp, target)``, then an fsync of
    the target's directory."""
    temp = target.with_name(target.name + TMP_SUFFIX)
    index = calls.index(("replace", temp, target))
    # A rename keeps the inode, so the temp synced is the target now.
    assert calls[index - 1 : index] == [
        ("fsync", target.stat().st_ino, target.read_bytes())
    ]
    assert calls[index + 1 : index + 2] == [
        ("fsync", target.parent.stat().st_ino, None)
    ]


class TestPublishOrder:
    """The one publish function syncs, renames and syncs in order."""

    def test_atomic_write_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        with recorded_syncs(monkeypatch) as calls:
            atomic_write_bytes(target, b"new contents")
        assert len(calls) == 3
        assert_published(calls, target)

    def test_write_dataset(self, tmp_path, monkeypatch, tiny_bundle):
        from repro.store.dataset import manifest_path, write_dataset

        target = tmp_path / "dataset.sqlite"
        with recorded_syncs(monkeypatch) as calls:
            write_dataset(tiny_bundle.world.zonedb, target)
        assert [call[0] for call in calls].count("replace") == 2
        assert_published(calls, target)
        assert_published(calls, manifest_path(target))

    def test_a_raise_in_the_block_publishes_nothing(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with publish(target) as temp:
                temp.write_bytes(b"half")
                raise RuntimeError("killed mid-write")
        assert target.read_bytes() == b"old"
        atomic_write_bytes(target, b"new")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


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
