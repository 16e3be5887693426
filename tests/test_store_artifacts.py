"""Tests for the content-addressed artifact memo (repro.store.artifacts)."""

from __future__ import annotations

import pytest

from repro.ecosystem.config import default_scenario
from repro.store.artifacts import (
    ArtifactCache,
    ArtifactKey,
    default_cache,
    scenario_digest,
)
from repro.store.atomic import content_digest


class TestContentDigest:
    def test_key_order_does_not_matter(self):
        assert content_digest({"a": 1, "b": 2}) == content_digest({"b": 2, "a": 1})

    def test_values_matter(self):
        assert content_digest({"a": 1}) != content_digest({"a": 2})

    def test_is_sha256_hex(self):
        digest = content_digest({"a": 1})
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_scenario_digest_tracks_config(self):
        base = default_scenario(2021)
        assert scenario_digest(base) == scenario_digest(default_scenario(2021))
        assert scenario_digest(base) != scenario_digest(default_scenario(7))
        assert scenario_digest(base) != scenario_digest(base.scaled(0.5))


class TestArtifactKey:
    def test_options_distinguish_keys(self):
        plain = ArtifactKey.build("bundle", "s" * 64)
        mined = ArtifactKey.build("bundle", "s" * 64, {"mine_patterns": True})
        assert plain.digest != mined.digest

    def test_none_options_equal_empty_options(self):
        assert ArtifactKey.build("k", "s").digest == ArtifactKey.build(
            "k", "s", {}
        ).digest

    def test_kind_distinguishes_keys(self):
        assert (
            ArtifactKey.build("world", "s").digest
            != ArtifactKey.build("bundle", "s").digest
        )


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = ArtifactCache(capacity=4)
        key = ArtifactKey.build("k", "s")
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_identity_preserved(self):
        """Cached artifacts come back as the same object (bundle fixtures
        rely on this: reproduce(...) is reproduce(...))."""
        cache = ArtifactCache(capacity=4)
        key = ArtifactKey.build("k", "s")
        value = {"payload": [1, 2, 3]}
        cache.put(key, value)
        assert cache.get(key) is value

    def test_lru_bound_evicts_oldest(self):
        cache = ArtifactCache(capacity=2)
        keys = [ArtifactKey.build("k", "s", {"i": i}) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache) == 2
        assert keys[0] not in cache
        assert keys[1] in cache and keys[2] in cache

    def test_get_refreshes_recency(self):
        cache = ArtifactCache(capacity=2)
        keys = [ArtifactKey.build("k", "s", {"i": i}) for i in range(3)]
        cache.put(keys[0], 0)
        cache.put(keys[1], 1)
        cache.get(keys[0])  # 0 becomes most recent; 1 is now oldest
        cache.put(keys[2], 2)
        assert keys[0] in cache
        assert keys[1] not in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)

    def test_get_or_create_builds_once(self):
        cache = ArtifactCache(capacity=4)
        key = ArtifactKey.build("k", "s")
        calls = []
        build = lambda: calls.append(1) or "built"  # noqa: E731
        assert cache.get_or_create(key, build) == "built"
        assert cache.get_or_create(key, build) == "built"
        assert len(calls) == 1

    def test_clear_drops_every_entry(self):
        cache = ArtifactCache(capacity=4)
        key = ArtifactKey.build("k", "s")
        cache.put(key, "value")
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key) is None


def test_default_cache_is_process_wide_singleton():
    assert default_cache() is default_cache()
