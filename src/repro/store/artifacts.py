"""Content-addressed in-memory memo for expensive reproduction stages.

Artifacts (simulated worlds, full bundles) are keyed by the SHA-256
digest of a canonical-JSON description of *what produced them*: the
scenario configuration plus the producing stage's options. Two calls
that would compute the same thing therefore share one entry — and any
change to the scenario or options changes the key, so a stale artifact
can never be served for a different configuration.

The memo is a bounded LRU that lives and dies with its process; nothing
is written to disk. Anything a later process needs is recomputed from
the dataset, or resumed from a run directory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import runtime as obs
from repro.store.atomic import content_digest

#: Default bound on memoized artifacts per cache instance.
DEFAULT_CAPACITY = 16


def scenario_digest(config: Any) -> str:
    """Digest of a :class:`~repro.ecosystem.config.ScenarioConfig`."""
    from repro.ecosystem.scenario_io import scenario_to_dict

    return content_digest(scenario_to_dict(config))


@dataclass(frozen=True, slots=True)
class ArtifactKey:
    """Identity of one memoized artifact.

    ``digest`` covers the kind, the producing scenario, and the options
    dict, so it alone addresses the artifact.
    """

    kind: str
    scenario: str
    digest: str

    @classmethod
    def build(
        cls, kind: str, scenario: str, options: dict[str, Any] | None = None
    ) -> "ArtifactKey":
        """Key for an artifact of ``kind`` produced from ``scenario``."""
        digest = content_digest(
            {"kind": kind, "scenario": scenario, "options": options or {}}
        )
        return cls(kind=kind, scenario=scenario, digest=digest)


class ArtifactCache:
    """Bounded in-memory LRU of artifacts."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key.digest in self._entries

    def get(self, key: ArtifactKey) -> Any | None:
        """The memoized artifact, or None."""
        if key.digest not in self._entries:
            self.misses += 1
            obs.counter("artifact_cache.misses").inc()
            return None
        self.hits += 1
        obs.counter("artifact_cache.hits").inc()
        self._entries.move_to_end(key.digest)
        return self._entries[key.digest]

    def put(self, key: ArtifactKey, value: Any) -> None:
        """Memoize an artifact, evicting the least recently used."""
        self._entries[key.digest] = value
        self._entries.move_to_end(key.digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get_or_create(self, key: ArtifactKey, builder: Callable[[], Any]) -> Any:
        """The memoized artifact, building (and memoizing) it on a miss."""
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


_DEFAULT_CACHE = ArtifactCache()


def default_cache() -> ArtifactCache:
    """The process-wide artifact memo."""
    return _DEFAULT_CACHE
