"""One-call convenience API: simulate, detect, analyze.

:func:`reproduce` runs the whole paper reproduction — build the
ecosystem, run the nine-year simulation, run the §3 detection pipeline
over the observable data, and prepare the §4–§7 analyses — returning
everything as one bundle. Results are cached in the process-wide
content-addressed artifact cache (keyed by scenario digest + options,
bounded LRU), so tests, benchmarks, and examples in the same process
share the expensive work without the cache growing without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.study import StudyAnalysis
from repro.detection.pipeline import DetectionPipeline, PipelineResult
from repro.ecosystem.config import default_scenario
from repro.ecosystem.world import WorldResult, run_default_world
from repro.store.artifacts import ArtifactKey, default_cache, scenario_digest


@dataclass
class ReproBundle:
    """A finished reproduction: world + detection + analysis."""

    world: WorldResult
    pipeline: PipelineResult
    study: StudyAnalysis

    @property
    def zonedb(self):
        """The longitudinal zone database (the CAIDA-DZDB substitute)."""
        return self.world.zonedb

    @property
    def whois(self):
        """The WHOIS history archive (the DomainTools substitute)."""
        return self.world.whois


def reproduce(
    seed: int = 2021,
    scale: float = 1.0,
    *,
    mine_patterns: bool = False,
    use_cache: bool = True,
) -> ReproBundle:
    """Run the full reproduction pipeline (cached per scenario digest).

    ``mine_patterns`` additionally runs the §3.2.2 substring miner over
    the candidate set (slower; the discovered-pattern list is only
    needed when inspecting the discovery stage itself). Mined and
    unmined bundles cache under distinct keys, so neither variant ever
    bypasses the cache.
    """
    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    key = ArtifactKey.build(
        "bundle", scenario_digest(config), {"mine_patterns": mine_patterns}
    )
    cache = default_cache()
    if use_cache:
        cached = cache.get(key)
        if cached is not None:
            return cached
    world = run_default_world(seed=seed, scale=scale, use_cache=use_cache)
    pipeline = DetectionPipeline(
        world.zonedb, world.whois, mine_patterns=mine_patterns
    ).run()
    study = StudyAnalysis(pipeline, world.zonedb, world.whois)
    bundle = ReproBundle(world=world, pipeline=pipeline, study=study)
    if use_cache:
        cache.put(key, bundle)
    return bundle
