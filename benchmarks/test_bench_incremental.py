"""Experiment S-INC — the daily-update cost of the incremental engine.

Measures what a production operator pays per day once history is
standing: folding the final recorded day batch into an engine already
advanced through day N-1, then reconstructing the full result. The
assertion is the engine's contract — the reconstructed result is
bit-identical (same semantic digest) to a batch re-run over the whole
history it replaced.
"""

from conftest import emit

from repro.detection.incremental import IncrementalDetectionEngine
from repro.detection.pipeline import DetectionPipeline
from repro.runner.execution import result_digest
from repro.store.dataset import DeltaView


def test_bench_incremental_final_day(benchmark, bundle):
    zonedb = bundle.world.zonedb
    whois = bundle.world.whois
    batches = DeltaView(zonedb).batches()
    final_day, final_events = batches[-1]

    def setup():
        engine = IncrementalDetectionEngine(whois, mine_patterns=False)
        for day, _events in batches[:-1]:
            engine.advance_from(zonedb, until=day)
        engine.result()  # a standing run folds daily, so arrive warm
        return (engine,), {}

    def final_fold(engine):
        engine.advance_from(zonedb)
        return engine.result()

    result = benchmark.pedantic(final_fold, setup=setup, rounds=3, iterations=1)
    batch = DetectionPipeline(zonedb, whois, mine_patterns=False).run()
    assert result_digest(result) == result_digest(batch)
    emit(
        f"final-day fold (day {final_day}, {len(final_events)} deltas) over "
        f"{len(batches)} recorded days; batch-identical result "
        f"({result.funnel.sacrificial_total} sacrificial)"
    )
