"""Property test: random histories fold to batch-identical results.

Hypothesis generates arbitrary delegation/glue histories, records them
through the zone-database delta write path, and asserts the incremental
engine's core invariant from every angle:

* folding the recorded batches day by day produces a result digest
  bit-identical to a fresh batch pipeline run, and so does a direct
  fold over the history written as a SQLite dataset;
* the invariant holds at *every* prefix of the stream, not just the
  end (a replica database rebuilt from the delta prefix is the batch
  referee);
* under a seeded chaos monkey killing the journaled incremental runner
  at arbitrary fold/append boundaries (including torn journal writes),
  resume-at-watermark still converges to the exact batch digest;
* a checkpoint stores only the miner's names, and loading it gives a
  counter that selects exactly the patterns the engine was standing on.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.incremental import (
    IncrementalDetectionEngine,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.pipeline import MINE_MIN_SUPPORT, DetectionPipeline
from repro.faults.process import ChaosKill, ChaosMonkey, ProcessChaosConfig
from repro.runner.execution import result_digest, run_incremental_detection
from repro.runner.journal import RunJournal
from repro.store.dataset import DeltaView, open_dataset, write_dataset
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

_domains = st.sampled_from([f"dom{i}.biz" for i in range(4)])
_nameservers = st.sampled_from(
    [f"ns{i}.host{j}.biz" for i in range(2) for j in range(2)]
    + ["dropme123456.park.biz"]  # pattern-idiom shaped, to touch that stage
)

_ops = st.one_of(
    st.tuples(
        st.just("set"), _domains,
        st.frozensets(_nameservers, min_size=1, max_size=2),
    ),
    st.tuples(st.just("remove"), _domains, st.none()),
    st.tuples(st.just("glue-add"), _nameservers, st.none()),
    st.tuples(st.just("glue-remove"), _nameservers, st.none()),
)

_histories = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), _ops),
    min_size=1, max_size=20,
)


def _build(history) -> ZoneDatabase:
    zonedb = ZoneDatabase()
    zonedb.cover("biz")
    # Stable sort by day: same-day operations keep generation order, so
    # the recorded delta stream is a pure function of the history.
    for day, (kind, name, nameservers) in sorted(history, key=lambda t: t[0]):
        if kind == "set":
            zonedb.set_delegation(day, name, sorted(nameservers))
        elif kind == "remove":
            zonedb.remove_delegation(day, name)
        elif kind == "glue-add":
            zonedb.set_glue(day, name)
        else:
            zonedb.remove_glue(day, name)
    return zonedb


@settings(max_examples=25, deadline=None)
@given(history=_histories)
def test_day_by_day_fold_is_batch_identical(history):
    zonedb = _build(history)
    whois = WhoisArchive()
    batch = result_digest(DetectionPipeline(zonedb, whois).run())
    engine = IncrementalDetectionEngine(whois)
    for batch_day, _events in DeltaView(zonedb).batches():
        engine.advance_from(zonedb, until=batch_day)
    assert result_digest(engine.result()) == batch
    with tempfile.TemporaryDirectory() as scratch:
        dataset = open_dataset(write_dataset(zonedb, Path(scratch) / "ds.sqlite"))
        try:
            folded = DetectionPipeline(dataset, whois).run()
        finally:
            dataset.close()
    assert result_digest(folded) == batch


@settings(max_examples=20, deadline=None)
@given(history=_histories, cut=st.integers(min_value=0, max_value=1_000_000))
def test_every_stream_prefix_is_batch_identical(history, cut):
    zonedb = _build(history)
    whois = WhoisArchive()
    batches = DeltaView(zonedb).batches()
    cut_day = batches[cut % len(batches)][0]

    engine = IncrementalDetectionEngine(whois)
    engine.advance_from(zonedb, until=cut_day)
    assert engine.watermark == cut_day

    replica = ZoneDatabase()
    for batch_day, event in zonedb.deltas_since(None):
        if batch_day <= cut_day:
            replica.apply_delta(event)
    batch = DetectionPipeline(replica, whois).run()
    assert result_digest(engine.result()) == result_digest(batch)


@settings(max_examples=25, deadline=None)
@given(history=_histories)
def test_loaded_checkpoint_recounts_standing_substrings(history):
    zonedb = _build(history)
    engine = IncrementalDetectionEngine(WhoisArchive())
    for batch_day, _events in DeltaView(zonedb).batches():
        engine.advance_from(zonedb, until=batch_day)
        standing = engine.state["mine_counter"]
        loaded = load_engine_state(dump_engine_state(engine.state))["mine_counter"]
        assert loaded.names == standing.names, batch_day
        for min_support in (1, MINE_MIN_SUPPORT):
            assert loaded.select(min_support=min_support) == standing.select(
                min_support=min_support
            ), batch_day


@settings(max_examples=10, deadline=None)
@given(history=_histories, chaos_seed=st.integers(min_value=0, max_value=2**16))
def test_chaos_kills_resume_at_watermark_to_batch_digest(history, chaos_seed):
    zonedb = _build(history)
    whois = WhoisArchive()
    batch = result_digest(DetectionPipeline(zonedb, whois).run())
    monkey = ChaosMonkey(
        ProcessChaosConfig(
            seed=chaos_seed,
            kill_worker_rate=0.4,
            kill_supervisor_rate=0.4,
            torn_write_rate=0.3,
            max_kills=3,
        )
    )
    with tempfile.TemporaryDirectory() as scratch:
        run_dir = Path(scratch) / "run"
        resume = None
        kills = 0
        while True:
            try:
                outcome = run_incremental_detection(
                    zonedb, whois, run_dir=run_dir,
                    chaos=monkey, resume=resume,
                )
                break
            except ChaosKill:
                kills += 1
                assert kills <= 50, "kill budget failed to terminate"
                resume = RunJournal.open(run_dir / "journal.jsonl").run_id
        assert outcome.result_digest == batch, (kills, chaos_seed)
