"""On-disk formats: an engine checkpoint is plain JSON, a result is recomputed.

* The checkpoint codec round-trips every state it can meet and refuses
  anything else with ``ValueError`` — which the runner journals as
  ``checkpoint-unreadable`` and ``verify-data`` reports as ``corrupt``.
* A pickle planted in a run directory is never unpickled, by any
  command.
* A run with nothing to fold recomputes its result and checks it
  against the journaled digest instead of loading a stored copy.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.candidates import CandidateNameserver
from repro.detection.incremental import (
    IncrementalDetectionEngine,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.matching import MatchResult
from repro.detection.pipeline import SacrificialNameserver
from repro.detection.substrings import SubstringCounter
from repro.runner.execution import (
    CHECKPOINT_DIR_NAME,
    ENGINE_CHECKPOINT_NAME,
    JOURNAL_NAME,
    RESULT_MANIFEST_NAME,
    RunFailed,
    run_incremental_detection,
)
from repro.runner.journal import RunJournal
from repro.store.atomic import QUARANTINE_SUFFIX, verify_checked_json
from repro.store.dataset import DeltaView
from repro.store.verify import CORRUPT, QUARANTINED, verify_run_dir
from repro.whois.archive import WhoisArchive
from tests.test_incremental_property import _build, _histories

# -- the codec ---------------------------------------------------------------


def _comparable(state):
    """``state`` with its miner as plain data (the counter has no ``==``)."""
    counter = state["mine_counter"]
    plain = dict(state)
    plain["mine_counter"] = (
        counter.min_length,
        counter.max_length,
        dict(counter.names),
    )
    return plain


_text = st.text(max_size=10)  # non-ASCII and empty names included
_maybe_text = st.none() | _text
_days = st.integers(min_value=-(2**40), max_value=2**40)

_candidates = st.builds(
    CandidateNameserver,
    name=_text,
    first_seen=_days,
    referencing_domains=st.lists(_text, max_size=3).map(tuple),
)
_sacrificial = st.builds(
    SacrificialNameserver,
    name=_text,
    created_day=_days,
    idiom_id=_text,
    hijackable=st.booleans(),
    registrar=_maybe_text,
    registered_domain=_maybe_text,
    source=st.sampled_from(["pattern", "match"]),
    original_ns=_maybe_text,
    original_domain=_maybe_text,
    collision=st.booleans(),
)
_matches = st.builds(
    MatchResult,
    candidate=_text,
    first_seen=_days,
    original_ns=_text,
    original_domain=_text,
    witness_domain=_text,
    registrar=_maybe_text,
)


def _keyed(records, field):
    """Record maps as the stages keep them: by the nameserver's name."""
    return st.lists(records, max_size=4).map(
        lambda rows: {getattr(row, field): row for row in rows}
    )


def _counter(lengths, names):
    counter = SubstringCounter(min_length=lengths[0], max_length=lengths[1])
    counter.names.update(names)
    return counter


_states = st.fixed_dictionaries({
    "watermarks": st.dictionaries(_text, _days, max_size=3),
    "candidates": _keyed(_candidates, "name"),
    "mine_counter": st.builds(
        _counter,
        st.tuples(st.integers(0, 8), st.integers(0, 16)),
        st.dictionaries(_text, st.integers(min_value=1, max_value=9), max_size=4),
    ),
    "test_removed": st.sets(_text, max_size=4),
    "pattern": _keyed(_sacrificial, "name"),
    "single_repo": st.sets(_text, max_size=4),
    "match_results": _keyed(_matches, "candidate"),
    "match_entries": _keyed(_sacrificial, "name"),
})


@settings(max_examples=60, deadline=None)
@given(state=_states)
def test_generated_states_round_trip(state):
    data = dump_engine_state(state)
    assert _comparable(load_engine_state(data)) == _comparable(state)
    # Insertion order never reaches the bytes.
    reordered = {
        key: dict(reversed(value.items())) if isinstance(value, dict) else value
        for key, value in state.items()
    }
    assert dump_engine_state(reordered) == data


@settings(max_examples=25, deadline=None)
@given(history=_histories, mine_patterns=st.booleans())
def test_small_world_states_round_trip(history, mine_patterns):
    zonedb = _build(history)
    engine = IncrementalDetectionEngine(WhoisArchive(), mine_patterns=mine_patterns)
    for batch_day, _events in DeltaView(zonedb).batches():
        engine.advance_from(zonedb, until=batch_day)
        loaded = load_engine_state(dump_engine_state(engine.state))
        assert _comparable(loaded) == _comparable(engine.state), batch_day


@pytest.fixture(scope="module")
def document(tiny_bundle):
    """The tiny world's folded engine state, as a parsed document."""
    engine = IncrementalDetectionEngine(tiny_bundle.world.whois)
    engine.fold(tiny_bundle.world.zonedb)
    return json.loads(dump_engine_state(engine.state))


def _malformed(kind, document):
    """``document`` broken one way, as bytes."""
    if kind == "pickle":
        return pickle.dumps(document)
    broken = json.loads(json.dumps(document))
    if kind == "wrong-tag":
        broken["format"] = "riskybiz-engine-state/2"
    elif kind == "missing-key":
        del broken["pattern"]
    elif kind == "extra-key":
        broken["mine_counts"] = []
    elif kind == "string-for-int":
        broken["candidates"][0]["first_seen"] = str(
            broken["candidates"][0]["first_seen"]
        )
    elif kind == "bool-for-int":
        broken["watermarks"]["engine"] = True
    elif kind == "missing-field":
        del broken["match_results"][0]["registrar"]
    elif kind == "unsorted-names":
        broken["test_removed"].reverse()
    elif kind == "not-json":
        return b"\x00\x01 not json"
    elif kind == "too-deep":
        return b"[" * 100_000 + b"]" * 100_000
    return json.dumps(broken).encode()


MALFORMED = [
    "pickle", "wrong-tag", "missing-key", "extra-key", "string-for-int",
    "bool-for-int", "missing-field", "unsorted-names", "not-json", "too-deep",
]


@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_checkpoint_is_refused(document, kind):
    assert len(document["test_removed"]) > 1
    assert document["candidates"] and document["match_results"]
    with pytest.raises(ValueError):
        load_engine_state(_malformed(kind, document))


@pytest.fixture(scope="module")
def finished_run(tiny_bundle, tmp_path_factory):
    """A completed run directory over the tiny world."""
    directory = tmp_path_factory.mktemp("formats") / "run"
    outcome = run_incremental_detection(
        tiny_bundle.world.zonedb, tiny_bundle.world.whois, run_dir=directory
    )
    return directory, outcome


def _copy(finished_run, tmp_path):
    directory, outcome = finished_run
    copy = tmp_path / "run"
    shutil.copytree(directory, copy)
    return copy, outcome


def _resets(run_dir):
    journal = RunJournal.open(run_dir / JOURNAL_NAME)
    return [record.payload["reason"] for record in journal.events("engine-reset")]


@pytest.mark.parametrize("kind", ["pickle", "wrong-tag", "string-for-int"])
def test_runner_resets_on_malformed_checkpoint(
    tiny_bundle, document, finished_run, tmp_path, kind
):
    run_dir, first = _copy(finished_run, tmp_path)
    checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
    checkpoint.write_bytes(_malformed(kind, document))
    again = run_incremental_detection(
        tiny_bundle.world.zonedb,
        tiny_bundle.world.whois,
        run_dir=run_dir,
        resume=first.run_id,
    )
    assert _resets(run_dir) == ["checkpoint-unreadable"]
    assert again.restored_watermark is None
    assert again.result_digest == first.result_digest


@pytest.mark.parametrize("kind", MALFORMED)
def test_verify_data_reports_malformed_checkpoint_corrupt(document, tmp_path, kind):
    data = _malformed(kind, document)
    checkpoint = tmp_path / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
    checkpoint.parent.mkdir()
    checkpoint.write_bytes(data)
    journal = RunJournal.create(tmp_path / JOURNAL_NAME, "run-formats")
    journal.append(
        "day-advanced", day=3, checkpoint_sha256=hashlib.sha256(data).hexdigest()
    )
    assert [issue.kind for issue in verify_run_dir(tmp_path)] == [CORRUPT]


# -- planted pickles never run -----------------------------------------------


class _Marker:
    """Unpickling this creates ``path``: proof that a load ran code."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (str(self.path), "w"))


@pytest.fixture(scope="module")
def dataset(tiny_bundle, tmp_path_factory):
    from repro.store.dataset import write_dataset

    root = tmp_path_factory.mktemp("formats-dataset")
    write_dataset(tiny_bundle.world.zonedb, root / "dataset.sqlite")
    tiny_bundle.world.whois.dump(root / "whois.jsonl")
    return root


@pytest.mark.parametrize("command", ["advance"])
def test_planted_pickle_never_runs(dataset, tmp_path, command, capsys):
    from repro.cli import main

    run_dir = tmp_path / "run"
    marker = tmp_path / "marker"
    argv = [
        command,
        "--dataset", str(dataset / "dataset.sqlite"),
        "--whois", str(dataset / "whois.jsonl"),
        "--run-dir", str(run_dir),
    ]
    assert main(argv) == 0
    digest = verify_checked_json(run_dir / RESULT_MANIFEST_NAME)["result_digest"]
    for name in ("engine-state.pkl", ENGINE_CHECKPOINT_NAME):
        (run_dir / CHECKPOINT_DIR_NAME / name).write_bytes(
            pickle.dumps(_Marker(marker))
        )

    assert main(["verify-data", "--run-dir", str(run_dir)]) == 1
    assert not marker.exists()
    assert main(argv) == 0
    assert not marker.exists()
    capsys.readouterr()

    assert _resets(run_dir) == ["checkpoint-unreadable"]
    manifest = verify_checked_json(run_dir / RESULT_MANIFEST_NAME)
    assert manifest["result_digest"] == digest
    # The refold wrote a fresh checkpoint; only the quarantined planted
    # copy and the never-read legacy file remain as evidence.
    assert load_engine_state(
        (run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME).read_bytes()
    )
    assert {issue.kind for issue in verify_run_dir(run_dir)} == {QUARANTINED}


def test_older_run_directory_refolds_once(tiny_bundle, finished_run, tmp_path):
    """A directory an older version wrote holds ``engine-state.pkl`` and
    ``result.pkl``: neither is read, one reset refolds to the digest."""
    run_dir, first = _copy(finished_run, tmp_path)
    marker = tmp_path / "marker"
    checkpoints = run_dir / CHECKPOINT_DIR_NAME
    (checkpoints / ENGINE_CHECKPOINT_NAME).unlink()
    (checkpoints / "engine-state.pkl").write_bytes(pickle.dumps(_Marker(marker)))
    (run_dir / "result.pkl").write_bytes(pickle.dumps(_Marker(marker)))
    again = run_incremental_detection(
        tiny_bundle.world.zonedb,
        tiny_bundle.world.whois,
        run_dir=run_dir,
        resume=first.run_id,
    )
    assert not marker.exists()
    assert _resets(run_dir) == ["checkpoint-missing"]
    assert again.result_digest == first.result_digest
    assert again.days_advanced == first.days_advanced


# -- already-current runs recompute ------------------------------------------


def _resume(tiny_bundle, run_dir, run_id):
    return run_incremental_detection(
        tiny_bundle.world.zonedb,
        tiny_bundle.world.whois,
        run_dir=run_dir,
        resume=run_id,
    )


class TestAlreadyCurrent:
    def test_returns_journaled_digest_and_journals_nothing(
        self, tiny_bundle, finished_run, tmp_path
    ):
        run_dir, first = _copy(finished_run, tmp_path)
        journal = (run_dir / JOURNAL_NAME).read_bytes()
        manifest = (run_dir / RESULT_MANIFEST_NAME).read_bytes()
        again = _resume(tiny_bundle, run_dir, first.run_id)
        assert again.days_advanced == 0
        assert again.result_digest == first.result_digest
        assert (run_dir / JOURNAL_NAME).read_bytes() == journal
        assert (run_dir / RESULT_MANIFEST_NAME).read_bytes() == manifest

    def test_deleted_result_is_rewritten(self, tiny_bundle, finished_run, tmp_path):
        run_dir, first = _copy(finished_run, tmp_path)
        journal = (run_dir / JOURNAL_NAME).read_bytes()
        manifest = (run_dir / RESULT_MANIFEST_NAME).read_bytes()
        (run_dir / RESULT_MANIFEST_NAME).unlink()
        again = _resume(tiny_bundle, run_dir, first.run_id)
        assert again.result_digest == first.result_digest
        assert (run_dir / RESULT_MANIFEST_NAME).read_bytes() == manifest
        assert (run_dir / JOURNAL_NAME).read_bytes() == journal
        assert verify_run_dir(run_dir) == []

    def test_corrupt_result_is_rewritten(self, tiny_bundle, finished_run, tmp_path):
        run_dir, first = _copy(finished_run, tmp_path)
        journal = (run_dir / JOURNAL_NAME).read_bytes()
        manifest = (run_dir / RESULT_MANIFEST_NAME).read_bytes()
        (run_dir / RESULT_MANIFEST_NAME).write_bytes(manifest.replace(b"2", b"3", 1))
        _resume(tiny_bundle, run_dir, first.run_id)
        assert (run_dir / RESULT_MANIFEST_NAME).read_bytes() == manifest
        assert (run_dir / JOURNAL_NAME).read_bytes() == journal
        assert list(run_dir.glob(f"*{QUARANTINE_SUFFIX}*"))

    def test_disagreeing_journal_digest_fails(
        self, tiny_bundle, finished_run, tmp_path
    ):
        run_dir, first = _copy(finished_run, tmp_path)
        journal = RunJournal.open(run_dir / JOURNAL_NAME)
        journal.append(
            "run-complete",
            run_id=first.run_id,
            watermark=first.watermark,
            days_advanced=0,
            result_digest="0" * 64,
        )
        with pytest.raises(RunFailed) as failed:
            _resume(tiny_bundle, run_dir, first.run_id)
        assert "0" * 64 in str(failed.value)
        assert first.result_digest in str(failed.value)
