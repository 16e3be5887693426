"""Checkpointed degradation sweeps resume to the uninterrupted report.

A checkpointed point is reused only for the world, sampling interval
and rate it was computed for: a directory shared between sweeps of
different worlds recomputes instead of serving another world's
numbers.
"""

from __future__ import annotations

import pytest

from repro.experiment import degradation
from repro.experiment.degradation import run_degradation_sweep
from repro.store.atomic import QUARANTINE_SUFFIX

RATES = [0.0, 0.1]
SCALE = 0.03


@pytest.fixture(scope="module")
def uninterrupted():
    """Sweeps of the seed-1 and seed-2 worlds without a checkpoint."""
    return {
        seed: run_degradation_sweep(RATES, seed=seed, scale=SCALE)
        for seed in (1, 2)
    }


@pytest.fixture
def evaluations(monkeypatch):
    """Every rate the sweep actually evaluates, in order."""
    calls: list[float] = []
    evaluate = degradation._evaluate_rate

    def counting(world_result, truth, rate, *, every):
        calls.append(rate)
        return evaluate(world_result, truth, rate, every=every)

    monkeypatch.setattr(degradation, "_evaluate_rate", counting)
    return calls


def test_another_seed_recomputes_instead_of_reusing(
    tmp_path, uninterrupted, evaluations
):
    run_degradation_sweep(RATES, seed=1, scale=SCALE, checkpoint_dir=tmp_path)
    second = run_degradation_sweep(RATES, seed=2, scale=SCALE, checkpoint_dir=tmp_path)
    assert second == uninterrupted[2]
    assert second != uninterrupted[1]
    assert evaluations == RATES * 2


def test_partial_checkpoint_resumes_to_the_uninterrupted_report(
    tmp_path, uninterrupted, evaluations
):
    # A sweep killed after its first point: only that point is on disk.
    run_degradation_sweep(RATES[:1], seed=1, scale=SCALE, checkpoint_dir=tmp_path)
    evaluations.clear()
    resumed = run_degradation_sweep(RATES, seed=1, scale=SCALE, checkpoint_dir=tmp_path)
    assert resumed == uninterrupted[1]
    assert evaluations == RATES[1:]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "point-0.0000.json",
        "point-0.1000.json",
    ]


def test_another_every_recomputes(tmp_path, evaluations):
    first = run_degradation_sweep([0.0], seed=1, scale=SCALE, checkpoint_dir=tmp_path)
    again = run_degradation_sweep(
        [0.0], seed=1, scale=SCALE, every=14, checkpoint_dir=tmp_path
    )
    assert evaluations == [0.0, 0.0]
    assert again.points == first.points  # rate 0 reads the pristine world


def test_corrupt_point_is_quarantined_and_recomputed(tmp_path, evaluations):
    first = run_degradation_sweep([0.0], seed=1, scale=SCALE, checkpoint_dir=tmp_path)
    point = tmp_path / "point-0.0000.json"
    point.write_text(point.read_text().replace('"detected"', '"detecteD"'))
    again = run_degradation_sweep([0.0], seed=1, scale=SCALE, checkpoint_dir=tmp_path)
    assert again == first
    assert evaluations == [0.0, 0.0]
    assert list(tmp_path.glob(f"*{QUARANTINE_SUFFIX}*"))
