"""The execution plane: journaled runs and crash safety.

The detection methodology at production scale is a long-lived,
multi-stage job over years of zone snapshots. This package runs it in
one process and makes every boundary it crosses durable:

* :mod:`repro.runner.journal` — :class:`~repro.runner.journal.RunJournal`,
  an append-only, per-record-checksummed JSONL log of every boundary a
  run durably completed, tolerant of torn tail writes;
* :mod:`repro.runner.execution` — the journaled detection run behind
  ``riskybiz advance``: a detection engine folds the dataset (all at
  once, then day batch by day batch) and one checkpoint per invocation
  makes its standing state durable;
* :mod:`repro.runner.chaos_harness` — the seeded kill-and-resume
  harness proving a run killed at randomized boundaries and resumed is
  bit-identical to an uninterrupted one.

Every on-disk write in this package goes through
:mod:`repro.store.atomic` (enforced by lint rule ``DET008``), so a
killed run can always be replayed from its journal: work either
durably completed — checkpoint on disk, digest journaled — or it is
restarted from the last durable boundary.
"""

from repro.runner.journal import (
    JournalCorruption,
    JournalRecord,
    RunJournal,
)
from repro.runner.execution import (
    IncrementalRunResult,
    RunFailed,
    compute_run_id,
    result_fingerprint,
    run_incremental_detection,
)
from repro.runner.chaos_harness import ChaosTrialReport, run_kill_resume_trial

__all__ = [
    "ChaosTrialReport",
    "IncrementalRunResult",
    "JournalCorruption",
    "JournalRecord",
    "RunFailed",
    "RunJournal",
    "compute_run_id",
    "result_fingerprint",
    "run_incremental_detection",
    "run_kill_resume_trial",
]
