"""The execution plane: supervised runs, journaling, and crash safety.

The detection methodology at production scale is a long-lived,
multi-stage job over years of zone snapshots. This package supervises
it:

* :mod:`repro.runner.journal` — :class:`~repro.runner.journal.RunJournal`,
  an append-only, per-record-checksummed JSONL log of every boundary a
  run durably completed, tolerant of torn tail writes;
* :mod:`repro.runner.supervisor` —
  :class:`~repro.runner.supervisor.RunSupervisor`, which executes shard
  tasks across a pool of worker processes with heartbeats, hang
  detection, and retry-with-exponential-backoff on crash (the engine
  behind ``riskybiz lint --jobs``);
* :mod:`repro.runner.execution` — the supervised detection run: one
  in-process pass whose stage state is checkpointed and journaled after
  every stage, with ``riskybiz detect --resume <run-id>`` semantics —
  plus the incremental run (``riskybiz advance``), which folds per-day
  delta batches into a journaled standing engine instead of re-running
  the batch pipeline;
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
from repro.runner.supervisor import (
    RunFailed,
    RunSupervisor,
    ShardOutcome,
    SupervisorPolicy,
)
from repro.runner.execution import (
    IncrementalRunResult,
    SupervisedResult,
    compute_run_id,
    result_fingerprint,
    run_incremental_detection,
    run_supervised_detection,
)
from repro.runner.chaos_harness import ChaosTrialReport, run_kill_resume_trial

__all__ = [
    "ChaosTrialReport",
    "IncrementalRunResult",
    "JournalCorruption",
    "JournalRecord",
    "RunFailed",
    "RunJournal",
    "RunSupervisor",
    "ShardOutcome",
    "SupervisedResult",
    "SupervisorPolicy",
    "compute_run_id",
    "result_fingerprint",
    "run_incremental_detection",
    "run_kill_resume_trial",
    "run_supervised_detection",
]
