"""RunSupervisor: worker processes with heartbeats, timeouts, retries.

The supervisor owns the *liveness* half of crash safety. It executes
shard tasks (``riskybiz lint --jobs`` splits files into shards) across
a pool of worker processes, each of which:

* sends a heartbeat on a shared queue at every stage boundary;
* is declared *hung* when no heartbeat arrives within the policy's
  timeout while the process is still alive, and is then terminated;
* is declared *crashed* when it exits non-zero (a real SIGKILL shows
  up here as exit 137);
* is retried with exponential backoff plus seeded jitter (a named
  stream per the :mod:`repro.faults.rng` conventions), up to the
  policy's retry budget, after which :class:`RunFailed` is raised.

The supervisor never interprets shard *results*: workers persist their
own output and the caller collects it after a clean exit, so a worker
that dies before exiting cleanly costs only a redundant re-run.

Timeouts use the monotonic duration clock via :mod:`repro.obs.clock`
— a duration source, not a wall clock, so it is exempt from lint rule
``DET002``; routing it through ``repro.obs`` keeps rule ``DET009``
(telemetry reads confined to the obs layer) satisfied. Retries, hangs,
and heartbeats are also mirrored into the obs metrics registry and, when
a run is traced, emitted as trace events — the journal stays the source
of truth for durability, the trace for operational history.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults.rng import stream_rng
from repro.obs import clock, runtime


class RunFailed(Exception):
    """A run could not proceed: a refused run directory or resume, or a
    worker shard that exhausted its retry budget."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry, backoff, and liveness knobs for one supervised run."""

    #: Worker processes to run concurrently (``run_processes`` needs >= 1).
    workers: int = 0
    #: Re-attempts per shard after the first try.
    max_retries: int = 2
    #: First-retry backoff, in seconds.
    backoff_base_s: float = 0.05
    #: Backoff growth factor per attempt.
    backoff_factor: float = 2.0
    #: Backoff ceiling, in seconds.
    backoff_max_s: float = 2.0
    #: Declare a worker hung after this long without a heartbeat.
    heartbeat_timeout_s: float = 60.0
    #: Queue poll granularity, in seconds.
    poll_interval_s: float = 0.02
    #: Seed for the backoff-jitter stream.
    seed: int = 0

    def backoff_for(self, attempt: int, jitter: float) -> float:
        """Backoff before re-attempt ``attempt`` (1-based), jittered.

        ``jitter`` in [0, 1) scales the delay through [0.5, 1.5), so
        simultaneous crashes do not retry in lockstep.
        """
        base = self.backoff_base_s * (self.backoff_factor ** (attempt - 1))
        return min(base, self.backoff_max_s) * (0.5 + jitter)


@dataclass
class ShardOutcome:
    """How one shard's execution went."""

    index: int
    attempts: int = 0
    crashes: list[str] = field(default_factory=list)

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass
class _Active:
    """Bookkeeping for one live worker process."""

    process: Any
    attempt: int
    last_beat: float


class RunSupervisor:
    """Executes a set of shard tasks under one :class:`SupervisorPolicy`."""

    def __init__(self, policy: SupervisorPolicy | None = None) -> None:
        self.policy = policy or SupervisorPolicy()
        self._jitter_rng = stream_rng(self.policy.seed, "supervisor.backoff")

    # -- process-pool mode ---------------------------------------------------

    def run_processes(
        self,
        indices: list[int],
        spawn: Callable[[int, int, Any], Any],
        *,
        on_complete: Callable[[int], None] | None = None,
    ) -> dict[int, ShardOutcome]:
        """Run shards across a worker-process pool with liveness checks.

        ``spawn(index, attempt, heartbeat_queue)`` must return a started
        ``multiprocessing.Process`` whose target periodically puts
        ``(index, token)`` tuples on the queue and exits 0 on success.
        ``on_complete(index)`` runs in the supervisor after a clean exit
        (the caller verifies the shard's durable output and journals it
        there).
        """
        policy = self.policy
        if policy.workers < 1:
            raise ValueError("run_processes requires a positive worker count")
        ctx = multiprocessing.get_context()
        heartbeats: Any = ctx.Queue()
        pending: list[tuple[int, int]] = [(index, 1) for index in indices]
        delayed: list[tuple[float, int, int]] = []  # (ready_at, index, attempt)
        active: dict[int, _Active] = {}
        outcomes = {index: ShardOutcome(index=index) for index in indices}
        try:
            while pending or delayed or active:
                now = clock.monotonic()
                ready = [entry for entry in delayed if entry[0] <= now]
                delayed = [entry for entry in delayed if entry[0] > now]
                pending.extend((index, attempt) for _, index, attempt in ready)
                while pending and len(active) < policy.workers:
                    index, attempt = pending.pop(0)
                    outcomes[index].attempts = attempt
                    process = spawn(index, attempt, heartbeats)
                    active[index] = _Active(
                        process=process, attempt=attempt, last_beat=now
                    )
                self._drain_heartbeats(heartbeats, active)
                self._reap(active, delayed, outcomes, on_complete)
                if not active and not pending and delayed:
                    time.sleep(
                        max(0.0, min(e[0] for e in delayed) - clock.monotonic())
                    )
        finally:
            for entry in active.values():  # only reached when raising
                entry.process.terminate()
            heartbeats.close()
            heartbeats.cancel_join_thread()
        return outcomes

    def _drain_heartbeats(self, heartbeats: Any, active: dict[int, _Active]) -> None:
        """Block briefly for one heartbeat, then drain any backlog."""
        import queue as queue_module

        block = True
        while True:
            try:
                index, _token = heartbeats.get(
                    timeout=self.policy.poll_interval_s if block else 0
                )
            except queue_module.Empty:
                return
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            block = False
            runtime.counter("supervisor.heartbeats").inc()
            entry = active.get(index)
            if entry is not None:
                entry.last_beat = clock.monotonic()

    def _reap(
        self,
        active: dict[int, _Active],
        delayed: list[tuple[float, int, int]],
        outcomes: dict[int, ShardOutcome],
        on_complete: Callable[[int], None] | None,
    ) -> None:
        """Handle exits and hangs; reschedule or fail accordingly."""
        now = clock.monotonic()
        for index in sorted(active):
            entry = active[index]
            process = entry.process
            if not process.is_alive():
                process.join()
                del active[index]
                if process.exitcode == 0:
                    if on_complete is not None:
                        on_complete(index)
                    continue
                runtime.counter("supervisor.crashes").inc()
                self._schedule_retry(
                    index, entry.attempt,
                    f"exit code {process.exitcode}",
                    delayed, outcomes,
                )
            elif now - entry.last_beat > self.policy.heartbeat_timeout_s:
                process.terminate()
                process.join()
                del active[index]
                runtime.counter("supervisor.hangs").inc()
                runtime.trace_event(
                    "supervisor.hang", shard=index, attempt=entry.attempt
                )
                self._schedule_retry(
                    index, entry.attempt, "heartbeat timeout", delayed, outcomes
                )

    def _schedule_retry(
        self,
        index: int,
        attempt: int,
        reason: str,
        delayed: list[tuple[float, int, int]],
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        outcomes[index].crashes.append(reason)
        if attempt > self.policy.max_retries:
            raise RunFailed(
                f"shard {index} failed after {attempt} attempt(s): {reason}"
            )
        runtime.counter("supervisor.retries").inc()
        runtime.trace_event(
            "supervisor.retry", shard=index, attempt=attempt + 1, reason=reason
        )
        backoff = self.policy.backoff_for(attempt, self._jitter_rng.random())
        delayed.append((clock.monotonic() + backoff, index, attempt + 1))
