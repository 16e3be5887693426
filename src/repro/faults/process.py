"""Process-level chaos: killing workers and supervisors at boundaries.

Where :mod:`repro.faults.injectors` degrades the *observational* data
plane (what a measurement team collects), this module degrades the
*execution* plane: the process running the pipeline. Three fault
classes, each on its own named RNG stream (seeded-stream conventions
from :mod:`repro.faults.rng`):

* ``chaos.worker`` — kill the run at a stage (or day) boundary, before
  its checkpoint write;
* ``chaos.supervisor`` — kill the run at a journal-append boundary;
* ``chaos.torn`` — cut a journal append short mid-record (a torn
  write), then die.

A kill is simulated by raising :class:`ChaosKill` — a ``BaseException``
so no ordinary error handler can absorb it, mirroring how a real
SIGKILL skips ``except Exception`` blocks entirely.

A monkey's kill budget (``max_kills``) makes chaos runs terminate: once
spent, every boundary passes and the run completes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.rng import stream_rng


class ChaosKill(BaseException):
    """Simulated SIGKILL: the process is considered dead at this point.

    Derives from ``BaseException`` deliberately — crash-safety code must
    survive the process *vanishing*, not an exception politely unwinding
    through cleanup handlers.
    """

    def __init__(self, site: str, label: str) -> None:
        super().__init__(f"chaos kill at {site}:{label}")
        self.site = site
        self.label = label


@dataclass(frozen=True)
class ProcessChaosConfig:
    """Every knob of the execution-plane chaos, in one seedable value."""

    #: Seed for the chaos RNG streams (independent of world/fault seeds).
    seed: int = 0
    #: Per-boundary probability of a kill at a stage (or day) boundary.
    kill_worker_rate: float = 0.0
    #: Per-append probability of a kill before a journal append.
    kill_supervisor_rate: float = 0.0
    #: Per-append probability of a torn (truncated) journal write.
    torn_write_rate: float = 0.0
    #: Total kills the monkey may inject (None: unbounded).
    max_kills: int | None = None

    @property
    def enabled(self) -> bool:
        """True if any chaos rate is non-zero."""
        return (
            self.kill_worker_rate > 0
            or self.kill_supervisor_rate > 0
            or self.torn_write_rate > 0
        )


class ChaosMonkey:
    """Draws kill decisions from named streams, within a kill budget.

    One monkey instance owns the budget for a whole kill-and-resume
    trial: the harness keeps it across simulated deaths, so a trial
    with ``max_kills=K`` injects exactly ``K`` kills (given enough
    boundaries) and then lets the run finish.
    """

    def __init__(self, config: ProcessChaosConfig) -> None:
        self.config = config
        self.kills = 0
        self.kill_sites: list[tuple[str, str]] = []
        self._worker_rng = stream_rng(config.seed, "chaos.worker")
        self._supervisor_rng = stream_rng(config.seed, "chaos.supervisor")
        self._torn_rng = stream_rng(config.seed, "chaos.torn")

    def _budget_left(self) -> bool:
        return self.config.max_kills is None or self.kills < self.config.max_kills

    def _record(self, site: str, label: str) -> None:
        self.kills += 1
        self.kill_sites.append((site, label))
        # Telemetry mirror; imported lazily so the faults package keeps
        # no import-time dependency on the obs layer.
        from repro.obs import runtime as obs

        obs.counter("chaos.kills").inc()
        obs.trace_event("chaos.kill", site=site, label=label)

    def worker_boundary(self, label: str) -> None:
        """Maybe kill (raise) at a stage (or day) boundary."""
        if not self.config.kill_worker_rate or not self._budget_left():
            return
        if self._worker_rng.random() < self.config.kill_worker_rate:
            self._record("worker", label)
            raise ChaosKill("worker", label)

    def supervisor_boundary(self, label: str) -> None:
        """Maybe kill (raise) at a journal-append boundary."""
        if not self.config.kill_supervisor_rate or not self._budget_left():
            return
        if self._supervisor_rng.random() < self.config.kill_supervisor_rate:
            self._record("supervisor", label)
            raise ChaosKill("supervisor", label)

    def torn_write(self, data: bytes) -> int | None:
        """Bytes of ``data`` to write before dying, or None to pass.

        The cut lands strictly inside the record so the survivor is an
        unverifiable fragment, which is exactly what journal recovery
        must drop.
        """
        if not self.config.torn_write_rate or not self._budget_left():
            return None
        if self._torn_rng.random() >= self.config.torn_write_rate:
            return None
        self._record("torn", "journal-append")
        if len(data) < 2:
            return 0
        return 1 + self._torn_rng.randrange(len(data) - 1)
