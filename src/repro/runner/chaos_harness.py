"""Seeded kill-and-resume trials: crash anywhere, resume, compare bits.

The harness is the executable claim behind the crash-safety design: a
journaled run killed at *randomized* stage, day, journal-append, and
torn-write boundaries — repeatedly, up to a kill budget — and resumed
after each death must produce a result **bit-identical** (equal
semantic digest, which covers every reported field) to the same run
left uninterrupted, on both store backends. Afterward the run
directory and dataset must verify clean: no quarantined-and-forgotten
state, no checkpoint the journal lies about.

Everything is seeded: the world, the fault streams, and the kill
schedule, so a failing trial replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.faults.process import ChaosKill, ChaosMonkey, ProcessChaosConfig
from repro.runner.execution import run_incremental_detection
from repro.runner.journal import RunJournal

if TYPE_CHECKING:
    from repro.whois.archive import WhoisArchive
    from repro.zonedb.database import ZoneDatabase

#: Backends a trial can exercise.
BACKENDS = ("memory", "sqlite")


@dataclass
class ChaosTrialReport:
    """Everything one kill-and-resume trial observed."""

    backend: str
    kills: int
    kill_sites: list[tuple[str, str]]
    resumes: int
    baseline_digest: str
    chaos_digest: str
    verify_issues: list[str] = field(default_factory=list)
    #: Canonical trace-content digests (None when tracing was off).
    baseline_trace_digest: str | None = None
    chaos_trace_digest: str | None = None

    @property
    def bit_identical(self) -> bool:
        """Did the interrupted run reproduce the uninterrupted result?"""
        return self.baseline_digest == self.chaos_digest

    @property
    def traces_identical(self) -> bool:
        """Did the interrupted run's trace converge on the same content?

        Compares the canonical span view (deterministic content fields
        only); vacuously True when the trial ran without tracing.
        """
        if self.baseline_trace_digest is None:
            return True
        return self.baseline_trace_digest == self.chaos_trace_digest

    @property
    def passed(self) -> bool:
        """Identical output and a clean post-trial verification."""
        return (
            self.bit_identical
            and self.traces_identical
            and not self.verify_issues
        )


def _build_inputs(
    scale: float, seed: int, backend: str, workdir: Path
) -> tuple["ZoneDatabase", "WhoisArchive", Path | None]:
    """World inputs for one trial, routed through the requested backend.

    ``memory`` analyzes the in-process world directly; ``sqlite`` round-
    trips it through an on-disk dataset + WHOIS dump, the way the CLI
    tool chain does, so the trial also covers the dataset write/open
    integrity path.
    """
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World

    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    world = World(config).run()
    if backend == "memory":
        return world.zonedb, world.whois, None
    if backend != "sqlite":
        raise ValueError(f"unknown backend {backend!r} (want one of {BACKENDS})")
    from repro.store.artifacts import scenario_digest
    from repro.store.dataset import open_dataset, write_dataset
    from repro.whois.archive import WhoisArchive

    dataset_path = write_dataset(
        world.zonedb,
        workdir / "dataset.sqlite",
        scenario_digest=scenario_digest(config),
    )
    world.whois.dump(workdir / "whois.jsonl")
    return (
        open_dataset(dataset_path),
        WhoisArchive.load(workdir / "whois.jsonl"),
        dataset_path,
    )


def run_kill_resume_trial(
    *,
    workdir: str | Path,
    scale: float = 0.1,
    seed: int = 2021,
    backend: str = "memory",
    chaos_seed: int = 0,
    max_kills: int = 5,
    kill_worker_rate: float = 0.35,
    kill_supervisor_rate: float = 0.25,
    torn_write_rate: float = 0.25,
    mine_patterns: bool = True,
    trace: bool = False,
) -> ChaosTrialReport:
    """One seeded chaos trial; see the module docstring for the claim.

    The same :class:`~repro.faults.process.ChaosMonkey` (and therefore
    the same kill budget and RNG streams) persists across the simulated
    deaths, so a trial injects up to ``max_kills`` kills at
    stream-determined boundaries and then lets the run finish. The
    baseline and the chaos run share one world build.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    zonedb, whois, dataset_path = _build_inputs(scale, seed, backend, workdir)

    baseline = run_incremental_detection(
        zonedb,
        whois,
        run_dir=workdir / "baseline",
        mine_patterns=mine_patterns,
        trace=trace,
    )

    monkey = ChaosMonkey(
        ProcessChaosConfig(
            seed=chaos_seed,
            kill_worker_rate=kill_worker_rate,
            kill_supervisor_rate=kill_supervisor_rate,
            torn_write_rate=torn_write_rate,
            max_kills=max_kills,
        )
    )
    chaos_dir = workdir / "chaos"
    resumes = 0
    resume_id: str | None = None
    outcome = None
    # Each caught ChaosKill spends exactly one kill from the budget, so
    # the loop is bounded by max_kills + the final uninterrupted pass.
    for _attempt in range(max_kills + 2):
        try:
            outcome = run_incremental_detection(
                zonedb,
                whois,
                run_dir=chaos_dir,
                mine_patterns=mine_patterns,
                chaos=monkey,
                resume=resume_id,
                trace=trace,
            )
            break
        except ChaosKill:
            resumes += 1
            resume_id = RunJournal.open(chaos_dir / "journal.jsonl").run_id
    if outcome is None:  # pragma: no cover - budget math prevents this
        raise RuntimeError(
            f"chaos trial did not finish within {max_kills + 2} attempts"
        )

    issues = _post_trial_verification(chaos_dir, dataset_path)
    baseline_trace = chaos_trace = None
    if trace:
        from repro.obs.tracer import read_trace, trace_content_digest
        from repro.runner.execution import TRACE_NAME

        baseline_trace = trace_content_digest(
            read_trace(workdir / "baseline" / TRACE_NAME)
        )
        chaos_trace = trace_content_digest(read_trace(chaos_dir / TRACE_NAME))
    return ChaosTrialReport(
        backend=backend,
        kills=monkey.kills,
        kill_sites=list(monkey.kill_sites),
        resumes=resumes,
        baseline_digest=baseline.result_digest,
        chaos_digest=outcome.result_digest,
        verify_issues=issues,
        baseline_trace_digest=baseline_trace,
        chaos_trace_digest=chaos_trace,
    )


def _post_trial_verification(
    chaos_dir: Path, dataset_path: Path | None
) -> list[str]:
    """Run the verify-data checks the CLI would, as issue strings."""
    from repro.store.verify import verify_dataset, verify_run_dir

    issues: list[Any] = list(verify_run_dir(chaos_dir))
    if dataset_path is not None:
        issues.extend(verify_dataset(dataset_path))
    return [str(issue) for issue in issues]
