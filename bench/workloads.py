"""The benchmark's workloads: set-up, closed-loop operations, checks.

Every workload runs single-threaded in the calling process as a closed
loop with one caller: the next operation starts when the previous one
returns. Set-up runs in fresh child processes (``bench/prepare.py``), so
the measured process starts with the state a user's own ``riskybiz``
invocation would: no simulator objects on the heap, no warm caches.

Every time reported is scaled to the reference host speed
(:mod:`hostspeed`); the wall time is printed next to it.

Cache hygiene: the process-wide artifact cache
(:func:`repro.store.artifacts.default_cache`) memoises substring mining
and pipeline artifacts, so it is cleared before every timed operation;
without the clear a repeat would measure cache hits. The
``lru_cache`` behind :func:`repro.dnscore.names.normalize` is *not*
cleared: it stays warm from the first operation on, inside a workload,
as it does inside any long-lived process.

Correctness is checked after every operation, outside the timed region:

* ``batch-paper`` / ``batch-detect`` — the detected sacrificial names
  equal the simulator's ground truth exactly, and every operation
  returns the same result digest;
* ``daily-advance`` — every invocation folds exactly one batch day, and
  the last result's digest equals a batch ``DetectionPipeline`` over the
  same history.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.analysis.report import render_full_report, render_funnel
from repro.analysis.study import StudyAnalysis
from repro.detection.incremental import IncrementalDetectionEngine
from repro.detection.pipeline import DetectionPipeline
from repro.ecosystem.config import ScenarioConfig, default_scenario
from repro.ecosystem.world import World, WorldResult
from repro.obs import clock
from repro.obs import runtime as obs
from repro.obs.tracer import Tracer
from repro.runner import run_incremental_detection
from repro.runner.execution import JOURNAL_NAME, TRACE_NAME, result_digest
from repro.runner.journal import RunJournal
from repro.store.artifacts import default_cache, scenario_digest
from repro.store.dataset import open_dataset, write_dataset
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

import layers
from hostspeed import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent

#: Worlds a batch-paper run cycles through, one per repeat.
PAPER_WORLDS = 4


def scenario(seed: int, scale: float) -> ScenarioConfig:
    """The canonical scenario for ``seed`` at ``scale``."""
    config = default_scenario(seed)
    return config if scale == 1.0 else config.scaled(scale)


def observable_truth(world: WorldResult) -> set[str]:
    """Every name a simulated registrar renamed to that the zone data shows.

    The simulator logs every rename, but a rename whose only linked
    domain left the zone before the next snapshot never appears in zone
    data (seed 1 at scale 1.0 has one), so no detector can see it.
    """
    return {
        record.new_name
        for record in world.log.renames
        if world.zonedb.first_seen(record.new_name) is not None
    }


def detection_matches(result: Any, truth: set[str]) -> bool:
    """Precision and recall are both exactly 1 against ``truth``."""
    return {entry.name for entry in result.sacrificial} == truth


def spanned(name: str, call: Callable[[], Any]) -> Any:
    """``call()`` inside a bench span named after the layer it enters."""
    with obs.span(name):
        return call()


def percentile_tail(samples: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with ten samples beyond it.

    Runs too short for any of them (fewer than 20 operations) report
    their slowest operation instead.
    """
    count = len(samples)
    for pct in (99, 95, 90, 75, 50):
        if count * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
            return f"p{pct}", value
    return "max", max(samples)


# -- set-up ------------------------------------------------------------------


def run_setup(
    mode: str, out: Path, *, seed: int, scale: float, trace: bool
) -> float:
    """Run one set-up child process; returns its time in reference seconds.

    The child samples the host's speed while it works and records the
    samples' own time and the scale factor in ``setup.json``
    (``prepare.py``); its whole wall time, start-up included, is scaled
    by that factor.
    """
    command = [
        sys.executable, str(BENCH_DIR / "prepare.py"), mode,
        "--out", str(out), "--seed", str(seed), "--scale", str(scale),
    ]
    if trace:
        command.append("--trace")
    started = clock.perf_counter()
    subprocess.run(command, check=True)
    wall = clock.perf_counter() - started
    host = json.loads((out / "setup.json").read_text())["host"]
    return (wall - host["sampling_s"]) * host["factor"]


# -- the workloads -----------------------------------------------------------


class Workload:
    """One workload: its set-up, its timed operation and its checks."""

    name = ""
    setup_mode = ""
    #: Set-up child processes per run; ``setup_s`` is their median.
    setup_runs = 1
    default_scale = 1.0

    def __init__(
        self,
        workdir: Path,
        seed: int,
        scale: float | None = None,
        *,
        trace: bool = False,
    ) -> None:
        self.workdir = workdir
        self.seed = seed
        self.scale = self.default_scale if scale is None else scale
        #: A traced run: set-up writes traces, operations alternate
        #: untraced and traced.
        self.trace = trace
        self.setup_dir = workdir / "setup-0"
        #: (ns_records queries, seconds in them) per traced pipeline run.
        self.sqlite_reads: list[tuple[int, float]] = []

    def setup(self) -> list[float]:
        """Set up ``setup_runs`` times; returns each set-up's seconds.

        The last child's outputs are used. Adopting them in this process
        (:meth:`load`) is set-up work too, so its time is added to every
        sample.
        """
        times = []
        for index in range(self.setup_runs):
            self.setup_dir = self.workdir / f"setup-{index}"
            times.append(
                run_setup(
                    self.setup_mode, self.setup_dir,
                    seed=self.setup_seed(index), scale=self.scale,
                    trace=self.trace,
                )
            )
        with HostSpeed() as loading:
            self.load(json.loads((self.setup_dir / "setup.json").read_text()))
        return [seconds + loading.scaled for seconds in times]

    def setup_seed(self, index: int) -> int:
        """The scenario seed of set-up ``index``: the run's own seed."""
        return self.seed

    def load(self, info: dict[str, Any]) -> None:
        """Adopt what the set-up child wrote."""

    def detect(self, zonedb: Any, whois: Any, *, mine_patterns: bool) -> Any:
        """A batch ``DetectionPipeline`` run, recording its sqlite reads."""
        registry = obs.metrics()
        queries = registry.counter("sqlite.ns_records_queries")
        timer = registry.histogram("sqlite.ns_records.duration_s")
        before = (queries.value, timer.total)
        with obs.span("detection.pipeline"):
            result = DetectionPipeline(
                zonedb, whois, mine_patterns=mine_patterns
            ).run()
        if obs.active_tracer() is not None:
            self.sqlite_reads.append(
                (int(queries.value - before[0]), timer.total - before[1])
            )
        return result

    def before_op(self) -> None:
        """Untimed housekeeping before every operation."""
        default_cache().clear()

    def op(self) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> bool:
        raise NotImplementedError

    def remaining(self) -> int | None:
        """Operations left to run, or None when unbounded."""
        return None

    def finish(self) -> bool:
        """Final check after the loop; False charges the last operation."""
        return True


class BatchPaper(Workload):
    """Regenerate the study from scratch: the ``simulate`` → ``detect
    --dataset --mine-patterns`` → ``report`` path, one repeat per op.

    Repeats cycle through ``PAPER_WORLDS`` worlds (seeds ``seed *
    PAPER_WORLDS + i``): a repeat's cost varies by 5% (coefficient of
    variation, ten seeds) with its world, and a median over several
    worlds is robust to one costly world. A
    traced run repeats each world twice, untraced and then traced, so the
    two are compared on the same input. A repeat of a world must
    reproduce its digest.
    """

    name = "batch-paper"
    setup_mode = "start"
    setup_runs = 5
    default_scale = 1.0

    def load(self, info: dict[str, Any]) -> None:
        self.configs = [
            scenario(self.seed * PAPER_WORLDS + index, self.scale)
            for index in range(PAPER_WORLDS)
        ]
        self.repeats = 0
        #: Result digest per world, from its first repeat.
        self.digests: dict[int, str] = {}

    def before_op(self) -> None:
        default_cache().clear()
        # A fresh process starts every real run; release the previous
        # repeat's heap so collection cost does not grow repeat by repeat.
        gc.collect()

    def op(self) -> Any:
        index = (self.repeats // 2 if self.trace else self.repeats) % PAPER_WORLDS
        self.repeats += 1
        config = self.configs[index]
        dataset = self.workdir / "dataset.sqlite"
        whois_path = self.workdir / "whois.jsonl"
        with obs.span("ecosystem.simulate") as span:
            world = World(config).run()
            span.set(renames=len(world.log.renames))
        with obs.span("store.write_dataset") as span:
            write_dataset(
                world.zonedb, dataset, scenario_digest=scenario_digest(config)
            )
            span.set(bytes=dataset.stat().st_size)
        spanned("whois.dump", lambda: world.whois.dump(whois_path))
        truth = observable_truth(world)
        # The world is garbage from here on. Collect it at the same point
        # in every repeat rather than wherever an automatic collection
        # happens to fall, which would move both time and peak memory.
        del world
        gc.collect()
        zonedb = spanned("store.open_dataset", lambda: open_dataset(dataset))
        whois = spanned("whois.load", lambda: WhoisArchive.load(whois_path))
        result = self.detect(zonedb, whois, mine_patterns=True)
        study = spanned(
            "analysis.study", lambda: StudyAnalysis(result, zonedb, whois)
        )
        spanned("analysis.report", lambda: render_full_report(result, study))
        zonedb.close()
        return index, truth, result

    def check(self, output: Any) -> bool:
        index, truth, result = output
        digest = result_digest(result)
        first = self.digests.setdefault(index, digest)
        return detection_matches(result, truth) and digest == first


class BatchDetect(Workload):
    """``riskybiz detect --dataset``: reopen the dataset, detect, no mining.

    Each of the ``setup_runs`` set-ups writes the dataset of its own
    world (seeds ``seed * setup_runs + i``), and operations alternate
    between them: an operation's cost varies by 5% (coefficient of
    variation, ten seeds) with its world, and a median over two worlds
    is steadier. Every operation on a world must reproduce its digest.
    """

    name = "batch-detect"
    setup_mode = "dataset"
    setup_runs = 2
    default_scale = 1.0

    def setup_seed(self, index: int) -> int:
        return self.seed * self.setup_runs + index

    def load(self, info: dict[str, Any]) -> None:
        self.worlds = []
        for index in range(self.setup_runs):
            setup_dir = self.workdir / f"setup-{index}"
            truth = json.loads((setup_dir / "setup.json").read_text())["truth"]
            whois = spanned(
                "whois.load", lambda: WhoisArchive.load(setup_dir / "whois.jsonl")
            )
            self.worlds.append((setup_dir / "dataset.sqlite", whois, set(truth)))
        self.runs = 0
        #: Result digest per world, from its first operation.
        self.digests: dict[int, str] = {}

    def op(self) -> Any:
        # A traced run visits each world twice in a row, untraced and
        # then traced, so the two are compared on the same input.
        index = (self.runs // 2 if self.trace else self.runs) % len(self.worlds)
        self.runs += 1
        dataset, whois, _truth = self.worlds[index]
        zonedb = spanned("store.open_dataset", lambda: open_dataset(dataset))
        result = self.detect(zonedb, whois, mine_patterns=False)
        zonedb.close()
        return index, result

    def check(self, output: Any) -> bool:
        index, result = output
        digest = result_digest(result)
        first = self.digests.setdefault(index, digest)
        truth = self.worlds[index][2]
        return detection_matches(result, truth) and digest == first


class DailyAdvance(Workload):
    """``riskybiz advance --mine-patterns`` as a daily cron job.

    Set-up drains one standing incremental run per world through a fixed
    number of batch days (``prepare.ADVANCE_HISTORY_DAYS_PER_SCALE``).
    Each operation is then one ``advance`` invocation folding a world's
    next recorded batch day. Operations visit the worlds in turn, two
    days each, so a traced run compares untraced and traced invocations
    on the same world, and the median over all four is robust to one
    costly world.
    """

    name = "daily-advance"
    setup_mode = "standing-runs"
    setup_runs = 1
    default_scale = 0.1

    def load(self, info: dict[str, Any]) -> None:
        self.worlds = [
            StandingRun(self.setup_dir / f"world-{index}", world["window"])
            for index, world in enumerate(info["worlds"])
        ]
        self.invocations = 0

    def remaining(self) -> int:
        return min(len(world.window) - world.next for world in self.worlds)

    def op(self) -> Any:
        world = self.worlds[self.invocations // 2 % len(self.worlds)]
        self.invocations += 1
        return world, world.advance()

    def check(self, output: Any) -> bool:
        world, (day, outcome) = output
        world.last = outcome
        return outcome.days_advanced == 1 and outcome.watermark == day

    def finish(self) -> bool:
        """Each advanced world's last result equals a batch run over its
        history."""
        return all(
            self.matches_batch(world)
            for world in self.worlds
            if world.last is not None
        )

    def matches_batch(self, world: "StandingRun") -> bool:
        source = open_dataset(world.dataset)
        replica = ZoneDatabase()
        for batch_day, event in source.deltas_since(None):
            if batch_day > world.last.watermark:
                break
            replica.apply_delta(event)
        source.close()
        whois = WhoisArchive.load(world.whois_path)
        batch = self.detect(replica, whois, mine_patterns=True)
        return result_digest(batch) == world.last.result_digest


class StandingRun:
    """One world's dataset and the incremental run standing over it."""

    def __init__(self, root: Path, window: list[int]) -> None:
        self.dataset = root / "dataset.sqlite"
        self.whois_path = root / "whois.jsonl"
        self.run_dir = root / "run"
        self.window = window
        self.next = 0
        self.last: Any = None

    def advance(self) -> tuple[int, Any]:
        """One ``riskybiz advance --until DAY`` invocation for the next day."""
        day = self.window[self.next]
        self.next += 1
        zonedb = spanned("store.open_dataset", lambda: open_dataset(self.dataset))
        whois = spanned("whois.load", lambda: WhoisArchive.load(self.whois_path))
        with obs.span("runner.invocation"):
            run_id = RunJournal.open(self.run_dir / JOURNAL_NAME).run_id
            outcome = run_incremental_detection(
                zonedb,
                whois,
                run_dir=self.run_dir,
                until=day,
                mine_patterns=True,
                resume=run_id,
                consumer=IncrementalDetectionEngine.CONSUMER,
                trace=obs.active_tracer() is not None,
            )
        spanned("analysis.report", lambda: render_funnel(outcome.result))
        zonedb.close()
        return day, outcome


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchPaper, BatchDetect, DailyAdvance)
}


# -- measuring ---------------------------------------------------------------


@dataclass
class Loop:
    """Per-operation times of one closed loop, split by tracing.

    ``untraced`` and ``traced`` are in reference seconds; ``wall`` and
    ``factors`` hold the untraced operations' wall times and host-speed
    factors.
    """

    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced)


def closed_loop(
    workload: Workload, seconds: float, tracer: Tracer | None
) -> Loop:
    """Run operations back to back for ``seconds`` of wall time.

    The loop runs at least one operation, and stops before one that
    would end past ``seconds`` if it took as long as the last one, so a
    run's length does not depend on where its last operation falls.
    With a tracer, operations alternate untraced and traced, so both
    kinds see the same history and host conditions and their medians
    give the tracing overhead.
    """
    loop = Loop()
    started = clock.perf_counter()
    while workload.remaining() != 0:
        traced = tracer is not None and loop.attempted % 2 == 1
        workload.before_op()
        with obs.observing(tracer if traced else None):
            with HostSpeed() as timing:
                output = workload.op()
        if traced:
            loop.traced.append(timing.scaled)
        else:
            loop.untraced.append(timing.scaled)
            loop.wall.append(timing.wall)
            loop.factors.append(timing.factor)
        if not workload.check(output):
            loop.failed += 1
        del output
        if clock.perf_counter() - started + timing.wall > seconds:
            break
    return loop


@dataclass
class RunResult:
    """What one run of one workload measured."""

    attempted: int
    failed: int
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    #: Human-readable context lines printed above the metrics.
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.attempted >= 1 and self.failed == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: float | None = None,
) -> RunResult:
    """Set up and measure one workload; traced runs report per-layer metrics."""
    workload = WORKLOADS[name](workdir, seed, scale, trace=trace)
    tracer = (
        Tracer.open_or_create(workdir / "bench-trace.jsonl", f"bench-{name}")
        if trace
        else None
    )
    try:
        with obs.observing(tracer):
            setup_times = workload.setup()
        loop = closed_loop(workload, seconds, tracer)
        with obs.observing(tracer):
            if not workload.finish():
                loop.failed += 1
    finally:
        if tracer is not None:
            tracer.close()
    notes = [
        f"{name}: seed {seed}, scale {workload.scale}, {loop.attempted} "
        f"op(s), {loop.failed} failed, set-up median of {len(setup_times)}"
    ]
    if trace:
        metrics = layers.per_layer(
            bench_trace=workdir / "bench-trace.jsonl",
            setup_traces=sorted(workdir.glob("setup-*/setup-trace.jsonl")),
            runner_traces=sorted(
                workload.setup_dir.glob(f"world-*/run/{TRACE_NAME}")
            ),
            untraced=loop.untraced,
            traced=loop.traced,
            sqlite_reads=workload.sqlite_reads,
        )
        notes.append(
            f"traced {len(loop.traced)} of {loop.attempted} ops; untraced "
            f"p50 {statistics.median(loop.untraced) * 1000:.1f} ms"
            if loop.traced and loop.untraced
            else "too few ops to compare traced and untraced"
        )
    else:
        samples = loop.untraced
        tail_label, tail = percentile_tail(samples)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        notes.append(
            f"latency {tail_label} {tail * 1000:.1f} ms over {len(samples)} ops; "
            f"wall p50 {statistics.median(loop.wall) * 1000:.1f} ms, host at "
            f"{statistics.median(loop.factors):.3f}x the reference speed"
        )
    return RunResult(
        attempted=loop.attempted,
        failed=loop.failed,
        metrics=metrics,
        notes=notes,
    )

