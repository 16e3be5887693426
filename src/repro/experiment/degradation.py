"""Degradation sweep: detection accuracy vs observational data quality.

The paper's results rest on the detection methodology tolerating messy
inputs. This experiment quantifies that tolerance: one pristine world is
degraded at increasing uniform fault rates (dropped/duplicated/
reordered/truncated snapshot days, corrupted records, WHOIS gaps), the
§3 pipeline runs against each degraded view, and detected sacrificial
names are scored against the simulator's ground-truth rename log —
precision/recall per rate, alongside the pipeline's own coverage and
confidence annotations.

Every per-rate result is checkpointed (when a directory is given), so a
killed sweep resumes where it stopped and produces identical tables.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.detection.pipeline import DetectionPipeline
from repro.faults.apply import degrade_world
from repro.faults.config import FaultConfig
from repro.store.atomic import atomic_write_bytes


@dataclass(frozen=True)
class SweepPoint:
    """Detection accuracy and data coverage at one uniform fault rate."""

    rate: float
    truth: int
    detected: int
    true_positives: int
    precision: float
    recall: float
    #: Snapshots the injector dropped outright.
    snapshots_dropped: int
    #: Fraction of the pristine snapshot stream that was delivered.
    snapshot_coverage: float
    #: Domains whose WHOIS history was a coverage gap.
    whois_domains_dropped: int
    #: Delegation absences repaired by the gap-bridging window.
    gaps_bridged: int
    #: The pipeline's own confidence annotation for this input.
    confidence: float

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


@dataclass
class DegradationReport:
    """One full sweep, ready for rendering or export."""

    seed: int
    scale: float
    every: int
    points: list[SweepPoint] = field(default_factory=list)

    def rows(self) -> list[tuple]:
        """Table rows: one per swept rate."""
        return [
            (
                f"{p.rate:.0%}",
                p.detected,
                f"{p.precision:.3f}",
                f"{p.recall:.3f}",
                f"{p.f1:.3f}",
                f"{p.snapshot_coverage:.3f}",
                p.gaps_bridged,
                f"{p.confidence:.3f}",
            )
            for p in self.points
        ]


def _evaluate_rate(
    world_result,
    truth: set[str],
    rate: float,
    *,
    every: int,
) -> SweepPoint:
    """Run the pipeline against one degraded view and score it."""
    if rate <= 0:
        # Rate zero must reproduce the paper numbers exactly: use the
        # pristine observables directly, bypassing snapshot resampling.
        zonedb, whois = world_result.zonedb, world_result.whois
        snapshots_dropped = 0
        snapshot_coverage = 1.0
        whois_dropped = 0
    else:
        config = FaultConfig.uniform(rate, seed=world_result.config.seed)
        degraded = degrade_world(world_result, config, every=every)
        zonedb, whois = degraded.zonedb, degraded.whois
        snapshots_dropped = len(degraded.snapshot_log.dropped)
        snapshot_coverage = degraded.snapshot_coverage
        whois_dropped = len(degraded.whois_log.domains_dropped)
    result = DetectionPipeline(zonedb, whois).run()
    detected = {s.name for s in result.sacrificial}
    true_positives = len(detected & truth)
    return SweepPoint(
        rate=rate,
        truth=len(truth),
        detected=len(detected),
        true_positives=true_positives,
        precision=true_positives / len(detected) if detected else 1.0,
        recall=true_positives / len(truth) if truth else 1.0,
        snapshots_dropped=snapshots_dropped,
        snapshot_coverage=snapshot_coverage,
        whois_domains_dropped=whois_dropped,
        gaps_bridged=result.coverage.gaps_bridged,
        confidence=result.coverage.confidence,
    )


def run_degradation_sweep(
    rates: Iterable[float],
    *,
    seed: int = 2021,
    scale: float = 0.1,
    every: int = 7,
    checkpoint_dir: str | Path | None = None,
    world_result=None,
) -> DegradationReport:
    """Sweep the detection pipeline across uniform degradation rates.

    ``every`` is the snapshot sampling interval (days) used when
    reconstructing the degraded zone archives. With a
    ``checkpoint_dir``, each completed rate's :class:`SweepPoint` is
    persisted (atomically) and reloaded on re-run — killing the sweep at
    any point and restarting recomputes only the unfinished rates and
    yields the identical report.
    """
    if world_result is None:
        from repro.ecosystem.world import run_default_world

        world_result = run_default_world(seed, scale)
    truth = {record.new_name for record in world_result.log.renames}
    directory = Path(checkpoint_dir) if checkpoint_dir else None
    if directory:
        directory.mkdir(parents=True, exist_ok=True)
    report = DegradationReport(seed=seed, scale=scale, every=every)
    for rate in rates:
        point_path = directory / f"point-{rate:.4f}.pkl" if directory else None
        if point_path is not None and point_path.exists():
            with open(point_path, "rb") as handle:
                point = pickle.load(handle)
        else:
            point = _evaluate_rate(world_result, truth, rate, every=every)
            if point_path is not None:
                atomic_write_bytes(point_path, pickle.dumps(point))
        report.points.append(point)
    return report


def render_sweep(report: DegradationReport) -> str:
    """The sweep as an aligned monospace table."""
    from repro.analysis.report import format_table

    table = format_table(
        [
            "fault rate",
            "detected",
            "precision",
            "recall",
            "F1",
            "snap cov.",
            "bridged",
            "confidence",
        ],
        report.rows(),
        title=(
            "Detection accuracy under observational degradation "
            f"(seed={report.seed}, scale={report.scale}, "
            f"snapshot every {report.every}d)"
        ),
    )
    truth = report.points[0].truth if report.points else 0
    return f"{table}\nground-truth sacrificial names: {truth}"


DEFAULT_SWEEP_RATES: Sequence[float] = (0.0, 0.05, 0.10, 0.20)
