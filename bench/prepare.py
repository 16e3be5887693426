"""Set-up process for one benchmark run: build a workload's inputs.

Runs in a fresh interpreter, so its wall time is what a user pays to
start the program and produce the inputs, and the measured process
inherits none of its heap or caches::

    python3 bench/prepare.py MODE --out DIR --seed N --scale S [--trace]

Modes:

``start``
    Import the modules the workload calls and build the scenario
    (``batch-paper`` has no stored inputs; its set-up is start-up).
``dataset``
    Simulate the scenario, write the SQLite dataset and the WHOIS
    archive, and record the observable ground truth (``batch-detect``).
``standing-runs``
    For each of ``ADVANCE_WORLDS`` independent worlds: simulate, keep
    the first ``ADVANCE_HISTORY_DAYS_PER_SCALE`` times the scale batch
    days of history plus
    ``ADVANCE_WINDOW_DAYS`` further ones, write that as the world's
    dataset, and drain a mined incremental run up to the window
    (``daily-advance``).

Everything lands in DIR, described by ``DIR/setup.json``. The work is
timed with :class:`hostspeed.HostSpeed`; ``setup.json``'s ``host``
entry holds the time the samples took, inside the work and around it,
and the factor that scales the
process's wall time to the reference host speed. With
``--trace`` each step runs inside a bench span of
``DIR/setup-trace.jsonl``, the drain also writes the runner's own trace,
and the same history is folded once more outside the runner (the bare
fold the runner's overhead is measured against).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402
from workloads import observable_truth, scenario  # noqa: E402

from repro.detection.incremental import IncrementalDetectionEngine  # noqa: E402
from repro.ecosystem.world import World  # noqa: E402
from repro.obs import runtime as obs  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.runner import run_incremental_detection  # noqa: E402
from repro.runner.execution import (  # noqa: E402
    CHECKPOINT_DIR_NAME,
    ENGINE_CHECKPOINT_NAME,
    JOURNAL_NAME,
)
from repro.store.artifacts import scenario_digest  # noqa: E402
from repro.store.dataset import DeltaView, open_dataset, write_dataset  # noqa: E402
from repro.whois.archive import WhoisArchive  # noqa: E402
from repro.zonedb.database import ZoneDatabase  # noqa: E402

#: Batch days each standing run has folded before timing starts, per
#: unit of scale (300 days at the workload's scale 0.1). The drain
#: checkpoints after every day, so its cost follows the number of days:
#: cutting the history at a fixed number of deltas instead (2,500 at
#: scale 0.1) left 177-441 days to drain, and one world's drain varied
#: by a coefficient of 33% over seeds 1-12, against 15% at a fixed 300
#: days. An invocation's cost varied by 9% and 7%.
ADVANCE_HISTORY_DAYS_PER_SCALE = 3_000

#: Independent worlds (seeds ``seed * ADVANCE_WORLDS + i``) behind one
#: daily-advance run. Renames arrive in bursts, so a small world's
#: invocation cost varies with its seed; a median over invocations on
#: four worlds is steadier.
ADVANCE_WORLDS = 4

#: Batch days recorded after the standing run's watermark; each timed
#: invocation folds one.
ADVANCE_WINDOW_DAYS = 300


def write_inputs(
    zonedb: ZoneDatabase, whois: WhoisArchive, out: Path, digest: str
) -> None:
    """The dataset and WHOIS archive ``riskybiz simulate`` would write."""
    dataset = out / "dataset.sqlite"
    with obs.span("store.write_dataset") as span:
        write_dataset(zonedb, dataset, scenario_digest=digest)
        span.set(bytes=dataset.stat().st_size)
    with obs.span("whois.dump"):
        whois.dump(out / "whois.jsonl")


def prepare_dataset(out: Path, seed: int, scale: float) -> dict:
    config = scenario(seed, scale)
    with obs.span("ecosystem.simulate") as span:
        world = World(config).run()
        span.set(renames=len(world.log.renames))
    write_inputs(world.zonedb, world.whois, out, scenario_digest(config))
    return {"truth": sorted(observable_truth(world))}


def prepare_standing_runs(
    out: Path, seed: int, scale: float, trace: bool
) -> dict:
    return {
        "worlds": [
            prepare_standing_run(
                out / f"world-{index}", seed * ADVANCE_WORLDS + index, scale, trace
            )
            for index in range(ADVANCE_WORLDS)
        ]
    }


def prepare_standing_run(
    out: Path, seed: int, scale: float, trace: bool
) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    config = scenario(seed, scale)
    with obs.span("ecosystem.simulate") as span:
        world = World(config).run()
        span.set(renames=len(world.log.renames))
    history = max(1, round(ADVANCE_HISTORY_DAYS_PER_SCALE * scale))
    batches = DeltaView(world.zonedb).batches()
    if len(batches) <= history:
        raise SystemExit(
            f"seed {seed} at scale {scale} records fewer than "
            f"{history + 1} batch days"
        )
    drain_day = batches[history - 1][0]
    after = batches[history:]
    window = [day for day, _ in after[:ADVANCE_WINDOW_DAYS]]
    # The dataset ends with the window: an invocation's cost depends on
    # the recorded stream past its watermark too.
    replica = ZoneDatabase()
    for batch_day, event in world.zonedb.deltas_since(None):
        if batch_day > window[-1]:
            break
        replica.apply_delta(event)
        replica.store.record_delta(event, batch_day)
    write_inputs(replica, world.whois, out, scenario_digest(config))
    del world, replica
    gc.collect()

    zonedb = open_dataset(out / "dataset.sqlite")
    whois = WhoisArchive.load(out / "whois.jsonl")
    run_dir = out / "run"
    with obs.span("runner.drain") as span:
        outcome = run_incremental_detection(
            zonedb,
            whois,
            run_dir=run_dir,
            until=drain_day,
            mine_patterns=True,
            consumer=IncrementalDetectionEngine.CONSUMER,
            trace=trace,
        )
        if trace:
            checkpoint = run_dir / CHECKPOINT_DIR_NAME / ENGINE_CHECKPOINT_NAME
            journal = (run_dir / JOURNAL_NAME).read_bytes()
            span.set(
                checkpoint_bytes=checkpoint.stat().st_size,
                journal_records=journal.count(b"\n"),
            )
    if trace:
        engine = IncrementalDetectionEngine(whois, mine_patterns=True)
        with obs.span("detection.bare_fold"):
            engine.advance_from(zonedb, until=drain_day)
            engine.result()
    zonedb.close()
    return {"run_id": outcome.run_id, "drain_day": drain_day, "window": window}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("start", "dataset", "standing-runs"))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--scale", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = (
        Tracer.open_or_create(args.out / "setup-trace.jsonl", "bench-setup")
        if args.trace
        else None
    )
    try:
        with obs.observing(tracer), HostSpeed() as timing:
            if args.mode == "start":
                scenario(args.seed, args.scale)
                info: dict = {}
            elif args.mode == "dataset":
                info = prepare_dataset(args.out, args.seed, args.scale)
            else:
                info = prepare_standing_runs(
                    args.out, args.seed, args.scale, args.trace
                )
    finally:
        if tracer is not None:
            tracer.close()
    info["host"] = {
        "sampling_s": timing.inside + timing.outside,
        "factor": timing.factor,
    }
    (args.out / "setup.json").write_text(json.dumps(info))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
