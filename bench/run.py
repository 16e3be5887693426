"""Benchmark of the riskybiz reproduction, end to end and per layer.

One workload, as ``BENCHMARK.json``'s command runs it (from the repo root)::

    python3 bench/run.py --workload batch-detect --seed 2021 --seconds 30 --trace 0

prints each metric with its unit and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` (or a bare
``--trace``) the per-layer metrics of a run whose operations alternate
untraced and traced. Exits 1 if any correctness check failed.

Every workload::

    python3 bench/run.py --seed 2021 [--runs N] [--trace] [--out FILE]

runs each workload in its own child process, one at a time, N times
with seeds SEED .. SEED+N-1, then with ``--trace`` once more traced. The
results are added to FILE (created if missing), which
``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
DEFAULT_SECONDS = 30
RESULTS_FORMAT = "riskybiz-bench/1"


def render(result) -> list[str]:
    """The human-readable lines printed above a run's JSON line."""
    lines = list(result.notes)
    for name, (value, unit) in result.metrics.items():
        lines.append(f"  {name:<40} {value:>16.6f} {unit}")
    return lines


def run_one(args: argparse.Namespace) -> int:
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # Keep SQLite's and Python's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(workdir / "tmp")
    try:
        result = workloads.run_workload(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in render(result):
        print(line)
    print(json.dumps(result.to_json()), flush=True)
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    plan = [
        (name, args.seed + index, 0)
        for index in range(args.runs)
        for name in WORKLOADS
    ]
    if args.trace:
        plan += [(name, args.seed, 1) for name in WORKLOADS]
    document = {
        "format": RESULTS_FORMAT,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "runs": {name: [] for name in WORKLOADS},
    }
    if args.out is not None and args.out.exists():
        document = json.loads(args.out.read_text())
    all_correct = True
    for name, seed, trace in plan:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"{name}: run failed (exit {child.returncode})", file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        document["runs"].setdefault(name, []).append(
            {"seed": seed, "trace": trace, **result}
        )
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the riskybiz reproduction end to end."
    )
    parser.add_argument(
        "--workload", help="run one workload (default: every workload)"
    )
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="how long one run measures (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="untraced runs per workload, without --workload",
    )
    parser.add_argument(
        "--out", type=Path,
        help="results file to add the runs to, without --workload",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r} "
                f"(choose from {', '.join(WORKLOADS)})"
            )
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
