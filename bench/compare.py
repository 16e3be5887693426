"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py RESULTS.json     # first half of its runs vs second

A and B are results files written by ``bench/run.py --out``: A the
parent commit, B the change, made with the same seeds and ``--seconds``.
Each end-to-end metric of ``BENCHMARK.json`` is judged on each workload
against its bound, where a run set's spread is the distance between its
quartiles as a share of its median:

``unresolved``
    A's or B's spread is wider than the bound (unless every B run reads
    better than every A run, which is ``improved``);
``worse``
    B's median is worse than A's by more than the bound;
``improved``
    B's median is better by more than A's spread, and B wins at least
    nine in ten pairs of runs with the same seed;
``unchanged``
    otherwise.

One row per workload follows, then the per-layer medians of the traced
runs side by side. Exits 1 if any pairing is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def gain(parent: float, change: float, better: str) -> float:
    """How much better ``change`` reads than ``parent``, as a share."""
    if not parent:
        return 0.0
    delta = (parent - change) / parent
    return delta if better == "lower" else -delta


def judge(
    parent: list[tuple[int, float]],
    change: list[tuple[int, float]],
    *,
    bound: float,
    better: str,
) -> str:
    """The verdict for one metric on one workload."""
    a = [value for _, value in parent]
    b = [value for _, value in change]
    if spread(a) > bound or spread(b) > bound:
        if all(gain(x, y, better) > 0 for x in a for y in b):
            return "improved"
        return "unresolved"
    median_gain = gain(statistics.median(a), statistics.median(b), better)
    if median_gain < -bound:
        return "worse"
    by_seed = dict(parent)
    pairs = [(by_seed[seed], value) for seed, value in change if seed in by_seed]
    wins = sum(1 for x, y in pairs if gain(x, y, better) > 0)
    if pairs and median_gain > spread(a) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def runs_by_workload(document: dict[str, Any], trace: int) -> dict[str, list[dict]]:
    return {
        workload: [run for run in runs if run["trace"] == trace]
        for workload, runs in document["runs"].items()
    }


def split_halves(document: dict[str, Any]) -> tuple[dict, dict]:
    """One results file as two: the first half of each run list, the rest."""
    first: dict[str, list] = {}
    second: dict[str, list] = {}
    for workload, runs in document["runs"].items():
        for trace in (0, 1):
            subset = [run for run in runs if run["trace"] == trace]
            half = len(subset) // 2
            first.setdefault(workload, []).extend(subset[:half])
            second.setdefault(workload, []).extend(subset[half:])
    return {"runs": first}, {"runs": second}


def series(runs: list[dict], metric: str) -> list[tuple[int, float]]:
    return [
        (run["seed"], run["metrics"][metric]["value"])
        for run in runs
        if metric in run["metrics"]
    ]


def compare(
    parent: dict[str, Any], change: dict[str, Any], benchmark: dict[str, Any]
) -> tuple[list[str], bool]:
    """The report lines, and whether any pairing is worse."""
    lines: list[str] = []
    any_worse = False
    metrics = benchmark["end_to_end"]
    a_runs = runs_by_workload(parent, 0)
    b_runs = runs_by_workload(change, 0)
    width = max(len(m["name"]) for m in metrics) + 12
    lines.append(
        f"{'workload':<16}" + "".join(f"{m['name']:<{width}}" for m in metrics)
    )
    for workload in (w["name"] for w in benchmark["workloads"]):
        cells = []
        for metric in metrics:
            a = series(a_runs.get(workload, []), metric["name"])
            b = series(b_runs.get(workload, []), metric["name"])
            if not a or not b:
                cells.append("missing")
                continue
            verdict = judge(a, b, bound=metric["bound"], better=metric["better"])
            any_worse = any_worse or verdict == "worse"
            median_a = statistics.median(v for _, v in a)
            median_b = statistics.median(v for _, v in b)
            cells.append(f"{verdict} {median_b / median_a - 1:+.1%}")
        lines.append(f"{workload:<16}" + "".join(f"{c:<{width}}" for c in cells))

    a_traced = runs_by_workload(parent, 1)
    b_traced = runs_by_workload(change, 1)
    for workload in (w["name"] for w in benchmark["workloads"]):
        if not a_traced.get(workload) or not b_traced.get(workload):
            continue
        lines.append("")
        lines.append(f"per-layer medians, {workload} (A -> B)")
        for metric in benchmark["per_layer"]:
            a = [v for _, v in series(a_traced[workload], metric["name"])]
            b = [v for _, v in series(b_traced[workload], metric["name"])]
            if not a or not b or (not any(a) and not any(b)):
                continue
            lines.append(
                f"  {metric['name']:<40} {statistics.median(a):>14.6g} -> "
                f"{statistics.median(b):<14.6g} {metric['unit']}"
            )
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark results against BENCHMARK.json's bounds."
    )
    parser.add_argument("parent", type=Path, help="results of the parent (A)")
    parser.add_argument(
        "change", type=Path, nargs="?",
        help="results of the change (B); without it, PARENT's first half "
             "of runs is compared with its second half",
    )
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(args.parent.read_text())
    if args.change is None:
        parent, change = split_halves(parent)
    else:
        change = json.loads(args.change.read_text())
    lines, any_worse = compare(parent, change, benchmark)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
