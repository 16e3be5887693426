"""Tests of the benchmark itself: ``pytest bench`` from the repo root.

Every workload runs at scale 0.02 for a single operation, untraced and
traced, and must print each metric ``BENCHMARK.json`` names with its
unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    } == layers.PER_LAYER_UNITS
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(
    name: str, trace: bool, tmp_path: Path
) -> None:
    result = workloads.run_workload(
        name, seed=2021, seconds=0, trace=trace, workdir=tmp_path, scale=0.02
    )
    assert result.correct, result.notes
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = [line.split() for line in run.render(result)]
    for metric in expected:
        assert [metric["name"], metric["unit"]] in [
            [fields[0], fields[-1]] for fields in printed if len(fields) == 3
        ], metric["name"]
    document = result.to_json()
    assert {
        name: entry["unit"] for name, entry in document["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}


def test_missing_sacrificial_name_counts_as_failure(tmp_path: Path) -> None:
    class DropOneName(workloads.BatchDetect):
        def op(self):
            index, result = super().op()
            result.sacrificial.pop()
            return index, result

    workload = DropOneName(tmp_path, seed=2021, scale=0.02)
    workload.setup()
    loop = workloads.closed_loop(workload, 0, None)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_run_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch-detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""


def _results(values: list[float]) -> dict:
    return {"runs": {"batch-detect": [
        {"seed": seed, "trace": 0, "metrics": {"op_p50_ms": {"value": v, "unit": "ms"}}}
        for seed, v in enumerate(values)
    ]}}


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([100, 101, 99, 100], "unchanged"),
        ([150, 151, 149, 150], "worse"),
        ([80, 81, 79, 80], "improved"),
        ([60, 100, 140, 200], "unresolved"),
    ],
)
def test_compare_applies_the_bound(change: list[float], verdict: str) -> None:
    benchmark = {
        "workloads": [{"name": "batch-detect"}],
        "end_to_end": [
            {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
        ],
        "per_layer": [],
    }
    lines, any_worse = compare.compare(
        _results([100, 100, 101, 99]), _results(change), benchmark
    )
    assert lines[1].split()[1] == verdict
    assert any_worse == (verdict == "worse")
