"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Every workload runs at its shortest length (one pass of its round cycle)
in both run kinds; every metric BENCHMARK.json declares must be printed with
its unit, and every count must repeat exactly between two traced runs with
one seed.  They take about two minutes, so the file is named to stay out of the
repository's default test collection and is run by path.
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
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((BENCH / "metric_map.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=root,
    )


def result_of(done: subprocess.CompletedProcess, section: str) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[section]}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"  {name} = " in done.stdout  # the human-readable line too
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0), "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run_bench(workload, 1), "per_layer")["metrics"]
    second = result_of(run_bench(workload, 1), "per_layer")["metrics"]
    counts = [name for name, entry in METRIC_MAP["per_layer"].items()
              if entry["kind"] in ("count", "exact")]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_metric_map_covers_every_declared_name():
    assert set(METRIC_MAP["per_layer"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert set(METRIC_MAP["workloads"]) == set(WORKLOADS)
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    for name, entry in METRIC_MAP["per_layer"].items():
        assert entry["kind"] in ("time", "count", "exact", "samples", "ratio"), name
        assert entry["moves"] in end_to_end, name
        assert entry["workloads"] and set(entry["workloads"]) <= set(WORKLOADS), name


def test_scaled_rate_cancels_a_uniform_host_slowdown():
    sys.path.insert(0, str(BENCH))
    from checkout import use_checkout_sources

    use_checkout_sources()
    import calibration
    import sweeps

    assert calibration.kernel() == calibration.kernel()  # fixed work
    ops = sweeps.operations(sweeps.WORKLOADS[WORKLOADS[0]].round_config(0, 0))
    quiet, slow = sweeps.BestTimes(), sweeps.BestTimes()
    for i, op in enumerate(ops):
        quiet.add(0, op, 0.1 * (i + 1), calibration.REFERENCE_S)
        slow.add(0, op, 0.17 * (i + 1), 1.7 * calibration.REFERENCE_S)
    assert quiet.rate() == pytest.approx(quiet.wall_rate())
    assert slow.rate() == pytest.approx(quiet.rate())
    assert slow.wall_rate() == pytest.approx(quiet.wall_rate() / 1.7)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
