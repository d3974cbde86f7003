"""The stage timer of scripts/stage_times.py runs a benchmark cycle and names its stages."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_times.py"


def test_stage_times_prints_the_verified_stages():
    # One seed-0 verify_decode cycle: 24 sweep points of 10 trials.  The
    # evaluate stage of a verified chunk counts greedy with the scan that
    # places it, and bb with the Hall call that also gives its witnesses,
    # so `greedy_counts` does not run.  The matching runs on the labels
    # where greedy's count is not Hall's, at r = 1.2.  Only public names
    # are pinned, so renaming a private stage needs no edit here.
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "verify_decode", "--seed", "0", "--cycles", "1"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    header, columns, *lines = done.stdout.splitlines()
    assert header == (
        "verify_decode seed 0: 24 operations, 240 trials a cycle; fastest of 1 cycles, "
        "one BLAS thread"
    )
    assert columns.split() == ["stage", "ms", "share"]
    stages = [line.split() for line in lines]
    assert stages[0] == ["cycle", stages[0][1], "100.0%"]
    assert all(0 <= float(ms) <= float(stages[0][1]) for _, ms, _ in stages)
    # The stages are found, not listed: each is printed once, at its first
    # call, one level under the stage that called it.
    names = [name for name, _, _ in stages]
    assert len(set(names)) == len(names)
    depths = [(len(line) - len(line.lstrip())) // 2 for line in lines]
    assert depths[0] == 0 and all(d >= 1 for d in depths[1:])
    assert all(later <= earlier + 1 for earlier, later in zip(depths, depths[1:]))
    caller = {}
    for i, depth in enumerate(depths[1:], 1):
        caller[names[i]] = next(names[j] for j in range(i - 1, -1, -1) if depths[j] < depth)
    assert caller["run_sweep"] == "cycle"
    assert caller["greedy_placement"] == caller["hall_witnesses"] == "evaluate_counts"
    assert caller["matched_precoders"] == "decode_schedules"
    assert {"disk_links", "optimal_placement", "audit_pairs"} <= set(names)
    assert "greedy_counts" not in names
