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
    # where greedy's count is not Hall's, at r = 1.2.
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
    # each stage indented under the stage that calls it, as it is printed
    indented = [line[: len(line) - len(line.lstrip())] + line.split()[0] for line in lines]
    assert indented == [
        "cycle",
        "  _draw_chunk",
        "    disk_links",
        "  evaluate_counts",
        "    greedy_placement",
        "    hall_witnesses",
        "  _checked_pairs",
        "    optimal_placement",
        "    _witness_bounds",
        "    _pair_table",
        "    audit_pairs",
        "  decode_schedules",
        "    matched_precoders",
    ]
    assert stages[0][2] == "100.0%"
    assert all(0 <= float(ms) <= float(stages[0][1]) for _, ms, _ in stages)
