"""Wall-timer breakdown of one benchmark workload's cycle, stage by stage.

    python3 scripts/stage_times.py --workload verify_decode --seed 0 [--cycles 10]

Runs every operation of the workload's cycle, as perfbench/sweeps.py
defines it (each round's sweep points, one `run_sweep` call each), the
given number of times with one BLAS thread.  Every call of each stage of a
sweep point is timed with the wall clock: the chunk draw with its links,
the evaluate stage with its solvers (Hall's counts with their witnesses,
and verified, the scan that counts and places greedy), and verified,
`_checked_pairs` with bb's matching on the labels greedy overcounts, the
witnesses' recount, the pair table and the audit, and `decode_schedules`
with its precoders.  A stage called inside another is indented under it and
counted in both.  Each line is the stage's total over one cycle in its
fastest cycle, with its share of the fastest whole cycle; as each line
is its own minimum, the lines need not add up.  Only stages that ran are
printed.  The workload definitions are only read.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

# one BLAS thread, set before numpy loads, and the package from this checkout
from checkout import use_checkout_sources  # noqa: E402

# (module, function, depth) in call order, each under the stage that calls it
STAGES = (
    ("sim_harness", "_draw_chunk", 1),
    ("sim_harness", "disk_links", 2),
    ("sim_harness", "evaluate_counts", 1),
    ("sim_harness", "greedy_placement", 2),
    ("sim_harness", "hall_witnesses", 2),
    ("sim_harness", "greedy_counts", 2),
    ("sim_harness", "_checked_pairs", 1),
    ("sim_harness", "optimal_placement", 2),
    ("sim_harness", "_witness_bounds", 2),
    ("sim_harness", "_pair_table", 2),
    ("sim_harness", "audit_pairs", 2),
    ("sim_harness", "decode_schedules", 1),
    ("delivery", "matched_precoders", 2),
)


def _timed(function: Callable, name: str, totals: dict[str, float]) -> Callable:
    """`function`, adding the wall time of each call to `totals[name]`."""

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start

    return timed


def stage_times(name: str, seed: int, cycles: int) -> tuple[dict[str, float], int, int]:
    """Each stage's fastest total over a cycle of the workload, the cycle's as "cycle",
    in seconds; and the cycle's operation and trial counts."""
    import sweeps
    from helpercache import delivery, sim_harness

    modules = {"sim_harness": sim_harness, "delivery": delivery}
    workload = sweeps.WORKLOADS[name]
    ops = [
        op
        for index in range(sweeps.ROUND_CYCLE)
        for op in sweeps.operations(workload.round_config(seed, index))
    ]
    totals: dict[str, float] = defaultdict(float)
    saved = [(modules[module], function) for module, function, _ in STAGES]
    originals = [getattr(module, function) for module, function in saved]
    best: dict[str, float] = {}
    try:
        for (module, function), original in zip(saved, originals):
            setattr(module, function, _timed(original, function, totals))
        for _ in range(cycles):
            totals.clear()
            start = time.perf_counter()
            for op in ops:
                sim_harness.run_sweep(op)
            totals["cycle"] = time.perf_counter() - start
            for stage, seconds in totals.items():
                best[stage] = min(seconds, best.get(stage, math.inf))
    finally:
        for (module, function), original in zip(saved, originals):
            setattr(module, function, original)
    return best, len(ops), sum(op.trials for op in ops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of perfbench/sweeps.py")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    parser.add_argument("--cycles", type=int, default=10, help="cycles run; the fastest is kept")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error(f"--cycles must be at least 1, got {args.cycles}")
    use_checkout_sources()
    import sweeps

    if args.workload not in sweeps.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, not one of {sorted(sweeps.WORKLOADS)}")
    best, num_ops, trials = stage_times(args.workload, args.seed, args.cycles)
    print(
        f"{args.workload} seed {args.seed}: {num_ops} operations, {trials} trials a cycle; "
        f"fastest of {args.cycles} cycles, one BLAS thread"
    )
    print(f"{'stage':<28}{'ms':>9}{'share':>8}")
    cycle = best["cycle"]
    for stage, depth in [("cycle", 0)] + [(function, depth) for _, function, depth in STAGES]:
        if stage in best:
            label = "  " * depth + stage
            print(f"{label:<28}{1e3 * best[stage]:>9.1f}{best[stage] / cycle:>8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
