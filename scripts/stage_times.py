"""Wall-timer breakdown of one benchmark workload's cycle, stage by stage.

    python3 scripts/stage_times.py --workload verify_decode --seed 0 [--cycles 10]

Runs every operation of the workload's cycle, as perfbench/sweeps.py
defines it (each round's sweep points, one `run_sweep` call each), the
given number of times with one BLAS thread.  A stage is a plain
module-level function of the library's five modules: while the cycle
runs, every name that refers to one, in any of the five, calls
it through a wall timer, so the stages need no list and follow any
rename.  A stage is printed in the order of its first call, indented by
the call nesting at that call, so each stage stands under the stage that
first called it, and is counted in both.  Each line is the stage's total
over one cycle in its fastest cycle, with its share of the fastest whole
cycle; as each line is its own minimum, the lines need not add up.  Only
stages that ran are printed.  The timers add under a microsecond a call
(README, "Tests and acceptance suite").  The workload definitions are
only read.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

# one BLAS thread, set before numpy loads, and the package from this checkout
from checkout import use_checkout_sources  # noqa: E402

class _Timers:
    """Wall timers of a set of functions, with the call depth of each one's first call."""

    def __init__(self) -> None:
        self.depth = 0
        self.first_depths: dict[Callable, int] = {}  # in first-call order
        self.totals: dict[Callable, float] = defaultdict(float)

    def timed(self, function: Callable) -> Callable:
        """`function`, adding the wall time of each call to `totals[function]`."""

        @functools.wraps(function)
        def timed(*args, **kwargs):
            self.first_depths.setdefault(function, self.depth)
            self.depth += 1
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.totals[function] += time.perf_counter() - start
                self.depth -= 1

        return timed


def _stages(modules: list) -> dict[Callable, str]:
    """Every plain function defined at module level in `modules`, with its name."""
    return {
        value: name
        for module in modules
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
    }


def stage_times(name: str, seed: int, cycles: int) -> tuple[list[tuple[str, int, float]], int, int]:
    """The cycle's fastest time in seconds, as ("cycle", 0, s), then each stage's
    (name, depth, fastest total) in first-call order; and the cycle's
    operation and trial counts."""
    import sweeps
    from helpercache import cache_placement, delivery, partitioner, sim_harness, topology

    modules = [topology, cache_placement, partitioner, delivery, sim_harness]
    workload = sweeps.WORKLOADS[name]
    ops = [
        op
        for index in range(sweeps.ROUND_CYCLE)
        for op in sweeps.operations(workload.round_config(seed, index))
    ]
    stages = _stages(modules)
    timers = _Timers()
    wrapped = {function: timers.timed(function) for function in stages}
    # every reference, the importing modules' names too, so that each call is timed
    patched = [
        (module, attribute, value)
        for module in modules
        for attribute, value in vars(module).items()
        if inspect.isfunction(value) and value in wrapped
    ]
    best: dict[Callable, float] = {}
    fastest = math.inf
    try:
        for module, attribute, value in patched:
            setattr(module, attribute, wrapped[value])
        for _ in range(cycles):
            timers.totals.clear()
            start = time.perf_counter()
            for op in ops:
                sim_harness.run_sweep(op)
            fastest = min(fastest, time.perf_counter() - start)
            for stage, seconds in timers.totals.items():
                best[stage] = min(seconds, best.get(stage, math.inf))
    finally:
        for module, attribute, value in patched:
            setattr(module, attribute, value)
    rows = [("cycle", 0, fastest)]
    rows += [(stages[f], depth + 1, best[f]) for f, depth in timers.first_depths.items()]
    return rows, len(ops), sum(op.trials for op in ops)


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
    rows, num_ops, trials = stage_times(args.workload, args.seed, args.cycles)
    print(
        f"{args.workload} seed {args.seed}: {num_ops} operations, {trials} trials a cycle; "
        f"fastest of {args.cycles} cycles, one BLAS thread"
    )
    labels = ["  " * depth + stage for stage, depth, _ in rows]
    width = max(len(label) for label in labels) + 2
    print(f"{'stage':<{width}}{'ms':>9}{'share':>8}")
    cycle = rows[0][2]
    for label, (_, _, seconds) in zip(labels, rows):
        print(f"{label:<{width}}{1e3 * seconds:>9.1f}{seconds / cycle:>8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
