"""The two run kinds of the benchmark and their operation accounting.

Import only after `checkout.use_checkout_sources()`, which puts the sources
under test on the path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Callable

import numpy as np

import calibration
import sweeps
import tracing
from checkout import OUT, SINGLE_THREAD_ENV, SRC
from helpercache.delivery import DecodeFailure
from helpercache.sim_harness import run_sweep

# Fresh interpreters started per run to time set-up, spread evenly over the
# run so that they meet the same host load as the sweeps; their median is
# reported.
SETUP_REPEATS = 15

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
from helpercache.sim_harness import ExperimentConfig
ExperimentConfig(**{params!r}, trials={trials}, seed={seed}).points()
print(time.monotonic())
"""


def setup_probe(workload: sweeps.Workload, seed: int) -> Callable[[], float]:
    """A timer of set-up: seconds from starting an interpreter to a resolved sweep config.

    The child prints CLOCK_MONOTONIC when done, which on Linux is one clock
    for every process.
    """
    config = workload.round_config(seed, 0)
    code = SETUP_CODE.format(src=str(SRC), params=workload.params, trials=config.trials,
                             seed=config.seed)
    env = {**os.environ, **SINGLE_THREAD_ENV}

    def probe() -> float:
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        return float(done.stdout) - start

    return probe


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def host_record(workload: sweeps.Workload, seed: int, seconds: float, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload.name,
        "parameters": workload.describe(),
    }


class Run:
    """Operations attempted and failed, and the CSV digest check of each round."""

    def __init__(self, workload: sweeps.Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.recorded: list[str] = []
        if seed == sweeps.DEFAULT_SEED:
            self.recorded = json.loads(sweeps.DIGESTS.read_text())["digests"][workload.name]
        self.book = sweeps.DigestBook(self.recorded)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: str | None = None
        self.csv_path = OUT / f"{workload.name}.round.csv"

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)
        print(f"FAILED: {problem}", file=sys.stderr)

    def untraced_round(self, index: int, times: sweeps.BestTimes) -> tuple[list, bool]:
        """Run one round through run_sweep, timing each operation; returns results, complete."""
        results, complete = [], True
        for op in sweeps.operations(self.workload.round_config(self.seed, index)):
            self.attempted += 1
            kernel_s = calibration.kernel_seconds()
            start = time.perf_counter()
            try:
                out = run_sweep(op)
            except Exception:  # an operation that raises counts as failed
                self.fail(1, f"round {index} value {op.values[0]}: {traceback.format_exc(limit=3)}")
                complete = False
                continue
            times.add(index, op, time.perf_counter() - start, kernel_s)
            problems = sweeps.dof_order_problems(out)
            if problems:
                self.fail(1, f"round {index} value {op.values[0]}: {problems[0]}")
            results.extend(out)
        return results, complete

    def check_digest(self, index: int, data: bytes) -> None:
        value = sweeps.digest(data)
        if self.first_digest is None:
            self.first_digest = value
        if not self.book.matches(index, value):
            ops = len(self.workload.params["values"])
            self.fail(ops, f"round {index}: CSV digest {value} differs from the expected one")

    def summary(self, record: dict) -> dict:
        self.csv_path.unlink(missing_ok=True)
        return {
            **record,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / self.attempted,
            "first_round_csv_sha256": self.first_digest,
            "digests_recorded": bool(self.recorded),
            "problems": self.problems,
        }


def run_untraced(workload: sweeps.Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: set-up time, trials/s at each operation's fastest, peak RSS.

    Runs until `seconds` have passed and the cycle has been through once.
    """
    probe = setup_probe(workload, seed)
    setup: list[float] = []
    run = Run(workload, seed)
    times = sweeps.BestTimes()
    start = time.perf_counter()
    index = 0
    while index < sweeps.ROUND_CYCLE or time.perf_counter() - start < seconds:
        if len(setup) * seconds < SETUP_REPEATS * (time.perf_counter() - start):
            setup.append(probe())
        results, complete = run.untraced_round(index, times)
        if complete:
            run.check_digest(index, sweeps.csv_bytes(results, run.csv_path))
        index += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())
    wall_setup_s = statistics.median(setup)
    metrics = {
        "trials_per_s": times.rate(),
        # The same host-speed scaling as the operations of this run.
        "setup_s": wall_setup_s * times.wall_rate() / times.rate(),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "rounds": index,
        "timed_operations": times.timed,
        "wall_trials_per_s": times.wall_rate(),
        "wall_setup_s": wall_setup_s,
        "best_op_seconds": {f"{k[0]}|{k[1]}": v for k, v in times.best.items()},
        "best_kernel_seconds": {f"{k[0]}|{k[1]}": v for k, v in times.kernel.items()},
        "setup_s_samples": setup,
    }
    return metrics, run.summary(record)


def run_traced(workload: sweeps.Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: each untraced operation followed by its traced twin.

    Runs until `seconds` have passed and the cycle has been through once;
    the exact counts come from that first pass.
    """
    run = Run(workload, seed)
    log = tracing.SpanLog()
    untraced, traced = sweeps.BestTimes(), sweeps.BestTimes()
    best_busy: dict[tuple[int, float], Counter] = {}
    counted_records: list[tracing.TrialRecord] = []
    decode_failures = 0
    start = time.perf_counter()
    index = 0
    while index < sweeps.ROUND_CYCLE or time.perf_counter() - start < seconds:
        plain, plain_complete = run.untraced_round(index, untraced)
        results, complete = [], True
        for op in sweeps.operations(workload.round_config(seed, index)):
            run.attempted += 1
            first = len(log.rows)
            kernel_s = calibration.kernel_seconds()
            before = time.perf_counter()
            try:
                out, records = tracing.traced_sweep(op, log)
            except Exception as exc:  # an operation that raises counts as failed
                if isinstance(exc, DecodeFailure) and index < sweeps.ROUND_CYCLE:
                    decode_failures += 1
                run.fail(1, f"traced round {index} value {op.values[0]}: {exc!r}")
                complete = False
                continue
            traced.add(index, op, time.perf_counter() - before, kernel_s)
            busy = tracing.op_layer_seconds(log, first)
            key = sweeps.op_key(index, op)
            # Counter & Counter keeps the smaller time of every span name.
            best_busy[key] = best_busy[key] & busy if key in best_busy else busy
            problems = sweeps.dof_order_problems(out) + tracing.solver_problems(records)
            if problems:
                run.fail(1, f"traced round {index} value {op.values[0]}: {problems[0]}")
            results.extend(out)
            if index < sweeps.ROUND_CYCLE:
                counted_records.extend(records)
        data = sweeps.csv_bytes(results, run.csv_path) if complete else None
        if complete != plain_complete or (complete and data != sweeps.csv_bytes(plain, run.csv_path)):
            raise SystemExit(
                f"trace drift: round {index} of {workload.name} (seed {seed}) differs between "
                "the traced and the untraced run; the traced trial loop no longer follows "
                "run_trial, so its per-layer numbers would not describe the program"
            )
        if complete:
            run.check_digest(index, data)
        index += 1
    counted = tracing.tally(counted_records)
    worst = max((r.worst_residual for r in counted_records), default=0.0)
    busy = sum(best_busy.values(), Counter())
    metrics = tracing.layer_metrics(busy, tracing.instance_ms(log), counted, worst,
                                    decode_failures, untraced.rate(), traced.rate())
    spans_path = OUT / f"{workload.name}.spans.jsonl"
    log.write(spans_path, {"workload": workload.name, "seed": seed})
    record = {
        "rounds": index,
        "counted_totals": dict(counted),
        "layer_seconds_per_cycle": dict(busy),
        "untraced_trials_per_s": untraced.rate(),
        "traced_trials_per_s": traced.rate(),
        "spans": spans_path.name,
        "span_count": len(log.rows),
    }
    return metrics, run.summary(record)
