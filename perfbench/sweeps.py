"""Benchmark workloads and their correctness checks.

A workload is a sweep configuration of the acceptance suite.  For one
benchmark seed it expands into a cycle of ROUND_CYCLE rounds; each round is
the whole sweep (every sweep value, `trials` trials each) under its own
master seed, and one operation is one sweep point of a round, run through
`run_sweep`.  A run goes through the cycle again and again, so that every
operation is timed several times and its fastest time can be kept.  On a
shared host other tenants slow whole stretches of a run down, often for
longer than a run lasts; each operation's time is therefore scaled by the
calibration kernel's time beside it (calibration.py), which slows with it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import calibration
from helpercache.sim_harness import AggregateResult, ExperimentConfig, emit_results

ROUND_CYCLE = 12

# Seed whose CSV digests are recorded, one per round of its cycle.
DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"

ACCEPTANCE_DENSITY = 12 / (1.2**2 * math.pi)  # 60.75 expected users on the 2.7 disk
PROFILE_DENSITY = 4 / (1.2**2 * math.pi)  # per profile, so users grow with L

_RADIUS_SWEEP = dict(
    helpers=4,
    gamma=0.1,
    user_radius=2.7,
    sweep="r",
    values=(1.2, 2.2, 3.2, 4.2),
    profiles=10,
    density=ACCEPTANCE_DENSITY,
)


@dataclass(frozen=True)
class Workload:
    """A sweep configuration, less its trial count and master seed."""

    name: str
    params: dict[str, Any]  # ExperimentConfig fields shared by every round
    trials: int  # per sweep point and round

    def round_config(self, seed: int, index: int) -> ExperimentConfig:
        """The sweep of round `index` (taken modulo ROUND_CYCLE) for a benchmark seed."""
        key = f"{self.name}|{seed}|{index % ROUND_CYCLE}".encode()
        master = int.from_bytes(hashlib.sha256(key).digest()[:4], "big")
        return ExperimentConfig(**self.params, trials=self.trials, seed=master)

    def describe(self) -> dict[str, Any]:
        return {**self.params, "trials_per_point_and_round": self.trials,
                "round_cycle": ROUND_CYCLE}


# Trial counts keep one round near a third of a second on a 2-core x86 host,
# so a 36-second run times every operation of the cycle about eight times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("radius_sweep", _RADIUS_SWEEP, trials=25),
        Workload(
            "profile_sweep",
            dict(
                helpers=4,
                gamma=0.1,
                user_radius=2.7,
                sweep="L",
                values=(10, 20, 40),
                radius=1.2,
                density_per_profile=PROFILE_DENSITY,
            ),
            trials=20,
        ),
        Workload(
            "verify_decode", {**_RADIUS_SWEEP, "values": (1.2, 4.2), "verify": True}, trials=10
        ),
    )
}


def operations(config: ExperimentConfig) -> list[ExperimentConfig]:
    """One single-point sweep per sweep value, in sweep order."""
    return [replace(config, values=(value,)) for value in config.values]


def op_key(index: int, op: ExperimentConfig) -> tuple[int, float]:
    """Identity of an operation within the cycle: its round and its sweep value."""
    return index % ROUND_CYCLE, op.values[0]


def csv_bytes(results: Sequence[AggregateResult], path: Path) -> bytes:
    """The exact bytes `emit_results` writes for these aggregates."""
    emit_results(results, "csv", str(path))
    return path.read_bytes()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dof_order_problems(results: Sequence[AggregateResult]) -> list[str]:
    """Per trial, bb must need no more partitions than greedy.

    Seen from outside `run_sweep`, fewer partitions per profile mean no more
    rounds, so no more transmissions and a sum-DoF at least as high.  Both
    methods skip the same empty trials, so their per-trial lists align.
    """
    by_method = {r.method: r for r in results}
    if "bb" not in by_method or "greedy" not in by_method:
        return []
    bb, greedy = by_method["bb"].per_trial_dof, by_method["greedy"].per_trial_dof
    if len(bb) != len(greedy):
        return [f"bb has {len(bb)} scored trials, greedy {len(greedy)}"]
    return [
        f"trial {i}: bb sum-DoF {a!r} below greedy {b!r}"
        for i, (a, b) in enumerate(zip(bb, greedy))
        if a < b
    ]


class DigestBook:
    """Expected CSV digest per round of the cycle: recorded for the default seed, else first seen."""

    def __init__(self, recorded: list[str]) -> None:
        self._expected: dict[int, str] = dict(enumerate(recorded))

    def matches(self, index: int, value: str) -> bool:
        return self._expected.setdefault(index % ROUND_CYCLE, value) == value


class BestTimes:
    """Fastest time of each operation of the cycle, and of the calibration kernel run beside it.

    Each operation's fastest time is scaled by REFERENCE_S over the fastest
    time of the kernel run just before it, so a stretch in which the host
    runs slower slows both and cancels out.
    """

    def __init__(self) -> None:
        self.best: dict[tuple[int, float], float] = {}
        self.kernel: dict[tuple[int, float], float] = {}
        self.trials: dict[tuple[int, float], int] = {}
        self.timed = 0

    def add(self, index: int, op: ExperimentConfig, seconds: float, kernel_seconds: float) -> None:
        key = op_key(index, op)
        self.best[key] = min(seconds, self.best.get(key, math.inf))
        self.kernel[key] = min(kernel_seconds, self.kernel.get(key, math.inf))
        self.trials[key] = op.trials
        self.timed += 1

    def scaled_seconds(self) -> dict[tuple[int, float], float]:
        return {k: v * calibration.REFERENCE_S / self.kernel[k] for k, v in self.best.items()}

    def rate(self) -> float:
        """Trials per second over one pass of the cycle, each operation at its
        fastest and scaled to the reference host speed."""
        seconds = sum(self.scaled_seconds().values())
        return sum(self.trials.values()) / seconds if seconds else 0.0

    def wall_rate(self) -> float:
        """The same rate unscaled, as the wall clock read it on this run's host."""
        seconds = sum(self.best.values())
        return sum(self.trials.values()) / seconds if seconds else 0.0
