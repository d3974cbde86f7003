"""Monte Carlo experiment driver: configs, trials, sweeps, and result emission."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cache_placement import (
    CacheConfig,
    assign_profiles,
    draw_subfile_symbols,
    ensure_valid,
)
from .delivery import (
    DeliveryStats,
    build_schedule,
    coverage_check,
    delivery_time,
    round_idle_counts,
    sum_dof,
    transmissions_from_idle,
    verify_schedule,
)
from .partitioner import (
    MAX_TABLE_HELPERS,
    PartitionSet,
    ProfileSubnetwork,
    bb_assign,
    build_tables,
    greedy_assign,
    min_partition_counts,
    partitions_from_assignment,
    subnetworks_from_connectivity,
)
from .topology import connect, draw_channels, hex_layout, sample_users

METHODS = ("bb", "greedy")

# Optimal sum-DoF of the fully connected reference setup (4 helpers, 10
# profiles, gamma 0.1, mean 60.75 users); measured means must stay below it.
FULLY_CONNECTED_OPTIMUM = 6.797679694427262

CSV_HEADER = "sweep_var,sweep_value,method,mean_sum_dof,std_sum_dof,mean_K,trials,seed"


@dataclass(frozen=True)
class PointConfig:
    """Fully resolved parameters of one sweep point, validated on construction."""

    helpers: int
    profiles: int
    gamma: float
    radius: float
    user_radius: float
    density: float
    index_size: int = field(init=False)  # gamma * L, profiles tagging each subfile

    def __post_init__(self) -> None:
        if self.helpers > MAX_TABLE_HELPERS:
            raise ValueError(
                f"at most {MAX_TABLE_HELPERS} helpers are supported, got {self.helpers}: "
                "the exact partition counts use a table of L * 2^E entries"
            )
        config = CacheConfig(num_profiles=self.profiles, gamma=self.gamma)
        ensure_valid(config)
        object.__setattr__(self, "index_size", config.index_size)


@dataclass(frozen=True)
class ExperimentConfig:
    """A one-variable sweep; exactly one of density / density_per_profile is set."""

    helpers: int
    gamma: float
    user_radius: float
    trials: int
    seed: int
    sweep: str  # "L" or "r"
    values: tuple[float, ...]
    profiles: int | None = None  # fixed L, required when sweeping r
    radius: float | None = None  # fixed r, required when sweeping L
    density: float | None = None
    density_per_profile: float | None = None
    methods: tuple[str, ...] = METHODS
    verify: bool = False

    def __post_init__(self) -> None:
        if self.sweep not in ("L", "r"):
            raise ValueError(f"sweep variable must be 'L' or 'r', got {self.sweep!r}")
        if not self.values:
            raise ValueError("at least one sweep value is required")
        if (self.density is None) == (self.density_per_profile is None):
            raise ValueError("set exactly one of density and density_per_profile")
        if self.sweep == "L" and self.radius is None:
            raise ValueError("sweeping L requires a fixed radius")
        if self.sweep == "r" and self.profiles is None:
            raise ValueError("sweeping r requires a fixed profile count")
        if self.sweep == "L" and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"profile counts must be integers, got {self.values}")
        if self.profiles is not None and not float(self.profiles).is_integer():
            raise ValueError(f"the profile count must be an integer, got {self.profiles}")
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        unknown = set(self.methods) - set(METHODS)
        if unknown or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")

    def points(self) -> list[tuple[float, PointConfig]]:
        """Resolve every sweep value into a runnable point, validating each."""
        out = []
        for value in self.values:
            if self.sweep == "L":
                profiles, radius = int(value), float(self.radius)
            else:
                profiles, radius = int(self.profiles), float(value)
            density = (
                self.density
                if self.density is not None
                else self.density_per_profile * profiles
            )
            out.append(
                (
                    value,
                    PointConfig(
                        helpers=self.helpers,
                        profiles=profiles,
                        gamma=self.gamma,
                        radius=radius,
                        user_radius=self.user_radius,
                        density=density,
                    ),
                )
            )
        return out


@dataclass(frozen=True)
class TrialResult:
    seed: int
    num_users: int  # after pruning unreachable users
    stats: dict[str, DeliveryStats]
    partition_counts: dict[str, tuple[int, ...]]  # per profile, per method


@dataclass(frozen=True)
class AggregateResult:
    sweep_var: str
    sweep_value: float
    method: str
    mean_dof: float
    std_dof: float  # population standard deviation over trials
    mean_users: float
    trials: int
    seed: int
    per_trial_dof: tuple[float, ...] = ()
    per_trial_users: tuple[int, ...] = ()


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable 64-bit seed; any point or trial is independently reproducible.

    The seed depends only on (master seed, trial index), so sweep points
    share random draws: differences between points are then never sampling
    noise, and saturation effects hold trial by trial.
    """
    key = f"{master_seed}|{trial_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _partition_sets(
    method: str, subnets: dict[int, ProfileSubnetwork]
) -> dict[int, PartitionSet]:
    """Every profile's partitions: greedy's scan, or the branch and bound's optimum."""
    if method == "greedy":
        return {profile: greedy_assign(subnet) for profile, subnet in subnets.items()}
    psets = {}
    for profile, subnet in subnets.items():
        tables = build_tables(subnet)
        psets[profile] = partitions_from_assignment(tables, bb_assign(tables))
    return psets


def run_trial(
    point: PointConfig,
    trial_seed: int,
    methods: Sequence[str] = METHODS,
    verify: bool = False,
) -> TrialResult:
    """One end-to-end draw: topology, placement, partitioning, delivery accounting.

    Fully determined by (point, trial_seed).  The `bb` partition counts come
    from Hall's formula (`min_partition_counts`), and the transmission count
    from the per-round idle profiles those counts imply.  With `verify` set,
    `bb_assign` builds the partitions as well, its counts must equal Hall's,
    and every transmission of every method is composed, decoded, and audited
    for complete subfile coverage.
    """
    index_size = point.index_size
    rng = np.random.default_rng(trial_seed)
    layout = hex_layout(point.helpers)
    users = sample_users(point.density, point.user_radius, rng)
    conn = connect(layout, users, point.radius)
    channel = draw_channels(conn, rng)
    assignment = assign_profiles(conn.num_users, point.profiles, rng)
    num_users = conn.num_users
    subnets = (
        subnetworks_from_connectivity(conn, assignment)
        if verify or "greedy" in methods
        else {}
    )

    demands = symbols = None
    stats: dict[str, DeliveryStats] = {}
    partition_counts: dict[str, tuple[int, ...]] = {}
    for method in methods:
        psets = None
        if verify or method == "greedy":
            psets = _partition_sets(method, subnets)
            counts = tuple(psets[p].count for p in range(1, point.profiles + 1))
        if method == "bb":
            exact = tuple(
                min_partition_counts(conn.adjacency, assignment.profile_of, point.profiles).tolist()
            )
            if psets is not None and counts != exact:
                raise RuntimeError(
                    f"bb_assign partition counts {counts} differ from Hall's formula "
                    f"{exact} (seed {trial_seed})"
                )
            counts = exact
        transmissions = transmissions_from_idle(
            round_idle_counts(counts), point.profiles, index_size
        )
        time = delivery_time(transmissions, point.profiles, index_size)
        dof = sum_dof(num_users, point.gamma, time) if num_users > 0 else None
        if verify and num_users > 0:
            if symbols is None:
                demands = {k: k for k in range(num_users)}  # distinct worst-case demands
                symbols = draw_subfile_symbols(assignment, demands, index_size, rng)
            schedule = build_schedule(psets, point.profiles)
            verify_schedule(channel, schedule, demands, symbols, index_size)
            problems = coverage_check(schedule, index_size)
            if problems:
                raise RuntimeError(
                    f"coverage audit failed (seed {trial_seed}, method {method}): "
                    + "; ".join(problems[:5])
                )
        stats[method] = DeliveryStats(transmissions=transmissions, time=time, dof=dof)
        partition_counts[method] = counts
    return TrialResult(
        seed=trial_seed, num_users=num_users, stats=stats, partition_counts=partition_counts
    )


def run_sweep(config: ExperimentConfig) -> list[AggregateResult]:
    """Run every point of the sweep; mean and population std per (point, method).

    Trials with no reachable user carry no metric and are excluded from the
    sum-DoF moments (they still count toward `trials` and the mean user count).
    """
    results = []
    for value, point in config.points():
        dofs: dict[str, list[float]] = {m: [] for m in config.methods}
        users: list[int] = []
        for i in range(config.trials):
            trial = run_trial(
                point, derive_trial_seed(config.seed, i), config.methods, config.verify
            )
            users.append(trial.num_users)
            for method in config.methods:
                dof = trial.stats[method].dof
                if dof is not None:
                    dofs[method].append(dof)
        for method in config.methods:
            values = np.array(dofs[method], dtype=float)
            results.append(
                AggregateResult(
                    sweep_var=config.sweep,
                    sweep_value=value,
                    method=method,
                    mean_dof=float(values.mean()) if values.size else math.nan,
                    std_dof=float(values.std()) if values.size else math.nan,
                    mean_users=float(np.mean(users)),
                    trials=config.trials,
                    seed=config.seed,
                    per_trial_dof=tuple(dofs[method]),
                    per_trial_users=tuple(users),
                )
            )
    return results


def _sig12(x: float) -> str:
    return f"{x:.12g}"


def emit_results(
    results: Sequence[AggregateResult], fmt: str, path: str, per_trial: bool = False
) -> None:
    """Write aggregates to `path` as CSV or JSON; output is byte-reproducible."""
    if not results:
        raise ValueError("no results to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in results:
            lines.append(
                ",".join(
                    (
                        r.sweep_var,
                        _sig12(r.sweep_value),
                        r.method,
                        _sig12(r.mean_dof),
                        _sig12(r.std_dof),
                        _sig12(r.mean_users),
                        str(r.trials),
                        str(r.seed),
                    )
                )
            )
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        rows = []
        for r in results:
            row = {
                "sweep_var": r.sweep_var,
                "sweep_value": r.sweep_value,
                "method": r.method,
                "mean_sum_dof": r.mean_dof,
                "std_sum_dof": r.std_dof,
                "mean_K": r.mean_users,
                "trials": r.trials,
                "seed": r.seed,
            }
            if per_trial:
                row["per_trial_sum_dof"] = list(r.per_trial_dof)
                row["per_trial_K"] = list(r.per_trial_users)
            rows.append(row)
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", newline="\n") as handle:
        handle.write(payload)
