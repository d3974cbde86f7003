"""Traced copy of the trial loop: in-memory spans and exact counts per layer.

`traced_sweep` follows `run_sweep` and `run_trial` step by step: it calls the
same public functions of topology, cache_placement, partitioner and
delivery, in the same order and on the same RNG stream, and aggregates the
same way, so its CSV bytes must equal the untraced run's.  Each group of
calls is wrapped in a span.  Counts are read from the objects each layer
returns, mostly after the trial span has closed, so they add little to any
span.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from helpercache.cache_placement import (
    CacheConfig,
    assign_profiles,
    draw_subfile_symbols,
    ensure_valid,
)
from helpercache.delivery import (
    build_schedule,
    count_transmissions,
    coverage_check,
    delivery_time,
    sum_dof,
    verify_schedule,
)
from helpercache.partitioner import (
    ProfileSubnetwork,
    bb_assign,
    build_tables,
    flow_oracle,
    greedy_assign,
    partitions_from_assignment,
    subnetworks_from_connectivity,
)
from helpercache.sim_harness import (
    AggregateResult,
    ExperimentConfig,
    PointConfig,
    derive_trial_seed,
)
from helpercache.topology import connect, draw_channels, hex_layout, sample_users

SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "trial")

# Spans directly under a trial span; what the trial span holds beyond them
# is the harness's own time (seeding, RNG set-up, glue).
LAYER_SPANS = (
    "topology",
    "cache_placement.assign",
    "partitioner.split",
    "partitioner.bb",
    "partitioner.greedy",
    "delivery.schedule",
    "cache_placement.symbols",
    "delivery.verify",
    "delivery.coverage",
)
INSTANCE_SPAN = "partitioner.bb.instance"


class SpanLog:
    """Spans kept in memory as [name, start, end, parent, trial]; written when the run ends."""

    def __init__(self) -> None:
        self.rows: list[list[Any]] = []
        self.trials = 0  # trial ids handed out so far

    def open(self, name: str, parent: int = -1, trial: int = -1) -> int:
        self.rows.append([name, perf_counter(), None, parent, trial])
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        self.rows[span][2] = perf_counter()

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """JSON lines: a header, then one array per span; times relative to the first span."""
        origin = self.rows[0][1] if self.rows else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for i, (name, start, end, parent, trial) in enumerate(self.rows):
                end_s = None if end is None else round(end - origin, 9)
                out.write(json.dumps([i, name, round(start - origin, 9), end_s, parent, trial]) + "\n")


@dataclass
class TrialRecord:
    """What a traced trial hands back for aggregation, counting and checking."""

    num_users: int
    dof: dict[str, float | None]
    links: int
    subnets: dict[int, ProfileSubnetwork]
    counts: dict[str, tuple[int, ...]]  # per method, per profile
    transmissions: int  # over all methods
    rounds: int  # over all methods
    verified_transmissions: int
    worst_residual: float


def traced_trial(
    point: PointConfig, trial_seed: int, methods: tuple[str, ...], verify: bool,
    log: SpanLog, parent: int,
) -> TrialRecord:
    """`run_trial` with spans around each layer's calls."""
    trial = log.trials
    log.trials += 1
    root = log.open("trial", parent, trial)
    config = CacheConfig(num_profiles=point.profiles, gamma=point.gamma)
    ensure_valid(config)
    index_size = config.index_size
    rng = np.random.default_rng(trial_seed)

    span = log.open("topology", root, trial)
    layout = hex_layout(point.helpers)
    users = sample_users(point.density, point.user_radius, rng)
    conn = connect(layout, users, point.radius)
    channel = draw_channels(conn, rng)
    log.close(span)

    span = log.open("cache_placement.assign", root, trial)
    assignment = assign_profiles(conn.num_users, point.profiles, rng)
    log.close(span)

    span = log.open("partitioner.split", root, trial)
    subnets = subnetworks_from_connectivity(conn, assignment)
    log.close(span)
    num_users = conn.num_users

    demands = symbols = None
    dof: dict[str, float | None] = {}
    counts: dict[str, tuple[int, ...]] = {}
    transmissions: dict[str, int] = {}
    rounds: dict[str, int] = {}
    verified = 0
    worst = 0.0
    for method in methods:
        psets = {}
        span = log.open(f"partitioner.{method}", root, trial)
        for profile, subnet in subnets.items():
            if method == "greedy":
                psets[profile] = greedy_assign(subnet)
            else:
                instance = log.open(INSTANCE_SPAN, span, trial)
                tables = build_tables(subnet)
                psets[profile] = partitions_from_assignment(tables, bb_assign(tables))
                log.close(instance)
        log.close(span)

        span = log.open("delivery.schedule", root, trial)
        schedule = build_schedule(psets, point.profiles)
        transmissions[method] = count_transmissions(schedule, index_size)
        time = delivery_time(transmissions[method], point.profiles, index_size)
        dof[method] = sum_dof(num_users, point.gamma, time) if num_users > 0 else None
        log.close(span)

        if verify and num_users > 0:
            if symbols is None:
                span = log.open("cache_placement.symbols", root, trial)
                demands = {k: k for k in range(num_users)}
                symbols = draw_subfile_symbols(assignment, demands, index_size, rng)
                log.close(span)
            span = log.open("delivery.verify", root, trial)
            worst = max(worst, verify_schedule(channel, schedule, demands, symbols, index_size))
            log.close(span)
            span = log.open("delivery.coverage", root, trial)
            problems = coverage_check(schedule, index_size)
            log.close(span)
            if problems:
                raise RuntimeError(
                    f"coverage audit failed (seed {trial_seed}, method {method}): "
                    + "; ".join(problems[:5])
                )
            verified += transmissions[method]
        rounds[method] = schedule.num_rounds
        counts[method] = tuple(psets[p].count for p in range(1, point.profiles + 1))
    log.close(root)
    return TrialRecord(
        num_users=num_users,
        dof=dof,
        links=int(conn.adjacency.sum()),
        subnets=subnets,
        counts=counts,
        transmissions=sum(transmissions.values()),
        rounds=sum(rounds.values()),
        verified_transmissions=verified,
        worst_residual=worst,
    )


def traced_sweep(
    config: ExperimentConfig, log: SpanLog
) -> tuple[list[AggregateResult], list[TrialRecord]]:
    """`run_sweep` over traced trials; also returns every trial's record."""
    results = []
    records = []
    for value, point in config.points():
        span = log.open("point")
        dofs: dict[str, list[float]] = {m: [] for m in config.methods}
        users: list[int] = []
        for i in range(config.trials):
            record = traced_trial(
                point, derive_trial_seed(config.seed, i), config.methods, config.verify, log, span
            )
            records.append(record)
            users.append(record.num_users)
            for method in config.methods:
                if record.dof[method] is not None:
                    dofs[method].append(record.dof[method])
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
        log.close(span)
    return results, records


def solver_problems(records: list[TrialRecord]) -> list[str]:
    """bb never needs more partitions than greedy, and matches the matching oracle."""
    problems = []
    for t, record in enumerate(records):
        bb, greedy = record.counts.get("bb"), record.counts.get("greedy")
        if bb is None:
            continue
        for profile, subnet in record.subnets.items():
            count = bb[profile - 1]
            if greedy is not None and count > greedy[profile - 1]:
                problems.append(f"trial {t} profile {profile}: bb {count} > greedy {greedy[profile - 1]}")
            exact = flow_oracle(subnet)
            if count != exact:
                problems.append(f"trial {t} profile {profile}: bb {count} != flow_oracle {exact}")
    return problems


def tally(records: list[TrialRecord]) -> Counter:
    """Exact integer counts over a list of trials."""
    out: Counter = Counter()
    for r in records:
        out["trials"] += 1
        out["users_kept"] += r.num_users
        out["links"] += r.links
        if "bb" in r.counts:
            out["bb_instances"] += len(r.subnets)
            out["multi_homed"] += sum(
                len(cand) > 1 for subnet in r.subnets.values() for cand in subnet.candidates
            )
        out["bb_partitions"] += sum(r.counts.get("bb", ()))
        out["greedy_partitions"] += sum(r.counts.get("greedy", ()))
        out["transmissions"] += r.transmissions
        out["rounds"] += r.rounds
        out["verified_transmissions"] += r.verified_transmissions
    return out


def op_layer_seconds(log: SpanLog, first: int) -> Counter:
    """Busy seconds per span name over one completed operation's spans.

    `first` is the operation's first span.  Layer spans are the direct
    children of trial spans and do not overlap, so the trials' self time is
    their total less the layers' total.
    """
    busy: Counter = Counter()
    for name, start, end, _, _ in log.rows[first:]:
        busy[name] += end - start
    busy["sim_harness.self"] = busy["trial"] - sum(busy[name] for name in LAYER_SPANS)
    return busy


def instance_ms(log: SpanLog) -> list[float]:
    return [(end - start) * 1e3 for name, start, end, _, _ in log.rows
            if name == INSTANCE_SPAN and end is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    busy: Counter, instances: list[float], counted: Counter, worst_residual: float,
    decode_failures: int, untraced_rate: float, traced_rate: float,
) -> dict[str, float]:
    """Per-layer metrics over one pass of the cycle.

    `busy` holds each layer's seconds summed over the operations of the
    cycle, and `counted` the exact counts of that same pass.
    """
    trials = counted["trials"]

    def ms_per_trial(name: str) -> float:
        return _ratio(busy[name] * 1e3, trials)

    p50, p99 = np.percentile(instances, [50, 99]) if instances else (0.0, 0.0)
    return {
        "topology.ms_per_trial": ms_per_trial("topology"),
        "topology.users_kept": _ratio(counted["users_kept"], trials),
        "topology.links_per_user": _ratio(counted["links"], counted["users_kept"]),
        "cache_placement.assign.ms_per_trial": ms_per_trial("cache_placement.assign"),
        "cache_placement.symbols.ms_per_trial": ms_per_trial("cache_placement.symbols"),
        "partitioner.split.ms_per_trial": ms_per_trial("partitioner.split"),
        "partitioner.bb.ms_per_trial": ms_per_trial("partitioner.bb"),
        "partitioner.bb.instance_ms.p50": float(p50),
        "partitioner.bb.instance_ms.p99": float(p99),
        "partitioner.bb.instance_samples": len(instances),
        "partitioner.greedy.ms_per_trial": ms_per_trial("partitioner.greedy"),
        "partitioner.multi_homed_per_instance": _ratio(counted["multi_homed"], counted["bb_instances"]),
        "partitioner.bb.partitions_per_trial": _ratio(counted["bb_partitions"], trials),
        "partitioner.greedy.partitions_per_trial": _ratio(counted["greedy_partitions"], trials),
        "partitioner.bb.partitions_total": counted["bb_partitions"],
        "partitioner.greedy.partitions_total": counted["greedy_partitions"],
        "partitioner.greedy_excess": _ratio(counted["greedy_partitions"], counted["bb_partitions"]),
        "delivery.schedule.ms_per_trial": ms_per_trial("delivery.schedule"),
        "delivery.verify.ms_per_trial": ms_per_trial("delivery.verify"),
        "delivery.verify.us_per_transmission": _ratio(
            busy["delivery.verify"] * 1e6, counted["verified_transmissions"]
        ),
        "delivery.coverage.ms_per_trial": ms_per_trial("delivery.coverage"),
        "delivery.transmissions_per_trial": _ratio(counted["transmissions"], trials),
        "delivery.rounds_per_trial": _ratio(counted["rounds"], trials),
        "delivery.decode_failures": decode_failures,
        "delivery.worst_residual": worst_residual,
        "sim_harness.self_ms_per_trial": ms_per_trial("sim_harness.self"),
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate),
    }
