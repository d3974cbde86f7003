"""Monte Carlo experiment driver: configs, trials, sweeps, and result emission.

A sweep point runs a chunk of trials at a time, in two stages.  The draw
stage gives every trial its own generator, seeded from (master seed, trial
index), which makes that trial's random calls in a fixed order: user count
and disk uniforms, then channel normals and profiles.  The generators of a
chunk are those of `numpy.random.default_rng(seed)`, with numpy's seed hash
run once over all their seeds.  User positions and links are computed from
those numbers once for the whole chunk, so each trial gets the same stream
and the same network as a trial drawn alone.
The evaluate stage then takes the chunk's network as one: profile p of
trial i is label i * L + p, so one call per method yields every (trial,
profile) partition count, and the delivery time of every trial follows from
its sorted counts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cache_placement import (
    CacheConfig,
    ProfileAssignment,
    assign_profiles,
    draw_subfile_symbols,
    ensure_valid,
)
from .delivery import (
    DecodeFailure,
    build_schedule,
    coverage_check,
    delivery_time,
    matched_precoders,
    sum_dof,
    transmissions_from_counts,
    verify_schedule,
)
from .partitioner import (
    MAX_TABLE_HELPERS,
    PartitionSet,
    ProfileSubnetwork,
    greedy_assign,
    greedy_counts,
    min_partition_counts,
    optimal_partitions,
    subnetworks_from_connectivity,
)
from .topology import (
    Connectivity,
    channel_normals,
    connect,
    disk_positions,
    disk_uniforms,
    draw_channels,
    hex_layout,
)

METHODS = ("bb", "greedy")  # the default comparison, `--method both`
# `fc` is the fully connected optimum of the same users and profiles: every
# user linked to every helper, ceil(n_p / E) partitions per profile.
ALL_METHODS = METHODS + ("fc",)

# A chunk of trials is drawn and evaluated together.  Its Hall table of
# L * 2^E entries per trial holds at most CHUNK_TABLE_ENTRIES, and its
# helper-user distances about CHUNK_LINK_ENTRIES in expectation, or one
# trial's worth if that is larger.
CHUNK_TABLE_ENTRIES = 2**20
CHUNK_LINK_ENTRIES = 2**18

SWEEP_VARIABLES = ("L", "r")  # profile count, transmission radius


def _is_count(value: object) -> bool:
    """An integer of at least 1; floats such as 2.0, and True, are refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _is_whole(value: float) -> bool:
    """A whole number, such as a profile count of 10 or 10.0; True is refused."""
    return not isinstance(value, bool) and float(value).is_integer()


def _bool_problems(named: Sequence[tuple[str, object]]) -> list[str]:
    """Refusals of `True` or `False` given for a real number, which would pass as 1 or 0."""
    return [
        f"the {name} must be a real number, got {value!r}"
        for name, value in named
        if isinstance(value, bool)
    ]


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
        problems = [
            f"the {name} count must be an integer of at least 1, got {value!r}"
            for name, value in (("helper", self.helpers), ("profile", self.profiles))
            if not _is_count(value)
        ]
        problems += _bool_problems(
            (
                ("transmission radius", self.radius),
                ("user disk radius", self.user_radius),
                ("user density", self.density),
            )
        )
        if not self.radius >= 0:
            problems.append(f"transmission radius must be nonnegative, got {self.radius}")
        if not 0 < self.user_radius < math.inf:
            problems.append(f"user disk radius must be finite and positive, got {self.user_radius}")
        if not 0 < self.density < math.inf:
            problems.append(f"user density must be finite and positive, got {self.density}")
        if problems:
            raise ValueError("; ".join(problems))
        if self.helpers > MAX_TABLE_HELPERS:
            raise ValueError(
                f"at most {MAX_TABLE_HELPERS} helpers are supported, got {self.helpers}: "
                "the exact partition counts use a table of L * 2^E entries"
            )
        config = CacheConfig(num_profiles=self.profiles, gamma=self.gamma)
        ensure_valid(config)
        object.__setattr__(self, "index_size", config.index_size)

    @property
    def mean_users(self) -> float:
        """Expected users on the disk, before unreachable ones are pruned."""
        return self.density * math.pi * self.user_radius**2


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
        if self.sweep not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, got {self.sweep!r}")
        if not self.values:
            raise ValueError("at least one sweep value is required")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"sweep values must not repeat, got {self.values}")
        if (self.density is None) == (self.density_per_profile is None):
            raise ValueError("set exactly one of density and density_per_profile")
        if self.sweep == "L" and self.radius is None:
            raise ValueError("sweeping L requires a fixed radius")
        if self.sweep == "r" and self.profiles is None:
            raise ValueError("sweeping r requires a fixed profile count")
        if self.sweep == "L" and self.profiles is not None:
            raise ValueError(f"profiles is swept, so it cannot also be fixed to {self.profiles}")
        if self.sweep == "r" and self.radius is not None:
            raise ValueError(f"radius is swept, so it cannot also be fixed to {self.radius}")
        if self.sweep == "L" and not all(map(_is_whole, self.values)):
            raise ValueError(f"profile counts must be integers, got {self.values}")
        if self.profiles is not None and not _is_whole(self.profiles):
            raise ValueError(f"the profile count must be an integer, got {self.profiles}")
        # `points` makes new numbers of these, so no point would see a `True`;
        # each point checks the user disk radius and density itself.
        converted = [("transmission radius", self.radius)]
        converted += [("transmission radius", v) for v in self.values if self.sweep == "r"]
        converted += [("user density per profile", self.density_per_profile)]
        if problems := _bool_problems(converted):
            raise ValueError("; ".join(problems))
        if not _is_count(self.trials):
            raise ValueError(
                f"the trial count must be an integer of at least 1, got {self.trials!r}"
            )
        # Trial seeds hash the seed's text, so 1.0 would not draw the trials of 1.
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"the master seed must be an integer, got {self.seed!r}")
        _check_methods(self.methods, self.verify)

    def points(self) -> list[tuple[float, PointConfig]]:
        """Resolve every sweep value into a runnable point, validating each."""
        out = []
        for value in self.values:
            if self.sweep == "L":
                profiles, radius = int(value), float(self.radius)
            else:
                profiles, radius = int(self.profiles), float(value)
            density = self.density
            if density is None:
                density = self.density_per_profile * profiles
            point = PointConfig(
                helpers=self.helpers,
                profiles=profiles,
                gamma=self.gamma,
                radius=radius,
                user_radius=self.user_radius,
                density=density,
            )
            out.append((value, point))
        return out


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


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants of `calls` successive SeedSequence hashes, as columns.

    Hash k xors with constant k, then moves it on to constant k + 1 and
    multiplies by that.
    """
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    column = np.array(values, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# numpy.random.SeedSequence with its pool of four uint32 lanes.  Hashes 0-3
# take in the entropy, one per lane; hashes 4-15 mix the lanes, source lane
# s hashed once for each other lane d, in order of d.  Row d of _MIX_XOR[s]
# and _MIX_MUL[s] holds that hash's constants; row s is unused.
_ENTROPY_XOR, _ENTROPY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_MIX_XOR, _MIX_MUL = (
    np.stack([np.insert(c[4 + 3 * s : 7 + 3 * s], s, 0, axis=0) for s in range(4)])
    for c in (_ENTROPY_XOR, _ENTROPY_MUL)
)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """(n, 4) uint64: row i is `SeedSequence(seeds[i]).generate_state(4, np.uint64)`.

    `seeds` is a uint64 array.  A seed below 2^64 is the entropy words
    [low, high, 0, 0], and numpy's pool hash of them runs here as uint32
    ufuncs on every seed at once: the entropy hash of each lane, the mix of
    each lane into the other three, then eight output words cycling over the
    lanes, paired low word first into uint64.
    """
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool ^= _ENTROPY_XOR[:4]
    pool *= _ENTROPY_MUL[:4]
    pool ^= pool >> 16
    for lane in range(4):
        source = pool[lane].copy()
        hashed = source ^ _MIX_XOR[lane]
        hashed *= _MIX_MUL[lane]
        hashed ^= hashed >> 16
        hashed *= _MIX_MULT_R
        # Lane d becomes mix(d, hashed) = L * d - R * hashed, folded by >> 16.
        pool *= _MIX_MULT_L
        pool -= hashed
        pool ^= pool >> 16
        pool[lane] = source  # a lane is not mixed into itself
    state = np.concatenate((pool, pool))
    state ^= _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> 16
    words = np.empty((seeds.size, 4), dtype=np.uint64)
    words[:] = state[1::2].T
    words <<= 32
    words |= state[0::2].T
    return words


@functools.cache
def _given_state() -> type:
    """An `ISeedSequence` that hands its bit generator ready state words.

    Defined on first use, so that importing this module, or resolving a
    sweep's points, does not load `numpy.random`.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for exactly its four uint64 words

    return GivenState


def _trial_generators(trial_seeds: Sequence[int]) -> list[np.random.Generator]:
    """One generator per seed, in the state of `numpy.random.default_rng(seed)`.

    The seed words of every trial come from one `_seed_words` pass; each
    PCG64 then seeds itself from its row in C.
    """
    words = _seed_words(np.array(trial_seeds, dtype=np.uint64))
    given = _given_state()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(given(row))) for row in words]


def _check_seeds(trial_seeds: Sequence[int]) -> None:
    """Every trial seed must be an integer in [0, 2^64), the seeds `_seed_words` takes."""
    for seed in trial_seeds:
        # (int, np.integer) rather than numbers.Integral, whose check is slow
        if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
            raise ValueError(f"trial seed {seed!r} is not an integer in [0, 2^64)")


def _check_methods(methods: Sequence[str], verify: bool) -> None:
    """Methods must be known and distinct; verifying needs a schedule from each."""
    if not methods or set(methods) - set(ALL_METHODS):
        raise ValueError(f"methods must be a nonempty subset of {ALL_METHODS}, got {methods}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {methods}")
    if verify and "fc" in methods:
        raise ValueError("the fc bound builds no schedule, so it cannot be decode-verified")


@dataclass(frozen=True)
class TrialDraw:
    """One verified trial's random network, drawn from its own generator."""

    seed: int
    conn: Connectivity
    channel: np.ndarray  # (K, E) complex gains
    assignment: ProfileAssignment
    rng: np.random.Generator  # positioned after the draws above


def _draw_chunk(
    point: PointConfig, trial_seeds: Sequence[int], verify: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[TrialDraw]]:
    """The networks of a chunk of trials: adjacency, labels, user counts, verified draws.

    Each trial's generator makes the calls of `sample_users`,
    `draw_channels` and `assign_profiles`, in that order; positions and
    links are computed once for the whole chunk in between.  The result is
    the chunk's concatenated (E, sum K) adjacency, the label i * L + p of
    each of its users (trial i, profile p), and each trial's K.  A verified
    trial also keeps its links, channel, profiles and generator.
    """
    rngs = _trial_generators(trial_seeds)
    uniforms = [disk_uniforms(point.mean_users, rng) for rng in rngs]
    user_offsets = np.cumsum([0] + [u.shape[1] for u in uniforms])
    users = disk_positions(np.concatenate(uniforms, axis=1), point.user_radius)
    conn = connect(hex_layout(point.helpers), users, point.radius)
    # Users are concatenated in trial order, so each trial's kept users are
    # one run of columns.
    bounds = np.searchsorted(conn.reachable_users, user_offsets)
    num_users = np.diff(bounds)
    profiles, draws = [], []
    for i, (rng, first, last) in enumerate(zip(rngs, bounds[:-1].tolist(), bounds[1:].tolist())):
        if verify:
            trial_conn = Connectivity(
                adjacency=conn.adjacency[:, first:last],
                reachable_users=conn.reachable_users[first:last] - user_offsets[i],
            )
            channel = draw_channels(trial_conn, rng)
        else:
            channel_normals(last - first, point.helpers, rng)  # unread; keeps the stream
        assignment = assign_profiles(last - first, point.profiles, rng)
        profiles.append(assignment.profile_of)
        if verify:
            draws.append(TrialDraw(trial_seeds[i], trial_conn, channel, assignment, rng))
    offsets = np.repeat(np.arange(len(trial_seeds)) * point.profiles, num_users)
    return conn.adjacency, np.concatenate(profiles) + offsets, num_users, draws


def evaluate_counts(
    adjacency: np.ndarray,
    labels: np.ndarray,
    trials: int,
    num_profiles: int,
    methods: Sequence[str],
) -> dict[str, np.ndarray]:
    """Per-profile partition counts of a chunk of trials: a (trials, L) array per method.

    `adjacency` is the (E, sum K) concatenation of the trials' links, and
    a user of profile p (1..L) in trial i carries label i * L + p, so every
    count comes from one call per method.
    """
    num_labels = trials * num_profiles
    counts = {}
    for method in methods:
        if method == "bb":
            flat = min_partition_counts(adjacency, labels, num_labels)
        elif method == "greedy":
            flat = greedy_counts(adjacency, labels, num_labels)
        else:
            # Hall's term for S = all helpers: ceil(n_p / E).
            users = np.bincount(labels - 1, minlength=num_labels)
            flat = -(-users // adjacency.shape[0])
        counts[method] = flat.reshape(trials, num_profiles)
    return counts


@dataclass(frozen=True)
class PointOutcome:
    """Per-trial results of one sweep point, trials in seed order."""

    num_users: np.ndarray  # (T,) after pruning unreachable users
    counts: dict[str, np.ndarray]  # per method, (T, L) partition counts
    transmissions: dict[str, np.ndarray]  # per method, (T,)
    dof: dict[str, np.ndarray]  # per method, (T,) sum-DoF; NaN without users


def _partition_sets(
    method: str, subnets: dict[int, ProfileSubnetwork], counts: list[int], seed: int
) -> dict[int, PartitionSet]:
    """Every profile's partitions at its evaluated count (`counts[p - 1]`).

    Greedy's scan must reproduce `greedy_counts`; bb's partitions come from
    one matching at Hall's count, which must be the minimum.  Raises
    RuntimeError, naming the trial seed, if either check fails.
    """
    if method == "greedy":
        psets = {profile: greedy_assign(subnet) for profile, subnet in subnets.items()}
        built = [psets[profile].count for profile in sorted(psets)]
        if built != counts:
            raise RuntimeError(
                f"greedy_assign partition counts {tuple(built)} differ from greedy_counts "
                f"{tuple(counts)} (seed {seed})"
            )
        return psets
    try:
        return {
            profile: optimal_partitions(subnet, counts[profile - 1])
            for profile, subnet in subnets.items()
        }
    except ValueError as exc:
        raise RuntimeError(f"count from Hall's formula rejected, {exc} (seed {seed})") from exc


def _verify_chunk(
    point: PointConfig, draws: Sequence[TrialDraw], counts: dict[str, np.ndarray]
) -> None:
    """Build each verified trial's partitions at its counts, then decode and audit them.

    Trial i's counts are row i of each method's array.  The precoders of
    every schedule in the chunk come from one `matched_precoders` call over
    the trials' stacked channels; each schedule is then replayed on its own
    trial's channel.  Every error names the trial seed.
    """
    checks = []  # (trial, method, schedule, demands, symbols) of each trial with users
    for i, draw in enumerate(draws):
        subnets = subnetworks_from_connectivity(draw.conn, draw.assignment)
        psets = {
            method: _partition_sets(method, subnets, expected[i].tolist(), draw.seed)
            for method, expected in counts.items()
        }
        if draw.conn.num_users == 0:
            continue
        everyone = set(range(draw.conn.num_users))
        demands = {k: k for k in range(draw.conn.num_users)}  # distinct worst-case demands
        symbols = draw_subfile_symbols(draw.assignment, demands, point.index_size, draw.rng)
        for method, sets in psets.items():
            schedule = build_schedule(sets, point.profiles)
            problems = coverage_check(schedule, point.index_size)
            served = {user for part in schedule.slots for _, user in part}
            if everyone - served:
                problems.append(f"users {sorted(everyone - served)} are not served")
            if served - everyone:
                problems.append(f"users {sorted(served - everyone)} are not in the trial")
            if problems:
                raise RuntimeError(
                    f"coverage audit failed (seed {draw.seed}, method {method}): "
                    + "; ".join(problems[:5])
                )
            checks.append((i, method, schedule, demands, symbols))
    # the chunk's partitions, schedule by schedule, and each schedule's precoder columns
    slots, slot_trials, columns = [], [], [0]
    for i, _, schedule, _, _ in checks:
        own = schedule.slots
        slots.extend(own)
        slot_trials.extend([i] * len(own))
        columns.append(columns[-1] + sum(map(len, own)))
    first_rows = np.cumsum([0] + [draw.conn.num_users for draw in draws])
    precoders = matched_precoders(
        np.concatenate([draw.channel for draw in draws]),
        slots,
        first_rows[slot_trials],
        [draws[i].seed for i in slot_trials],
    )
    for (i, method, schedule, demands, symbols), start, stop in zip(checks, columns, columns[1:]):
        own = precoders[:, start:stop]
        try:
            verify_schedule(draws[i].channel, schedule, demands, symbols, point.index_size, own)
        except DecodeFailure as exc:
            raise DecodeFailure(f"{exc} (seed {draws[i].seed}, method {method})") from exc


def run_point(
    point: PointConfig,
    trial_seeds: Sequence[int],
    methods: Sequence[str] = METHODS,
    verify: bool = False,
) -> PointOutcome:
    """Draw and evaluate the trials of a sweep point, a chunk of trials at a time.

    Every partition count comes from `evaluate_counts`, and transmissions,
    delivery time and sum-DoF from the counts in closed form.  With
    `verify` set, each trial's partitions are also built: greedy's by
    `greedy_assign`, whose counts must equal the evaluated ones, and bb's
    by `optimal_partitions` from one matching at the evaluated Hall counts,
    which must pass its minimality certificate.  Every transmission is then
    composed, decoded, and audited for complete coverage.  The branch and
    bound `bb_assign` does not run here: on a 19-helper point its search
    ran for more than 30 s on a single profile.
    """
    _check_methods(methods, verify)
    if not trial_seeds:
        raise ValueError("a sweep point needs at least one trial")
    _check_seeds(trial_seeds)
    table_step = CHUNK_TABLE_ENTRIES // (point.profiles << point.helpers)
    link_step = int(CHUNK_LINK_ENTRIES / (point.helpers * point.mean_users))
    step = max(1, min(table_step, link_step))
    users: list[np.ndarray] = []
    chunks: list[dict[str, np.ndarray]] = []
    for first in range(0, len(trial_seeds), step):
        seeds = trial_seeds[first : first + step]
        adjacency, labels, chunk_users, draws = _draw_chunk(point, seeds, verify)
        chunk = evaluate_counts(adjacency, labels, len(seeds), point.profiles, methods)
        if verify:
            _verify_chunk(point, draws, chunk)
        users.append(chunk_users)
        chunks.append(chunk)

    num_users = np.concatenate(users)
    served = num_users > 0
    counts, transmissions, dof = {}, {}, {}
    for method in methods:
        counts[method] = np.concatenate([chunk[method] for chunk in chunks])
        transmissions[method] = transmissions_from_counts(counts[method], point.index_size)
        time = delivery_time(transmissions[method], point.profiles, point.index_size)
        dof[method] = np.full(num_users.shape, math.nan)
        dof[method][served] = sum_dof(num_users[served], point.gamma, time[served])
    return PointOutcome(num_users=num_users, counts=counts, transmissions=transmissions, dof=dof)


def run_sweep(config: ExperimentConfig) -> list[AggregateResult]:
    """Run every point of the sweep; mean and population std per (point, method).

    Trials with no reachable user carry no metric and are excluded from the
    sum-DoF moments (they still count toward `trials` and the mean user count).
    """
    seeds = [derive_trial_seed(config.seed, i) for i in range(config.trials)]
    results = []
    for value, point in config.points():
        outcome = run_point(point, seeds, config.methods, config.verify)
        served = outcome.num_users > 0
        users = tuple(outcome.num_users.tolist())
        for method in config.methods:
            values = outcome.dof[method][served]
            results.append(
                AggregateResult(
                    sweep_var=config.sweep,
                    sweep_value=value,
                    method=method,
                    mean_dof=float(values.mean()) if values.size else math.nan,
                    std_dof=float(values.std()) if values.size else math.nan,
                    mean_users=float(np.mean(outcome.num_users)),
                    trials=config.trials,
                    seed=int(config.seed),  # a numpy integer would not serialize to json
                    per_trial_dof=tuple(values.tolist()),
                    per_trial_users=users,
                )
            )
    return results


def _sig12(x: float) -> str:
    return f"{x:.12g}"


# The result columns in output order: name, `AggregateResult` field, CSV text.
_COLUMNS = (
    ("sweep_var", "sweep_var", str),
    ("sweep_value", "sweep_value", _sig12),
    ("method", "method", str),
    ("mean_sum_dof", "mean_dof", _sig12),
    ("std_sum_dof", "std_dof", _sig12),
    ("mean_K", "mean_users", _sig12),
    ("trials", "trials", str),
    ("seed", "seed", str),
)
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def emit_results(
    results: Sequence[AggregateResult], fmt: str, path: str, per_trial: bool = False
) -> None:
    """Write aggregates to `path` as CSV or JSON; output is byte-reproducible."""
    if not results:
        raise ValueError("no results to emit")
    if fmt == "csv" and per_trial:
        raise ValueError("per-trial arrays need json output; csv holds only the aggregates")
    if fmt == "csv":
        lines = [CSV_HEADER] + [
            ",".join(text(getattr(r, attr)) for _, attr, text in _COLUMNS) for r in results
        ]
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        rows = []
        for r in results:
            row = {name: getattr(r, attr) for name, attr, _ in _COLUMNS}
            if per_trial:
                row["per_trial_sum_dof"] = list(r.per_trial_dof)
                row["per_trial_K"] = list(r.per_trial_users)
            rows.append(row)
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", newline="\n") as handle:
        handle.write(payload)
