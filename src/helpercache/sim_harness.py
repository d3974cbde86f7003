"""Monte Carlo experiment driver: configs, trials, sweeps, and result emission.

A sweep point runs a chunk of trials at a time, in two stages.  The draw
stage gives every trial its own generator, seeded from (master seed, trial
index), which makes that trial's random calls in a fixed order: user count
and disk uniforms, then channel normals and profiles, and verified, subfile
symbols.  The generators of a chunk are those of
`numpy.random.default_rng(seed)`, with numpy's seed hash run once over all
their seeds.  User positions and links are computed from those numbers once
for the whole chunk, and so are the profiles: each trial hands over the raw
words its profile draw consumes, and one pass maps them as numpy's bounded
integer draw does; a trial with a rejected half steps back and draws again
with `assign_profiles`.  So each trial gets the same stream and the same
network as a trial drawn alone.  Every draw is a call of `topology` or
`cache_placement`; this module only reads and rewinds raw words.  A
verified chunk's channel is one `channel_gains` call on its trials'
stacked normals, and its symbols stack each trial's, in the same user
order as its links, one row per user.
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
    assign_profiles,
    ensure_valid,
    subfile_symbols,
)
from .delivery import (
    ServedPairs,
    audit_pairs,
    decode_schedules,
    delivery_time,
    sum_dof,
    transmissions_from_counts,
)
from .partitioner import (
    greedy_counts,
    greedy_placement,
    helper_candidates,
    min_partition_counts,
    optimal_placement,
)
from .topology import (
    channel_gains,
    channel_normals,
    connect,
    disk_positions,
    disk_uniforms,
    hex_layout,
)

METHODS = ("bb", "greedy")  # the default comparison, `--method both`
# `fc` is the fully connected optimum of the same users and profiles: every
# user linked to every helper, ceil(n_p / E) partitions per profile.
ALL_METHODS = METHODS + ("fc",)

# A chunk of trials is drawn and evaluated together.  Its helper-user
# distances, and verified, its subfile symbols hold about CHUNK_LINK_ENTRIES
# each in expectation; with bb, its Hall table of L * 2^E entries per trial
# at most CHUNK_TABLE_ENTRIES.  A chunk holds one trial if that is larger.
CHUNK_TABLE_ENTRIES = 2**20
CHUNK_LINK_ENTRIES = 2**18

SWEEP_VARIABLES = ("L", "r")  # profile count, transmission radius

# Profiles are drawn as numpy draws integers below 2^32 (`_chunk_profiles`);
# above it numpy takes 64-bit words, which the chunk draw does not reproduce.
MAX_PROFILES = 2**32


def _is_real(value: object) -> bool:
    """A real number: not a string, and not a bool of Python or numpy, which pass as 1 or 0."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value: object) -> bool:
    """An integer of at least 1; floats such as 2.0, and True, are refused."""
    return _is_real(value) and isinstance(value, numbers.Integral) and value >= 1


def _is_whole(value: object) -> bool:
    """A whole number, such as a profile count of 10 or 10.0; True is refused."""
    return _is_real(value) and float(value).is_integer()


def _real_problems(named: Sequence[tuple[str, object]]) -> list[str]:
    """Refusals of whatever is given for a real number but is none, such as True or '1.2'."""
    return [
        f"the {name} must be a real number, got {value!r}"
        for name, value in named
        if not _is_real(value)
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
        problems += _real_problems(
            (
                ("cache fraction", self.gamma),
                ("transmission radius", self.radius),
                ("user disk radius", self.user_radius),
                ("user density", self.density),
            )
        )
        if problems:  # the range checks below need numbers
            raise ValueError("; ".join(problems))
        if self.profiles > MAX_PROFILES:
            problems.append(f"the profile count must be at most 2^32, got {self.profiles}")
        if not self.radius >= 0:
            problems.append(f"transmission radius must be nonnegative, got {self.radius}")
        if not 0 < self.user_radius < math.inf:
            problems.append(f"user disk radius must be finite and positive, got {self.user_radius}")
        if not 0 < self.density < math.inf:
            problems.append(f"user density must be finite and positive, got {self.density}")
        if problems:
            raise ValueError("; ".join(problems))
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
        if problems := _real_problems([(name, v) for name, v in converted if v is not None]):
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


def _chunk_profiles(
    rngs: Sequence[np.random.Generator], num_users: np.ndarray, num_profiles: int
) -> np.ndarray:
    """Every trial's profiles, concatenated: those `assign_profiles` draws from its generator.

    For L up to 2^32 (`MAX_PROFILES`, which `PointConfig` enforces), numpy
    draws a profile from the next 32-bit half u of its PCG64 words, low
    half first, by Lemire's multiply-shift ("Fast random integer generation
    in an interval", ACM TOMACS 2019): profile (u * L >> 32) + 1, unless
    the low word of u * L is below (2^32 - L) mod L, in which case u is
    rejected and the next half taken.
    Trial i asks its generator for the ceil(K_i / 2) words its first K_i
    halves fill, and one pass maps the halves of the whole chunk.  A trial
    with a rejected half steps its PCG64 back over those words and draws
    again with `assign_profiles`, so numpy's own draw covers the rare case.
    Either way its generator ends where numpy's draw leaves it.  L = 1
    draws nothing.
    """
    counts = num_users.tolist()
    if num_profiles == 1:
        return np.ones(sum(counts), dtype=np.int64)
    pairs = (num_users + 1) // 2
    words = np.concatenate(
        [rng.bit_generator.random_raw(n) for rng, n in zip(rngs, pairs.tolist())]
    )
    halves = words.astype("<u8", copy=False).view("<u4")  # low half first
    # Trial i's halves start at 2 * (its first word), its users at its first user.
    first_half = 2 * (np.cumsum(pairs) - pairs)
    first_user = np.cumsum(num_users) - num_users
    taken = np.arange(sum(counts)) + np.repeat(first_half - first_user, counts)
    products = halves[taken].astype(np.uint64) * np.uint64(num_profiles)
    profiles = (products >> 32).astype(np.int64) + 1
    threshold = (2**32 - num_profiles) % num_profiles
    rejected = np.flatnonzero((products & 0xFFFFFFFF) < threshold)
    # The trial of a user is the last whose first user is at or before it.
    trials = np.searchsorted(first_user, rejected, side="right") - 1
    for i in dict.fromkeys(trials.tolist()):
        # PCG64 takes its step modulo 2^128, so this one goes back pairs[i] words.
        rngs[i].bit_generator.advance(2**128 - int(pairs[i]))
        drawn = assign_profiles(counts[i], num_profiles, rngs[i])
        profiles[first_user[i] : first_user[i] + counts[i]] = drawn.profile_of
    return profiles


def _check_seeds(trial_seeds: Sequence[int]) -> None:
    """Every trial seed must be an integer in [0, 2^64), the seeds `_seed_words` takes."""
    for seed in trial_seeds:
        # (int, np.integer) rather than numbers.Integral, whose check is slow; True is an int
        if type(seed) is bool or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
            raise ValueError(f"trial seed {seed!r} is not an integer in [0, 2^64)")


def _check_methods(methods: Sequence[str], verify: bool) -> None:
    """Methods must be known and distinct; verifying needs a schedule from each."""
    if not methods or set(methods) - set(ALL_METHODS):
        raise ValueError(f"methods must be a nonempty subset of {ALL_METHODS}, got {methods}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {methods}")
    if verify and "fc" in methods:
        raise ValueError("the fc bound builds no schedule, so it cannot be decode-verified")


def _draw_chunk(
    point: PointConfig, trial_seeds: Sequence[int], verify: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The networks of a chunk of trials: adjacency, labels, user counts, channel, symbols.

    Each trial's generator makes the calls of `sample_users`,
    `draw_channels` and `assign_profiles`, in that order, and verified,
    `draw_subfile_symbols` for distinct demands.  Positions and links are
    computed once for the whole chunk from every trial's disk uniforms, and
    profiles once by `_chunk_profiles` from the raw words each trial draws
    after its `channel_normals`.  The result is the chunk's concatenated
    (E, sum K) adjacency, the label i * L + p of each of its users (trial
    i, profile p), and each trial's K.  Verified, the (sum K, E) channel is
    one `channel_gains` call on the trials' stacked normals, and the
    (sum K, C(L - 1, t)) symbols stack each trial's `subfile_symbols`, a
    row per user in the adjacency's column order; both are None otherwise,
    and the normals are dropped as soon as they are drawn.
    """
    rngs = _trial_generators(trial_seeds)
    uniforms = [disk_uniforms(point.mean_users, rng) for rng in rngs]
    user_offsets = np.cumsum([0] + [u.shape[1] for u in uniforms])
    users = disk_positions(np.concatenate(uniforms, axis=1), point.user_radius)
    conn = connect(hex_layout(point.helpers), users, point.radius)
    # Users are concatenated in trial order, so each trial's kept users are
    # one run of columns.
    num_users = np.diff(np.searchsorted(conn.reachable_users, user_offsets))
    sizes = num_users.tolist()
    normals = []
    for rng, size in zip(rngs, sizes):
        drawn = channel_normals(size, point.helpers, rng)  # unverified too, for the stream
        if verify:
            normals.append(drawn)
    profiles = _chunk_profiles(rngs, num_users, point.profiles)
    labels = profiles + np.repeat(np.arange(len(trial_seeds)) * point.profiles, num_users)
    if not verify:
        return conn.adjacency, labels, num_users, None, None
    channel = channel_gains(conn.adjacency, np.concatenate(normals, axis=1))
    needed = math.comb(point.profiles - 1, point.index_size)
    symbols = np.concatenate([subfile_symbols(k, needed, rng) for rng, k in zip(rngs, sizes)])
    return conn.adjacency, labels, num_users, channel, symbols


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


# Where each method's evaluated counts come from, as a count mismatch names it.
_COUNTED_BY = {"bb": "Hall's formula", "greedy": "greedy_counts"}


def _pair_table(
    point: PointConfig,
    partition: np.ndarray,
    helper: np.ndarray,
    schedule: np.ndarray,
    profile: np.ndarray,
    user: np.ndarray,
    repeated: np.ndarray,
) -> ServedPairs:
    """A chunk's placements, a row per method, as one table of its distinct schedules.

    Row m of the (M, sum K) `partition`, `helper` and `schedule` gives
    every user of the chunk its partition, helper and schedule id under
    method m; `profile` (0-based) and `user` (within its trial) are the
    same under every method.  Round g of a schedule holds partition g of
    every profile.  The rows of each schedule flagged in `repeated` are
    left out, and one stable sort of a key packing (schedule, round,
    profile, helper) puts the rest in transmission order.
    """
    kept = ~repeated[schedule]
    schedule, rounds, helper = schedule[kept], partition[kept], helper[kept]
    profile = np.broadcast_to(profile, kept.shape)[kept]
    user = np.broadcast_to(user, kept.shape)[kept]
    key = schedule * (rounds.max(initial=0) + 1) + rounds
    key = (key * point.profiles + profile) * point.helpers + helper
    order = np.argsort(key, kind="stable")
    columns = (schedule, rounds, profile + 1, helper, user)
    return ServedPairs(point.profiles, *(column[order].astype(np.int32) for column in columns))


def _checked_pairs(
    point: PointConfig,
    adjacency: np.ndarray,
    labels: np.ndarray,
    num_users: np.ndarray,
    seeds: Sequence[int],
    counts: dict[str, np.ndarray],
) -> ServedPairs:
    """A chunk's distinct verified schedules as one table, its counts and coverage checked.

    One builder call per method places the users of every label of the
    chunk: `optimal_placement` for bb, whose partitions are the fewest
    there are, so the check proves Hall's count the minimum, and
    `greedy_placement` for greedy.  That is the scan of `greedy_counts`
    run again, recording which user each step takes, so its check compares
    the placing run with the counting run: it checks the bookkeeping from
    recorded bits to users, not the scan.  Each label's built count must
    be the evaluated one.  Each user's helper tuple (`helper_candidates`,
    from bitmasks of at most 63 helpers) is made only for bb.

    A later method's schedule of trial i in which each user of trial i has
    the partition and helper it has under the first method repeats its
    twin, schedule i * M: the stable sort leaves its rows in its twin's
    order, so it would be its twin row for row.  The table holds no such
    repeat, and the schedule ids of the rest are left as they are.  It
    must pass `audit_pairs`, a repeat counted with no users: every user of
    a trial served once by each method, no user from outside it, no helper
    twice in a slot.  A failure raises RuntimeError ending `(seed S,
    method m)`, for the first failing trial in seed order: a count before
    the audit, methods in order.  A repeat's audit problems would be its
    twin's, and its twin comes first, so leaving it out changes no error.
    """
    methods = list(counts)
    trials = len(seeds)
    placements = [
        optimal_placement(helper_candidates(adjacency), labels, point.helpers) if m == "bb"
        else greedy_placement(adjacency, labels, trials * point.profiles)
        for m in methods
    ]
    partition, helper = map(np.array, zip(*placements))  # (M, sum K) each
    trial, profile = np.divmod(labels - 1, point.profiles)
    owner = trial * len(methods) + np.arange(len(methods))[:, None]  # schedule i * M + m
    built = np.zeros((trials, len(methods), point.profiles), dtype=np.int64)
    # flat indices: a 1-d ufunc.at takes numpy's fast path, a tuple of index arrays does not
    flat = (owner * point.profiles + profile).ravel()
    np.maximum.at(built.reshape(-1), flat, partition.ravel() + 1)
    wrong = (built != np.stack([counts[m] for m in methods], axis=1)).any(axis=2)  # (T, M)
    moved = (partition != partition[0]) | (helper != helper[0])
    repeated = np.bincount(owner[moved], minlength=trials * len(methods)) == 0
    repeated[:: len(methods)] = False  # a trial's first schedule is the twin
    user = np.arange(labels.size) - (np.cumsum(num_users) - num_users)[trial]
    pairs = _pair_table(point, partition, helper, owner, profile, user, repeated)
    problems = audit_pairs(pairs, np.where(repeated, 0, np.repeat(num_users, len(methods))))
    audited = np.zeros((trials, len(methods)), dtype=bool)
    audited.flat[list(problems)] = True
    failing = np.flatnonzero(wrong.any(axis=1) | audited.any(axis=1))
    if failing.size:
        i = failing[0]
        if wrong[i].any():
            m = int(np.argmax(wrong[i]))
            raise RuntimeError(
                f"partition counts {tuple(built[i, m].tolist())} differ from "
                f"{_COUNTED_BY[methods[m]]} {tuple(counts[methods[m]][i].tolist())} "
                f"(seed {seeds[i]}, method {methods[m]})"
            )
        m = int(np.argmax(audited[i]))
        raise RuntimeError(
            f"coverage audit failed (seed {seeds[i]}, method {methods[m]}): "
            + "; ".join(problems[i * len(methods) + m][:5])
        )
    return pairs


def run_point(
    point: PointConfig,
    trial_seeds: Sequence[int],
    methods: Sequence[str] = METHODS,
    verify: bool = False,
) -> PointOutcome:
    """Draw and evaluate the trials of a sweep point, a chunk of trials at a time.

    Every partition count comes from `evaluate_counts`, and transmissions,
    delivery time and sum-DoF from the counts in closed form.  With
    `verify` set, a chunk's schedules are also built, count-checked and
    audited as one table (`_checked_pairs`): greedy's partitions by
    `greedy_placement`, the bitset scan of `greedy_counts` run again to
    record each step's user, and bb's by `optimal_placement`, whose one
    matching pass per label finds the fewest.  Verified greedy thus takes
    any number of helpers, as unverified greedy does.  One
    `decode_schedules` call then precodes and decodes every schedule of
    the table.  Schedule i * M + m is trial i's under method m of M, and
    its user u is row `first_rows[i * M + m] + u` of the chunk's stacked
    channel and symbols: trial i's first row plus u.  Every error ends
    with `(seed S, method m)`.

    The table holds no later method's schedule in which every user has
    the partition and helper of its trial's first method: it would decode
    to its twin's bits, and its twin comes first in the table, so the
    residuals and the first error are those of every schedule.  Such
    repeats pay off only at saturated points: over the acceptance radius
    sweep (200 trials) they were 11.0%, 0%, 2.8% and 50% of the rows at
    r 1.2, 2.2, 3.2 and 4.2; where every user reaches every helper,
    greedy's partitions were bb's in every trial measured.  The branch and
    bound `bb_assign` does not run here: on a 19-helper point its search
    ran for more than 30 s on a single profile.  A verified chunk's
    stacked channel and symbols are released before the next chunk is
    drawn, so at most one chunk's are held at a time.
    """
    _check_methods(methods, verify)
    if len(trial_seeds) == 0:
        raise ValueError("a sweep point needs at least one trial")
    _check_seeds(trial_seeds)
    # Per user: a distance to each helper, and verified, a symbol per needed subfile.
    width = max(point.helpers, math.comb(point.profiles - 1, point.index_size) if verify else 0)
    step = CHUNK_LINK_ENTRIES / (width * point.mean_users)
    if "bb" in methods:
        step = min(step, CHUNK_TABLE_ENTRIES // (point.profiles << point.helpers))
    step = max(1, int(min(step, len(trial_seeds))))  # inf at a vanishing density
    users: list[np.ndarray] = []
    chunks: list[dict[str, np.ndarray]] = []
    for first in range(0, len(trial_seeds), step):
        seeds = trial_seeds[first : first + step]
        adjacency, labels, chunk_users, channel, symbols = _draw_chunk(point, seeds, verify)
        chunk = evaluate_counts(adjacency, labels, len(seeds), point.profiles, methods)
        if verify:
            pairs = _checked_pairs(point, adjacency, labels, chunk_users, seeds, chunk)
            first_rows = np.repeat(np.cumsum(chunk_users) - chunk_users, len(methods))
            names = [f"seed {seed}, method {method}" for seed in seeds for method in methods]
            decode_schedules(channel, symbols, pairs, point.index_size, first_rows, names)
            del pairs
        del channel, symbols  # not held while the next chunk is drawn
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
            # NaN, the statistic of a point without served users, is not JSON: null.
            row.update({name: None for name, value in row.items() if value != value})
            # Nor is an infinite radius: it is written as CSV writes it.
            if math.isinf(r.sweep_value):
                row["sweep_value"] = _sig12(r.sweep_value)
            if per_trial:
                row["per_trial_sum_dof"] = list(r.per_trial_dof)
                row["per_trial_K"] = list(r.per_trial_users)
            rows.append(row)
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", newline="\n") as handle:
        handle.write(payload)
