"""Round scheduling, zero-forcing multicast signals, decode checks, and timing.

Each round serves the g-th partition of every profile that still has one.
Within a round, one signal is transmitted per multicast group (a subset of
profiles of size `index_size + 1` with at least one nonempty partition): the
sum of the per-profile precoded blocks, zero-padded onto the helpers the
partition does not use.  A served user cancels the other profiles' blocks
from its cache and is left with exactly its own subfile symbol.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Mapping, Sequence

import numpy as np

from .cache_placement import SubfileIndex, needed_subfiles
from .topology import ChannelMatrix
from .partitioner import PartitionSet

CONDITION_LIMIT = 1e12
DECODE_TOLERANCE = 1e-9


class SingularChannelError(RuntimeError):
    """A matched channel submatrix was numerically singular (probability-zero event)."""


class DecodeFailure(RuntimeError):
    """A served user could not recover its subfile within tolerance."""


# Per round: profile -> (helpers, users) of the partition served that round.
RoundEntries = Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]


@dataclass(frozen=True)
class RoundSchedule:
    """Per-round service plan plus the count of profiles idle in each round."""

    num_profiles: int
    rounds: tuple[RoundEntries, ...]
    idle_counts: tuple[int, ...]  # v(g): profiles with no partition in round g

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class TransmissionRecord:
    """One multicast signal: the summed blocks and who should decode what."""

    round_index: int
    group: tuple[int, ...]
    effective: tuple[int, ...]  # group members that actually transmit a block
    blocks: Mapping[int, np.ndarray]  # profile -> zero-padded length-E block
    intended: tuple[tuple[int, int, SubfileIndex], ...]  # (user, profile, index)
    signal: np.ndarray  # (E,)


@dataclass(frozen=True)
class DeliveryStats:
    transmissions: int
    time: float  # file-transmission time slots
    dof: float | None  # K (1 - gamma) / time; None when no user was served


def build_schedule(partition_sets: Mapping[int, PartitionSet], num_profiles: int) -> RoundSchedule:
    """Consume every profile's partitions in order, one per round."""
    if any(p < 1 or p > num_profiles for p in partition_sets):
        raise ValueError("partition sets keyed by unknown profile")
    counts = {p: partition_sets[p].count if p in partition_sets else 0 for p in range(1, num_profiles + 1)}
    total_rounds = max(counts.values(), default=0)
    rounds = []
    for g in range(total_rounds):
        entries: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for profile in range(1, num_profiles + 1):
            if counts[profile] > g:
                part = partition_sets[profile].partitions[g]
                helpers = tuple(h for h, _ in part)
                users = tuple(u for _, u in part)
                entries[profile] = (helpers, users)
        rounds.append(entries)
    return RoundSchedule(
        num_profiles=num_profiles,
        rounds=tuple(rounds),
        idle_counts=round_idle_counts(list(counts.values())),
    )


def round_idle_counts(partition_counts: Sequence[int]) -> tuple[int, ...]:
    """v(g) for every round g: the profiles whose partition count is at most g."""
    return tuple(
        sum(count <= g for count in partition_counts)
        for g in range(max(partition_counts, default=0))
    )


def transmissions_from_idle(idle: Sequence[int], num_profiles: int, index_size: int) -> int:
    """Closed-form count of the multicast groups with a nonempty effective set.

    Round g sends one signal per size-(t + 1) profile group that is not
    wholly idle: sum over g of C(L, t + 1) - C(v(g), t + 1).
    """
    size = index_size + 1
    full = comb(num_profiles, size)
    return sum(full - comb(v, size) for v in idle)


def count_transmissions(schedule: RoundSchedule, index_size: int) -> int:
    """Closed-form count of the multicast groups with a nonempty effective set."""
    return transmissions_from_idle(schedule.idle_counts, schedule.num_profiles, index_size)


def enumerate_transmissions(
    schedule: RoundSchedule, index_size: int
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Yield (round, group, effective profiles) for every transmitted group."""
    for g, entries in enumerate(schedule.rounds):
        for group in combinations(range(1, schedule.num_profiles + 1), index_size + 1):
            effective = tuple(p for p in group if p in entries)
            if effective:
                yield g, group, effective


def delivery_time(transmissions: int, num_profiles: int, index_size: int) -> float:
    """Slots needed: each transmission moves one subfile (a 1/C(L,t) file share) per user."""
    if transmissions < 0:
        raise ValueError(f"transmission count must be nonnegative, got {transmissions}")
    return transmissions / comb(num_profiles, index_size)


def sum_dof(num_users: int, gamma: float, time: float) -> float:
    """Users served per slot at full rate: K (1 - gamma) / T."""
    if time <= 0:
        raise ValueError(f"delivery time must be positive to define sum-DoF, got {time}")
    return num_users * (1.0 - gamma) / time


def build_precoder(channel: ChannelMatrix, helpers: tuple[int, ...], users: tuple[int, ...]) -> np.ndarray:
    """Invert the channel between a partition's helpers and its users.

    Row k of the submatrix is user k's channel restricted to the partition's
    helpers; the matched diagonal is nonzero by construction, and random
    continuous gains keep the matrix invertible almost surely.
    """
    if len(helpers) != len(users):
        raise ValueError("a partition pairs equally many helpers and users")
    sub = channel.coefficients[np.ix_(users, helpers)]
    diag = np.abs(np.diagonal(sub))
    if np.any(diag == 0):
        raise ValueError("matched helper-user link is structurally zero")
    if np.linalg.cond(sub) > CONDITION_LIMIT:
        raise SingularChannelError(
            f"channel submatrix for users {users} on helpers {helpers} is ill-conditioned"
        )
    return np.linalg.inv(sub)


def compose_signal(
    channel: ChannelMatrix,
    schedule: RoundSchedule,
    round_index: int,
    group: tuple[int, ...],
    demands: Mapping[int, int],
    symbols: Mapping[tuple[int, SubfileIndex], complex],
    precoders: dict[tuple[int, int], np.ndarray] | None = None,
) -> TransmissionRecord | None:
    """Superpose the zero-padded precoded block of every active profile in `group`.

    Block k of profile `p` carries the subfile of index `group minus p` for
    the k-th partition user.  Returns None when no group member has a
    partition this round.  `precoders` caches inverses across the groups of
    a round, keyed by (round, profile).
    """
    entries = schedule.rounds[round_index]
    effective = tuple(p for p in group if p in entries)
    if not effective:
        return None
    if precoders is None:
        precoders = {}
    num_helpers = channel.coefficients.shape[1]
    signal = np.zeros(num_helpers, dtype=complex)
    blocks: dict[int, np.ndarray] = {}
    intended: list[tuple[int, int, SubfileIndex]] = []
    for profile in effective:
        helpers, users = entries[profile]
        index = tuple(sorted(set(group) - {profile}))
        messages = np.array([symbols[(demands[u], index)] for u in users])
        inverse = precoders.get((round_index, profile))
        if inverse is None:
            inverse = precoders[(round_index, profile)] = build_precoder(channel, helpers, users)
        block = np.zeros(num_helpers, dtype=complex)
        block[list(helpers)] = inverse @ messages
        blocks[profile] = block
        signal += block
        intended.extend((u, profile, index) for u in users)
    return TransmissionRecord(
        round_index=round_index,
        group=group,
        effective=effective,
        blocks=blocks,
        intended=tuple(intended),
        signal=signal,
    )


def verify_decode(
    record: TransmissionRecord,
    channel: ChannelMatrix,
    demands: Mapping[int, int],
    symbols: Mapping[tuple[int, SubfileIndex], complex],
) -> dict[int, float]:
    """Replay reception for every served user and return the decode residuals.

    The user hears the full superposition, cancels the other profiles'
    blocks (all their symbols sit in its cache), and should be left with its
    own subfile symbol exactly; raises DecodeFailure past tolerance.
    """
    residuals: dict[int, float] = {}
    for user, profile, index in record.intended:
        row = channel.coefficients[user]
        received = row @ record.signal
        cached = sum(row @ block for p, block in record.blocks.items() if p != profile)
        expected = symbols[(demands[user], index)]
        residual = abs(received - cached - expected)
        if residual >= DECODE_TOLERANCE * (abs(expected) + 1.0):
            raise DecodeFailure(
                f"user {user} failed to decode in round {record.round_index}, "
                f"group {record.group}: residual {residual:.3e}"
            )
        residuals[user] = residual
    return residuals


def verify_schedule(
    channel: ChannelMatrix,
    schedule: RoundSchedule,
    demands: Mapping[int, int],
    symbols: Mapping[tuple[int, SubfileIndex], complex],
    index_size: int,
) -> float:
    """Compose and decode every scheduled transmission; return the worst residual."""
    precoders: dict[tuple[int, int], np.ndarray] = {}
    worst = 0.0
    for g, group, _ in enumerate_transmissions(schedule, index_size):
        record = compose_signal(channel, schedule, g, group, demands, symbols, precoders)
        if record is None:
            raise RuntimeError(f"round {g} transmits group {group} with no active profile")
        residuals = verify_decode(record, channel, demands, symbols)
        if residuals:
            worst = max(worst, max(residuals.values()))
    return worst


def coverage_check(schedule: RoundSchedule, index_size: int) -> list[str]:
    """Audit that every scheduled user receives each needed index exactly once."""
    delivered: dict[int, Counter] = {}
    profile_of: dict[int, int] = {}
    for g, group, effective in enumerate_transmissions(schedule, index_size):
        for profile in effective:
            _, users = schedule.rounds[g][profile]
            index = tuple(sorted(set(group) - {profile}))
            for user in users:
                delivered.setdefault(user, Counter())[index] += 1
                profile_of[user] = profile
    problems = []
    for user in sorted(delivered):
        needed = needed_subfiles(profile_of[user], schedule.num_profiles, index_size)
        got = delivered[user]
        for index in needed:
            times = got.get(index, 0)
            if times != 1:
                problems.append(f"user {user}: index {index} delivered {times} times")
        unneeded = got.keys() - set(needed)
        problems.extend(
            f"user {user}: unneeded index {index} delivered" for index in got if index in unneeded
        )
    return problems

