"""Round scheduling, zero-forcing multicast signals, decode checks, and timing.

Each round serves the g-th partition of every profile that still has one.
Within a round, one signal is transmitted per multicast group (a subset of
profiles of size `index_size + 1` with at least one nonempty partition): the
sum of the per-profile precoded blocks, zero-padded onto the helpers the
partition does not use.  A served user cancels the other profiles' blocks
from its cache and is left with exactly its own subfile symbol.  The
verifier builds a round's signals as one matrix, a column per group.
"""

from __future__ import annotations

from collections import Counter, defaultdict
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


Slot = tuple[tuple[int, ...], tuple[int, ...]]  # (helpers, users) of one partition

# Per round: profile -> the slot of the partition served that round.
RoundEntries = Mapping[int, Slot]


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
        entries: dict[int, Slot] = {}
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


def matched_precoders(channel: ChannelMatrix, slots: Sequence[Slot]) -> list[np.ndarray]:
    """Invert the channel between each slot's helpers and its users.

    Row k of a slot's submatrix is user k's channel restricted to the
    partition's helpers; the matched diagonal is nonzero by construction, and
    random continuous gains keep the matrix invertible almost surely.  Slots
    of equal size are stacked, so each size costs one `cond` and one `inv`.
    """
    by_size: dict[int, list[int]] = {}
    for i, (helpers, users) in enumerate(slots):
        if len(helpers) != len(users):
            raise ValueError("a partition pairs equally many helpers and users")
        by_size.setdefault(len(users), []).append(i)
    inverses: dict[int, np.ndarray] = {}
    for size, members in by_size.items():
        helpers = np.array([slots[i][0] for i in members], dtype=np.intp).reshape(-1, size)
        users = np.array([slots[i][1] for i in members], dtype=np.intp).reshape(-1, size)
        subs = channel.coefficients[users[:, :, None], helpers[:, None, :]]
        zero = (np.diagonal(subs, axis1=1, axis2=2) == 0).any(axis=1)
        if zero.any():
            helpers_k, users_k = slots[members[int(np.argmax(zero))]]
            raise ValueError(
                f"matched helper-user link is structurally zero for users {users_k} "
                f"on helpers {helpers_k}"
            )
        singular = np.linalg.cond(subs) > CONDITION_LIMIT
        if singular.any():
            helpers_k, users_k = slots[members[int(np.argmax(singular))]]
            raise SingularChannelError(
                f"channel submatrix for users {users_k} on helpers {helpers_k} is ill-conditioned"
            )
        inverses.update(zip(members, np.linalg.inv(subs)))
    return [inverses[i] for i in range(len(slots))]


@dataclass(frozen=True)
class RoundSignal:
    """One round's transmissions as matrices: column j is the signal of `groups[j]`.

    Rows follow the served users, profile by profile in partition order.
    """

    round_index: int
    groups: tuple[tuple[int, ...], ...]
    users: tuple[int, ...]
    profiles: np.ndarray  # (n,) each served user's profile
    intended: np.ndarray  # (n, G) bool: the user's profile belongs to the group
    messages: np.ndarray  # (n, G) M: the symbol each user should decode, 0 where not intended
    precoder: np.ndarray  # (E, n) Q: each profile's inverse on its helpers and users, else 0
    signal: np.ndarray  # (E, G) X = Q M, the sum of the zero-padded blocks P_p M_p


def round_signals(
    channel: ChannelMatrix,
    schedule: RoundSchedule,
    demands: Mapping[int, int],
    symbols: Mapping[tuple[int, SubfileIndex], complex],
    index_size: int,
) -> list[RoundSignal]:
    """Compose every round's signal matrix from the groups it transmits.

    Round g sends the groups `enumerate_transmissions` yields for it, which
    must number C(L, t + 1) - C(v(g), t + 1).  In the column of group S,
    profile p's users carry the subfiles of index S minus p, precoded by the
    inverse of their matched channel and zero-padded onto the other helpers.
    """
    transmitted: list[list[tuple[int, ...]]] = [[] for _ in schedule.rounds]
    for g, group, _ in enumerate_transmissions(schedule, index_size):
        transmitted[g].append(group)
    slots = [(g, p) for g, entries in enumerate(schedule.rounds) for p in entries]
    inverses = dict(
        zip(slots, matched_precoders(channel, [schedule.rounds[g][p] for g, p in slots]))
    )
    full = comb(schedule.num_profiles, index_size + 1)
    num_helpers = channel.coefficients.shape[1]
    signals = []
    for g, entries in enumerate(schedule.rounds):
        groups = transmitted[g]
        expected = full - comb(schedule.idle_counts[g], index_size + 1)
        if len(groups) != expected:
            raise RuntimeError(
                f"round {g} transmits {len(groups)} groups, the idle count implies {expected}"
            )
        served = [u for _, users in entries.values() for u in users]
        profiles = np.repeat(list(entries), [len(users) for _, users in entries.values()])
        group_profiles = np.array(groups, dtype=np.intp).reshape(len(groups), index_size + 1)
        intended = (profiles[:, None, None] == group_profiles).any(axis=2)
        precoder = np.zeros((num_helpers, len(served)), dtype=complex)
        # the intended symbols in row-major order: user by user, its groups in column order
        symbols_sent = []
        start = 0
        for p, (helpers, users) in entries.items():
            precoder[list(helpers), start : start + len(users)] = inverses[g, p]
            start += len(users)
            indices = [tuple(q for q in group if q != p) for group in groups if p in group]
            symbols_sent.extend([symbols[(demands[u], index)] for u in users for index in indices])
        messages = np.zeros((len(served), len(groups)), dtype=complex)
        messages[intended] = symbols_sent
        signals.append(
            RoundSignal(
                round_index=g,
                groups=tuple(groups),
                users=tuple(served),
                profiles=profiles,
                intended=intended,
                messages=messages,
                precoder=precoder,
                signal=precoder @ messages,
            )
        )
    return signals


def decode_round(channel: ChannelMatrix, rs: RoundSignal) -> float:
    """Replay reception of one round's signals; return the worst decode residual.

    Each served user hears the full superposition H[served] X, cancels the
    other profiles' blocks (every symbol in them sits in its cache), and
    should be left with exactly its own subfile symbol; raises DecodeFailure
    past tolerance, naming the first failure in transmission order.
    """
    heard = channel.coefficients[list(rs.users)]
    received = heard @ rs.signal
    # user i rebuilds from cache the part of the signal that carries other profiles' rows
    other_profile = rs.profiles[:, None] != rs.profiles[None, :]
    cached = ((heard @ rs.precoder) * other_profile) @ rs.messages
    residual = np.abs(received - cached - rs.messages)
    failed = rs.intended & ~(residual < DECODE_TOLERANCE * (np.abs(rs.messages) + 1.0))
    if failed.any():
        j, k = np.argwhere(failed.T)[0]
        raise DecodeFailure(
            f"user {rs.users[k]} failed to decode in round {rs.round_index}, "
            f"group {rs.groups[j]}: residual {residual[k, j]:.3e}"
        )
    return float(residual[rs.intended].max()) if rs.intended.any() else 0.0


def verify_schedule(
    channel: ChannelMatrix,
    schedule: RoundSchedule,
    demands: Mapping[int, int],
    symbols: Mapping[tuple[int, SubfileIndex], complex],
    index_size: int,
) -> float:
    """Compose and decode every scheduled transmission; return the worst residual."""
    signals = round_signals(channel, schedule, demands, symbols, index_size)
    return max((decode_round(channel, rs) for rs in signals), default=0.0)


def coverage_check(schedule: RoundSchedule, index_size: int) -> list[str]:
    """Audit that every scheduled user receives each needed index exactly once.

    A user holding one (round, profile) slot receives every group of that
    round containing its profile p, since such a group always has an active
    member, and S -> S minus p maps those groups one to one onto the size-t
    subsets of the other profiles: each needed index once, nothing else.  So
    the audit passes exactly when no user holds two slots; otherwise the
    deliveries are enumerated to name every fault.
    """
    served = [u for entries in schedule.rounds for _, users in entries.values() for u in users]
    if len(set(served)) == len(served):
        return []
    delivered: dict[int, Counter] = defaultdict(Counter)
    profile_of: dict[int, int] = {}
    for g, group, effective in enumerate_transmissions(schedule, index_size):
        for profile in effective:
            _, users = schedule.rounds[g][profile]
            index = tuple(sorted(set(group) - {profile}))
            for user in users:
                delivered[user][index] += 1
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
