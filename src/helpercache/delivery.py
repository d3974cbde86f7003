"""Round scheduling, zero-forcing multicast signals, decode checks, and timing.

Each round serves the g-th partition of every profile that still has one.
Within a round, one signal is transmitted per multicast group (a subset of
profiles of size `index_size + 1` with at least one nonempty partition): the
sum of the per-profile precoded blocks, zero-padded onto the helpers the
partition does not use.  A served user cancels the other profiles' blocks
from its cache and is left with exactly its own subfile symbol.  The
verifier builds a round's signals as one matrix, a column per group.

A schedule holds only its rounds; the rest follows from them.  Its
transmission count is the sweep's closed form over its per-profile partition
counts, and its coverage audit passes exactly when no user holds two
(round, profile) slots.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Mapping, Sequence

import numpy as np

from .cache_placement import SubfileIndex
from .partitioner import PartitionSet

CONDITION_LIMIT = 1e12
DECODE_TOLERANCE = 1e-9
_EXACT_FLOAT = 2**53  # integers below it convert to float64 exactly


class SingularChannelError(RuntimeError):
    """A matched channel submatrix was numerically singular (probability-zero event)."""


class DecodeFailure(RuntimeError):
    """A served user could not recover its subfile within tolerance."""


Slot = tuple[tuple[int, ...], tuple[int, ...]]  # (helpers, users) of one partition

# Per round: profile -> the slot of the partition served that round.
RoundEntries = Mapping[int, Slot]


@dataclass(frozen=True)
class RoundSchedule:
    """Per-round service plan: round g maps each profile with a g-th partition to its slot."""

    num_profiles: int
    rounds: tuple[RoundEntries, ...]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


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
    return RoundSchedule(num_profiles=num_profiles, rounds=tuple(rounds))


def count_transmissions(schedule: RoundSchedule, index_size: int) -> int:
    """Closed-form count of the multicast groups with a nonempty effective set.

    The sweep's own formula, `transmissions_from_counts`, applied to the
    schedule's per-profile partition counts.
    """
    served = Counter(p for entries in schedule.rounds for p in entries)
    counts = [served[p] for p in range(1, schedule.num_profiles + 1)]
    return int(transmissions_from_counts(np.array(counts, dtype=np.int64), index_size))


def enumerate_transmissions(
    schedule: RoundSchedule, index_size: int
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Yield (round, group, effective profiles) for every transmitted group."""
    for g, entries in enumerate(schedule.rounds):
        for group in combinations(range(1, schedule.num_profiles + 1), index_size + 1):
            effective = tuple(p for p in group if p in entries)
            if effective:
                yield g, group, effective


def transmissions_from_counts(counts: np.ndarray, index_size: int) -> np.ndarray:
    """Transmissions of every row of a (..., L) array of per-profile partition counts.

    Summing C(L, t + 1) - C(v(g), t + 1) over the rounds g, with v(g) the
    profiles whose count is at most g (idle in round g), is, by the
    hockey-stick identity, sum_j c_(j) C(L - j, t) with c_(1) >= c_(2) >= ...
    the row's counts in descending order: one sort and one product for a
    whole array of trials.  The totals are int64, or exact Python integers
    once a total could reach 2^53.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_profiles = counts.shape[-1]
    weights = [comb(num_profiles - j, index_size) for j in range(1, num_profiles + 1)]
    largest = int(counts.max(initial=0))
    dtype = np.int64 if largest * comb(num_profiles, index_size + 1) < _EXACT_FLOAT else object
    descending = -np.sort(-counts, axis=-1)
    return descending.astype(dtype) @ np.array(weights, dtype=dtype)


def delivery_time(
    transmissions: int | np.ndarray, num_profiles: int, index_size: int
) -> float | np.ndarray:
    """Slots needed: each transmission moves one subfile (a 1/C(L,t) file share) per user.

    Works on one count or on a vector of them, rounding each as Python's
    int / int does.
    """
    if np.any(np.less(transmissions, 0)):
        raise ValueError(f"transmission count must be nonnegative, got {transmissions}")
    per_file = comb(num_profiles, index_size)
    if isinstance(transmissions, np.ndarray) and (
        transmissions.dtype == object
        or per_file >= _EXACT_FLOAT
        or np.any(transmissions >= _EXACT_FLOAT)
    ):
        # float64 division rounds like int / int only for operands below 2^53
        return np.array([count / per_file for count in transmissions.tolist()], dtype=float)
    return transmissions / per_file


def sum_dof(
    num_users: int | np.ndarray, gamma: float, time: float | np.ndarray
) -> float | np.ndarray:
    """Users served per slot at full rate: K (1 - gamma) / T, elementwise on arrays."""
    if np.any(np.less_equal(time, 0)):
        raise ValueError(f"delivery time must be positive to define sum-DoF, got {time}")
    return num_users * (1.0 - gamma) / time


def matched_precoders(channel: np.ndarray, slots: Sequence[Slot]) -> list[np.ndarray]:
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
        subs = channel[users[:, :, None], helpers[:, None, :]]
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
    channel: np.ndarray,
    schedule: RoundSchedule,
    demands: Mapping[int, int],
    symbols: Mapping[tuple[int, SubfileIndex], complex],
    index_size: int,
) -> list[RoundSignal]:
    """Compose every round's signal matrix from the groups it transmits.

    Round g sends the groups `enumerate_transmissions` yields for it, which
    must number C(L, t + 1) - C(L - a(g), t + 1) with a(g) the profiles
    served that round: every group except those of idle profiles only.  In
    the column of group S, profile p's users carry the subfiles of index S
    minus p, precoded by the inverse of their matched channel and
    zero-padded onto the other helpers.
    """
    transmitted: list[list[tuple[int, ...]]] = [[] for _ in schedule.rounds]
    for g, group, _ in enumerate_transmissions(schedule, index_size):
        transmitted[g].append(group)
    slots = [(g, p) for g, entries in enumerate(schedule.rounds) for p in entries]
    inverses = dict(
        zip(slots, matched_precoders(channel, [schedule.rounds[g][p] for g, p in slots]))
    )
    full = comb(schedule.num_profiles, index_size + 1)
    num_helpers = channel.shape[1]
    signals = []
    for g, entries in enumerate(schedule.rounds):
        groups = transmitted[g]
        expected = full - comb(schedule.num_profiles - len(entries), index_size + 1)
        if len(groups) != expected:
            raise RuntimeError(
                f"round {g} transmits {len(groups)} groups, its {len(entries)} active "
                f"profiles imply {expected}"
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


def decode_round(channel: np.ndarray, rs: RoundSignal) -> float:
    """Replay reception of one round's signals; return the worst decode residual.

    Each served user hears the full superposition H[served] X, cancels the
    other profiles' blocks (every symbol in them sits in its cache), and
    should be left with exactly its own subfile symbol; raises DecodeFailure
    past tolerance, naming the first failure in transmission order.
    """
    heard = channel[list(rs.users)]
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
    channel: np.ndarray,
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
    the audit passes exactly when no user holds two slots; otherwise it names
    every such user with its slots.  `index_size` does not change the verdict.
    """
    served = [u for entries in schedule.rounds for _, users in entries.values() for u in users]
    if len(set(served)) == len(served):
        return []
    slots: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for g, entries in enumerate(schedule.rounds):
        for profile, (_, users) in entries.items():
            for user in users:
                slots[user].append((g, profile))
    twice = sorted((user, held) for user, held in slots.items() if len(held) > 1)
    return [
        f"user {user}: served in {len(held)} slots (round, profile): "
        + ", ".join(map(str, held))
        for user, held in twice
    ]
