"""Round scheduling, zero-forcing multicast signals, decode checks, and timing.

Each round serves the g-th partition of every profile that still has one.
Within a round, one signal is transmitted per multicast group (a subset of
profiles of size `index_size + 1` with at least one nonempty partition): the
sum of the per-profile precoded blocks, zero-padded onto the helpers the
partition does not use.  A served user cancels the other profiles' blocks
from its cache and is left with exactly its own subfile symbol.  The
verifier builds a round's signals as one matrix, a column per group, and
places each user's symbols by a group table built once per (L, t).  Each
partition stays the partitioner's (helper, user) pairs from schedule to decode.

A schedule holds only its rounds; the rest follows from them.  Its
transmission count is the sweep's closed form over its per-profile partition
counts, and its coverage audit passes exactly when no user holds two
(round, profile) slots.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .cache_placement import needed_subfiles
from .partitioner import Partition, PartitionSet

CONDITION_LIMIT = 1e12
DECODE_TOLERANCE = 1e-9
_EXACT_FLOAT = 2**53  # integers below it convert to float64 exactly


class SingularChannelError(RuntimeError):
    """A matched channel submatrix was numerically singular (probability-zero event)."""


class DecodeFailure(RuntimeError):
    """A served user could not recover its subfile within tolerance."""


@dataclass(frozen=True)
class RoundSchedule:
    """Per-round service plan: round g maps each profile with a g-th partition to it."""

    num_profiles: int
    rounds: tuple[Mapping[int, Partition], ...]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def slots(self) -> list[Partition]:
        """Every (round, profile) slot's partition, round by round, profiles in round order."""
        return [part for entries in self.rounds for part in entries.values()]


def build_schedule(partition_sets: Mapping[int, PartitionSet], num_profiles: int) -> RoundSchedule:
    """Place each profile's g-th partition, the same object, in round g."""
    if any(p < 1 or p > num_profiles for p in partition_sets):
        raise ValueError("partition sets keyed by unknown profile")
    ordered = [(p, partition_sets[p].partitions) for p in sorted(partition_sets)]
    total_rounds = max((len(parts) for _, parts in ordered), default=0)
    rounds = tuple(
        {p: parts[g] for p, parts in ordered if len(parts) > g} for g in range(total_rounds)
    )
    return RoundSchedule(num_profiles=num_profiles, rounds=rounds)


def count_transmissions(schedule: RoundSchedule, index_size: int) -> int:
    """Closed-form count of the multicast groups with a nonempty effective set.

    The sweep's own formula, `transmissions_from_counts`, applied to the
    schedule's per-profile partition counts.
    """
    served = Counter(p for entries in schedule.rounds for p in entries)
    counts = [served[p] for p in range(1, schedule.num_profiles + 1)]
    return int(transmissions_from_counts(np.array(counts, dtype=np.int64), index_size))


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


def matched_precoders(
    channel: np.ndarray,
    slots: Sequence[Partition],
    first_rows: np.ndarray | None = None,
    seeds: Sequence[int] | None = None,
) -> np.ndarray:
    """Zero-forcing precoders of a sequence of partitions, side by side in one (E, n) array.

    Partition i takes the next len(slots[i]) columns: its matched channel
    submatrix's inverse on its helpers' rows, zeros elsewhere, so a round's
    partitions give its Q; random continuous gains make each invertible
    almost surely.  The m partitions of one size are one (m, size, 2) array
    of pairs, with one `cond` and one `inv`.  Partitions of several trials
    can share one call: `channel` stacks their channels, partition i's users
    are rows `first_rows[i] + u`, and an error names its own users and `seeds[i]`.
    """
    by_size: dict[int, list[int]] = {}
    for i, part in enumerate(slots):
        by_size.setdefault(len(part), []).append(i)

    def where(i: int) -> str:
        helpers, users = zip(*slots[i])
        trial = "" if seeds is None else f" (seed {seeds[i]})"
        return f"users {users} on helpers {helpers}{trial}"

    columns = np.cumsum([0] + [len(part) for part in slots])
    precoders = np.zeros((channel.shape[1], columns[-1]), dtype=complex)
    for size, members in by_size.items():
        pairs = np.array([slots[i] for i in members], dtype=np.intp).reshape(-1, size, 2)
        helpers, users = pairs[:, :, 0], pairs[:, :, 1]
        if first_rows is not None:
            users += first_rows[members, None]
        subs = channel[users[:, :, None], helpers[:, None, :]]
        zero = (np.diagonal(subs, axis1=1, axis2=2) == 0).any(axis=1)
        if zero.any():
            slot = members[int(np.argmax(zero))]
            raise ValueError(f"matched helper-user link is structurally zero for {where(slot)}")
        singular = np.linalg.cond(subs) > CONDITION_LIMIT
        if singular.any():
            slot = members[int(np.argmax(singular))]
            raise SingularChannelError(f"channel submatrix for {where(slot)} is ill-conditioned")
        own = columns[members, None] + np.arange(size)
        precoders[helpers[:, :, None], own[:, None, :]] = np.linalg.inv(subs)
    return precoders


@dataclass(frozen=True)
class GroupTable:
    """The multicast groups of (L, t) and the group each needed subfile travels in.

    `groups` lists the size-(t + 1) subsets of the profiles 1..L in
    lexicographic order.  `rank[p - 1, k]` is the position there of {p} + S,
    S the k-th index of `needed_subfiles(p, L, t)`: the group whose signal
    carries that subfile to the users of profile p.
    """

    groups: tuple[tuple[int, ...], ...]
    rank: np.ndarray  # (L, C(L - 1, t)), read-only


@lru_cache(maxsize=32)
def group_table(num_profiles: int, index_size: int) -> GroupTable:
    """The group table of (L, t), built once per pair."""
    groups = tuple(combinations(range(1, num_profiles + 1), index_size + 1))
    position = {group: j for j, group in enumerate(groups)}
    needed = [needed_subfiles(p, num_profiles, index_size) for p in range(1, num_profiles + 1)]
    rank = np.array(
        [[position[tuple(sorted(index + (p,)))] for index in row] for p, row in enumerate(needed, 1)],
        dtype=np.intp,
    ).reshape(num_profiles, comb(num_profiles - 1, index_size))
    rank.setflags(write=False)
    return GroupTable(groups=groups, rank=rank)


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
    symbols: np.ndarray,
    index_size: int,
    precoders: np.ndarray | None = None,
) -> list[RoundSignal]:
    """Compose every round's signal matrix from the groups it transmits.

    Round g sends every group with a profile served that round: the groups
    in the `group_table` rows of its a(g) active profiles, which must number
    C(L, t + 1) - C(L - a(g), t + 1).  In the column of group S, profile
    p's users carry the subfiles of index S minus p, from their rows of the
    (K, C(L - 1, t)) `symbols` array, precoded by the inverse of their
    matched channel and zero-padded onto the other helpers.  `precoders`
    are the columns `matched_precoders` gives for `schedule.slots`,
    computed here unless given.
    """
    if precoders is None:
        precoders = matched_precoders(channel, schedule.slots)
    table = group_table(schedule.num_profiles, index_size)
    full = comb(schedule.num_profiles, index_size + 1)
    start = 0
    signals = []
    for g, entries in enumerate(schedule.rounds):
        sent = np.zeros(len(table.groups), dtype=bool)
        sent[table.rank[[p - 1 for p in entries]]] = True
        expected = full - comb(schedule.num_profiles - len(entries), index_size + 1)
        if sent.sum() != expected:
            raise RuntimeError(
                f"round {g} transmits {sent.sum()} groups, its {len(entries)} active "
                f"profiles imply {expected}"
            )
        served = [u for part in entries.values() for _, u in part]
        profiles = np.array([p for p, part in entries.items() for _ in part], dtype=np.intp)
        precoder = precoders[:, start : start + len(served)].copy()  # contiguous Q
        start += len(served)
        # each served user's symbol row goes to the columns of its groups
        rows = np.arange(len(served))[:, None]
        columns = (np.cumsum(sent) - 1)[table.rank[profiles - 1]]
        messages = np.zeros((len(served), expected), dtype=complex)
        messages[rows, columns] = symbols[served]
        intended = np.zeros(messages.shape, dtype=bool)
        intended[rows, columns] = True
        signals.append(
            RoundSignal(
                round_index=g,
                groups=tuple(compress(table.groups, sent.tolist())),
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
    symbols: np.ndarray,
    index_size: int,
    precoders: np.ndarray | None = None,
) -> float:
    """Compose and decode every scheduled transmission; return the worst residual.

    `symbols` is the array `draw_subfile_symbols` drew for the distinct
    `demands`: its rows are per user, and so already per requested file.
    `precoders` are passed on to `round_signals`.
    """
    signals = round_signals(channel, schedule, symbols, index_size, precoders)
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
    served = [u for part in schedule.slots for _, u in part]
    if len(set(served)) == len(served):
        return []
    slots: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for g, entries in enumerate(schedule.rounds):
        for profile, part in entries.items():
            for _, user in part:
                slots[user].append((g, profile))
    twice = sorted((user, held) for user, held in slots.items() if len(held) > 1)
    return [
        f"user {user}: served in {len(held)} slots (round, profile): "
        + ", ".join(map(str, held))
        for user, held in twice
    ]
