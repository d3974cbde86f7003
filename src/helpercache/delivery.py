"""Round scheduling, zero-forcing multicast signals, decode checks, and timing.

Each round serves the g-th partition of every profile that still has one.
Within a round, one signal is transmitted per multicast group (a subset of
profiles of size `index_size + 1` with at least one nonempty partition): the
sum of the per-profile precoded blocks, zero-padded onto the helpers the
partition does not use.  A served user cancels the other profiles' blocks
from its cache and is left with exactly its own subfile symbol.  The
verifier builds a round's signals as one matrix, a column per group, and
places each user's symbols by a group table built once per (L, t); one call
replays many schedules, with the index work done once for all their rounds.
Each partition stays the partitioner's (helper, user) pairs from schedule to
decode.

A schedule holds only its rounds; the rest follows from them.  Its
transmission count is the sweep's closed form over its per-profile partition
counts, and its coverage audit passes exactly when no user holds two
(round, profile) slots.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
    of pairs, with one `inv`.  A submatrix A is ill-conditioned when
    `cond(A)` exceeds `CONDITION_LIMIT`; since cond_2(A) <= |A|_F |A^-1|_F,
    `cond` runs only on the slots whose product with the computed inverse
    exceeds half the limit, or on the whole size when `inv` finds an exactly
    singular one.  Partitions of several trials can share one call:
    `channel` stacks their channels, partition i's users are rows
    `first_rows[i] + u`, and an error names its own users and `seeds[i]`.
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
        try:
            inverses = np.linalg.inv(subs)
        except np.linalg.LinAlgError:
            inverses, suspect = None, np.ones(len(members), dtype=bool)
        else:
            # The computed inverse is far closer than a factor 2 to the true
            # one below the limit (Higham, ch. 14), so a product within half
            # the limit proves cond(A) within it.  A NaN product is a suspect.
            bound = _squared_frobenius(subs) * _squared_frobenius(inverses)
            suspect = ~(bound <= (CONDITION_LIMIT / 2) ** 2)
        singular = np.zeros(len(members), dtype=bool)
        if suspect.any():
            singular[suspect] = np.linalg.cond(subs[suspect]) > CONDITION_LIMIT
        if singular.any():
            slot = members[int(np.argmax(singular))]
            raise SingularChannelError(f"channel submatrix for {where(slot)} is ill-conditioned")
        if inverses is None:
            inverses = np.linalg.inv(subs)  # singular to inv but not to cond: LinAlgError
        own = columns[members, None] + np.arange(size)
        precoders[helpers[:, :, None], own[:, None, :]] = inverses
    return precoders


def _squared_frobenius(matrices: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of an (m, s, s) stack, with no copy."""
    parts = matrices.view(matrices.real.dtype)
    return np.einsum("ijk,ijk->i", parts, parts)


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


def _transmit(precoder: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """One round's signals X = Q M: column j sums the zero-padded blocks P_p M_p of group j.

    A function of its own so that a test can alter what is sent.
    """
    return precoder @ messages


def decode_schedules(
    channels: Sequence[np.ndarray],
    symbols: Sequence[np.ndarray],
    schedules: Sequence[RoundSchedule],
    index_size: int,
    precoders: np.ndarray,
    labels: Sequence[str] | None = None,
) -> np.ndarray:
    """Compose and decode every round of `schedules`; return every intended residual.

    All schedules share one L.  Schedule s serves the users of one trial,
    whose rows are those of `channels[s]` and `symbols[s]`, each user's
    `needed_subfiles` symbols; `precoders` are the columns
    `matched_precoders` gives for the schedules' slots in order.

    Round g sends every group with a profile served that round: the groups
    in the `group_table` rows of its a(g) active profiles, which must number
    C(L, t + 1) - C(L - a(g), t + 1).  Its message matrix M has a row per
    served user, profile by profile in partition order, and a column per
    sent group, in table order; in the column of group S, profile p's users
    carry the symbol of index S minus p.  The served users hear H X, with
    X = Q M, cancel (H Q o O) M, the blocks of the other profiles, whose
    symbols they cache, and must be left with their own symbol.  The index
    work is done once for all rounds: where each row's symbols go in its
    round's M, and the tolerance test.  Each round then makes only the four
    products, at the shapes of that round alone, so the residuals do not
    depend on which schedules share the call.

    Returns a (served pairs, C(L - 1, t)) array, (0, 0) without schedules:
    row i is the i-th served (helper, user) pair, schedule by schedule and
    round by round, and its entries are that user's residuals in
    `needed_subfiles` order.  Raises DecodeFailure past
    `DECODE_TOLERANCE * (|symbol| + 1)`, naming the user, round, group and
    residual of the first failure in transmission order, followed by
    `(labels[s])` when given.
    """
    if not schedules:
        return np.empty((0, 0))
    num_profiles = schedules[0].num_profiles
    if any(schedule.num_profiles != num_profiles for schedule in schedules):
        raise ValueError("the schedules of one call must share their profile count")
    table = group_table(num_profiles, index_size)
    # Flatten: a round, a slot per active profile of it, a row per served pair.
    users: list[int] = []
    slot_profiles, slot_sizes, slot_rounds = [], [], []
    round_schedules, round_numbers, bounds = [], [], [0]
    for s, schedule in enumerate(schedules):
        for g, entries in enumerate(schedule.rounds):
            for profile, part in entries.items():
                slot_profiles.append(profile)
                slot_sizes.append(len(part))
                slot_rounds.append(len(round_schedules))
                for _, user in part:
                    users.append(user)
            round_schedules.append(s)
            round_numbers.append(g)
            bounds.append(len(users))
    users = np.array(users, dtype=np.intp)
    slot_profiles = np.array(slot_profiles, dtype=np.intp)
    slot_rounds = np.array(slot_rounds, dtype=np.intp)
    row_profiles = np.repeat(slot_profiles, slot_sizes)

    sent = np.zeros((len(round_schedules), len(table.groups)), dtype=bool)
    sent[slot_rounds[:, None], table.rank[slot_profiles - 1]] = True
    widths = sent.sum(axis=1)
    active = np.bincount(slot_rounds, minlength=len(round_schedules))
    idle = [comb(num_profiles - a, index_size + 1) for a in range(num_profiles + 1)]
    expected = comb(num_profiles, index_size + 1) - np.array(idle)[active]
    wrong = np.flatnonzero(widths != expected)
    if wrong.size:
        r = wrong[0]
        raise RuntimeError(
            f"round {round_numbers[r]} transmits {widths[r]} groups, its {active[r]} active "
            f"profiles imply {expected[r]}"
        )
    # Each row's flat positions in its round's M: its row there times the
    # round's width, plus the columns of its profile's groups.
    columns = np.cumsum(sent, axis=1, dtype=np.int32)
    columns -= 1
    positions = np.repeat(
        columns[slot_rounds[:, None], table.rank[slot_profiles - 1]], slot_sizes, axis=0
    )
    row_rounds = np.repeat(slot_rounds, slot_sizes)
    starts = np.array(bounds[:-1], dtype=np.intp)
    positions += ((np.arange(len(users)) - starts[row_rounds]) * widths[row_rounds])[:, None]
    del columns, row_rounds  # unread by the loop, so they do not add to its memory

    residuals = np.empty(positions.shape)
    for s, a, b, width in zip(round_schedules, bounds, bounds[1:], widths.tolist()):
        precoder = precoders[:, a:b].copy()  # contiguous Q
        served, at = users[a:b], positions[a:b].astype(np.intp)
        own = symbols[s][served]
        messages = np.zeros((b - a, width), dtype=complex)
        np.put(messages, at, own)
        signal = _transmit(precoder, messages)
        heard = channels[s][served]
        received = heard @ signal
        other_profile = row_profiles[a:b, None] != row_profiles[None, a:b]
        cached = ((heard @ precoder) * other_profile) @ messages
        np.abs((received - cached).take(at) - own, out=residuals[a:b])

    # A residual below the tolerance is below its bound, which is at least
    # the tolerance; only the others need their symbol's bound.
    if not residuals.max(initial=0.0) < DECODE_TOLERANCE:
        row, k = np.nonzero(~(residuals < DECODE_TOLERANCE))
        r = np.searchsorted(bounds, row, side="right") - 1
        owners = [round_schedules[i] for i in r.tolist()]
        wanted = [symbols[s][u, j] for s, u, j in zip(owners, users[row].tolist(), k.tolist())]
        failed = ~(residuals[row, k] < DECODE_TOLERANCE * (np.abs(np.array(wanted)) + 1.0))
        if failed.any():
            row, k, r = row[failed], k[failed], r[failed]
            column = positions[row, k] - (row - starts[r]) * widths[r]
            i = np.lexsort((row, column, r))[0]
            group = table.groups[np.flatnonzero(sent[r[i]])[column[i]]]
            s = round_schedules[r[i]]
            label = "" if labels is None else f" ({labels[s]})"
            raise DecodeFailure(
                f"user {users[row[i]]} failed to decode in round {round_numbers[r[i]]}, "
                f"group {group}: residual {residuals[row[i], k[i]]:.3e}{label}"
            )
    return residuals


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
    `precoders` are the columns `matched_precoders` gives for
    `schedule.slots`, computed here unless given.
    """
    if precoders is None:
        precoders = matched_precoders(channel, schedule.slots)
    residuals = decode_schedules([channel], [symbols], [schedule], index_size, precoders)
    return float(residuals.max(initial=0.0))


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
