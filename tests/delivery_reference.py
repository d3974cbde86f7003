"""Reference replays of the delivery scheme: the oracles for the tests.

The library verifies many schedules in one call, slot by slot: it checks
each slot's identity H Q = I, and each served user's error is its row's
1-norm |e_u|_1 of H Q - I, with no symbol drawn and no signal formed.  A
user's residuals after cache cancellation are its row of |(H Q - I) S| on
its slot, so each is at most |e_u|_1 max |S|.  The library holds a
schedule as one table of served pairs.  This module keeps the older form
of a schedule, a tuple of rounds each mapping its active profiles to their
partitions (`RoundSchedule`, built by `build_rounds` and flattened into the
library's table by `served_pairs`), the subfile bookkeeping only the replays
need (`needed_subfiles`, `group_table`), and two replays that
compose what is sent, symbols included, and cancel it, so that all three
can be compared on the same schedules:

- round by round (`round_signals`, `decode_round`): each round's message
  and signal matrices built and decoded on their own, the other profiles'
  blocks cancelled in floating point, and the group count of each round
  checked; every replayed residual must be at most the library's error
  times the largest symbol modulus, plus rounding.  The replay takes the
  precoders as one (E, rows) matrix, a column per table row, built slot by
  slot from `build_precoder`'s own inverses (`precoder_matrix`), so it
  shares no code with the decode it checks;
- transmission by transmission: groups enumerated one by one, one precoder
  inverse per (round, profile), one signal vector per group, each symbol
  found by its index in `needed_subfiles`, and a decode replay per
  intended user.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import Iterator, Mapping, Sequence

import numpy as np

from helpercache.delivery import DECODE_TOLERANCE, DecodeFailure, ServedPairs, SingularChannelError
from helpercache.partitioner import Partition, PartitionSet

SubfileIndex = tuple[int, ...]


def needed_subfiles(profile: int, num_profiles: int, index_size: int) -> list[SubfileIndex]:
    """Subfile indices a user of `profile` does not cache and must receive."""
    others = [p for p in range(1, num_profiles + 1) if p != profile]
    return list(combinations(others, index_size))


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
class RoundSchedule:
    """Per-round service plan: round g maps each profile with a g-th partition to it."""

    num_profiles: int
    rounds: tuple[Mapping[int, Partition], ...]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def build_rounds(partition_sets: Mapping[int, PartitionSet], num_profiles: int) -> RoundSchedule:
    """Place each profile's g-th partition, the same object, in round g."""
    if any(p < 1 or p > num_profiles for p in partition_sets):
        raise ValueError("partition sets keyed by unknown profile")
    ordered = [(p, partition_sets[p].partitions) for p in sorted(partition_sets)]
    total_rounds = max((len(parts) for _, parts in ordered), default=0)
    rounds = tuple(
        {p: parts[g] for p, parts in ordered if len(parts) > g} for g in range(total_rounds)
    )
    return RoundSchedule(num_profiles=num_profiles, rounds=rounds)


def served_pairs(schedules: Sequence[RoundSchedule]) -> ServedPairs:
    """The pairs of `schedules`, which share one L, as one table; schedule s is number s.

    A round's profiles are taken in ascending order, as a table holds them.
    """
    num_profiles = {schedule.num_profiles for schedule in schedules}
    if len(num_profiles) > 1:
        raise ValueError("the schedules of one call must share their profile count")
    rows = [
        (s, g, profile, helper, user)
        for s, schedule in enumerate(schedules)
        for g, entries in enumerate(schedule.rounds)
        for profile, part in sorted(entries.items())
        for helper, user in part
    ]
    columns = np.array(rows, dtype=np.int32).reshape(-1, 5).T
    return ServedPairs(num_profiles.pop() if num_profiles else 0, *columns)


def precoder_matrix(
    channel: np.ndarray, pairs: ServedPairs, first_rows: np.ndarray | None = None
) -> np.ndarray:
    """Every slot's zero-forcing columns, side by side in one (E, rows) array.

    Row r of the table takes column r, so a round's slots give its Q.  A
    slot's columns are `build_precoder`'s inverse of its submatrix alone on
    its helpers' rows, zero on every other helper's.  User u of schedule s
    is row `first_rows[s] + u` of `channel`, or row u without `first_rows`.
    """
    precoders = np.zeros((channel.shape[1], len(pairs)), dtype=complex)
    users = pairs.user if first_rows is None else pairs.user + first_rows[pairs.schedule]
    bounds = np.append(pairs.slot_starts, len(pairs)).tolist()
    for start, end in zip(bounds, bounds[1:]):
        helpers, slot = pairs.helper[start:end].tolist(), users[start:end].tolist()
        precoders[helpers, start:end] = build_precoder(channel, tuple(helpers), tuple(slot))
    return precoders


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
    are the columns of the schedule's table as one (E, rows) array,
    `precoder_matrix`'s unless given.
    """
    if precoders is None:
        precoders = precoder_matrix(channel, served_pairs([schedule]))
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


def round_residuals(channel: np.ndarray, rs: RoundSignal) -> np.ndarray:
    """`decode_round`'s residual at each intended entry, row by row."""
    heard = channel[list(rs.users)]
    received = heard @ rs.signal
    other_profile = rs.profiles[:, None] != rs.profiles[None, :]
    cached = ((heard @ rs.precoder) * other_profile) @ rs.messages
    return np.abs(received - cached - rs.messages)[rs.intended]


def enumerate_transmissions(
    schedule: RoundSchedule, index_size: int
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Yield (round, group, effective profiles) for every transmitted group."""
    for g, entries in enumerate(schedule.rounds):
        for group in combinations(range(1, schedule.num_profiles + 1), index_size + 1):
            effective = tuple(p for p in group if p in entries)
            if effective:
                yield g, group, effective


def subfile_symbol(
    symbols: np.ndarray, user: int, profile: int, index: SubfileIndex, num_profiles: int
) -> complex:
    """The user's symbol of `index`: in its row, at the index's place in `needed_subfiles`."""
    return symbols[user, needed_subfiles(profile, num_profiles, len(index)).index(index)]


@dataclass(frozen=True)
class TransmissionRecord:
    """One multicast signal: the summed blocks and who should decode what."""

    round_index: int
    num_profiles: int
    group: tuple[int, ...]
    effective: tuple[int, ...]  # group members that actually transmit a block
    blocks: Mapping[int, np.ndarray]  # profile -> zero-padded length-E block
    intended: tuple[tuple[int, int, SubfileIndex], ...]  # (user, profile, index)
    signal: np.ndarray  # (E,)


def build_precoder(channel: np.ndarray, helpers: tuple[int, ...], users: tuple[int, ...]) -> np.ndarray:
    """Invert one partition's matched channel submatrix on its own."""
    if len(helpers) != len(users):
        raise ValueError("a partition pairs equally many helpers and users")
    sub = channel[np.ix_(users, helpers)]
    if np.any(np.abs(np.diagonal(sub)) == 0):
        raise ValueError("matched helper-user link is structurally zero")
    try:
        return np.linalg.inv(sub)
    except np.linalg.LinAlgError as error:  # exactly singular: no inverse to send
        text = f"channel submatrix for users {users} on helpers {helpers} is ill-conditioned"
        raise SingularChannelError(text) from error


def compose_signal(
    channel: np.ndarray,
    schedule: RoundSchedule,
    round_index: int,
    group: tuple[int, ...],
    symbols: np.ndarray,
) -> TransmissionRecord | None:
    """Superpose the zero-padded precoded block of every active profile in `group`."""
    entries = schedule.rounds[round_index]
    effective = tuple(p for p in group if p in entries)
    if not effective:
        return None
    num_helpers = channel.shape[1]
    signal = np.zeros(num_helpers, dtype=complex)
    blocks: dict[int, np.ndarray] = {}
    intended: list[tuple[int, int, SubfileIndex]] = []
    for profile in effective:
        helpers = tuple(h for h, _ in entries[profile])
        users = tuple(u for _, u in entries[profile])
        index = tuple(sorted(set(group) - {profile}))
        messages = np.array(
            [subfile_symbol(symbols, u, profile, index, schedule.num_profiles) for u in users]
        )
        block = np.zeros(num_helpers, dtype=complex)
        block[list(helpers)] = build_precoder(channel, helpers, users) @ messages
        blocks[profile] = block
        signal += block
        intended.extend((u, profile, index) for u in users)
    return TransmissionRecord(
        round_index=round_index,
        num_profiles=schedule.num_profiles,
        group=group,
        effective=effective,
        blocks=blocks,
        intended=tuple(intended),
        signal=signal,
    )


def verify_decode(
    record: TransmissionRecord, channel: np.ndarray, symbols: np.ndarray
) -> dict[int, float]:
    """Replay reception for every intended user of one signal; return the residuals."""
    residuals: dict[int, float] = {}
    for user, profile, index in record.intended:
        row = channel[user]
        received = row @ record.signal
        cached = sum(row @ block for p, block in record.blocks.items() if p != profile)
        expected = subfile_symbol(symbols, user, profile, index, record.num_profiles)
        residual = abs(received - cached - expected)
        if residual >= DECODE_TOLERANCE * (abs(expected) + 1.0):
            raise DecodeFailure(
                f"user {user} failed to decode in round {record.round_index}, "
                f"group {record.group}: residual {residual:.3e}"
            )
        residuals[user] = residual
    return residuals


def replay_schedule(
    channel: np.ndarray, schedule: RoundSchedule, symbols: np.ndarray, index_size: int
) -> float:
    """Compose and decode every transmission separately; return the worst residual."""
    worst = 0.0
    for g, group, _ in enumerate_transmissions(schedule, index_size):
        residuals = verify_decode(
            compose_signal(channel, schedule, g, group, symbols), channel, symbols
        )
        worst = max([worst, *residuals.values()])
    return worst


def audit_deliveries(schedule: RoundSchedule, index_size: int) -> list[str]:
    """Count every (user, index) delivery group by group and list each fault.

    A user served under several profiles is audited as the last profile it
    was served under, in transmission order.
    """
    delivered: dict[int, Counter] = {}
    profile_of: dict[int, int] = {}
    for g, group, effective in enumerate_transmissions(schedule, index_size):
        for profile in effective:
            index = tuple(p for p in group if p != profile)
            for _, user in schedule.rounds[g][profile]:
                delivered.setdefault(user, Counter())[index] += 1
                profile_of[user] = profile
    problems = []
    for user in sorted(delivered):
        needed = needed_subfiles(profile_of[user], schedule.num_profiles, index_size)
        got = delivered[user]
        problems.extend(
            f"user {user}: index {index} delivered {got[index]} times"
            for index in needed
            if got[index] != 1
        )
        problems.extend(
            f"user {user}: unneeded index {index} delivered" for index in got if index not in needed
        )
    return problems
