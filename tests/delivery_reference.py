"""Per-transmission replay of the delivery scheme: the reference oracle for the tests.

The library verifies a schedule one round at a time in matrix form, placing
symbols by a precomputed group table.  This module keeps the
transmission-by-transmission form: groups enumerated one by one, one
precoder inverse per (round, profile), one signal vector per group, each
symbol found by its index in `needed_subfiles`, and a decode replay per
intended user, so the two can be compared on the same schedules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

import numpy as np

from helpercache.cache_placement import SubfileIndex, needed_subfiles
from helpercache.delivery import (
    CONDITION_LIMIT,
    DECODE_TOLERANCE,
    DecodeFailure,
    RoundSchedule,
    SingularChannelError,
)


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
    if np.linalg.cond(sub) > CONDITION_LIMIT:
        raise SingularChannelError(f"channel submatrix for users {users} on helpers {helpers} is ill-conditioned")
    return np.linalg.inv(sub)


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
        helpers, users = entries[profile]
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
            for user in schedule.rounds[g][profile][1]:
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
