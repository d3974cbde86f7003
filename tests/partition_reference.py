"""References for the partitioner, kept out of the library.

The library answers "fewest partitions of a profile" with Hall's formula
(`min_partition_counts`) and a certified matching (`optimal_placement`);
the paper's branch and bound `bb_assign` is checked against both.
`brute_force_min_partitions` is the oracle independent of all three: it
tries every helper choice of the multi-homed users and keeps the smallest
bottleneck load.  Its cost is the product of the users' degrees, so it
refuses instances above a guard.

`hall_counts` is Hall's formula as the library evaluated it with a
profile-major int32 table and an integer ceil per helper set; the library's
subsets-major table with one float ceil per profile must give its counts.

`greedy_assign`, `_place` and `optimal_partitions` are the per-profile
builders that verified trials ran before the library placed every label
of a chunk in one call, kept as they were: the chunk builders must give
the same (helper, user) pairs, partition by partition.  `greedy_assign`
is the greedy list scan, one queue and cursor per helper; the library's
greedy is a bitset scan (`greedy_counts`, `greedy_placement`), so tests
that check that scan, or the verified greedy schedule, against greedy's
partitions use this one, not the library's `greedy_assign`, which runs
the scan it would check.
"""

from __future__ import annotations

import math
from itertools import islice, product

import numpy as np

from helpercache.partitioner import (
    MAX_TABLE_HELPERS,
    PartitionSet,
    ProfileSubnetwork,
    _helper_masks,
    _partitions_from_queues,
    _profile_labels,
    build_tables,
)


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the size guard."""


def brute_force_min_partitions(subnet: ProfileSubnetwork, guard: int = 10**7) -> int:
    """Exhaustive oracle: try every helper choice for the multi-homed users."""
    tables = build_tables(subnet)
    base = np.array(tables.base_loads, dtype=np.int64)
    if not tables.multi:
        return int(base.max())
    sizes = [len(cand) for _, cand in tables.multi]
    total = math.prod(sizes)
    if total > guard:
        raise InstanceTooLargeError(f"{total} assignments exceed the guard of {guard}")
    cand_lists = [cand for _, cand in tables.multi]
    best = np.iinfo(np.int64).max
    assignments = product(*cand_lists)
    while True:
        chunk = list(islice(assignments, 65536))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.int64)
        loads = np.empty((arr.shape[0], tables.num_helpers), dtype=np.int64)
        for h in range(tables.num_helpers):
            loads[:, h] = base[h] + (arr == h).sum(axis=1)
        best = min(best, int(loads.max(axis=1).min()))
    return int(best)


def hall_counts(adjacency: np.ndarray, profile_of: np.ndarray, num_profiles: int) -> np.ndarray:
    """Hall's count max over S of ceil(N_S / |S|) per profile, from an (L, 2^E) int32 table.

    Same arguments, result and errors as `min_partition_counts`; the
    result is int32.
    """
    num_helpers = adjacency.shape[0]
    if num_helpers > MAX_TABLE_HELPERS:
        raise ValueError(
            f"{num_helpers} helpers exceed the limit of {MAX_TABLE_HELPERS}: "
            "the count table holds L * 2^E entries"
        )
    masks = _helper_masks(adjacency)
    labels = _profile_labels(profile_of, num_profiles, masks != 0)
    subsets = 1 << num_helpers
    keys = (labels.astype(np.int64) - 1) * subsets + masks
    table = np.bincount(keys, minlength=num_profiles * subsets).astype(np.int32)
    table = table.reshape(num_profiles, subsets)
    sizes = np.zeros(subsets, dtype=np.int32)
    for h in range(num_helpers):
        # Subset sums over bit h: every set with h gains the count of the set without it.
        halves = table.reshape(num_profiles, -1, 2, 1 << h)
        halves[:, :, 1, :] += halves[:, :, 0, :]
        sizes[1 << h : 2 << h] = sizes[: 1 << h] + 1
    return (-(-table[:, 1:] // sizes[1:])).max(axis=1, initial=0)


def greedy_assign(subnet: ProfileSubnetwork) -> PartitionSet:
    """Baseline: repeatedly scan helpers in index order, each taking the first free user."""
    num = subnet.num_users
    per_helper: list[list[int]] = [[] for _ in range(subnet.num_helpers)]
    for pos, cand in enumerate(subnet.candidates):
        for h in cand:
            per_helper[h].append(pos)
    placed = [False] * num
    cursor = [0] * subnet.num_helpers
    remaining = num
    partitions = []
    while remaining:
        part = []
        for h in range(subnet.num_helpers):
            queue = per_helper[h]
            i = cursor[h]
            while i < len(queue) and placed[queue[i]]:
                i += 1
            cursor[h] = i
            if i < len(queue):
                pos = queue[i]
                placed[pos] = True
                remaining -= 1
                part.append((h, subnet.users[pos]))
        partitions.append(tuple(part))
    return PartitionSet(partitions=tuple(partitions), num_helpers=subnet.num_helpers)


def _place(subnet: ProfileSubnetwork) -> tuple[list[int], int]:
    """Each user's helper in a placement with the fewest users per helper, and that number.

    One pass places the users in order along augmenting paths, no helper
    taking more than `cap` users; `cap` starts at 0.  If no path from a
    user reaches a helper with room, `cap` rises by one and the user takes
    its first candidate, since every helper then has room.

    The final `cap` is the minimum.  It rises only after a failed search,
    and then every user placed so far is matched, so their matching is
    maximum at `cap`; by Berge's theorem the failed search proves that
    those users and the next cannot all be placed at `cap`, so neither can
    all users.  That proof certifies the count without a second matching.
    The path search keeps an explicit stack, so its depth is not bounded by
    Python's recursion limit.
    """
    holders: list[list[int]] = [[] for _ in range(subnet.num_helpers)]
    held_by = [-1] * subnet.num_users  # helper of each placed user
    cap = 0
    for start in range(subnet.num_users):
        reached_from: dict[int, int] = {}  # helper -> user that reached it first
        stack = [start]
        free = -1
        while stack and free < 0:
            pos = stack.pop()
            for h in subnet.candidates[pos]:
                if h in reached_from:
                    continue
                reached_from[h] = pos
                if len(holders[h]) < cap:
                    free = h
                    break
                stack.extend(holders[h])
        if free < 0:
            cap += 1
            free = subnet.candidates[start][0]
            reached_from = {free: start}
        # Shift every user on the path one helper along, ending at the free slot.
        helper = free
        while helper >= 0:
            pos = reached_from[helper]
            previous = held_by[pos]
            holders[helper].append(pos)
            held_by[pos] = helper
            if previous >= 0:
                holders[previous].remove(pos)
            helper = previous
    return held_by, cap


def optimal_partitions(subnet: ProfileSubnetwork) -> PartitionSet:
    """Partitions of an optimal assignment: the fewest for the subnetwork.

    One pass of `_place` finds the minimum partition count and a placement
    at it; no fewer partitions exist, because the pass raises its count
    only after a failed search proves it too small.  Partition g pairs
    every helper with the g-th of its users in user order.
    """
    held_by, count = _place(subnet)
    queues: list[list[int]] = [[] for _ in range(subnet.num_helpers)]
    for user, helper in zip(subnet.users, held_by):
        queues[helper].append(user)
    return _partitions_from_queues(queues, count)
