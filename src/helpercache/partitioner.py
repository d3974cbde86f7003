"""Partition same-profile users into a minimum number of jointly servable sets.

A set of users sharing a cache profile can decode one joint zero-forcing
transmission iff the users can be paired with pairwise-distinct helpers
through nonzero links: the channel submatrix restricted to such a matching
has full rank almost surely.  Minimizing the number of sets is therefore an
assignment problem: route every multi-homed user to one of its helpers so
that the largest per-helper load (single-homed stack plus routed users) is
as small as possible; that bottleneck load equals the minimum number of
partitions.

By Hall's theorem that minimum is max over helper sets S of
ceil(N_S / |S|), where N_S counts the users whose helpers all lie in S
(Harvey, Ladner, Lovasz & Tamir, "Semi-matchings for bipartite graphs and
load balancing", J. Algorithms 2006).  `min_partition_counts` evaluates it
for every profile of a network at once; the sweep takes its exact counts
from it.  `optimal_partitions` builds the partitions that the decode check
replays: one capacity-bounded matching at that count, certified by a
failed matching one below it.  The least-cost branch and bound `bb_assign`
is the paper's algorithm; it runs for `partition --method bb` and in the
acceptance tests, not in the sweep.  Exhaustive enumeration
(`brute_force_min_partitions`) is the oracle independent of both;
`flow_oracle` binary-searches the same matching routine that
`optimal_partitions` uses.  The helper-scan of `greedy_assign` is the fast
baseline the exact methods are measured against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count, islice, product
from typing import IO, Iterable

import numpy as np

from .cache_placement import ProfileAssignment
from .topology import Connectivity


# Helper count above which the L * 2^E table of `min_partition_counts` is
# refused: at 20 helpers and 10 profiles it already holds 10M int32 entries.
MAX_TABLE_HELPERS = 20


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the size guard."""


@dataclass(frozen=True)
class ProfileSubnetwork:
    """One profile's users and, per user, the helpers with a nonzero link."""

    profile: int
    users: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]  # parallel to users, ascending helper indices
    num_helpers: int

    def __post_init__(self) -> None:
        if self.num_helpers < 1:
            raise ValueError(f"subnetwork needs at least one helper, got {self.num_helpers}")
        if len(self.users) != len(self.candidates):
            raise ValueError("one candidate set per user is required")
        if len(set(self.users)) != len(self.users):
            raise ValueError("user ids must be distinct")
        for user, cand in zip(self.users, self.candidates):
            if not cand:
                raise ValueError(f"user {user} has no eligible helper")
            if list(cand) != sorted(set(cand)):
                raise ValueError(f"candidates of user {user} must be sorted and distinct")
            if cand[0] < 0 or cand[-1] >= self.num_helpers:
                raise ValueError(f"candidates of user {user} out of range")

    @property
    def num_users(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class DegreeTables:
    """Users split by helper degree: fixed single-homed stacks vs. free choices."""

    single: tuple[tuple[int, ...], ...]  # per helper, degree-1 users in user order
    multi: tuple[tuple[int, tuple[int, ...]], ...]  # (user, candidates) in user order
    num_helpers: int

    @property
    def base_loads(self) -> tuple[int, ...]:
        return tuple(len(col) for col in self.single)


@dataclass(frozen=True)
class Assignment:
    """Helper choice per multi-homed user plus the resulting per-helper loads."""

    choices: tuple[int, ...]
    loads: tuple[int, ...]
    bound: int  # max load == number of partitions


@dataclass(frozen=True)
class PartitionSet:
    """Cover of a subnetwork's users by matchings of (helper, user) links."""

    partitions: tuple[tuple[tuple[int, int], ...], ...]
    num_helpers: int

    @property
    def count(self) -> int:
        return len(self.partitions)


def _helper_masks(adjacency: np.ndarray) -> np.ndarray:
    """Per user (column), the bitmask of its linked helpers; bit h is helper h."""
    return (1 << np.arange(adjacency.shape[0], dtype=np.int64)) @ adjacency


def subnetworks_from_connectivity(
    conn: Connectivity, assignment: ProfileAssignment
) -> dict[int, ProfileSubnetwork]:
    """Split the network by cache profile; users keep their connectivity column ids."""
    masks = _helper_masks(conn.adjacency).tolist()
    helper_sets = {
        m: tuple(h for h in range(conn.num_helpers) if m >> h & 1) for m in set(masks)
    }
    users: list[list[int]] = [[] for _ in range(assignment.num_profiles + 1)]
    for k, profile in enumerate(assignment.profile_of.tolist()):
        users[profile].append(k)
    return {
        profile: ProfileSubnetwork(
            profile=profile,
            users=tuple(users[profile]),
            candidates=tuple(helper_sets[masks[k]] for k in users[profile]),
            num_helpers=conn.num_helpers,
        )
        for profile in range(1, assignment.num_profiles + 1)
    }


def min_partition_counts(
    adjacency: np.ndarray, profile_of: np.ndarray, num_profiles: int
) -> np.ndarray:
    """Minimum partition count of every profile by Hall's formula.

    `adjacency` is the (E, K) helper-user link matrix and `profile_of` the
    profile (1..L) of each of its user columns.  Entry p - 1 of the result
    is max over nonempty helper sets S of ceil(N_S / |S|) for profile p,
    where N_S counts the profile's users whose helpers all lie in S: the
    bottleneck load of an optimal assignment, 0 for a profile with no user.
    """
    num_helpers = adjacency.shape[0]
    if num_helpers > MAX_TABLE_HELPERS:
        raise ValueError(
            f"{num_helpers} helpers exceed the limit of {MAX_TABLE_HELPERS}: "
            "the count table holds L * 2^E entries"
        )
    masks = _helper_masks(adjacency)
    if np.any(masks == 0):
        raise ValueError("every user needs at least one linked helper")
    subsets = 1 << num_helpers
    keys = (np.asarray(profile_of, dtype=np.int64) - 1) * subsets + masks
    table = np.bincount(keys, minlength=num_profiles * subsets).astype(np.int32)
    table = table.reshape(num_profiles, subsets)
    sizes = np.zeros(subsets, dtype=np.int32)
    for h in range(num_helpers):
        # Subset sums over bit h: every set with h gains the count of the set without it.
        halves = table.reshape(num_profiles, -1, 2, 1 << h)
        halves[:, :, 1, :] += halves[:, :, 0, :]
        sizes[1 << h : 2 << h] = sizes[: 1 << h] + 1
    return (-(-table[:, 1:] // sizes[1:])).max(axis=1, initial=0)


def greedy_counts(
    adjacency: np.ndarray, profile_of: np.ndarray, num_profiles: int
) -> np.ndarray:
    """Partition count of `greedy_assign` for every profile at once.

    Same arguments and result layout as `min_partition_counts`.  The users
    of each profile fill the slots of one row of a (helper, profile, slot)
    link array in column order.  A partition is one pass over the helpers
    in index order, in which helper h takes, in every profile still
    unfinished, the first free user it links to (`argmax` over the row):
    exactly the order of `greedy_assign`'s scan.
    """
    num_helpers, num_users = adjacency.shape
    labels = np.asarray(profile_of, dtype=np.int64) - 1
    sizes = np.bincount(labels, minlength=num_profiles)
    counts = np.zeros(num_profiles, dtype=np.int64)
    if num_users == 0:
        return counts
    order = np.argsort(labels, kind="stable")
    row = labels[order]
    slot = np.arange(num_users) - (np.cumsum(sizes) - sizes)[row]
    link = np.zeros((num_helpers, num_profiles, sizes.max()), dtype=bool)
    link[:, row, slot] = adjacency[:, order]
    free = np.zeros(link.shape[1:], dtype=bool)
    free[row, slot] = True
    if np.any(free & ~link.any(axis=0)):
        raise ValueError("every user needs at least one linked helper")
    active = np.flatnonzero(sizes)  # profiles with users still to place
    link, free = link[:, active], free[active]
    partitions = 0
    while active.size:
        partitions += 1
        rows = np.arange(active.size)
        for h in range(num_helpers):
            open_links = link[h] & free
            first = open_links.argmax(axis=1)
            free[rows, first] ^= open_links[rows, first]  # h takes that user, if any
        done = ~free.any(axis=1)
        if done.any():
            counts[active[done]] = partitions
            keep = ~done
            active, link, free = active[keep], link[:, keep], free[keep]
    return counts


def build_tables(subnet: ProfileSubnetwork) -> DegreeTables:
    """Stack degree-1 users under their only helper; list the rest in user order."""
    single: list[list[int]] = [[] for _ in range(subnet.num_helpers)]
    multi: list[tuple[int, tuple[int, ...]]] = []
    for user, cand in zip(subnet.users, subnet.candidates):
        if len(cand) == 1:
            single[cand[0]].append(user)
        else:
            multi.append((user, cand))
    return DegreeTables(
        single=tuple(tuple(col) for col in single),
        multi=tuple(multi),
        num_helpers=subnet.num_helpers,
    )


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


def _bump(loads: tuple[int, ...], helper: int) -> tuple[int, ...]:
    return loads[:helper] + (loads[helper] + 1,) + loads[helper + 1 :]


def bb_assign(tables: DegreeTables) -> Assignment:
    """Optimal helper choice for the multi-homed users by least-cost search.

    Best-first branch and bound over partial choice vectors, expanded in
    table order.  A state's cost is its largest per-helper load, which never
    decreases along a path, so a completed vector whose cost matches the
    global minimum over open states is optimal.  The search extends the
    cheapest child (ties: lowest helper index) and jumps to the cheapest
    open state only when every child is strictly worse, preferring deeper
    states and then earlier-generated ones.

    Two optimum-preserving prunes keep the frontier small: completed vectors
    discard open states with an equal or larger cost, and states that repeat
    an already-seen (depth, loads) pair are dropped, since the reachable
    completions depend on nothing else.
    """
    loads = tables.base_loads
    bound = max(loads)
    users = tables.multi
    if not users:
        return Assignment(choices=(), loads=loads, bound=bound)

    total = len(users)
    heap: list[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]] = []
    births = count()
    seen: set[tuple[int, tuple[int, ...]]] = set()
    best_done: Assignment | None = None
    cutoff = math.inf  # cost of the best completed vector so far
    choices: tuple[int, ...] = ()
    while True:
        if len(choices) == total:
            return Assignment(choices=choices, loads=loads, bound=bound)
        depth = len(choices) + 1
        cand = users[len(choices)][1]
        kids = []
        cheapest = math.inf
        for helper in cand:
            lifted = loads[helper] + 1
            cost = lifted if lifted > bound else bound
            kids.append((helper, cost))
            if cost < cheapest:
                cheapest = cost
        if depth == total:
            for helper, cost in kids:
                if cost < cutoff:
                    cutoff = cost
                    best_done = Assignment(
                        choices=choices + (helper,), loads=_bump(loads, helper), bound=cost
                    )
        # Lazily drop open states dominated by a completed vector.
        while heap and heap[0][0] >= cutoff:
            heapq.heappop(heap)
        open_cost = heap[0][0] if heap else math.inf
        if cheapest > min(open_cost, cutoff):
            if depth < total:
                for helper, cost in kids:
                    if cost < cutoff:
                        grown = _bump(loads, helper)
                        if (depth, grown) not in seen:
                            seen.add((depth, grown))
                            heapq.heappush(
                                heap, (cost, -depth, next(births), choices + (helper,), grown)
                            )
            if cutoff <= open_cost:
                # The best completed vector is the cheapest state left; it is
                # also the deepest, which is how equal costs are resolved.
                if best_done is None:
                    raise RuntimeError("branch and bound stopped without a completed assignment")
                return best_done
            bound, _, _, choices, loads = heapq.heappop(heap)
            continue
        extend = next(h for h, cost in kids if cost == cheapest)
        if depth < total:
            for helper, cost in kids:
                if helper != extend and cost < cutoff:
                    grown = _bump(loads, helper)
                    if (depth, grown) not in seen:
                        seen.add((depth, grown))
                        heapq.heappush(
                            heap, (cost, -depth, next(births), choices + (helper,), grown)
                        )
        choices += (extend,)
        loads = _bump(loads, extend)
        seen.add((depth, loads))
        bound = cheapest


def partitions_from_assignment(tables: DegreeTables, assignment: Assignment) -> PartitionSet:
    """Materialize partitions: helper h serves its stack, then its routed users."""
    if len(assignment.choices) != len(tables.multi):
        raise ValueError("assignment length does not match the multi-homed user count")
    queues = [list(col) for col in tables.single]
    for (user, cand), helper in zip(tables.multi, assignment.choices):
        if helper not in cand:
            raise ValueError(f"user {user} assigned to ineligible helper {helper}")
        queues[helper].append(user)
    loads = tuple(len(q) for q in queues)
    if loads != assignment.loads or max(loads) != assignment.bound:
        raise ValueError("assignment loads are inconsistent with the tables")
    return _partitions_from_queues(queues, assignment.bound)


def _partitions_from_queues(queues: list[list[int]], count: int) -> PartitionSet:
    """Partition g < count pairs every helper with the g-th user of its queue."""
    partitions = tuple(
        tuple((h, queue[g]) for h, queue in enumerate(queues) if len(queue) > g)
        for g in range(count)
    )
    return PartitionSet(partitions=partitions, num_helpers=len(queues))


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


def _place(subnet: ProfileSubnetwork, cap: int) -> list[int] | None:
    """Each user's helper, with no helper taking more than `cap` users.

    Places users one at a time along augmenting paths and returns None as
    soon as a user cannot be placed: then no placement at `cap` exists.
    The path search keeps an explicit stack, so its depth is not bounded by
    Python's recursion limit.
    """
    holders: list[list[int]] = [[] for _ in range(subnet.num_helpers)]
    held_by = [-1] * subnet.num_users  # helper of each placed user
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
            return None
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
    return held_by


def optimal_partitions(subnet: ProfileSubnetwork, count: int) -> PartitionSet:
    """Partitions of an optimal assignment, given the minimum partition count.

    Users are placed by capacity-`count` matching, and the count is
    certified: placement must succeed at `count` and, for `count > 0`, fail
    at `count - 1`.  A successful placement alone would also accept a count
    above the minimum.  Raises ValueError if the count is not the minimum.
    """
    held_by = _place(subnet, count) if count >= 0 else None
    if held_by is None or (count > 0 and _place(subnet, count - 1) is not None):
        raise ValueError(f"profile {subnet.profile}: {count} is not the minimum partition count")
    queues: list[list[int]] = [[] for _ in range(subnet.num_helpers)]
    for user, helper in zip(subnet.users, held_by):
        queues[helper].append(user)
    return _partitions_from_queues(queues, count)


def flow_oracle(subnet: ProfileSubnetwork) -> int:
    """Polynomial-time oracle for the minimum partition count.

    Binary-search the smallest helper capacity q for which a matching serves
    every user with each helper used at most q times (feasibility checked by
    the augmenting paths of `_place`); q matchings then cover all users and
    none fewer can.  `optimal_partitions` shares `_place`, so this oracle is
    independent of Hall's formula and `bb_assign`, not of verified trials.
    """
    if subnet.num_users == 0:
        return 0
    lo, hi = 1, subnet.num_users
    while lo < hi:
        mid = (lo + hi) // 2
        if _place(subnet, mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return lo


def partition_rows(pset: PartitionSet) -> list[list[int | None]]:
    """Helper-slot view of the partitions; None marks an unassigned helper."""
    rows: list[list[int | None]] = []
    for part in pset.partitions:
        row: list[int | None] = [None] * pset.num_helpers
        for helper, user in part:
            row[helper] = user
        rows.append(row)
    return rows


def format_partition_set(pset: PartitionSet) -> str:
    """Hyphen-joined slot rows, one partition per line, 0 for an empty slot."""
    return "\n".join(
        "-".join("0" if user is None else str(user) for user in row)
        for row in partition_rows(pset)
    )


def dump_instance(subnet: ProfileSubnetwork, stream: IO[str]) -> None:
    """Write `user_id: h_i,h_j,...` lines (helper labels 1-based) after a header."""
    print(f"helpers: {subnet.num_helpers}", file=stream)
    for user, cand in zip(subnet.users, subnet.candidates):
        print(f"{user}: {','.join(str(h + 1) for h in cand)}", file=stream)


def load_instance(lines: Iterable[str], profile: int = 1) -> ProfileSubnetwork:
    """Parse the dump format.

    A `helpers: E` header, above or below the user lines, fixes E, and a
    helper label above it is an error; without one, E is the largest label.
    """
    users: list[int] = []
    cands: list[tuple[int, ...]] = []
    num_helpers: int | None = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        if head.strip() == "helpers":
            num_helpers = int(tail)
            continue
        user = int(head)
        helpers = tuple(sorted(int(tok) - 1 for tok in tail.split(",") if tok.strip()))
        if not helpers:
            raise ValueError(f"user {user} has no helpers listed")
        users.append(user)
        cands.append(helpers)
    if num_helpers is None:
        num_helpers = max((helpers[-1] + 1 for helpers in cands), default=0)
    for user, helpers in zip(users, cands):
        if helpers[-1] >= num_helpers:
            raise ValueError(
                f"user {user} lists helper {helpers[-1] + 1}, above the declared "
                f"helpers: {num_helpers}"
            )
    return ProfileSubnetwork(
        profile=profile, users=tuple(users), candidates=tuple(cands), num_helpers=num_helpers
    )
