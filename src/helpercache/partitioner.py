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
failed matching one below it; `partition --method bb` prints them at the
count of `flow_oracle`, which binary-searches the same matching routine.
Every builder emits a partition as its (helper, user) pairs (`Partition`),
which the schedule and the decoder read unchanged.  The least-cost branch
and bound `bb_assign` is the paper's algorithm; only the acceptance tests
and the benchmark run it, since its search is exponential in the worst
case.  The helper-scan of `greedy_assign` is the fast baseline the exact
methods are measured against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Iterable

import numpy as np

from .cache_placement import ProfileAssignment
from .topology import Connectivity


# Helper count above which the L * 2^E table of `min_partition_counts` is
# refused: at 20 helpers and 10 profiles it already holds 10M int32 entries.
MAX_TABLE_HELPERS = 20


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


Partition = tuple[tuple[int, int], ...]  # the (helper, user) pairs of one joint transmission


@dataclass(frozen=True)
class PartitionSet:
    """Cover of a subnetwork's users by matchings of (helper, user) links."""

    partitions: tuple[Partition, ...]
    num_helpers: int

    @property
    def count(self) -> int:
        return len(self.partitions)


def _helper_masks(adjacency: np.ndarray) -> np.ndarray:
    """Per user (column), the bitmask of its linked helpers; bit h is helper h.

    A mask is an int64 kept nonnegative, so it holds at most 63 helpers.
    More raise ValueError: from helper 64 on, `1 << h` is 0 in int64, and
    the link would vanish.
    """
    num_helpers = adjacency.shape[0]
    if num_helpers > 63:
        raise ValueError(f"{num_helpers} helpers exceed the 63 that a helper bitmask holds")
    return (1 << np.arange(num_helpers, dtype=np.int64)) @ adjacency


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


def _profile_labels(profile_of: np.ndarray, num_profiles: int, linked: np.ndarray) -> np.ndarray:
    """The profile of each user column, after refusing what neither count accepts.

    `linked` says, per user column, whether the user has a linked helper.
    """
    labels = np.asarray(profile_of)
    if labels.size and (labels.min() < 1 or labels.max() > num_profiles):
        outside = labels[(labels < 1) | (labels > num_profiles)]
        raise ValueError(f"profile {outside[0]} is outside 1..{num_profiles}")
    if not linked.all():
        raise ValueError("every user needs at least one linked helper")
    return labels


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


def greedy_counts(
    adjacency: np.ndarray, profile_of: np.ndarray, num_profiles: int
) -> np.ndarray:
    """Partition count of `greedy_assign` for every profile at once.

    Same arguments, result layout and errors as `min_partition_counts`.
    The users of each profile are bits in column order: its user j is bit
    j % 64 of word j // 64 in a (word, profile) uint64 array of the users
    still free, and in one such array of each helper's links.  A partition
    is one pass over the helpers in index order, in which helper h takes,
    in every profile, the lowest free bit it links to: x & -x in the first
    word whose open links x are nonzero, the borrow of -x passing on only
    through all-zero words.  That bit is the first free user in column
    order, so the scan order is exactly that of `greedy_assign`.  A pass
    counts for every profile that still has a free bit when it starts.
    """
    # Row-major, as `connect` returns it and other callers may not:
    # reductions and gathers along the user axis then run over whole rows,
    # not over many short columns.
    adjacency = np.ascontiguousarray(adjacency)
    labels = _profile_labels(profile_of, num_profiles, adjacency.any(axis=0))
    num_helpers, num_users = adjacency.shape
    if num_users == 0:
        return np.zeros(num_profiles, dtype=np.int64)
    labels = labels.astype(np.min_scalar_type(num_profiles))  # narrow keys sort by radix
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=num_profiles + 1)[1:]
    width = (int(sizes.max()) + 63) >> 6
    # Word w of profile p holds the users at start .. start + length - 1 of
    # the users sorted by profile.
    first = 64 * np.arange(width)[:, None]
    length = np.clip(sizes - first, 0, 64).astype(np.uint64)
    start = (np.cumsum(sizes) - sizes + first).astype(np.uint64)
    # Each helper's links in that order as one little-endian bit stream.  A
    # word is the 64 stream bits from its start, taken from the two stream
    # words they straddle; zero words at the end keep every read inside.
    # No result depends on a shift by 64 bits or more.
    packed = np.packbits(np.take(adjacency, order, axis=1), axis=1, bitorder="little")
    stream = np.zeros((num_helpers, num_users // 64 + width + 1), dtype="<u8")
    stream.view(np.uint8)[:, : packed.shape[1]] = packed
    index, shift = (start >> 6).astype(np.intp), start & 63
    low, high = np.take(stream, index, axis=1), np.take(stream, index + 1, axis=1)
    window = (low >> shift) | (high << 1 << (63 - shift))
    free = np.where(length, ~np.uint64(0) >> (64 - length), 0)  # the low `length` bits
    links = [list(words & free) for words in window]
    free_words = list(free)
    counts = np.zeros(num_profiles, dtype=np.int64)
    while (left := free.any(axis=0)).any():
        counts += left
        for link in links:
            # Word w's open links, kept only where every lower word had none:
            # the borrow of -x stops at the first nonzero word.
            open_links, reach = link[0] & free_words[0], True
            for w, free_word in enumerate(free_words):
                free_word ^= open_links & -open_links
                if w + 1 < width:
                    reach = reach & (open_links == 0)
                    open_links = np.where(reach, link[w + 1] & free_words[w + 1], 0)
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
        # Dive into the cheapest child, or jump (None) if every child is worse.
        extend = None
        if cheapest <= min(open_cost, cutoff):
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
        if extend is None:
            if cutoff <= open_cost:
                # The best completed vector is the cheapest state left; it is
                # also the deepest, which is how equal costs are resolved.
                if best_done is None:
                    raise RuntimeError("branch and bound stopped without a completed assignment")
                return best_done
            bound, _, _, choices, loads = heapq.heappop(heap)
            continue
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
    independent of Hall's formula and `bb_assign`, not of verified trials or
    of `partition --method bb`, which prints `optimal_partitions` at this count.
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


def format_partition_set(pset: PartitionSet) -> str:
    """Hyphen-joined helper slots, one partition per line, 0 for an unassigned helper."""
    lines = []
    for part in pset.partitions:
        row = ["0"] * pset.num_helpers
        for helper, user in part:
            row[helper] = str(user)
        lines.append("-".join(row))
    return "\n".join(lines)


def load_instance(lines: Iterable[str]) -> ProfileSubnetwork:
    """Parse `user_id: h_i,h_j,...` lines (ids and helper labels from 1) into profile 1.

    At most one `helpers: E` header, above or below the user lines, fixes
    E >= 1, and a helper label above it is an error; without one, E is the
    largest label.
    """
    line_of: dict[int, int] = {}  # user id -> its line, in file order
    cands: list[tuple[int, ...]] = []
    num_helpers: int | None = None
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        if head.strip() == "helpers":
            if num_helpers is not None:
                raise ValueError("the helpers: header appears more than once")
            value = tail.strip()
            if not value.isdecimal() or int(value) < 1:
                raise ValueError(f"the helpers: header needs an integer of at least 1, got {value!r}")
            num_helpers = int(value)
            continue
        try:
            user = int(head)
            helpers = tuple(sorted(int(tok) - 1 for tok in tail.split(",") if tok.strip()))
        except ValueError:
            raise ValueError(
                f"line {number}: user id and helper labels must be integers, got {line!r}"
            ) from None
        if user < 1:
            raise ValueError(f"line {number}: user id {user} is below 1; user ids start at 1")
        if not helpers:
            raise ValueError(f"line {number}: user {user} has no helpers listed")
        if helpers[0] < 0:
            raise ValueError(
                f"line {number}: user {user} lists helper {helpers[0] + 1}; "
                "helper labels start at 1"
            )
        if repeated := [h + 1 for h, following in zip(helpers, helpers[1:]) if h == following]:
            raise ValueError(f"line {number}: user {user} lists helper {repeated[0]} twice")
        if user in line_of:
            raise ValueError(f"line {number}: user id {user} repeats line {line_of[user]}")
        line_of[user] = number
        cands.append(helpers)
    if num_helpers is None:
        num_helpers = max((helpers[-1] + 1 for helpers in cands), default=0)
    for (user, number), helpers in zip(line_of.items(), cands):
        if helpers[-1] >= num_helpers:
            raise ValueError(
                f"line {number}: user {user} lists helper {helpers[-1] + 1}, above the "
                f"declared helpers: {num_helpers}"
            )
    return ProfileSubnetwork(
        profile=1, users=tuple(line_of), candidates=tuple(cands), num_helpers=num_helpers
    )
