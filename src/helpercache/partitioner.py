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
from it.  `optimal_placement` builds the partitions that the decode check
replays: one augmenting-path pass per label whose per-helper capacity
starts at 0 and rises only when a search fails, which proves it too small.
The pass thus ends at the minimum count, certified, with no bisection and
no second matching.  The greedy baseline the exact methods are measured
against is one bitset scan of every profile at once: `greedy_counts`
counts its partitions, and `greedy_placement` also records which user
each step takes.  Both placements run once over all the labels of a chunk
of verified trials and give every user its partition and helper;
`optimal_partitions`, `flow_oracle` and `greedy_assign` are their calls
on one subnetwork, which `partition` prints as (helper, user) pairs
(`Partition`).  The least-cost branch and bound `bb_assign` is the
paper's algorithm; only the acceptance tests and the benchmark run it,
since its search is exponential in the worst case.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

import numpy as np

from .cache_placement import ProfileAssignment
from .topology import Connectivity


# Helper count above which the 2^E * L table of `min_partition_counts` is
# refused: at 20 helpers and 10 profiles it already holds 10M int32 entries,
# and its quotients by the set sizes as many float64 ones.
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
        # Users share candidate tuples (one per helper mask when split from
        # a network), so each distinct tuple is checked once; an error names
        # the first user holding a bad one.
        problems = {}
        for cand in set(self.candidates):
            if not cand:
                problems[cand] = "user {} has no eligible helper"
            elif list(cand) != sorted(set(cand)):
                problems[cand] = "candidates of user {} must be sorted and distinct"
            elif cand[0] < 0 or cand[-1] >= self.num_helpers:
                problems[cand] = "candidates of user {} out of range"
        if problems:
            first = min(self.candidates.index(cand) for cand in problems)
            raise ValueError(problems[self.candidates[first]].format(self.users[first]))

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


def helper_candidates(adjacency: np.ndarray) -> list[tuple[int, ...]]:
    """Per user (column), its linked helpers in ascending order.

    Users with the same links share one tuple: one is made per distinct
    helper mask.
    """
    masks = _helper_masks(adjacency).tolist()
    helper_sets = {
        m: tuple(h for h in range(adjacency.shape[0]) if m >> h & 1) for m in set(masks)
    }
    return [helper_sets[m] for m in masks]


def subnetworks_from_connectivity(
    conn: Connectivity, assignment: ProfileAssignment
) -> dict[int, ProfileSubnetwork]:
    """Split the network by cache profile; users keep their connectivity column ids."""
    candidates = helper_candidates(conn.adjacency)
    users: list[list[int]] = [[] for _ in range(assignment.num_profiles + 1)]
    for k, profile in enumerate(assignment.profile_of.tolist()):
        users[profile].append(k)
    return {
        profile: ProfileSubnetwork(
            profile=profile,
            users=tuple(users[profile]),
            candidates=tuple(candidates[k] for k in users[profile]),
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
    Row S of the (2^E, L) table holds N_S of every profile, so each step of
    the subset sums adds whole rows.  The count is ceil(max_S N_S / |S|),
    the quotients in float64: ceil is monotone, and a quotient of a count
    below 2^31 by |S| <= 20 rounds to an integer only when it is one.
    """
    num_helpers = adjacency.shape[0]
    if num_helpers > MAX_TABLE_HELPERS:
        raise ValueError(
            f"{num_helpers} helpers exceed the limit of {MAX_TABLE_HELPERS}: "
            "the count table holds L * 2^E entries"
        )
    masks = _helper_masks(adjacency)
    labels = _profile_labels(profile_of, num_profiles, masks != 0)
    keys = masks * num_profiles + (labels.astype(np.int64) - 1)
    table = np.bincount(keys, minlength=num_profiles << num_helpers).astype(np.int32)
    table = table.reshape(-1, num_profiles)
    for h in range(num_helpers):
        # Subset sums over bit h: every set with h gains the count of the set without it.
        halves = table.reshape(-1, 2, 1 << h, num_profiles)
        halves[:, 1] += halves[:, 0]
    ratios = table[1:] / _set_sizes(num_helpers)
    return np.ceil(ratios.max(axis=0, initial=0)).astype(np.int64)


@functools.cache
def _set_sizes(num_helpers: int) -> np.ndarray:
    """|S| of every nonempty helper set S, mask 1 .. 2^E - 1, as a float64 column."""
    sizes = np.zeros(1 << num_helpers)
    for h in range(num_helpers):
        sizes[1 << h : 2 << h] = sizes[: 1 << h] + 1
    column = sizes[1:, None]
    column.flags.writeable = False
    return column


def greedy_counts(
    adjacency: np.ndarray, profile_of: np.ndarray, num_profiles: int
) -> np.ndarray:
    """Partition count of the greedy baseline for every profile at once.

    Same arguments, result layout and errors as `min_partition_counts`.
    The users of each profile are bits in column order: its user j is bit
    j % 64 of word j // 64 in a (word, profile) uint64 array of the users
    still free, and in one such array of each helper's links.  A partition
    is one pass over the helpers in index order, in which helper h takes,
    in every profile, the lowest free bit it links to: x & -x in the first
    word whose open links x are nonzero, the borrow of -x passing on only
    through all-zero words.  That bit is the first free user in column
    order, so each helper takes its first free user, as the baseline does.
    A pass counts for every profile that still has a free bit when it
    starts.  `greedy_placement` runs the same scan and also says which
    user each step took.
    """
    return _greedy_scan(adjacency, profile_of, num_profiles, place=False)[0]


def greedy_placement(
    adjacency: np.ndarray, labels: np.ndarray, num_labels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each user's partition and helper in the greedy baseline, every label at once.

    Same arguments and errors as `greedy_counts`, the labels 1..`num_labels`
    in place of the profiles: partition g of a label is pass g of its
    scan, in which each helper takes its first free user in column order.
    The scan records the bit each helper step takes, and one pass over the
    recorded steps afterwards finds each user: the bit's index within its
    word is the exponent of the bit as a float, exact for a power of two.
    So a label's largest partition is its `greedy_counts` count less one.
    """
    _, partition, helper = _greedy_scan(adjacency, labels, num_labels, place=True)
    return partition, helper


def _greedy_scan(
    adjacency: np.ndarray, profile_of: np.ndarray, num_profiles: int, place: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The scan of `greedy_counts`: its counts, and if `place`, each user's
    partition and helper as `greedy_placement` gives them (else None)."""
    # Row-major, as `connect` returns it and other callers may not:
    # reductions and gathers along the user axis then run over whole rows,
    # not over many short columns.
    adjacency = np.ascontiguousarray(adjacency)
    labels = _profile_labels(profile_of, num_profiles, adjacency.any(axis=0))
    num_helpers, num_users = adjacency.shape
    counts = np.zeros(num_profiles, dtype=np.int64)
    if num_users == 0:
        nobody = np.zeros(0, dtype=np.intp) if place else None
        return counts, nobody, nobody
    labels = labels.astype(np.min_scalar_type(num_profiles))  # narrow keys sort by radix
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=num_profiles + 1)[1:]
    width = (int(sizes.max()) + 63) >> 6
    # Word w of profile p holds the users at start .. start + length - 1 of
    # the users sorted by profile.
    first = 64 * np.arange(width)[:, None]
    length = np.clip(sizes - first, 0, 64).astype(np.uint64)
    start = np.cumsum(sizes) - sizes + first
    # Each helper's links in that order as one little-endian bit stream.  A
    # word is the 64 stream bits from its start, taken from the two stream
    # words they straddle; zero words at the end keep every read inside.
    # No result depends on a shift by 64 bits or more.
    packed = np.packbits(np.take(adjacency, order, axis=1), axis=1, bitorder="little")
    stream = np.zeros((num_helpers, num_users // 64 + width + 1), dtype="<u8")
    stream.view(np.uint8)[:, : packed.shape[1]] = packed
    index, shift = start >> 6, (start & 63).astype(np.uint64)
    low, high = np.take(stream, index, axis=1), np.take(stream, index + 1, axis=1)
    window = (low >> shift) | (high << 1 << (63 - shift))
    free = np.where(length, ~np.uint64(0) >> (64 - length), 0)  # the low `length` bits
    links = [list(words & free) for words in window]
    free_words = list(free)
    taken = []  # placing: the bits of every step, pass by pass, helper by helper, word by word
    while (left := free.any(axis=0)).any():
        counts += left
        for link in links:
            # Word w's open links, kept only where every lower word had none:
            # the borrow of -x stops at the first nonzero word.
            open_links, reach = link[0] & free_words[0], True
            for w, free_word in enumerate(free_words):
                bit = open_links & -open_links
                free_word ^= bit
                if place:
                    taken.append(bit)
                if w + 1 < width:
                    reach = reach & (open_links == 0)
                    open_links = np.where(reach, link[w + 1] & free_words[w + 1], 0)
    if not place:
        return counts, None, None
    bits = np.array(taken)
    step, label = np.nonzero(bits)
    exponent = np.frexp(bits[step, label].astype(np.float64))[1]  # 2^i is 0.5 * 2^(i + 1)
    user = order[start[step % width, label] + exponent - 1]
    # Each user is taken by exactly one step, so no -1 is left.
    partition, helper = np.full((2, num_users), -1, dtype=np.intp)
    partition[user], helper[user] = np.divmod(step // width, num_helpers)
    return counts, partition, helper


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


def _label_runs(labels: np.ndarray) -> tuple[list[int], list[int]]:
    """The users ordered by label, keeping their order within a label, and the
    bounds of each label's run in that order."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    ends = np.flatnonzero(np.diff(labels[order])) + 1
    return order.tolist(), [0, *ends.tolist(), labels.size]


def _ranks(labels: np.ndarray, helper: np.ndarray, num_helpers: int) -> np.ndarray:
    """Each user's place, in user order, among the users of its label and helper."""
    key = np.asarray(labels, dtype=np.int64) * num_helpers + helper
    order = np.argsort(key, kind="stable")
    position = np.arange(key.size)
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    ranks = np.empty(key.size, dtype=np.intp)
    ranks[order] = position - np.maximum.accumulate(np.where(first, position, 0))
    return ranks


def optimal_placement(
    candidates: Sequence[tuple[int, ...]], labels: np.ndarray, num_helpers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each user's partition and helper in a placement with the fewest partitions per label.

    User i may take the helpers `candidates[i]`, nonempty and ascending, and
    belongs to label `labels[i]`; a label is one profile's subnetwork, its
    users in index order.  Per label, one pass places the users in order
    along augmenting paths, no helper taking more than `cap` users; `cap`
    starts at 0.  If no path from a user reaches a helper with room, `cap`
    rises by one and the user takes its first candidate, since every helper
    then has room.  When the label's users placed so far number
    `cap * num_helpers`, every helper holds `cap` and no path can end at
    room, so `cap` rises without a search.

    The final `cap` is the minimum.  It rises only after a failed search,
    and then every user placed so far is matched, so their matching is
    maximum at `cap`; by Berge's theorem the failed search proves that
    those users and the next cannot all be placed at `cap`, so neither can
    all users.  That proof certifies the count without a second matching.
    The path search keeps an explicit stack, so its depth is not bounded by
    Python's recursion limit.  Partition g pairs every helper with the g-th
    of its users in user order, so a label's largest partition index is
    its `cap` less one.
    """
    order, bounds = _label_runs(labels)
    held_by = [-1] * len(candidates)  # helper of each placed user
    for first, last in zip(bounds, bounds[1:]):
        holders: list[list[int]] = [[] for _ in range(num_helpers)]
        cap = 0
        for placed, start in enumerate(order[first:last]):
            own = candidates[start]
            # The search looks at the user's own helpers first, in order, so
            # the first of them with room ends it on a path of one link.
            for free in own:
                if len(holders[free]) < cap:
                    holders[free].append(start)
                    held_by[start] = free
                    break
            else:
                free = -1
                # Once `cap` users hold every helper, none has room and a
                # search can only fail, so none is made.
                if placed < cap * num_helpers:
                    reached_from = dict.fromkeys(own, start)  # helper -> user that reached it first
                    stack = [pos for h in own for pos in holders[h]]
                    while stack and free < 0:
                        pos = stack.pop()
                        for h in candidates[pos]:
                            if h in reached_from:
                                continue
                            reached_from[h] = pos
                            if len(holders[h]) < cap:
                                free = h
                                break
                            stack.extend(holders[h])
                if free < 0:
                    cap += 1
                    free = own[0]
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
    helper = np.array(held_by, dtype=np.intp)
    return _ranks(labels, helper, num_helpers), helper


def _one_label(
    subnet: ProfileSubnetwork, placement: tuple[np.ndarray, np.ndarray]
) -> PartitionSet:
    """One subnetwork's partitions from each user's (partition, helper), pairs by helper."""
    partition, helper = placement
    parts: list[list[tuple[int, int]]] = [[] for _ in range(int(partition.max(initial=-1)) + 1)]
    for g, h, user in sorted(zip(partition.tolist(), helper.tolist(), subnet.users)):
        parts[g].append((h, user))
    return PartitionSet(partitions=tuple(map(tuple, parts)), num_helpers=subnet.num_helpers)


def greedy_assign(subnet: ProfileSubnetwork) -> PartitionSet:
    """Baseline: repeatedly scan helpers in index order, each taking the first free user.

    The subnetwork is one label of `greedy_placement`, its links built
    from the candidates.
    """
    adjacency = np.zeros((subnet.num_helpers, subnet.num_users), dtype=bool)
    for user, cand in enumerate(subnet.candidates):
        adjacency[cand, user] = True
    placement = greedy_placement(adjacency, np.ones(subnet.num_users, dtype=np.int64), 1)
    return _one_label(subnet, placement)


def optimal_partitions(subnet: ProfileSubnetwork) -> PartitionSet:
    """Partitions of an optimal assignment: the fewest for the subnetwork.

    One `optimal_placement` pass finds the minimum partition count and a
    placement at it; no fewer partitions exist, because the pass raises its
    count only after a failed search proves it too small.  Partition g
    pairs every helper with the g-th of its users in user order.
    """
    labels = np.zeros(subnet.num_users)
    return _one_label(subnet, optimal_placement(subnet.candidates, labels, subnet.num_helpers))


def flow_oracle(subnet: ProfileSubnetwork) -> int:
    """The minimum partition count, from the one pass of `optimal_placement`.

    It shares that pass with `optimal_partitions` and verified trials, so it
    is independent of Hall's formula and `bb_assign`, not of verified trials
    or of `partition --method bb`.
    """
    return optimal_partitions(subnet).count


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
    largest label, so an instance needs a user line or the header.
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
        if not cands:
            raise ValueError("the instance lists no users and no helpers: header")
        num_helpers = max(helpers[-1] + 1 for helpers in cands)
    for (user, number), helpers in zip(line_of.items(), cands):
        if helpers[-1] >= num_helpers:
            raise ValueError(
                f"line {number}: user {user} lists helper {helpers[-1] + 1}, above the "
                f"declared helpers: {num_helpers}"
            )
    return ProfileSubnetwork(
        profile=1, users=tuple(line_of), candidates=tuple(cands), num_helpers=num_helpers
    )
