import hashlib
import io
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_INSTANCE
from helpercache import partitioner
from helpercache.cache_placement import ProfileAssignment, assign_profiles
from helpercache.partitioner import (
    Assignment,
    ProfileSubnetwork,
    bb_assign,
    build_tables,
    flow_oracle,
    format_partition_set,
    greedy_assign,
    greedy_counts,
    greedy_placement,
    hall_witnesses,
    helper_candidates,
    load_instance,
    optimal_partitions,
    optimal_placement,
    partitions_from_assignment,
    subnetworks_from_connectivity,
)
from helpercache.topology import Connectivity, connect, hex_layout, sample_users
import partition_reference
from partition_reference import InstanceTooLargeError, brute_force_min_partitions


def _fully_connected(num_users: int, num_helpers: int = 4) -> ProfileSubnetwork:
    return ProfileSubnetwork(
        profile=1,
        users=tuple(range(1, num_users + 1)),
        candidates=tuple(tuple(range(num_helpers)) for _ in range(num_users)),
        num_helpers=num_helpers,
    )


def test_tables_split_by_degree(reference_subnet):
    tables = build_tables(reference_subnet)
    assert tables.single == ((1,), (4, 5), (7, 8), (11, 12))
    assert tables.multi == (
        (2, (0, 1)),
        (3, (0, 1)),
        (6, (0, 1, 2)),
        (9, (1, 3)),
        (10, (1, 3)),
    )
    assert tables.base_loads == (1, 2, 2, 2)


def test_tables_degenerate_splits():
    pinned = ProfileSubnetwork(1, (1, 2), ((0,), (1,)), 2)
    assert build_tables(pinned).multi == ()
    roaming = _fully_connected(3)
    assert build_tables(roaming).single == ((), (), (), ())


def test_greedy_matches_reference_scan(reference_subnet):
    pset = greedy_assign(reference_subnet)
    assert pset.count == 4
    assert format_partition_set(pset) == "1-2-6-9\n3-4-7-10\n0-5-8-11\n0-0-0-12"


def test_greedy_single_user():
    pset = greedy_assign(ProfileSubnetwork(1, (7,), ((2,),), 4))
    assert pset.count == 1
    assert pset.partitions == (((2, 7),),)


def test_greedy_fully_connected_divisible():
    for per_round in (1, 2, 3):
        pset = greedy_assign(_fully_connected(4 * per_round))
        assert pset.count == per_round
        assert all(len(part) == 4 for part in pset.partitions)


def test_bb_beats_greedy_on_reference(reference_subnet):
    tables = build_tables(reference_subnet)
    best = bb_assign(tables)
    assert best.bound == 3
    assert best.loads == (3, 3, 3, 3)
    pset = partitions_from_assignment(tables, best)
    assert format_partition_set(pset) == "1-4-7-11\n2-5-8-12\n3-9-6-10"


def test_bb_with_no_multihomed_users():
    tables = build_tables(ProfileSubnetwork(1, (1, 2, 3, 4, 5, 6, 7), ((0,),) + ((1,),) * 2 + ((2,),) * 2 + ((3,),) * 2, 4))
    best = bb_assign(tables)
    assert best.choices == ()
    assert best.bound == 2


def test_bb_tie_breaking_is_pinned():
    # Many assignments share the optimal cost; which one bb_assign returns
    # follows from its expansion and push order.  The digest of (choices,
    # loads) over 2000 seeded instances (2-6 helpers, 1-15 users, uniform
    # nonempty candidate sets) pins that choice, not only its cost.
    rng = np.random.default_rng(20240801)
    digest = hashlib.sha256()
    for _ in range(2000):
        num_helpers = int(rng.integers(2, 7))
        masks = rng.integers(1, 1 << num_helpers, size=int(rng.integers(1, 16))).tolist()
        cands = tuple(tuple(h for h in range(num_helpers) if m >> h & 1) for m in masks)
        subnet = ProfileSubnetwork(1, tuple(range(len(cands))), cands, num_helpers)
        best = bb_assign(build_tables(subnet))
        digest.update(repr((best.choices, best.loads)).encode())
    assert digest.hexdigest() == "575fccb6170be1640de397066d07640127790d101826f238949e05fd2755fd74"


def test_bb_is_deterministic(reference_subnet):
    tables = build_tables(reference_subnet)
    assert bb_assign(tables) == bb_assign(tables)


def test_bb_against_exhaustive_oracles(make_random_subnet, hall_count):
    rng = np.random.default_rng(42)
    for _ in range(300):
        subnet = make_random_subnet(rng)
        tables = build_tables(subnet)
        best = bb_assign(tables)
        exhaustive = brute_force_min_partitions(subnet)
        matching = flow_oracle(subnet)
        greedy = greedy_assign(subnet).count
        assert best.bound == exhaustive == matching == hall_count(subnet)
        assert best.bound <= greedy <= subnet.num_users
        pset = partitions_from_assignment(tables, best)
        assert pset.count == best.bound
        _check_partition_set(subnet, pset)
        _check_partition_set(subnet, greedy_assign(subnet))


def _check_partition_set(subnet: ProfileSubnetwork, pset) -> None:
    eligible = dict(zip(subnet.users, subnet.candidates))
    served = []
    for part in pset.partitions:
        helpers = [h for h, _ in part]
        users = [u for _, u in part]
        assert len(set(helpers)) == len(helpers)
        assert len(set(users)) == len(users)
        assert len(part) <= pset.num_helpers
        for helper, user in part:
            assert helper in eligible[user]
        served.extend(users)
    assert sorted(served) == sorted(subnet.users)


def test_partitions_reject_inconsistent_assignment(reference_subnet):
    tables = build_tables(reference_subnet)
    with pytest.raises(ValueError):
        partitions_from_assignment(tables, Assignment(choices=(0,), loads=(2, 2, 2, 2), bound=2))
    bad_helper = Assignment(choices=(2, 0, 2, 1, 3), loads=(2, 3, 4, 3), bound=4)
    with pytest.raises(ValueError):
        partitions_from_assignment(tables, bad_helper)
    # eligible choices whose stated loads or bound do not follow from the tables
    best = bb_assign(tables)
    for wrong in (
        replace(best, loads=best.loads[:-1] + (best.loads[-1] + 1,)),
        replace(best, bound=best.bound + 1),
    ):
        with pytest.raises(ValueError, match="inconsistent with the tables"):
            partitions_from_assignment(tables, wrong)


def test_empty_subnetwork_gives_empty_cover():
    empty = ProfileSubnetwork(1, (), (), 4)
    assert greedy_assign(empty).count == 0
    tables = build_tables(empty)
    assert partitions_from_assignment(tables, bb_assign(tables)).count == 0
    assert optimal_partitions(empty).count == 0


def test_brute_force_respects_guard():
    subnet = _fully_connected(12)
    with pytest.raises(InstanceTooLargeError):
        brute_force_min_partitions(subnet, guard=10**6)


def test_flow_oracle_serial_bottleneck():
    subnet = ProfileSubnetwork(1, (1, 2, 3), ((0,), (0,), (0,)), 2)
    assert flow_oracle(subnet) == 3


def test_flow_oracle_long_augmenting_path():
    # The last user's only helper is taken; freeing it shifts every other
    # user one helper along, an augmenting path through all 3000 users.
    n = 3000
    cands = tuple((i, i + 1) for i in range(n - 1)) + ((0,),)
    assert flow_oracle(ProfileSubnetwork(1, tuple(range(n)), cands, n)) == 1


@st.composite
def _candidate_sets(draw):
    num_helpers = draw(st.integers(1, 5))
    masks = draw(st.lists(st.integers(1, (1 << num_helpers) - 1), min_size=1, max_size=12))
    cands = tuple(tuple(h for h in range(num_helpers) if m >> h & 1) for m in masks)
    return ProfileSubnetwork(1, tuple(range(len(cands))), cands, num_helpers)


@settings(max_examples=300, deadline=None)
@given(_candidate_sets())
def test_hall_counts_match_oracles(hall_count, subnet):
    assume(math.prod(len(c) for c in subnet.candidates) <= 200_000)
    hall = hall_count(subnet)
    brute = brute_force_min_partitions(subnet)
    pset = optimal_partitions(subnet)
    assert pset.count == hall == flow_oracle(subnet) == brute
    assert hall <= greedy_assign(subnet).count
    _check_partition_set(subnet, pset)


@st.composite
def _label_chunks(draw):
    """Users of several labels: ragged, some labels empty, user ids in any order."""
    num_helpers = draw(st.integers(1, 7))
    num_labels = draw(st.integers(1, 5))
    users = draw(st.lists(
        st.tuples(st.integers(0, num_labels - 1), st.integers(1, (1 << num_helpers) - 1)),
        max_size=40,
    ))
    ids = draw(st.permutations(range(len(users))))
    return num_helpers, num_labels, [label for label, _ in users], [mask for _, mask in users], ids


def _adjacency(num_helpers, masks):
    """The (E, K) links of users with the given helper masks."""
    return np.array(
        [[m >> h & 1 for m in masks] for h in range(num_helpers)], dtype=bool
    ).reshape(num_helpers, len(masks))


def _seeded_chunk(num_helpers, sizes, seed, degree=None):
    """A chunk whose label p holds sizes[p] users with random links, ids shuffled."""
    rng = random.Random(seed)
    labels = [label for label, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(labels)
    masks = [
        sum(1 << h for h in rng.sample(range(num_helpers), degree or rng.randint(1, num_helpers)))
        for _ in labels
    ]
    ids = list(range(len(labels)))
    rng.shuffle(ids)
    return num_helpers, len(sizes), labels, masks, ids


# Every user on all 4 helpers, labels of 9 and 13 users: every helper is full
# whenever a user finds its own helpers full.
_FULLY_CONNECTED_CHUNK = (4, 2, [0] * 9 + [1] * 13, [0b1111] * 22, list(range(22)))


def _saturated_chunk(num_helpers, sizes, seed, cut=False):
    """`_seeded_chunk` with every user on every helper; with `cut`, user 0,
    the first of its label, loses helper 0, where saturation would put it."""
    chunk = _seeded_chunk(num_helpers, sizes, seed)
    masks = [(1 << num_helpers) - 1] * len(chunk[2])
    if cut:
        masks[0] ^= 1
    return (*chunk[:3], masks, chunk[4])


# Saturated chunks of 1..8 helpers, each with a label past 64 users and an
# empty one, and two chunks one link short of saturation.
_SATURATED_CHUNKS = [_saturated_chunk(e, [70, 0, 5], seed=e) for e in range(1, 9)] + [
    _saturated_chunk(2, [3, 66], seed=9, cut=True),
    _saturated_chunk(5, [0, 130, 9], seed=10, cut=True),
]


def _saturated_examples(fields=5):
    """Add `_SATURATED_CHUNKS` as examples, each cut to its first `fields` entries."""

    def add(test):
        for chunk in _SATURATED_CHUNKS:
            test = example(chunk[:fields])(test)
        return test

    return add


@st.composite
def _saturated_chunks(draw):
    """Every user on every helper of up to 8, labels empty, small or past 64
    users; or one link short of that, on a user and helper drawn."""
    num_helpers = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.sampled_from((0, 1, 2, 7, 65)), min_size=1, max_size=3))
    labels = draw(st.permutations([label for label, size in enumerate(sizes) for _ in range(size)]))
    masks = [(1 << num_helpers) - 1] * len(labels)
    if num_helpers > 1 and masks and draw(st.booleans()):
        masks[draw(st.integers(0, len(masks) - 1))] ^= 1 << draw(st.integers(0, num_helpers - 1))
    ids = draw(st.permutations(range(len(labels))))
    return num_helpers, len(sizes), labels, masks, ids


@settings(max_examples=300, deadline=None)
@given(_label_chunks() | _saturated_chunks())
@example(_seeded_chunk(3, [70, 0, 5], seed=1))  # a label past 64 users, and an empty one
@example(_seeded_chunk(19, [30, 12, 0, 7], seed=2))  # 19 helpers
@example(_seeded_chunk(4, [9, 0, 6, 0], seed=3, degree=1))  # single-helper users only
@example(_FULLY_CONNECTED_CHUNK)
@example((2, 3, [], [], []))  # a chunk without users
@_saturated_examples()
def test_chunk_builders_match_the_per_profile_references(chunk):
    # One call places every label of a chunk; each label's (helper, user)
    # pairs, partition by partition, must be those of the per-profile
    # builders that ran before, on the label's users in chunk order.
    num_helpers, num_labels, labels, masks, ids = chunk
    adjacency = _adjacency(num_helpers, masks)
    candidates = helper_candidates(adjacency)
    assert candidates == [tuple(h for h in range(num_helpers) if m >> h & 1) for m in masks]
    labels = np.array(labels, dtype=np.int64)
    for builder, arguments, one_label, reference in (
        (
            optimal_placement,
            (candidates, labels, num_helpers),
            optimal_partitions,
            partition_reference.optimal_partitions,
        ),
        (
            greedy_placement,
            (adjacency, labels + 1, num_labels),
            greedy_assign,
            partition_reference.greedy_assign,
        ),
    ):
        *_, partition, helper = builder(*arguments)
        assert partition.shape == helper.shape == labels.shape
        for label in range(num_labels):
            members = np.flatnonzero(labels == label).tolist()
            own = tuple(candidates[i] for i in members)
            subnet = ProfileSubnetwork(1, tuple(ids[i] for i in members), own, num_helpers)
            parts: dict[int, list[tuple[int, int]]] = {}
            for i in members:
                parts.setdefault(int(partition[i]), []).append((int(helper[i]), ids[i]))
            built = tuple(tuple(sorted(parts[g])) for g in range(len(parts)))
            expected = reference(subnet).partitions
            assert built == expected, (builder.__name__, label)
            assert one_label(subnet).partitions == expected
            if builder is optimal_placement:
                assert flow_oracle(subnet) == len(expected)


@settings(max_examples=300, deadline=None)
@given(_label_chunks() | _saturated_chunks())
@example(_seeded_chunk(3, [70, 0, 5], seed=1))
@example(_seeded_chunk(19, [30, 12, 0, 7], seed=2))
@example(_seeded_chunk(4, [9, 0, 6, 0], seed=3, degree=1))
@example(_FULLY_CONNECTED_CHUNK)
@example((2, 3, [], [], []))
@_saturated_examples()
def test_greedy_placement_counts_as_greedy_counts(chunk):
    # The placing run of the scan counts as its counting run does, label by
    # label, and a label's largest recorded partition is its count less one.
    num_helpers, num_labels, labels, masks, _ = chunk
    adjacency = _adjacency(num_helpers, masks)
    labels = np.array(labels, dtype=np.int64) + 1
    counts, partition, helper = greedy_placement(adjacency, labels, num_labels)
    assert partition.dtype == helper.dtype == np.intp
    counted = greedy_counts(adjacency, labels, num_labels)
    assert counts.dtype == counted.dtype == np.int64
    assert counts.tolist() == counted.tolist()
    built = np.zeros(num_labels + 1, dtype=np.int64)
    np.maximum.at(built, labels, partition + 1)
    assert built[1:].tolist() == counts.tolist()


@st.composite
def _greedy_chunks(draw):
    """Users of up to 8 helpers over a few labels, labels of up to 150 users (3 words)."""
    num_helpers = draw(st.integers(1, 8))
    num_labels = draw(st.integers(1, 3))
    size = draw(st.sampled_from((10, 40, 150)))
    users = draw(st.lists(
        st.tuples(st.integers(0, num_labels - 1), st.integers(1, (1 << num_helpers) - 1)),
        max_size=size,
    ))
    return num_helpers, num_labels, [label for label, _ in users], [mask for _, mask in users]


@settings(max_examples=300, deadline=None)
@given(_greedy_chunks() | _saturated_chunks().map(lambda chunk: chunk[:4]))
@example((3, 1, [0] * 70, [0b111] * 70))  # a label past 64 users, all on every helper
@example((4, 2, [0, 1] * 45, [0b0001, 0b1111, 0b0110] * 30))
@example((2, 3, [], []))  # a chunk without users
@_saturated_examples(fields=4)
def test_greedy_scan_is_a_least_loaded_assignment(chunk):
    # The bitset scan, pass by pass, places every user as the least-loaded
    # assignment in column order: each user joins its least-loaded linked
    # helper, ties to the lowest index, in the partition of that helper's
    # load.  Counts, partitions and helpers all agree, and so they do where
    # every user links every helper and no scan runs.
    num_helpers, num_labels, labels, masks = chunk
    adjacency = _adjacency(num_helpers, masks)
    labels = np.array(labels, dtype=np.int64) + 1
    counts, partition, helper = partition_reference.least_loaded_greedy(
        adjacency, labels, num_labels
    )
    placed = greedy_placement(adjacency, labels, num_labels)
    assert [array.tolist() for array in placed] == [counts, partition, helper]
    assert [array.dtype for array in placed] == [np.int64, np.intp, np.intp]
    assert greedy_counts(adjacency, labels, num_labels).tolist() == counts


@settings(max_examples=300, deadline=None)
@given(_label_chunks() | _saturated_chunks())
@example(_seeded_chunk(3, [70, 0, 5], seed=1))
@example(_seeded_chunk(4, [9, 0, 6, 0], seed=3, degree=1))
@example((2, 3, [], [], []))
@_saturated_examples()
def test_hall_witnesses_attain_the_counts(chunk):
    # Hall's counts with one witness set S per label: the counts are the
    # profile-major reference's, and ceil(N_S / |S|) of S, N_S counted user
    # by user, is the count, the largest such bound of any helper set.
    num_helpers, num_labels, labels, masks, _ = chunk
    adjacency = _adjacency(num_helpers, masks)
    profile_of = np.array(labels, dtype=np.int64) + 1
    counts, witnesses = hall_witnesses(adjacency, profile_of, num_labels)
    assert counts.dtype == witnesses.dtype == np.int64
    expected = partition_reference.hall_counts(adjacency, profile_of, num_labels)
    assert counts.tolist() == expected.tolist()
    for label in range(num_labels):
        own = [mask for mask, owner in zip(masks, labels) if owner == label]

        def bound(subset):
            return -(-sum(m & ~subset == 0 for m in own) // bin(subset).count("1"))

        bounds = [bound(subset) for subset in range(1, 1 << num_helpers)]
        assert bound(int(witnesses[label])) == counts[label] == max(bounds, default=0)
        assert 1 <= witnesses[label] < 1 << num_helpers


@settings(max_examples=300, deadline=None)
@given(_label_chunks() | _saturated_chunks())
@example(_seeded_chunk(3, [70, 0, 5], seed=1))
@example(_seeded_chunk(19, [30, 12, 0, 7], seed=2))
@example(_seeded_chunk(19, [150], seed=4))  # one trial's 19-helper label
@example(_seeded_chunk(4, [9, 0, 6, 0], seed=3, degree=1))
@example((2, 3, [], [], []))
@_saturated_examples()
def test_hall_table_matches_the_profile_major_reference(chunk):
    # The (2^E, L) table with one float ceil per label gives the counts of
    # the (L, 2^E) int32 table with an integer ceil per helper set.  Its
    # counts and witnesses are those of the table run on every chunk, bit
    # for bit, where a saturated chunk builds none.
    num_helpers, num_labels, labels, masks, _ = chunk
    adjacency = _adjacency(num_helpers, masks)
    profile_of = np.array(labels, dtype=np.int64) + 1
    counts, witnesses = hall_witnesses(adjacency, profile_of, num_labels)
    expected = partition_reference.hall_counts(adjacency, profile_of, num_labels)
    assert counts.dtype == np.int64 and counts.tolist() == expected.tolist()
    table = partition_reference.hall_table_witnesses(adjacency, profile_of, num_labels)
    for got, want in zip((counts, witnesses), table):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_hall_counts_at_integer_ratios():
    # Labels whose largest N_S / |S| is an integer, one user above it, or
    # empty: the float quotient must ceil exactly as the integer one does.
    q = 100_003
    labels = {
        1: [0b011] * 6,  # N / |S| = 3 on helpers {0, 1}
        2: [0b011] * 7,  # 3.5
        3: [],
        4: [0b11111] * (5 * q),  # q on all five helpers
        5: [0b11111] * (5 * q + 1),  # just above q
        6: [0b00001] * 4 + [0b00110] * 2 + [0b11000] * 8,  # 4 on helper 0 and on {3, 4}
        7: [0b00111] * 12 + [0b11000] * 7,  # 4 on {0, 1, 2}, 19 / 5 on all
    }
    profile_of = np.array([label for label, masks in labels.items() for _ in masks])
    adjacency = _adjacency(5, [mask for masks in labels.values() for mask in masks])
    counts = hall_witnesses(adjacency, profile_of, len(labels))[0]
    assert counts.tolist() == [3, 4, 0, q, q + 1, 4, 4]
    assert counts.tolist() == partition_reference.hall_counts(adjacency, profile_of, 7).tolist()


# Inputs both batched counts refuse, with the message they must give.
_BAD_NETWORKS = [
    (np.array([[True, False]]), np.array([1, 1]), 1, "at least one linked helper"),
    (np.ones((2, 3), dtype=bool), np.array([1, 2, 3]), 2, r"profile 3 is outside 1\.\.2"),
    (np.ones((2, 3), dtype=bool), np.array([0, 1, 2]), 2, r"profile 0 is outside 1\.\.2"),
]


def test_hall_counts_per_profile(reference_subnet):
    adjacency = np.array(
        [[h in cand for cand in reference_subnet.candidates] for h in range(4)]
    )
    # Profile 1 holds the reference users, profile 2 none, and profile 3
    # the reference users plus one more on helper 0.
    adjacency = np.hstack([adjacency, adjacency, [[True], [False], [False], [False]]])
    profile_of = np.array([1] * 12 + [3] * 13)
    counts = hall_witnesses(adjacency, profile_of, 3)[0]
    assert counts.tolist() == [3, 0, 4]


def test_greedy_counts_per_profile(reference_subnet):
    # The reference instance (greedy 4) as profile 1 and as profile 3, with
    # one more user on helper 3 there; profile 2 is empty.
    adjacency = np.array(
        [[h in cand for cand in reference_subnet.candidates] for h in range(4)]
    )
    adjacency = np.hstack([adjacency, [[False], [False], [False], [True]], adjacency])
    profile_of = np.array([1] * 12 + [3] * 13)
    assert greedy_counts(adjacency, profile_of, 3).tolist() == [4, 0, 5]
    assert greedy_counts(np.zeros((2, 0), dtype=bool), np.zeros(0, dtype=np.int64), 2).tolist() == [0, 0]
    for adjacency, profile_of, num_profiles, message in _BAD_NETWORKS:
        for scan in (greedy_counts, greedy_placement):
            with pytest.raises(ValueError, match=message):
                scan(adjacency, profile_of, num_profiles)


@pytest.mark.parametrize("num_helpers", [1, 4, 20])
def test_greedy_counts_across_word_boundaries(num_helpers):
    # greedy_counts holds user j of a profile as bit j % 64 of word j // 64.
    # These profiles end on either side of a word boundary, and one chunk
    # mixes them with empty and small ones; each also runs alone.  Helper 0
    # also links to every user past a profile's first word: once that word
    # holds no open link of it, its picks need the borrow carried through.
    sizes = [0, 1, 5, 63, 64, 65, 128, 129, 300]
    rng = np.random.default_rng(num_helpers)
    profile_of = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
    rank = np.zeros(profile_of.size, dtype=np.int64)
    for p in range(1, len(sizes) + 1):
        rank[profile_of == p] = np.arange(sizes[p - 1])
    density = rng.uniform(0.05, 0.6, size=(num_helpers, 1))
    adjacency = rng.random((num_helpers, profile_of.size)) < density
    adjacency[0] |= rank >= 64
    adjacency[rng.integers(0, num_helpers, profile_of.size), np.arange(profile_of.size)] = True
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(profile_of.size))
    subnets = subnetworks_from_connectivity(conn, ProfileAssignment(profile_of, len(sizes)))
    expected = [
        partition_reference.greedy_assign(subnets[p]).count for p in range(1, len(sizes) + 1)
    ]
    if num_helpers == 1:
        assert expected == sizes  # one stack: one user per partition
    assert greedy_counts(adjacency, profile_of, len(sizes)).tolist() == expected
    for p, count in enumerate(expected, start=1):
        alone = profile_of == p
        assert greedy_counts(adjacency[:, alone], np.ones(alone.sum(), dtype=np.int64), 1).tolist() == [count]


def test_hall_counts_reject_bad_input():
    # The networks of all ones are saturated: their labels are refused
    # before the closed form counts them, and so is a 21st helper.
    for adjacency, profile_of, num_profiles, message in _BAD_NETWORKS:
        with pytest.raises(ValueError, match=message):
            hall_witnesses(adjacency, profile_of, num_profiles)
    with pytest.raises(ValueError, match="limit of 20"):
        hall_witnesses(np.zeros((21, 0), dtype=bool), np.zeros(0, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="21 helpers exceed the limit of 20"):
        hall_witnesses(np.ones((21, 3), dtype=bool), np.array([1, 2, 1]), 2)


def test_hall_witnesses_refuse_no_helpers_and_count_no_labels():
    # Hall's count needs a helper set S with |S| >= 1, so no helper is
    # refused by name, with users or without; zero labels give empty
    # counts and witnesses, as greedy gives empty counts.
    for adjacency, labels in ((np.zeros((0, 0), dtype=bool), []), (np.ones((0, 2), dtype=bool), [1, 1])):
        with pytest.raises(ValueError, match="^Hall's count needs at least one helper, got 0$"):
            hall_witnesses(adjacency, np.array(labels, dtype=np.int64), 3)
    counts, witnesses = hall_witnesses(np.ones((2, 0), dtype=bool), np.array([], dtype=np.int64), 0)
    assert counts.dtype == witnesses.dtype == np.int64
    assert counts.shape == witnesses.shape == (0,)
    assert greedy_counts(np.ones((2, 0), dtype=bool), np.array([], dtype=np.int64), 0).shape == (0,)


def test_saturation_alone_skips_the_table_and_the_scan(monkeypatch):
    # A saturated chunk makes no helper mask for Hall's table; one link
    # short of it, the table runs.  There greedy's scan must run too: the
    # cut user, first of its label, would be on the cut helper 0 if the
    # closed form ran.
    masked = []

    def masks(adjacency, run=partitioner._helper_masks):
        masked.append(adjacency.shape)
        return run(adjacency)

    monkeypatch.setattr(partitioner, "_helper_masks", masks)
    for cut in (False, True):
        num_helpers, num_labels, labels, links, _ = _saturated_chunk(3, [70, 0, 5], seed=1, cut=cut)
        adjacency = _adjacency(num_helpers, links)
        profile_of = np.array(labels) + 1
        counts, witnesses = hall_witnesses(adjacency, profile_of, num_labels)
        assert masked == ([(3, 75)] if cut else [])
        assert counts.tolist() == [24, 0, 2]
        assert witnesses.tolist() == [0b111, 1, 0b111]
        _, partition, helper = greedy_placement(adjacency, profile_of, num_labels)
        assert (partition[0], helper[0]) == ((0, 1) if cut else (0, 0))


def test_helper_bitmasks_refuse_more_than_63_helpers():
    # int64 masks: 1 << 64 is 0, so helper 64's link would silently vanish.
    adjacency = np.zeros((66, 2), dtype=bool)
    adjacency[[0, 64], 0] = True  # user 0: helpers 0 and 64
    adjacency[65, 1] = True  # user 1: helper 65 only
    assignment = ProfileAssignment(profile_of=np.array([1, 1]), num_profiles=1)
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(2))
    with pytest.raises(ValueError, match="66 helpers exceed the 63"):
        subnetworks_from_connectivity(conn, assignment)
    with pytest.raises(ValueError, match="66 helpers"):
        hall_witnesses(adjacency, assignment.profile_of, 1)
    # 63 helpers still fit, the top one included.
    adjacency = np.zeros((63, 2), dtype=bool)
    adjacency[[0, 62], 0] = True
    adjacency[62, 1] = True
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(2))
    subnet = subnetworks_from_connectivity(conn, assignment)[1]
    assert subnet.candidates == ((0, 62), (62,))


def test_matched_submatrices_stay_invertible(reference_subnet):
    tables = build_tables(reference_subnet)
    pset = partitions_from_assignment(tables, bb_assign(tables))
    rng = np.random.default_rng(3)
    user_row = {user: i for i, user in enumerate(reference_subnet.users)}
    for _ in range(1000):
        gains = (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))) / np.sqrt(2)
        support = np.zeros((12, 4), dtype=bool)
        for user, cand in zip(reference_subnet.users, reference_subnet.candidates):
            support[user_row[user], list(cand)] = True
        channel = np.where(support, gains, 0)
        for part in pset.partitions:
            rows = [user_row[u] for _, u in part]
            cols = [h for h, _ in part]
            det = np.linalg.det(channel[np.ix_(rows, cols)])
            assert abs(det) > 1e-12


def test_subnetworks_from_connectivity_partition_users():
    layout = hex_layout(4)
    users = sample_users(2.653, 2.7, np.random.default_rng(5))
    conn = connect(layout, users, 1.2)
    assignment = assign_profiles(conn.num_users, 5, np.random.default_rng(6))
    subnets = subnetworks_from_connectivity(conn, assignment)
    seen = []
    for profile, subnet in subnets.items():
        assert subnet.profile == profile
        for user, cand in zip(subnet.users, subnet.candidates):
            assert list(cand) == list(np.flatnonzero(conn.adjacency[:, user]))
        seen.extend(subnet.users)
    assert sorted(seen) == list(range(conn.num_users))


def test_instance_dump_load_round_trip(reference_subnet):
    loaded = load_instance(io.StringIO(REFERENCE_INSTANCE))
    assert loaded.users == reference_subnet.users
    assert loaded.candidates == reference_subnet.candidates
    assert loaded.num_helpers == 4


def test_subnetwork_rejects_malformed_candidates():
    for args, message in (
        (((1,), ((0,),), 0), "at least one helper, got 0"),
        (((1, 2), ((0,),), 2), "one candidate set per user"),
        (((1, 1), ((0,), (1,)), 2), "user ids must be distinct"),
        (((1,), ((),), 2), "user 1 has no eligible helper"),
        (((1,), ((1, 0),), 2), "user 1 must be sorted and distinct"),
        (((1,), ((0, 0),), 2), "user 1 must be sorted and distinct"),
        (((1,), ((-1, 0),), 2), "user 1 out of range"),
        (((1,), ((0, 2),), 2), "user 1 out of range"),
        # users 2 and 4 share a bad tuple, user 3 holds another: the first is named
        (((1, 2, 3, 4), ((0,), (1, 0), (0, 0), (1, 0)), 2), "user 2 must be sorted and distinct"),
        (((5, 2, 3), ((0,), (2,), (2,)), 2), "candidates of user 2 out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            ProfileSubnetwork(1, *args)


def test_optimal_placement_refuses_what_its_siblings_refuse():
    # Hall's formula and greedy's scan refuse a user with no linked helper;
    # the matching refuses it too, and a helper past num_helpers, by the
    # subnetwork's own check of each distinct tuple, naming the first bad
    # user, where it used to fail with IndexError.
    for solver in (hall_witnesses, greedy_placement):
        with pytest.raises(ValueError, match="at least one linked helper"):
            solver(np.zeros((2, 1), dtype=bool), np.array([1]), 1)
    for candidates, message in (
        ([()], "user 0 has no eligible helper"),
        ([(0,), (0, 2), (0, 2)], "candidates of user 1 out of range"),
        ([(0,), (-1, 1)], "candidates of user 1 out of range"),
        ([(1,), (1, 0), ()], "candidates of user 1 must be sorted and distinct"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimal_placement(candidates, np.ones(len(candidates), dtype=np.int64), 2)


def test_load_instance_names_bad_labels_and_lines():
    for text, label in (("1: 0\n", 0), ("helpers: 3\n1: 0,2\n", 0), ("1: 2,-1\n", -1)):
        with pytest.raises(ValueError, match=f"user 1 lists helper {label}; .* start at 1"):
            load_instance(io.StringIO(text))
    # the offending line is the last one of each text
    for text in ("1: a\n", "# users\n2: 1\nx: 1\n", "2: 1\n\n3: 1,2.5\n"):
        lines = text.splitlines()
        expected = f"line {len(lines)}: .* integers, got '{re.escape(lines[-1])}'"
        with pytest.raises(ValueError, match=expected):
            load_instance(io.StringIO(text))
    # a repeated helper label or user id is named with its line
    with pytest.raises(ValueError, match="line 1: user 1 lists helper 2 twice"):
        load_instance(io.StringIO("1: 2,2\n"))
    with pytest.raises(ValueError, match="line 3: user id 1 repeats line 1"):
        load_instance(io.StringIO("1: 1\n# same id again\n1: 2\n"))
    # user ids start at 1: a printed row shows an idle helper as 0 and
    # joins slots with "-", so neither 0 nor a negative id could be read back
    for text, line, user in (("helpers: 2\n0: 1\n", 2, 0), ("2: 1\n-3: 2\n", 2, -3)):
        with pytest.raises(ValueError, match=f"line {line}: user id {user} is below 1"):
            load_instance(io.StringIO(text))
    # the other refusals of a user line name it too
    for text, message in (
        ("1: 1\n\n5:\n", "line 3: user 5 has no helpers listed"),
        ("1: 1\n2: 0,2\n", "line 2: user 2 lists helper 0; helper labels start at 1"),
        ("1: 1\n2: 1,5\nhelpers: 3\n", "line 2: user 2 lists helper 5, above the declared"),
    ):
        with pytest.raises(ValueError, match=message):
            load_instance(io.StringIO(text))


def test_load_instance_requires_helpers():
    with pytest.raises(ValueError):
        load_instance(io.StringIO("5:\n"))
    # without users, only the header gives E
    for text in ("", "# no users\n\n"):
        with pytest.raises(ValueError, match="^the instance lists no users and no helpers: header$"):
            load_instance(io.StringIO(text))
    empty = load_instance(io.StringIO("helpers: 3\n"))
    assert (empty.num_helpers, empty.users) == (3, ())


def test_load_instance_header_binds_above_or_below_the_users():
    for text in ("helpers: 3\n1: 1,5\n", "1: 1,5\nhelpers: 3\n"):
        with pytest.raises(ValueError, match=r"user 1 lists helper 5, above the declared helpers: 3"):
            load_instance(io.StringIO(text))
    for text in ("helpers: 6\n1: 1,5\n", "1: 1,5\nhelpers: 6\n"):
        assert load_instance(io.StringIO(text)).num_helpers == 6
    assert load_instance(io.StringIO("1: 1,5\n2: 2\n")).num_helpers == 5
    with pytest.raises(ValueError, match="helpers: header appears more than once"):
        load_instance(io.StringIO("helpers: 3\n1: 1,2\nhelpers: 5\n"))
    for value in ("-2", "0", "2.5", "x"):
        with pytest.raises(ValueError, match=f"helpers: header needs an integer.*'{value}'"):
            load_instance(io.StringIO(f"helpers: {value}\n1: 1\n"))


def test_partition_rows_views(reference_subnet):
    lines = format_partition_set(greedy_assign(reference_subnet)).splitlines()
    assert len(lines) == 4
    assert lines[0] == "1-2-6-9"
    assert lines[3] == "0-0-0-12"
