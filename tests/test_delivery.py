import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delivery_reference import (
    audit_deliveries,
    build_precoder,
    compose_signal,
    enumerate_transmissions,
    replay_schedule,
    verify_decode,
)
from helpercache import delivery
from helpercache.cache_placement import ProfileAssignment, assign_profiles, draw_subfile_symbols
from helpercache.delivery import (
    DecodeFailure,
    RoundSchedule,
    SingularChannelError,
    build_schedule,
    count_transmissions,
    coverage_check,
    decode_round,
    delivery_time,
    group_table,
    matched_precoders,
    round_signals,
    sum_dof,
    transmissions_from_counts,
    verify_schedule,
)
from helpercache.partitioner import (
    PartitionSet,
    bb_assign,
    build_tables,
    greedy_assign,
    partitions_from_assignment,
    subnetworks_from_connectivity,
)
from helpercache.topology import (
    Connectivity,
    connect,
    draw_channels,
    hex_layout,
    sample_users,
)


def _singleton_partitions(count: int, num_helpers: int = 4, first_user: int = 0) -> PartitionSet:
    parts = tuple(((0, first_user + g),) for g in range(count))
    return PartitionSet(partitions=parts, num_helpers=num_helpers)


def _full_connectivity(num_users: int, num_helpers: int) -> Connectivity:
    return Connectivity(
        adjacency=np.ones((num_helpers, num_users), dtype=bool),
        reachable_users=np.arange(num_users),
    )


def _profile_counts(schedule: RoundSchedule) -> tuple[int, ...]:
    """Rounds in which each profile 1..L is served."""
    return tuple(
        sum(p in entries for entries in schedule.rounds) for p in range(1, schedule.num_profiles + 1)
    )


def _round_by_round(counts, num_profiles: int, index_size: int) -> int:
    """Sum over rounds g of C(L, t + 1) - C(v(g), t + 1), v(g) the profiles idle in round g."""
    size = index_size + 1
    return sum(
        math.comb(num_profiles, size) - math.comb(sum(c <= g for c in counts), size)
        for g in range(max(counts, default=0))
    )


def test_schedule_orders_partitions_and_counts_idle():
    psets = {
        1: _singleton_partitions(3, first_user=0),
        2: _singleton_partitions(2, first_user=10),
        3: PartitionSet(partitions=(), num_helpers=4),
    }
    schedule = build_schedule(psets, 3)
    assert schedule.num_rounds == 3
    assert _profile_counts(schedule) == (3, 2, 0)
    assert set(schedule.rounds[0]) == {1, 2}
    assert set(schedule.rounds[2]) == {1}


def test_schedule_empty_everywhere():
    schedule = build_schedule({}, 4)
    assert schedule.num_rounds == 0
    assert count_transmissions(schedule, 1) == 0


def test_schedule_rejects_unknown_profiles():
    with pytest.raises(ValueError):
        build_schedule({5: _singleton_partitions(1)}, 3)


def test_transmission_count_example():
    psets = {1: _singleton_partitions(1), 2: _singleton_partitions(1, first_user=5)}
    schedule = build_schedule(psets, 3)
    assert _profile_counts(schedule) == (1, 1, 0)
    count = count_transmissions(schedule, 1)
    assert count == 3  # C(3,2) - C(1,2)
    assert type(count) is int  # summed and passed on as a Python integer


def test_transmission_count_no_idle_profiles():
    psets = {p: _singleton_partitions(1, first_user=10 * p) for p in range(1, 11)}
    schedule = build_schedule(psets, 10)
    assert count_transmissions(schedule, 1) == 45


def test_count_formula_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        num_profiles = int(rng.integers(1, 13))
        index_size = int(rng.integers(0, num_profiles))
        psets = {}
        user = 0
        for profile in range(1, num_profiles + 1):
            rounds = int(rng.integers(0, 5))
            psets[profile] = _singleton_partitions(rounds, first_user=user)
            user += rounds
        schedule = build_schedule(psets, num_profiles)
        enumerated = sum(1 for _ in enumerate_transmissions(schedule, index_size))
        assert count_transmissions(schedule, index_size) == enumerated


def test_sorted_counts_give_the_round_by_round_count():
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        num_profiles = int(rng.integers(1, 13))
        index_size = int(rng.integers(0, num_profiles))
        counts = rng.integers(0, 7, size=num_profiles)
        by_rounds = _round_by_round(counts.tolist(), num_profiles, index_size)
        assert transmissions_from_counts(counts, index_size) == by_rounds
    # A whole (trials, L) array at once, row by row the same.
    batch = rng.integers(0, 7, size=(50, 10))
    assert transmissions_from_counts(batch, 3).tolist() == [
        _round_by_round(row.tolist(), 10, 3) for row in batch
    ]


def test_sorted_counts_stay_exact_beyond_float_precision():
    # C(60, 31) is above 2^53: totals are exact integers, and each delivery
    # time is rounded as Python's int / int rounds it.
    rng = np.random.default_rng(42)
    batch = rng.integers(0, 9, size=(20, 60))
    totals = transmissions_from_counts(batch, 30)
    exact = [_round_by_round(row.tolist(), 60, 30) for row in batch]
    assert totals.tolist() == exact
    assert delivery_time(totals, 60, 30).tolist() == [n / math.comb(60, 30) for n in exact]
    small = transmissions_from_counts(batch[:, :10], 1)
    assert small.dtype == np.int64
    assert delivery_time(small, 10, 1).tolist() == [n / 10 for n in small.tolist()]


def test_delivery_time_examples():
    assert delivery_time(0, 10, 1) == 0.0
    assert delivery_time(45, 10, 1) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        delivery_time(-1, 10, 1)


def test_sum_dof_examples():
    assert sum_dof(40, 0.1, 4.5) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        sum_dof(5, 0.1, 0.0)


def _example_channel(rng: np.random.Generator) -> np.ndarray:
    # rows: the four matched users; candidate sets {e1}, {e1,e2}, {e1,e2,e3}, {e2,e4}
    adjacency = np.array(
        [
            [True, True, True, False],
            [False, True, True, True],
            [False, False, True, False],
            [False, False, False, True],
        ]
    )
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(4))
    return draw_channels(conn, rng)


def test_diagonal_matching_precoder_closed_form():
    # Hand-built zero-forcing vector for the staircase support pattern: each
    # user k then hears exactly its own message scaled by its matched gain.
    rng = np.random.default_rng(1)
    h = _example_channel(rng)
    x_mess = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x1, x2, x3, x4 = x_mess
    sent = np.array(
        [
            x1,
            x2 - x1 * h[1, 0] / h[1, 1],
            x3 - x2 * h[2, 1] / h[2, 2] + x1 * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0]) / (h[1, 1] * h[2, 2]),
            x4 - x2 * h[3, 1] / h[3, 3] + x1 * h[1, 0] * h[3, 1] / (h[1, 1] * h[3, 3]),
        ]
    )
    received = h @ sent
    expected = np.array([x1 * h[0, 0], x2 * h[1, 1], x3 * h[2, 2], x4 * h[3, 3]])
    np.testing.assert_allclose(received, expected, atol=1e-12)


def test_precoder_inverts_matched_submatrix():
    rng = np.random.default_rng(2)
    channel = _example_channel(rng)
    inverse = matched_precoders(channel, [((0, 1, 2, 3), (0, 1, 2, 3))])
    np.testing.assert_allclose(channel @ inverse, np.eye(4), atol=1e-10)


def test_precoder_scalar_case():
    conn = Connectivity(adjacency=np.array([[True]]), reachable_users=np.arange(1))
    channel = draw_channels(conn, np.random.default_rng(3))
    inverse = matched_precoders(channel, [((0,), (0,))])
    assert inverse.shape == (1, 1)
    assert inverse[0, 0] == pytest.approx(1 / channel[0, 0])


def test_precoder_identity_over_many_draws():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        conn = Connectivity(adjacency=np.ones((4, 4), dtype=bool), reachable_users=np.arange(4))
        channel = draw_channels(conn, rng)
        inverse = matched_precoders(channel, [((0, 1, 2, 3), (0, 1, 2, 3))])
        gap = np.abs(channel @ inverse - np.eye(4)).max()
        worst = max(worst, gap)
    assert worst < 1e-9


def test_batched_precoders_match_single_inverses():
    channel = draw_channels(_full_connectivity(8, 4), np.random.default_rng(12))
    slots = [((0, 1), (0, 1)), ((2,), (2,)), ((3, 0, 1), (3, 4, 5)), ((1, 2), (6, 7)), ((0,), (5,))]
    precoders = matched_precoders(channel, slots)
    start = 0
    for helpers, users in slots:
        # the slot's columns: its inverse on its helpers' rows, zero on the others
        block = precoders[:, start : start + len(users)]
        np.testing.assert_allclose(
            block[list(helpers)], build_precoder(channel, helpers, users), rtol=1e-12, atol=0
        )
        assert not np.delete(block, helpers, axis=0).any()
        start += len(users)
    assert precoders.shape == (4, start)


def test_precoders_of_stacked_trials_name_the_trial():
    # two trials' channels stacked: the second trial's users start at row 3
    rng = np.random.default_rng(15)
    first, second = (draw_channels(_full_connectivity(k, 3), rng) for k in (3, 4))
    slots = [((0, 1), (0, 2)), ((2, 0), (3, 1)), ((1,), (0,))]
    rows, seeds = np.array([0, 3, 3]), [11, 22, 22]
    stacked = matched_precoders(np.vstack([first, second]), slots, rows, seeds)
    np.testing.assert_array_equal(stacked[:, :2], matched_precoders(first, slots[:1]))
    np.testing.assert_array_equal(stacked[:, 2:], matched_precoders(second, slots[1:]))
    second[[3, 1]] = second[[1, 1]]  # the second trial's slot of users 3 and 1 turns singular
    with pytest.raises(SingularChannelError, match=r"users \(3, 1\) on helpers \(2, 0\) \(seed 22\)"):
        matched_precoders(np.vstack([first, second]), slots, rows, seeds)


def test_precoder_rejects_singular_submatrix():
    row = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    channel = np.vstack([row, row])
    with pytest.raises(SingularChannelError):
        matched_precoders(channel, [((0, 1), (0, 1))])


def test_precoder_rejects_structural_zero_on_diagonal():
    conn = Connectivity(adjacency=np.array([[True, False], [True, True]]), reachable_users=np.arange(2))
    channel = draw_channels(conn, np.random.default_rng(5))
    with pytest.raises(ValueError):
        matched_precoders(channel, [((1, 0), (0, 1))])


def test_singular_slot_in_a_schedule_is_rejected():
    # users 4 and 5 hear helpers 2 and 3 identically, so their round-1 slot
    # is singular while every other size-2 slot stacked with it is not
    channel = draw_channels(_full_connectivity(6, 4), np.random.default_rng(13))
    channel[5] = channel[4]
    psets = {
        1: PartitionSet(partitions=(((0, 0), (1, 1)), ((2, 4), (3, 5))), num_helpers=4),
        2: PartitionSet(partitions=(((2, 2), (3, 3)),), num_helpers=4),
    }
    schedule = build_schedule(psets, 2)
    demands = {u: u for u in range(6)}
    symbols = np.ones((6, 1), dtype=complex)
    with pytest.raises(SingularChannelError, match=r"users \(4, 5\) on helpers \(2, 3\)"):
        verify_schedule(channel, schedule, demands, symbols, 1)


def _two_profile_round():
    """One round: a full partition for profile 1, a padded one for profile 2."""
    psets = {
        1: PartitionSet(partitions=(((0, 2), (1, 5), (2, 8), (3, 12)),), num_helpers=4),
        2: PartitionSet(partitions=(((1, 14), (3, 18)),), num_helpers=4),
        3: PartitionSet(partitions=(), num_helpers=4),
    }
    schedule = build_schedule(psets, 3)
    conn = _full_connectivity(19, 4)
    channel = draw_channels(conn, np.random.default_rng(6))
    served = (2, 5, 8, 12, 14, 18)
    demands = {u: 100 + u for u in served}
    # row u: user u's two needed subfiles; unserved users' rows stay unread
    rng = np.random.default_rng(7)
    symbols = np.zeros((19, 2), dtype=complex)
    for user in served:
        symbols[user] = [complex(*rng.standard_normal(2)) for _ in range(2)]
    return schedule, channel, demands, symbols


def _blocks(rs, group):
    """Per active profile of `group`: its zero-padded block P_p M_p in that column."""
    j = rs.groups.index(group)
    return {
        int(p): rs.precoder[:, rs.profiles == p] @ rs.messages[rs.profiles == p, j]
        for p in np.unique(rs.profiles[rs.intended[:, j]])
    }


def test_zero_padding_leaves_unused_helpers_silent():
    schedule, channel, demands, symbols = _two_profile_round()
    (rs,) = round_signals(channel, schedule, symbols, 1)
    assert list(_blocks(rs, (2, 3))) == [2]
    signal = rs.signal[:, rs.groups.index((2, 3))]
    assert signal[0] == 0 and signal[2] == 0
    assert signal[1] != 0 and signal[3] != 0
    reference = compose_signal(channel, schedule, 0, (2, 3), symbols)
    np.testing.assert_allclose(signal, reference.signal, atol=1e-12)


def test_signal_superposes_profile_blocks():
    schedule, channel, demands, symbols = _two_profile_round()
    (rs,) = round_signals(channel, schedule, symbols, 1)
    for group, effective in (((1, 2), [1, 2]), ((1, 3), [1])):
        blocks = _blocks(rs, group)
        assert list(blocks) == effective
        signal = rs.signal[:, rs.groups.index(group)]
        np.testing.assert_allclose(signal, sum(blocks.values()), atol=1e-12)
        reference = compose_signal(channel, schedule, 0, group, symbols)
        for profile in effective:
            np.testing.assert_allclose(blocks[profile], reference.blocks[profile], atol=1e-12)


def test_group_without_active_profiles_is_skipped():
    psets = {1: _singleton_partitions(2), 2: PartitionSet(partitions=(), num_helpers=4)}
    schedule = build_schedule(psets, 2)
    conn = _full_connectivity(2, 4)
    channel = draw_channels(conn, np.random.default_rng(8))
    symbols = np.array([[1 + 0j], [1j]])
    # profile 2 never transmits; the only group is (1, 2) and stays active via profile 1
    signals = round_signals(channel, schedule, symbols, 1)
    assert [rs.groups for rs in signals] == [((1, 2),), ((1, 2),)]
    assert [list(_blocks(rs, (1, 2))) for rs in signals] == [[1], [1]]
    # with a third profile, the group of the two idle profiles sends nothing
    psets[3] = PartitionSet(partitions=(), num_helpers=4)
    schedule = build_schedule(psets, 3)
    symbols = np.array([[1 + 0j, 1 + 1j], [1j, -1j]])
    signals = round_signals(channel, schedule, symbols, 1)
    assert [rs.groups for rs in signals] == [((1, 2), (1, 3))] * 2


def test_round_with_the_wrong_group_count_is_rejected(monkeypatch):
    # profiles 1 and 2 are active, so the round must send C(3, 2) - C(1, 2) = 3
    # groups; a group table whose row for profile 2 was dropped, profile 1's
    # repeated in its place, lists only 2 and is caught
    schedule, channel, _, symbols = _two_profile_round()
    table = group_table(3, 1)
    assert table.groups == ((1, 2), (1, 3), (2, 3))
    assert table.rank.tolist() == [[0, 1], [0, 2], [1, 2]]
    lost = replace(table, rank=table.rank[[0, 0, 2]])
    monkeypatch.setattr(delivery, "group_table", lambda num_profiles, index_size: lost)
    with pytest.raises(RuntimeError, match="transmits 2 groups, its 2 active profiles imply 3"):
        round_signals(channel, schedule, symbols, 1)


def test_served_users_cancel_and_decode():
    schedule, channel, demands, symbols = _two_profile_round()
    worst = 0.0
    for group in ((1, 2), (1, 3), (2, 3)):
        record = compose_signal(channel, schedule, 0, group, symbols)
        worst = max(worst, *verify_decode(record, channel, symbols).values())
    (rs,) = round_signals(channel, schedule, symbols, 1)
    assert decode_round(channel, rs) == pytest.approx(worst, abs=1e-12)
    assert worst < 1e-9
    assert coverage_check(schedule, 1) == []


def test_decode_failure_is_reported():
    # the transmitter sends user 14 a wrong symbol: user 14 misses its own
    # symbol, and profile 1's users cancel the true one from cache and miss too
    schedule, channel, demands, symbols = _two_profile_round()
    (rs,) = round_signals(channel, schedule, symbols, 1)
    sent = rs.messages.copy()
    sent[rs.users.index(14), rs.groups.index((1, 2))] += 1.0
    with pytest.raises(DecodeFailure, match=r"user 2 failed to decode in round 0, group \(1, 2\)"):
        decode_round(channel, replace(rs, signal=rs.precoder @ sent))
    # checking profile 2 alone, failures are named in transmission order:
    # group (1, 2) for user 18 comes before group (2, 3) for user 14
    sent = rs.messages.copy()
    sent[rs.users.index(14), rs.groups.index((2, 3))] += 1.0
    sent[rs.users.index(18), rs.groups.index((1, 2))] += 1.0
    profile_2 = replace(
        rs, signal=rs.precoder @ sent, intended=rs.intended & (rs.profiles == 2)[:, None]
    )
    with pytest.raises(DecodeFailure, match=r"user 18 failed .* group \(1, 2\): residual 1\.0"):
        decode_round(channel, profile_2)


def test_decode_failure_names_the_round():
    psets = {1: _singleton_partitions(2), 2: _singleton_partitions(1, first_user=5)}
    schedule = build_schedule(psets, 2)
    channel = draw_channels(_full_connectivity(6, 4), np.random.default_rng(14))
    symbols = np.array([[1 + 0j], [1j], [0], [0], [0], [-1 + 0j]])
    first, second = round_signals(channel, schedule, symbols, 1)
    assert decode_round(channel, first) < 1e-9
    sent = second.messages * 2.0
    with pytest.raises(DecodeFailure, match=r"user 1 failed to decode in round 1, group \(1, 2\)"):
        decode_round(channel, replace(second, signal=second.precoder @ sent))


def test_whole_schedule_verifies():
    schedule, channel, demands, symbols = _two_profile_round()
    assert verify_schedule(channel, schedule, demands, symbols, 1) < 1e-9


def test_coverage_flags_duplicate_delivery():
    # the same user twice violates the exact-cover contract and must be reported
    psets = {
        1: PartitionSet(partitions=(((0, 2),), ((0, 2),)), num_helpers=4),
        2: PartitionSet(partitions=(((1, 14),),), num_helpers=4),
    }
    schedule = build_schedule(psets, 2)
    assert coverage_check(schedule, 1) == [
        "user 2: served in 2 slots (round, profile): (0, 1), (1, 1)"
    ]


def test_coverage_flags_unneeded_delivery():
    # user 2 served under both profiles in one round gets, as a profile-1
    # user, an index that contains profile 2
    psets = {
        1: PartitionSet(partitions=(((0, 2),),), num_helpers=4),
        2: PartitionSet(partitions=(((1, 2),),), num_helpers=4),
    }
    schedule = build_schedule(psets, 2)
    assert coverage_check(schedule, 1) == [
        "user 2: served in 2 slots (round, profile): (0, 1), (0, 2)"
    ]


def _uniform_trial(num_profiles: int, per_profile: int, num_helpers: int = 4):
    num_users = num_profiles * per_profile
    conn = _full_connectivity(num_users, num_helpers)
    assignment = ProfileAssignment(
        profile_of=(np.arange(num_users) % num_profiles) + 1, num_profiles=num_profiles
    )
    gamma = 1.0 / num_profiles
    subnets = subnetworks_from_connectivity(conn, assignment)
    return conn, assignment, gamma, subnets


def test_full_connectivity_recovers_single_round_structure():
    # uniform profiles with exactly one partition each: one round, no padding
    conn, assignment, gamma, subnets = _uniform_trial(num_profiles=5, per_profile=4)
    psets = {p: greedy_assign(s) for p, s in subnets.items()}
    schedule = build_schedule(psets, 5)
    assert schedule.num_rounds == 1
    assert _profile_counts(schedule) == (1,) * 5
    assert count_transmissions(schedule, 1) == math.comb(5, 2)
    channel = draw_channels(conn, np.random.default_rng(9))
    demands = {k: k for k in range(conn.num_users)}
    symbols = draw_subfile_symbols(assignment, demands, 1, np.random.default_rng(10))
    (rs,) = round_signals(channel, schedule, symbols, 1)
    assert rs.groups == tuple(group for _, group, _ in enumerate_transmissions(schedule, 1))
    for group in rs.groups:
        blocks = _blocks(rs, group)
        assert tuple(blocks) == group
        for block in blocks.values():
            assert np.all(block != 0)  # full partitions leave nothing to pad
    time = delivery_time(count_transmissions(schedule, 1), 5, 1)
    assert sum_dof(conn.num_users, gamma, time) == 8.0


def test_uniform_closed_form_delivery_time():
    for per_round in (1, 2, 3):
        conn, assignment, gamma, subnets = _uniform_trial(num_profiles=10, per_profile=4 * per_round)
        for solver in (greedy_assign, lambda s: partitions_from_assignment(build_tables(s), bb_assign(build_tables(s)))):
            psets = {p: solver(s) for p, s in subnets.items()}
            schedule = build_schedule(psets, 10)
            n_tx = count_transmissions(schedule, 1)
            assert n_tx == per_round * math.comb(10, 2)
            time = delivery_time(n_tx, 10, 1)
            assert time == pytest.approx(per_round * math.comb(10, 2) / math.comb(10, 1))
            assert sum_dof(conn.num_users, gamma, time) == 8.0


def test_end_to_end_partial_connectivity_decodes():
    rng = np.random.default_rng(11)
    layout = hex_layout(4)
    users = sample_users(2.653, 2.7, rng)
    conn = connect(layout, users, 1.2)
    channel = draw_channels(conn, rng)
    assignment = assign_profiles(conn.num_users, 4, rng)
    subnets = subnetworks_from_connectivity(conn, assignment)
    psets = {}
    for profile, subnet in subnets.items():
        tables = build_tables(subnet)
        psets[profile] = partitions_from_assignment(tables, bb_assign(tables))
    schedule = build_schedule(psets, 4)
    demands = {k: k for k in range(conn.num_users)}
    symbols = draw_subfile_symbols(assignment, demands, 1, rng)
    assert verify_schedule(channel, schedule, demands, symbols, 1) < 1e-9
    assert coverage_check(schedule, 1) == []


@st.composite
def _small_trials(draw):
    """A random small topology with its partitions, channel and symbols."""
    num_helpers = draw(st.integers(1, 4))
    index_size = draw(st.integers(1, 2))
    num_profiles = draw(st.integers(index_size + 1, 5))
    masks = draw(st.lists(st.integers(1, (1 << num_helpers) - 1), max_size=14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = np.array(
        [[m >> h & 1 for m in masks] for h in range(num_helpers)], dtype=bool
    ).reshape(num_helpers, len(masks))
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(len(masks)))
    channel = draw_channels(conn, rng)
    assignment = assign_profiles(conn.num_users, num_profiles, rng)
    subnets = subnetworks_from_connectivity(conn, assignment)
    if draw(st.booleans()):
        psets = {p: greedy_assign(s) for p, s in subnets.items()}
    else:
        psets = {p: partitions_from_assignment(build_tables(s), bb_assign(build_tables(s))) for p, s in subnets.items()}
    schedule = build_schedule(psets, num_profiles)
    demands = {k: k for k in range(conn.num_users)}
    symbols = draw_subfile_symbols(assignment, demands, index_size, rng)
    return channel, schedule, demands, symbols, index_size


def _served_twice(schedule: RoundSchedule, later_round: bool) -> RoundSchedule:
    """Serve the first scheduled user again: in an added round under its own
    profile, or in its own round under another profile."""
    entries = schedule.rounds[0]
    profile = next(iter(entries))
    user = entries[profile][1][0]
    rounds = [dict(r) for r in schedule.rounds]
    if later_round:
        rounds.append({profile: ((0,), (user,))})
    else:
        other = profile % schedule.num_profiles + 1
        helpers, users = rounds[0].get(other, ((), ()))
        rounds[0][other] = (helpers + (0,), users + (user,))
    return replace(schedule, rounds=tuple(rounds))


def _users_named(problems: list[str]) -> set[int]:
    return {int(re.match(r"user (\d+):", problem).group(1)) for problem in problems}


@settings(max_examples=200, deadline=None)
@given(_small_trials())
def test_round_matrices_match_the_per_transmission_replay(trial):
    channel, schedule, demands, symbols, index_size = trial
    vectorized = verify_schedule(channel, schedule, demands, symbols, index_size)
    reference = replay_schedule(channel, schedule, symbols, index_size)
    assert abs(vectorized - reference) <= 1e-12
    assert max(vectorized, reference) < 1e-9
    assert coverage_check(schedule, index_size) == audit_deliveries(schedule, index_size) == []
    if schedule.num_rounds:
        for later_round in (True, False):
            mutated = _served_twice(schedule, later_round)
            named = _users_named(coverage_check(mutated, index_size))
            assert named and named == _users_named(audit_deliveries(mutated, index_size))
