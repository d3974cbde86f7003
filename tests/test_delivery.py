import math
from itertools import combinations

import numpy as np
import pytest

from helpercache.cache_placement import ProfileAssignment, assign_profiles, draw_subfile_symbols
from helpercache.delivery import (
    DecodeFailure,
    SingularChannelError,
    build_precoder,
    build_schedule,
    compose_signal,
    count_transmissions,
    coverage_check,
    delivery_time,
    enumerate_transmissions,
    sum_dof,
    verify_decode,
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
    ChannelMatrix,
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
        radius=math.inf,
        reachable_users=np.arange(num_users),
    )


def test_schedule_orders_partitions_and_counts_idle():
    psets = {
        1: _singleton_partitions(3, first_user=0),
        2: _singleton_partitions(2, first_user=10),
        3: PartitionSet(partitions=(), num_helpers=4),
    }
    schedule = build_schedule(psets, 3)
    assert schedule.num_rounds == 3
    assert schedule.idle_counts == (1, 1, 2)
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
    assert schedule.idle_counts == (1,)
    assert count_transmissions(schedule, 1) == 3  # C(3,2) - C(1,2)


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


def test_delivery_time_examples():
    assert delivery_time(0, 10, 1) == 0.0
    assert delivery_time(45, 10, 1) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        delivery_time(-1, 10, 1)


def test_sum_dof_examples():
    assert sum_dof(40, 0.1, 4.5) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        sum_dof(5, 0.1, 0.0)


def _example_channel(rng: np.random.Generator) -> ChannelMatrix:
    # rows: the four matched users; candidate sets {e1}, {e1,e2}, {e1,e2,e3}, {e2,e4}
    adjacency = np.array(
        [
            [True, True, True, False],
            [False, True, True, True],
            [False, False, True, False],
            [False, False, False, True],
        ]
    )
    conn = Connectivity(adjacency=adjacency, radius=1.0, reachable_users=np.arange(4))
    return draw_channels(conn, rng)


def test_diagonal_matching_precoder_closed_form():
    # Hand-built zero-forcing vector for the staircase support pattern: each
    # user k then hears exactly its own message scaled by its matched gain.
    rng = np.random.default_rng(1)
    h = _example_channel(rng).coefficients
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
    inverse = build_precoder(channel, helpers=(0, 1, 2, 3), users=(0, 1, 2, 3))
    sub = channel.coefficients
    np.testing.assert_allclose(sub @ inverse, np.eye(4), atol=1e-10)


def test_precoder_scalar_case():
    conn = Connectivity(adjacency=np.array([[True]]), radius=1.0, reachable_users=np.arange(1))
    channel = draw_channels(conn, np.random.default_rng(3))
    inverse = build_precoder(channel, helpers=(0,), users=(0,))
    assert inverse[0, 0] == pytest.approx(1 / channel.coefficients[0, 0])


def test_precoder_identity_over_many_draws():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        conn = Connectivity(
            adjacency=np.ones((4, 4), dtype=bool), radius=2.0, reachable_users=np.arange(4)
        )
        channel = draw_channels(conn, rng)
        inverse = build_precoder(channel, (0, 1, 2, 3), (0, 1, 2, 3))
        gap = np.abs(channel.coefficients @ inverse - np.eye(4)).max()
        worst = max(worst, gap)
    assert worst < 1e-9


def test_precoder_rejects_singular_submatrix():
    row = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    channel = ChannelMatrix(coefficients=np.vstack([row, row]))
    with pytest.raises(SingularChannelError):
        build_precoder(channel, (0, 1), (0, 1))


def test_precoder_rejects_structural_zero_on_diagonal():
    conn = Connectivity(adjacency=np.array([[True, False], [True, True]]), radius=1.0, reachable_users=np.arange(2))
    channel = draw_channels(conn, np.random.default_rng(5))
    with pytest.raises(ValueError):
        build_precoder(channel, (1, 0), (0, 1))


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
    rng = np.random.default_rng(7)
    symbols = {}
    for user in (2, 5, 8, 12):
        for index in ((2,), (3,)):
            symbols[(demands[user], index)] = complex(*rng.standard_normal(2))
    for user in (14, 18):
        for index in ((1,), (3,)):
            symbols[(demands[user], index)] = complex(*rng.standard_normal(2))
    return schedule, channel, demands, symbols


def test_zero_padding_leaves_unused_helpers_silent():
    schedule, channel, demands, symbols = _two_profile_round()
    record = compose_signal(channel, schedule, 0, (2, 3), demands, symbols)
    assert record.effective == (2,)
    assert record.signal[0] == 0 and record.signal[2] == 0
    assert record.signal[1] != 0 and record.signal[3] != 0


def test_signal_superposes_profile_blocks():
    schedule, channel, demands, symbols = _two_profile_round()
    record = compose_signal(channel, schedule, 0, (1, 2), demands, symbols)
    assert record.effective == (1, 2)
    np.testing.assert_allclose(record.signal, record.blocks[1] + record.blocks[2], atol=1e-12)
    solo = compose_signal(channel, schedule, 0, (1, 3), demands, symbols)
    assert solo.effective == (1,)
    np.testing.assert_allclose(solo.signal, solo.blocks[1], atol=1e-12)


def test_group_without_active_profiles_is_skipped():
    psets = {1: _singleton_partitions(2), 2: PartitionSet(partitions=(), num_helpers=4)}
    schedule = build_schedule(psets, 2)
    conn = _full_connectivity(2, 4)
    channel = draw_channels(conn, np.random.default_rng(8))
    demands = {0: 0, 1: 1}
    symbols = {(0, (2,)): 1 + 0j, (1, (2,)): 1j}
    # profile 2 never transmits; the only group is (1, 2) and stays active via profile 1
    record = compose_signal(channel, schedule, 0, (1, 2), demands, symbols)
    assert record.effective == (1,)


def test_served_users_cancel_and_decode():
    schedule, channel, demands, symbols = _two_profile_round()
    for group in ((1, 2), (1, 3), (2, 3)):
        record = compose_signal(channel, schedule, 0, group, demands, symbols)
        residuals = verify_decode(record, channel, demands, symbols)
        assert max(residuals.values()) < 1e-9
    assert coverage_check(schedule, 1) == []


def test_decode_failure_is_reported():
    schedule, channel, demands, symbols = _two_profile_round()
    record = compose_signal(channel, schedule, 0, (1, 2), demands, symbols)
    corrupted = {k: v for k, v in symbols.items()}
    corrupted[(demands[14], (1,))] += 1.0
    with pytest.raises(DecodeFailure, match="user 14"):
        verify_decode(record, channel, demands, corrupted)


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
    problems = coverage_check(schedule, 1)
    assert any("user 2" in p and "2 times" in p for p in problems)


def test_coverage_flags_unneeded_delivery():
    # user 2 served under both profiles is audited as profile 2, and the
    # indices it got as a profile-1 user contain its own profile
    psets = {
        1: PartitionSet(partitions=(((0, 2),),), num_helpers=4),
        2: PartitionSet(partitions=(((1, 2),),), num_helpers=4),
    }
    schedule = build_schedule(psets, 2)
    assert coverage_check(schedule, 1) == ["user 2: unneeded index (2,) delivered"]


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
    assert schedule.idle_counts == (0,)
    assert count_transmissions(schedule, 1) == math.comb(5, 2)
    channel = draw_channels(conn, np.random.default_rng(9))
    demands = {k: k for k in range(conn.num_users)}
    symbols = draw_subfile_symbols(assignment, demands, 1, np.random.default_rng(10))
    for g, group, _ in enumerate_transmissions(schedule, 1):
        record = compose_signal(channel, schedule, g, group, demands, symbols)
        assert record.effective == group
        for block in record.blocks.values():
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
