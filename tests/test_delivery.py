import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delivery_reference import (
    RoundSchedule,
    RoundSignal,
    audit_deliveries,
    build_rounds,
    compose_signal,
    decode_round,
    enumerate_transmissions,
    group_table,
    precoder_matrix,
    replay_schedule,
    round_residuals,
    round_signals,
    served_pairs,
    verify_decode,
)
from helpercache import delivery
from helpercache.cache_placement import ProfileAssignment, assign_profiles, draw_subfile_symbols
from helpercache.delivery import (
    DECODE_TOLERANCE,
    DecodeFailure,
    ServedPairs,
    SingularChannelError,
    build_schedule,
    count_transmissions,
    coverage_check,
    decode_schedules,
    delivery_time,
    matched_precoders,
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


def _profile_counts(schedule: ServedPairs) -> tuple[int, ...]:
    """Rounds in which each profile 1..L is served."""
    return tuple(
        len(set(schedule.round[schedule.profile == p].tolist()))
        for p in range(1, schedule.num_profiles + 1)
    )


def _active(schedule: ServedPairs, round_index: int) -> set[int]:
    """The profiles served in a round of a one-schedule table."""
    return set(schedule.profile[schedule.round == round_index].tolist())


def _schedules(psets, num_profiles: int) -> tuple[ServedPairs, RoundSchedule]:
    """The library's table of `psets` and the reference's rounds of them."""
    return build_schedule(psets, num_profiles), build_rounds(psets, num_profiles)


def _slots(parts) -> ServedPairs:
    """A table with partition i as the only slot of schedule i."""
    return served_pairs([RoundSchedule(1, ({1: part},)) for part in parts])


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
    assert _active(schedule, 0) == {1, 2}
    assert _active(schedule, 2) == {1}


def test_schedule_empty_everywhere():
    schedule = build_schedule({}, 4)
    assert schedule.num_rounds == 0
    assert count_transmissions(schedule, 1) == 0


@pytest.mark.parametrize("num_profiles, index_size", [(2, 1), (4, 1), (5, 2), (3, 0)])
def test_empty_schedule_verifies_to_no_rows(num_profiles, index_size):
    schedule = build_schedule({}, num_profiles)
    width = math.comb(num_profiles - 1, index_size)
    channel, symbols = np.zeros((0, 4), dtype=complex), np.zeros((0, width), dtype=complex)
    worst = verify_schedule(channel, schedule, {}, symbols, index_size)
    assert worst == 0.0 and type(worst) is float
    assert coverage_check(schedule, index_size) == []
    assert matched_precoders(channel, schedule) == []
    assert precoder_matrix(channel, schedule).shape == (4, 0)
    assert decode_schedules(channel, schedule).shape == (0,)


def test_schedule_rejects_unknown_profiles():
    with pytest.raises(ValueError, match="unknown profile"):
        build_schedule({5: _singleton_partitions(1)}, 3)


def test_schedule_rejects_a_partition_without_users():
    with pytest.raises(ValueError, match="partition 1 of profile 2 serves no user"):
        build_schedule({2: PartitionSet(partitions=(((0, 0),), ()), num_helpers=4)}, 3)


@st.composite
def _partition_sets(draw):
    """Per-profile partition sets of random pairs, in random profile order, some empty."""
    num_profiles = draw(st.integers(1, 6))
    index_size = draw(st.integers(0, num_profiles - 1))
    pair = st.tuples(st.integers(0, 5), st.integers(0, 30))
    partitions = st.lists(st.lists(pair, min_size=1, max_size=3).map(tuple), max_size=4)
    psets = {
        p: PartitionSet(partitions=tuple(draw(partitions)), num_helpers=6)
        for p in draw(st.lists(st.integers(1, num_profiles), unique=True))
    }
    return psets, num_profiles, index_size


@settings(max_examples=200, deadline=None)
@given(_partition_sets())
@example(({}, 4, 1))
@example(({2: PartitionSet(partitions=(), num_helpers=6)}, 3, 2))
def test_schedule_table_is_the_flattened_rounds(case):
    # The table is, column for column, the reference's rounds flattened:
    # round by round, profiles ascending, pairs in partition order.
    psets, num_profiles, index_size = case
    schedule, rounds = _schedules(psets, num_profiles)
    expected = served_pairs([rounds])
    assert schedule.num_profiles == expected.num_profiles == num_profiles
    for name in ("schedule", "round", "profile", "helper", "user"):
        column = getattr(schedule, name)
        assert column.dtype == np.int32
        assert np.array_equal(column, getattr(expected, name)), name
    assert schedule.num_rounds == rounds.num_rounds
    enumerated = sum(1 for _ in enumerate_transmissions(rounds, index_size))
    assert count_transmissions(schedule, index_size) == enumerated


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
        schedule, rounds = _schedules(psets, num_profiles)
        enumerated = sum(1 for _ in enumerate_transmissions(rounds, index_size))
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
    slot = _slots([((0, 0), (1, 1), (2, 2), (3, 3))])
    ((_, (sub,), (inverse,)),) = matched_precoders(channel, slot)
    np.testing.assert_array_equal(sub, channel)
    np.testing.assert_allclose(channel @ inverse, np.eye(4), atol=1e-10)


def test_precoder_scalar_case():
    conn = Connectivity(adjacency=np.array([[True]]), reachable_users=np.arange(1))
    channel = draw_channels(conn, np.random.default_rng(3))
    ((_, _, inverse),) = matched_precoders(channel, _slots([((0, 0),)]))
    assert inverse.shape == (1, 1, 1)
    assert inverse[0, 0, 0] == pytest.approx(1 / channel[0, 0])


def test_precoder_identity_over_many_draws():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        conn = Connectivity(adjacency=np.ones((4, 4), dtype=bool), reachable_users=np.arange(4))
        channel = draw_channels(conn, rng)
        ((_, _, (inverse,)),) = matched_precoders(channel, _slots([tuple((h, h) for h in range(4))]))
        gap = np.abs(channel @ inverse - np.eye(4)).max()
        worst = max(worst, gap)
    assert worst < 1e-9


def test_batched_precoders_match_single_inverses():
    # The slots are grouped by size once, sizes in the order they first
    # occur.  Each slot of a size has its table rows, its matched channel
    # submatrix and that submatrix's inverse, bit for bit `inv` of it alone.
    channel = draw_channels(_full_connectivity(8, 4), np.random.default_rng(12))
    slots = [
        ((0, 0), (1, 1)),
        ((2, 2),),
        ((3, 3), (0, 4), (1, 5)),
        ((1, 6), (2, 7)),
        ((0, 5),),
        ((0, 4), (1, 5), (2, 6), (3, 7)),
    ]
    stacks = matched_precoders(channel, _slots(slots))
    assert [inverses.shape for _, _, inverses in stacks] == [(2, 2, 2), (2, 1, 1), (1, 3, 3), (1, 4, 4)]
    sent = {}
    for rows, subs, inverses in stacks:
        assert rows.shape == subs.shape[:2] and subs.shape == inverses.shape
        sent.update((int(r[0]), (r, a, q)) for r, a, q in zip(rows, subs, inverses))
    start = 0
    for helpers, users in (zip(*part) for part in slots):
        rows, sub, inverse = sent.pop(start)
        assert rows.tolist() == list(range(start, start + len(users)))
        np.testing.assert_array_equal(sub, channel[np.ix_(users, helpers)])
        # bit for bit the inverse of the slot's submatrix taken on its own
        np.testing.assert_array_equal(inverse, np.linalg.inv(channel[np.ix_(users, helpers)]))
        start += len(users)
    assert not sent


def test_precoders_of_stacked_trials_name_the_trial(monkeypatch):
    # two trials' channels and symbols stacked: the second trial's users start at row 3
    rng = np.random.default_rng(15)
    first, second = (draw_channels(_full_connectivity(k, 3), rng) for k in (3, 4))
    symbols = (rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1))) / math.sqrt(2)
    slots = [((0, 0), (1, 2)), ((2, 3), (0, 1)), ((1, 0),)]
    rows, both = np.array([0, 3, 3]), np.vstack([first, second])
    labels = ["seed 11, method bb", "seed 22, method bb", "seed 22, method greedy"]
    stacked = precoder_matrix(both, _slots(slots), rows)
    # the second trial's users 3, 1 and 0 are rows 6, 4 and 3
    (_, twos, _), (_, ones, _) = matched_precoders(both, _slots(slots), rows, labels)
    np.testing.assert_array_equal(twos, [both[np.ix_([0, 2], [0, 1])], both[np.ix_([6, 4], [2, 0])]])
    np.testing.assert_array_equal(ones, [both[np.ix_([3], [1])]])
    np.testing.assert_array_equal(stacked[:, :2], precoder_matrix(first, _slots(slots[:1])))
    np.testing.assert_array_equal(stacked[:, 2:], precoder_matrix(second, _slots(slots[1:])))
    # The decode reads the same rows of the stacked channel.
    decode = decode_schedules(both, _slots(slots), rows)
    alone = [
        decode_schedules(channel, _slots(part))
        for channel, part in ((first, slots[:1]), (second, slots[1:]))
    ]
    assert decode.tobytes() == np.concatenate(alone).tobytes()
    # The second trial's first round precoded twice too strong: H Q - I is
    # the identity there, an error of 1 for users 3 and 1.  The decode names
    # user 3, the first, with the trial's label; the replay misses there too.
    faulty = stacked.copy()
    faulty[:, 2:4] *= 2.0
    replayed = _replayed_failure(second, RoundSchedule(1, ({1: slots[1]},)), symbols[3:], 0, faulty[:, 2:4])
    assert replayed.startswith("user 3 failed to decode in round 0, group (1,)")
    with pytest.MonkeyPatch.context() as patch:
        _send_precoders(patch, faulty)
        with pytest.raises(DecodeFailure) as failure:
            decode_schedules(both, _slots(slots), rows, labels)
    assert str(failure.value) == (
        "user 3 failed to decode in round 0, profile 1: worst error 1.000e+00 (seed 22, method bb)"
    )
    # The second trial's slot of users 3 and 1 turns singular: the precoders
    # name it by its schedule's label, asked for alone or by the decode.
    second[[3, 1]] = second[[1, 1]]
    both = np.vstack([first, second])
    singular = (
        r"^channel submatrix for users \(3, 1\) on helpers \(2, 0\) is ill-conditioned "
        r"\(seed 22, method bb\)$"
    )
    with pytest.raises(SingularChannelError, match=singular):
        matched_precoders(both, _slots(slots), rows, labels)
    with pytest.raises(SingularChannelError, match=singular):
        decode_schedules(both, _slots(slots), rows, labels)


def test_stacked_decode_bounds_each_residual_by_its_own_symbol(monkeypatch):
    # The second trial's first round is precoded 1e-10 too strong, so its
    # slot errors |e_u|_1 are about 1e-10: within the tolerance, whatever
    # symbols it would carry.  With symbols 1000 times the first trial's,
    # the replay's residuals there are near 1e-7, and each is within its
    # user's error times the largest modulus of its own trial's symbols.
    rng = np.random.default_rng(15)
    channel = np.vstack([draw_channels(_full_connectivity(k, 3), rng) for k in (3, 4)])
    symbols = (rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1))) / math.sqrt(2)
    symbols[3:] *= 1000.0
    parts = [((0, 0), (1, 2)), ((2, 3), (0, 1))]
    pairs, rows = _slots(parts), np.array([0, 3])
    faulty = precoder_matrix(channel, pairs, rows)
    faulty[:, 2:] *= 1.0 + 1e-10
    _send_precoders(monkeypatch, faulty)
    errors = decode_schedules(channel, pairs, rows)
    assert errors[:2].max() < 1e-14 and 0.5e-10 < errors[2:].min() and errors[2:].max() < 2e-10
    second = RoundSchedule(1, ({1: parts[1]},))
    (rs,) = round_signals(channel[3:], second, symbols[3:], 0, faulty[:, 2:])
    replayed = round_residuals(channel[3:], rs)
    assert replayed.min() > 1e-8
    assert np.all(replayed <= errors[2:] * np.abs(symbols[3:]).max() + 1e-12)


def test_precoder_rejects_singular_submatrix():
    row = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    channel = np.vstack([row, row])
    with pytest.raises(SingularChannelError):
        matched_precoders(channel, _slots([((0, 0), (1, 1))]))


def test_precoder_rejects_structural_zero_on_diagonal():
    conn = Connectivity(adjacency=np.array([[True, False], [True, True]]), reachable_users=np.arange(2))
    channel = draw_channels(conn, np.random.default_rng(5))
    with pytest.raises(ValueError):
        matched_precoders(channel, _slots([((1, 0), (0, 1))]))


def _near_dependent_slot(condition: float) -> np.ndarray:
    """A 3 x 3 complex channel, its last row nearly the second, of condition number near `condition`."""
    rng = np.random.default_rng(0)
    channel = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / math.sqrt(2)
    offset = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(2)
    channel[2] = channel[1] + 5.56 / condition * offset  # cond 5.56e5 at an offset of 1e-5
    assert condition / 1.1 < np.linalg.cond(channel) < condition * 1.1
    return channel


@pytest.mark.parametrize("condition", [1e6, 1e8, 1e11, 1e13])
def test_one_verdict_at_the_conditioning_boundary(condition):
    # One slot of three users on three helpers, no symbols anywhere.  At
    # cond 1e6 the computed inverse leaves |e_u|_1 far within the tolerance;
    # at 1e8, 1e11 and 1e13 some row misses it, so the decode fails whatever
    # symbols would be sent.  No condition number is consulted: the slot
    # identity H Q = I is the one verdict on either side of 1e12.
    channel = _near_dependent_slot(condition)
    pairs = _slots([((0, 0), (1, 1), (2, 2))])
    identity = channel @ np.linalg.inv(channel) - np.eye(3)
    worst = np.abs(identity).sum(axis=1).max()
    if condition < 1e7:
        assert worst < DECODE_TOLERANCE / 5
        assert decode_schedules(channel, pairs).max() < DECODE_TOLERANCE / 5
    else:
        assert worst > DECODE_TOLERANCE
        with pytest.raises(DecodeFailure, match=r"^user \d failed to decode in round 0, profile 1: "):
            decode_schedules(channel, pairs)


@pytest.mark.parametrize("size", [2, 4])
def test_an_exact_inverse_decodes_at_any_condition(size):
    # diag(1, ..., 1, 1 / 3e12) has cond 3e12, yet its computed inverse
    # meets H Q = I with no error at all, so its users decode.
    channel = np.diag([1.0] * (size - 1) + [1.0 / 3e12]).astype(complex)
    assert np.linalg.cond(channel) > 1e12
    pairs = _slots([tuple((h, h) for h in range(size))])
    ((_, _, inverses),) = matched_precoders(channel, pairs)
    np.testing.assert_array_equal(inverses, [np.linalg.inv(channel)])
    assert not decode_schedules(channel, pairs).any()


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
    schedules = _schedules(psets, 3)
    conn = _full_connectivity(19, 4)
    channel = draw_channels(conn, np.random.default_rng(6))
    served = (2, 5, 8, 12, 14, 18)
    demands = {u: 100 + u for u in served}
    # row u: user u's two needed subfiles; unserved users' rows stay unread
    rng = np.random.default_rng(7)
    symbols = np.zeros((19, 2), dtype=complex)
    for user in served:
        symbols[user] = [complex(*rng.standard_normal(2)) for _ in range(2)]
    return schedules, channel, demands, symbols


def _checked_rounds(channel, schedules, symbols, index_size) -> list[RoundSignal]:
    """The replay's round matrices of a schedule that the library decodes.

    `schedules` is the table and the reference's rounds of one schedule.
    Each column must be the per-transmission replay's signal of the group
    it names.
    """
    schedule, rounds = schedules
    assert verify_schedule(channel, schedule, {}, symbols, index_size) < 1e-9
    signals = round_signals(channel, rounds, symbols, index_size)
    assert len(signals) == schedule.num_rounds == rounds.num_rounds
    for g, rs in enumerate(signals):
        groups = tuple(group for h, group, _ in enumerate_transmissions(rounds, index_size) if h == g)
        assert rs.groups == groups
        for j, group in enumerate(groups):
            reference = compose_signal(channel, rounds, g, group, symbols)
            np.testing.assert_allclose(rs.signal[:, j], reference.signal, atol=1e-12)
    return signals


def _send_precoders(patch, precoders):
    """Make the decode send the (E, rows) `precoders` in place of the table's
    own: each slot's inverse becomes its columns' entries on its helpers."""
    made = delivery.matched_precoders

    def sent(channel, pairs, *args):
        return [
            (rows, subs, precoders[pairs.helper[rows][:, :, None], rows[:, None, :]])
            for rows, subs, _ in made(channel, pairs, *args)
        ]

    patch.setattr(delivery, "matched_precoders", sent)


def _replayed_failure(channel, rounds, symbols, index_size, precoders) -> str:
    """The first decode failure of the round replay under `precoders`."""
    with pytest.raises(DecodeFailure) as failure:
        for rs in round_signals(channel, rounds, symbols, index_size, precoders):
            decode_round(channel, rs)
    return str(failure.value)


def _user_and_round(failure: str) -> tuple[int, int]:
    """The user and round a decode failure names."""
    return tuple(map(int, re.match(r"user (\d+) failed to decode in round (\d+), ", failure).groups()))


def _blocks(rs, group):
    """Per profile with symbols in the column of `group`: its zero-padded block P_p M_p there."""
    j = rs.groups.index(group)
    return {
        int(p): rs.precoder[:, rs.profiles == p] @ rs.messages[rs.profiles == p, j]
        for p in np.unique(rs.profiles[rs.messages[:, j] != 0])
    }


def test_zero_padding_leaves_unused_helpers_silent():
    schedules, channel, demands, symbols = _two_profile_round()
    (rs,) = _checked_rounds(channel, schedules, symbols, 1)
    assert list(_blocks(rs, (2, 3))) == [2]
    signal = rs.signal[:, rs.groups.index((2, 3))]
    assert signal[0] == 0 and signal[2] == 0
    assert signal[1] != 0 and signal[3] != 0
    reference = compose_signal(channel, schedules[1], 0, (2, 3), symbols)
    np.testing.assert_allclose(signal, reference.signal, atol=1e-12)


def test_signal_superposes_profile_blocks():
    schedules, channel, demands, symbols = _two_profile_round()
    (rs,) = _checked_rounds(channel, schedules, symbols, 1)
    for group, effective in (((1, 2), [1, 2]), ((1, 3), [1])):
        blocks = _blocks(rs, group)
        assert list(blocks) == effective
        signal = rs.signal[:, rs.groups.index(group)]
        np.testing.assert_allclose(signal, sum(blocks.values()), atol=1e-12)
        reference = compose_signal(channel, schedules[1], 0, group, symbols)
        for profile in effective:
            np.testing.assert_allclose(blocks[profile], reference.blocks[profile], atol=1e-12)


def test_group_without_active_profiles_is_skipped():
    psets = {1: _singleton_partitions(2), 2: PartitionSet(partitions=(), num_helpers=4)}
    conn = _full_connectivity(2, 4)
    channel = draw_channels(conn, np.random.default_rng(8))
    symbols = np.array([[1 + 0j], [1j]])
    # profile 2 never transmits; the only group is (1, 2) and stays active via profile 1
    signals = _checked_rounds(channel, _schedules(psets, 2), symbols, 1)
    assert [rs.messages.shape[1] for rs in signals] == [1, 1]
    assert [rs.groups for rs in signals] == [((1, 2),), ((1, 2),)]
    assert [list(_blocks(rs, (1, 2))) for rs in signals] == [[1], [1]]
    # with a third profile, the group of the two idle profiles sends nothing
    psets[3] = PartitionSet(partitions=(), num_helpers=4)
    symbols = np.array([[1 + 0j, 1 + 1j], [1j, -1j]])
    signals = _checked_rounds(channel, _schedules(psets, 3), symbols, 1)
    assert [rs.messages.shape[1] for rs in signals] == [2, 2]
    assert [rs.groups for rs in signals] == [((1, 2), (1, 3))] * 2


def test_rows_that_go_back_are_refused():
    # A round holding each active profile in one slot sends, by
    # construction, the C(L, t + 1) - C(L - a, t + 1) groups of its a slots.
    # A table holds one slot per (round, profile) because its rows never go
    # back in (schedule, round, profile).  Round 0 of profiles [1, 1, 2, 1,
    # 1, 3] would hold profile 1 in two slots, around profile 2's: at L = 4,
    # t = 1 its three slots imply C(4, 2) - C(1, 2) = 6 groups, but its two
    # profiles send C(4, 2) - C(2, 2) = 5.  It is refused where it is built,
    # as is a round or a schedule that goes back; with profile 4 in the
    # second slot, the same pairs verify.
    channel = draw_channels(_full_connectivity(6, 4), np.random.default_rng(13))
    assert group_table(4, 1).groups == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def table(profiles, rounds=(0, 0, 0, 0, 0, 1), schedules=(0,) * 6):
        columns = (schedules, rounds, profiles, [0, 1, 2, 2, 3, 0], list(range(6)))
        return ServedPairs(4, *(np.array(column, dtype=np.int32) for column in columns))

    pairs = table([1, 1, 2, 4, 4, 3])
    assert pairs.num_rounds == 2 and pairs.slot_starts.tolist() == [0, 2, 3, 5]
    assert decode_schedules(channel, pairs).max() < 1e-9
    # a new round, or a new schedule, may start again from any profile or round
    assert table([1, 1, 2, 4, 4, 3], schedules=(0, 0, 0, 1, 1, 1)).num_rounds == 3
    back = r"^row {} goes back in \(schedule, round, profile\), from \({}\) to \({}\)$"
    with pytest.raises(ValueError, match=back.format(3, "0, 0, 2", "0, 0, 1")):
        table([1, 1, 2, 1, 1, 3])
    with pytest.raises(ValueError, match=back.format(5, "0, 1, 4", "0, 0, 3")):
        table([1, 1, 2, 4, 4, 3], rounds=(0, 0, 1, 1, 1, 0))
    with pytest.raises(ValueError, match=back.format(5, "1, 0, 4", "0, 1, 3")):
        table([1, 1, 2, 4, 4, 3], schedules=(0, 0, 0, 1, 1, 0))


def test_served_users_cancel_and_decode():
    # Every residual of the per-transmission replay is within the worst slot
    # error times the largest symbol modulus, up to the replay's rounding.
    (schedule, rounds), channel, demands, symbols = _two_profile_round()
    worst = 0.0
    for group in ((1, 2), (1, 3), (2, 3)):
        record = compose_signal(channel, rounds, 0, group, symbols)
        worst = max(worst, *verify_decode(record, channel, symbols).values())
    error = verify_schedule(channel, schedule, demands, symbols, 1)
    assert worst <= error * np.abs(symbols).max() + 1e-12
    assert max(worst, error) < 1e-9
    assert coverage_check(schedule, 1) == []


def test_decode_failure_is_reported(monkeypatch):
    # User 14's precoder column sent twice too strong: user 14 hears twice
    # its own symbol and misses it.  Every other user's gain on that column
    # is zero, so only user 14 misses, first in group (1, 2).
    schedules, channel, demands, symbols = _two_profile_round()
    (schedule, rounds), (rs,) = schedules, _checked_rounds(channel, schedules, symbols, 1)
    faulty = precoder_matrix(channel, schedule)
    faulty[:, rs.users.index(14)] *= 2.0
    replayed = _replayed_failure(channel, rounds, symbols, 1, faulty)
    assert replayed.startswith("user 14 failed to decode in round 0, group (1, 2)")
    with pytest.MonkeyPatch.context() as patch:
        _send_precoders(patch, faulty)
        with pytest.raises(DecodeFailure) as failure:
            verify_schedule(channel, schedule, demands, symbols, 1)
    assert str(failure.value) == "user 14 failed to decode in round 0, profile 2: worst error 1.000e+00"
    assert _user_and_round(str(failure.value)) == _user_and_round(replayed)
    # A wrong symbol in what is sent, which only the replay composes: user
    # 14 misses its own symbol, and profile 1's users cancel the true one
    # from cache and miss too, user 2 first.
    wrong = rs.users.index(14), rs.groups.index((1, 2))
    messages = rs.messages.copy()
    messages[wrong] += 1.0
    with pytest.raises(DecodeFailure, match=r"^user 2 failed to decode in round 0, group \(1, 2\)"):
        decode_round(channel, replace(rs, signal=rs.precoder @ messages))


def test_decode_failure_names_the_first_failing_row(monkeypatch):
    # One round of L = 4 with profiles 2 (users 0, 1) and 3 (users 2, 3)
    # active sends (1, 2), (1, 3), (2, 3), (2, 4) and (3, 4).  Users 3 and 0
    # are precoded twice too strong: their errors are 1, the others' only
    # rounding, and the replay, whose symbols are all nonzero, misses with
    # exactly those two users, each residual within its error times the
    # largest symbol.  The decode names the first of them in transmission
    # order, row 0: user 0 of profile 2.
    idle = PartitionSet(partitions=(), num_helpers=4)
    psets = {
        1: idle,
        2: PartitionSet(partitions=(((0, 0), (1, 1)),), num_helpers=4),
        3: PartitionSet(partitions=(((2, 2), (3, 3)),), num_helpers=4),
        4: idle,
    }
    schedule, rounds = _schedules(psets, 4)
    channel = draw_channels(_full_connectivity(4, 4), np.random.default_rng(15))
    rng = np.random.default_rng(16)
    symbols = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    (rs,) = _checked_rounds(channel, (schedule, rounds), symbols, 1)
    assert rs.users == (0, 1, 2, 3)
    assert rs.groups == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    faulty = precoder_matrix(channel, schedule)
    faulty[:, [3, 0]] *= 2.0
    (wrong,) = round_signals(channel, rounds, symbols, 1, faulty)
    replayed = round_residuals(channel, wrong).reshape(4, 3)  # three needed indices a user
    bound = DECODE_TOLERANCE * (np.abs(symbols) + 1.0)
    assert np.flatnonzero((replayed >= bound).any(axis=1)).tolist() == [0, 3]
    _send_precoders(monkeypatch, faulty)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delivery, "DECODE_TOLERANCE", math.inf)
        errors = decode_schedules(channel, schedule)
    assert np.flatnonzero(errors > DECODE_TOLERANCE).tolist() == [0, 3]
    assert np.all(replayed <= errors[:, None] * np.abs(symbols).max() + 1e-12)
    with pytest.raises(DecodeFailure) as failure:
        verify_schedule(channel, schedule, {}, symbols, 1)
    assert str(failure.value) == "user 0 failed to decode in round 0, profile 2: worst error 1.000e+00"


def test_error_is_the_row_one_norm_of_h_q_minus_i(monkeypatch):
    # A 2-user slot sent Q M in place of Q hears H Q M = M, so its rows of
    # H Q - I are those of M - I: |0.5| + |0.25i| = 0.75 and |-0.5| + 0 = 0.5.
    channel = draw_channels(_full_connectivity(2, 3), np.random.default_rng(21))
    pairs = _slots([((2, 0), (0, 1))])
    mixing = np.array([[1.5, 0.25j], [-0.5, 1.0]])
    _send_precoders(monkeypatch, precoder_matrix(channel, pairs) @ mixing)
    first = r"^user 0 failed to decode in round 0, profile 1: worst error 7\.500e-01$"
    with pytest.raises(DecodeFailure, match=first):
        decode_schedules(channel, pairs)
    monkeypatch.setattr(delivery, "DECODE_TOLERANCE", math.inf)
    np.testing.assert_allclose(decode_schedules(channel, pairs), [0.75, 0.5], rtol=0, atol=1e-12)


def test_decode_failure_names_the_round(monkeypatch):
    psets = {1: _singleton_partitions(2), 2: _singleton_partitions(1, first_user=5)}
    schedule = build_schedule(psets, 2)
    channel = draw_channels(_full_connectivity(6, 4), np.random.default_rng(14))
    symbols = np.array([[1 + 0j], [1j], [0], [0], [0], [-1 + 0j]])
    demands = {u: u for u in range(6)}
    assert verify_schedule(channel, schedule, demands, symbols, 1) < 1e-9
    # round 1 serves user 1 alone, in the table's last row; precoded twice
    # too strong, it misses there
    faulty = precoder_matrix(channel, schedule)
    faulty[:, 2] *= 2.0
    replayed = _replayed_failure(channel, build_rounds(psets, 2), symbols, 1, faulty)
    assert replayed.startswith("user 1 failed to decode in round 1, group (1, 2)")
    _send_precoders(monkeypatch, faulty)
    with pytest.raises(DecodeFailure) as failure:
        verify_schedule(channel, schedule, demands, symbols, 1)
    assert str(failure.value) == "user 1 failed to decode in round 1, profile 1: worst error 1.000e+00"
    assert _user_and_round(str(failure.value)) == _user_and_round(replayed)


def test_whole_schedule_verifies():
    (schedule, _), channel, demands, symbols = _two_profile_round()
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
    schedule, rounds = _schedules(psets, 5)
    assert schedule.num_rounds == 1
    assert _profile_counts(schedule) == (1,) * 5
    assert count_transmissions(schedule, 1) == math.comb(5, 2)
    channel = draw_channels(conn, np.random.default_rng(9))
    demands = {k: k for k in range(conn.num_users)}
    symbols = draw_subfile_symbols(assignment, demands, 1, np.random.default_rng(10))
    (rs,) = _checked_rounds(channel, (schedule, rounds), symbols, 1)
    assert rs.messages.shape[1] == math.comb(5, 2)
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


def _draw_trial(draw, num_helpers, num_profiles, index_size, methods):
    """A random small topology with a schedule per method, its channel and symbols.

    Each schedule is its table and the reference's rounds.
    """
    masks = draw(st.lists(st.integers(1, (1 << num_helpers) - 1), max_size=14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = np.array(
        [[m >> h & 1 for m in masks] for h in range(num_helpers)], dtype=bool
    ).reshape(num_helpers, len(masks))
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(len(masks)))
    channel = draw_channels(conn, rng)
    assignment = assign_profiles(conn.num_users, num_profiles, rng)
    subnets = subnetworks_from_connectivity(conn, assignment)
    schedules = []
    for greedy in methods:
        if greedy:
            psets = {p: greedy_assign(s) for p, s in subnets.items()}
        else:
            psets = {p: partitions_from_assignment(build_tables(s), bb_assign(build_tables(s))) for p, s in subnets.items()}
        schedules.append(_schedules(psets, num_profiles))
    demands = {k: k for k in range(conn.num_users)}
    symbols = draw_subfile_symbols(assignment, demands, index_size, rng)
    return channel, schedules, demands, symbols


@st.composite
def _small_trials(draw):
    """A random small topology with its partitions, channel and symbols."""
    num_helpers = draw(st.integers(1, 4))
    index_size = draw(st.integers(1, 2))
    num_profiles = draw(st.integers(index_size + 1, 5))
    methods = [draw(st.booleans())]
    channel, (schedule,), demands, symbols = _draw_trial(draw, num_helpers, num_profiles, index_size, methods)
    return channel, schedule, demands, symbols, index_size


@st.composite
def _small_chunks(draw):
    """Trials of one network size with zero to two schedules each, some without users."""
    num_helpers = draw(st.integers(1, 4))
    index_size = draw(st.integers(1, 2))
    num_profiles = draw(st.integers(index_size + 1, 5))
    trials = [
        _draw_trial(draw, num_helpers, num_profiles, index_size, draw(st.lists(st.booleans(), max_size=2)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return index_size, num_profiles, [(channel, own, symbols) for channel, own, _, symbols in trials]


_EMPTY_TRIAL = (np.zeros((0, 2), dtype=complex), [_schedules({}, 3)], np.zeros((0, 2), dtype=complex))


def _stacked(chunk):
    """A chunk's stacked channel, and per schedule its channel, rounds, symbols and first row."""
    index_size, num_profiles, trials = chunk
    firsts = np.cumsum([0] + [channel.shape[0] for channel, _, _ in trials])
    stacked = np.concatenate([channel for channel, _, _ in trials])
    runs = [
        (channel, rounds, symbols, first)
        for first, (channel, own, symbols) in zip(firsts.tolist(), trials)
        for _, rounds in own
    ]
    schedules = [rounds for _, rounds, _, _ in runs]
    first_rows = np.array([first for *_, first in runs], dtype=np.intp)
    pairs = served_pairs(schedules) if runs else build_schedule({}, num_profiles)
    return stacked, pairs, first_rows, runs


@settings(max_examples=100, deadline=None)
@given(_small_chunks())
@example((1, 3, [_EMPTY_TRIAL]))  # a chunk without a round
@example((1, 3, [_EMPTY_TRIAL[:1] + ([],) + _EMPTY_TRIAL[2:]]))  # and without a schedule
def test_chunk_decode_matches_the_round_replay(chunk):
    # One call over the schedules of several trials, their channels stacked,
    # gives each served user's error |e_u|_1: within 1e-12 its row sum of
    # |H Q - I| over its own slot in the per-round replay's matrices, each
    # schedule on its own trial's rows of the stacked channel and its own
    # columns of the chunk's precoders.  Every intended residual the replay
    # decodes from its symbols S is at most that error times max |S| of its
    # trial, plus 1e-12 for the replay's rounding: it cancels the other
    # profiles' blocks in floating point.
    index_size, num_profiles, _ = chunk
    stacked, pairs, first_rows, runs = _stacked(chunk)
    precoders = precoder_matrix(stacked, pairs, first_rows)
    errors = decode_schedules(stacked, pairs, first_rows)
    width = math.comb(num_profiles - 1, index_size)
    assert errors.shape == (len(pairs),)
    start = 0
    for channel, rounds, own_symbols, _ in runs:
        stop = start + len(served_pairs([rounds]))
        for rs in round_signals(channel, rounds, own_symbols, index_size, precoders[:, start:stop]):
            rows = slice(start, start + len(rs.users))
            own_slot = rs.profiles[:, None] == rs.profiles[None, :]
            identity = channel[list(rs.users)] @ rs.precoder - np.eye(len(rs.users))
            assert np.abs(errors[rows] - np.abs(identity * own_slot).sum(axis=1)).max() <= 1e-12
            replayed = round_residuals(channel, rs).reshape(-1, width)
            assert replayed.max() == decode_round(channel, rs)
            largest = np.abs(own_symbols).max()
            assert np.all(replayed <= errors[rows, None] * largest + 1e-12)
            start = rows.stop
        assert start == stop
    assert start == len(pairs)
    assert errors.max(initial=0.0) <= DECODE_TOLERANCE


@settings(max_examples=100, deadline=None)
@given(_small_chunks())
@example((1, 3, [_EMPTY_TRIAL]))  # a chunk without a round
@example((1, 3, [_EMPTY_TRIAL[:1] + ([],) + _EMPTY_TRIAL[2:]]))  # and without a schedule
def test_schedule_residuals_do_not_depend_on_the_chunk(chunk):
    # Each schedule's errors, bit for bit, whether it is decoded alone or
    # stacked with other trials' schedules and other slot sizes: a verified
    # chunk leaves out a repeated schedule on this ground.
    stacked, pairs, first_rows, runs = _stacked(chunk)
    errors = decode_schedules(stacked, pairs, first_rows)
    start = 0
    for channel, rounds, _, _ in runs:
        alone = decode_schedules(channel, served_pairs([rounds]))
        assert alone.tobytes() == errors[start : start + len(alone)].tobytes()
        start += len(alone)
    assert start == len(errors)


def _served_twice(schedule: RoundSchedule, later_round: bool) -> RoundSchedule:
    """Serve the first scheduled user again: in an added round under its own
    profile, or in its own round under another profile."""
    entries = schedule.rounds[0]
    profile = next(iter(entries))
    user = entries[profile][0][1]
    rounds = [dict(r) for r in schedule.rounds]
    if later_round:
        rounds.append({profile: ((0, user),)})
    else:
        other = profile % schedule.num_profiles + 1
        rounds[0][other] = rounds[0].get(other, ()) + ((0, user),)
    return replace(schedule, rounds=tuple(rounds))


def _users_named(problems: list[str]) -> set[int]:
    return {int(re.match(r"user (\d+):", problem).group(1)) for problem in problems}


@settings(max_examples=200, deadline=None)
@given(_small_trials())
def test_round_matrices_match_the_per_transmission_replay(trial):
    channel, (schedule, rounds), demands, symbols, index_size = trial
    # The replay's worst residual is within the worst slot error times the
    # largest symbol modulus, up to its rounding.
    vectorized = verify_schedule(channel, schedule, demands, symbols, index_size)
    reference = replay_schedule(channel, rounds, symbols, index_size)
    assert reference <= vectorized * np.abs(symbols).max(initial=0.0) + 1e-12
    assert max(vectorized, reference) < 1e-9
    assert coverage_check(schedule, index_size) == audit_deliveries(rounds, index_size) == []
    if rounds.num_rounds:
        for later_round in (True, False):
            mutated = _served_twice(rounds, later_round)
            named = _users_named(coverage_check(served_pairs([mutated]), index_size))
            assert named and named == _users_named(audit_deliveries(mutated, index_size))
