import math
from fractions import Fraction

import numpy as np
import pytest

from helpercache.cache_placement import (
    CacheConfig,
    ConfigError,
    assign_profiles,
    cached_by,
    draw_subfile_symbols,
    ensure_valid,
    needed_subfiles,
    subfile_indices,
    validate,
)


def test_reference_config_is_valid():
    assert validate(CacheConfig(num_profiles=10, gamma=0.1)) == []


def test_small_config_at_the_cap():
    config = CacheConfig(num_profiles=3, gamma=1 / 3)
    assert validate(config) == []
    assert config.index_size == 1


def test_fractional_share_is_rejected():
    problems = validate(CacheConfig(num_profiles=10, gamma=0.15))
    assert len(problems) == 1
    assert "memory sharing" in problems[0]
    with pytest.raises(ConfigError):
        ensure_valid(CacheConfig(num_profiles=10, gamma=0.15))


def test_assign_profiles_empty_network():
    assignment = assign_profiles(0, 4, np.random.default_rng(0))
    assert assignment.num_users == 0
    assert assignment.counts().tolist() == [0, 0, 0, 0]


def test_single_profile_takes_everyone():
    assignment = assign_profiles(17, 1, np.random.default_rng(1))
    assert assignment.counts().tolist() == [17]
    assert set(assignment.profile_of.tolist()) == {1}


def test_profile_counts_concentrate():
    draws = 100_000
    assignment = assign_profiles(draws, 10, np.random.default_rng(2))
    stderr = math.sqrt(0.1 * 0.9 / draws)
    for count in assignment.counts():
        assert abs(count / draws - 0.1) < 3 * stderr


def test_assignment_deterministic():
    a = assign_profiles(100, 5, np.random.default_rng(3))
    b = assign_profiles(100, 5, np.random.default_rng(3))
    np.testing.assert_array_equal(a.profile_of, b.profile_of)


def test_indices_are_lexicographic():
    assert subfile_indices(3, 1) == [(1,), (2,), (3,)]
    assert subfile_indices(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(subfile_indices(10, 1)) == 10


def test_zero_index_size_degenerates():
    assert subfile_indices(5, 0) == [()]


def test_index_size_bounds_checked():
    with pytest.raises(ValueError):
        subfile_indices(3, 4)


def test_cache_membership():
    assert cached_by(2, (2,))
    assert not cached_by(1, (2,))
    assert cached_by(3, (1, 3))


def test_cached_fraction_equals_gamma_exactly():
    for num_profiles in range(2, 21):
        for t in range(1, num_profiles):
            indices = subfile_indices(num_profiles, t)
            held = sum(1 for s in indices if cached_by(1, s))
            assert Fraction(held, len(indices)) == Fraction(t, num_profiles)


def test_needed_subfiles_for_small_network():
    assert needed_subfiles(1, 3, 1) == [(2,), (3,)]
    assert needed_subfiles(2, 3, 1) == [(1,), (3,)]


def test_single_needed_subfile_when_caches_are_huge():
    assert needed_subfiles(4, 4, 3) == [(1, 2, 3)]


def test_needed_and_cached_partition_all_indices():
    for num_profiles, t in ((5, 2), (6, 3), (10, 1)):
        for profile in range(1, num_profiles + 1):
            everything = set(subfile_indices(num_profiles, t))
            needed = set(needed_subfiles(profile, num_profiles, t))
            held = {s for s in everything if cached_by(profile, s)}
            assert needed | held == everything
            assert not needed & held


def test_symbol_table_covers_every_needed_pair():
    rng = np.random.default_rng(4)
    assignment = assign_profiles(12, 3, rng)
    demands = {k: k for k in range(12)}
    symbols = draw_subfile_symbols(assignment, demands, 1, rng)
    for user in range(12):
        for index in needed_subfiles(int(assignment.profile_of[user]), 3, 1):
            assert (user, index) in symbols
    values = np.array(list(symbols.values()))
    assert np.mean(np.abs(values) ** 2) == pytest.approx(1.0, abs=0.35)
